"""The experiment service: schemas, queue, worker loop, HTTP surface."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ExperimentService,
    JobQueue,
    QueueClosed,
    QueueFull,
    ServiceClient,
    ServiceError,
)
from repro.service.schemas import (
    RequestError,
    normalize_request,
    request_fingerprint,
)
from repro.service.worker import ServiceWorker, execute_request


# -- schemas ---------------------------------------------------------------


class TestNormalizeRequest:
    def test_table_fills_defaults(self):
        doc = normalize_request({"kind": "table", "table": "table6"})
        assert doc == {"kind": "table", "table": "table6",
                       "scale": "default", "opt": "none"}

    def test_explain_fills_cli_defaults(self):
        doc = normalize_request({"kind": "explain", "workload": "wc"})
        assert doc["cache_bytes"] == 2048
        assert doc["block_bytes"] == 64
        assert doc["assoc"] == 1
        assert doc["layout"] == "optimized"
        assert doc["baseline"] == "natural"
        assert doc["top"] == 10
        assert doc["scale"] == "small"

    def test_tune_sorts_workloads_and_orders_axes(self):
        doc = normalize_request({
            "kind": "tune", "workloads": ["wc", "cmp"],
            "axes": ["cache_bytes", "block_bytes"],
        })
        assert doc["workloads"] == ["cmp", "wc"]
        # Axes normalize to design-space declaration order.
        from repro.search import default_space

        order = [name for name in default_space().names
                 if name in ("cache_bytes", "block_bytes")]
        assert doc["axes"] == order

    @pytest.mark.parametrize("bad", [
        None,
        [],
        {"kind": "nope"},
        {"kind": "table", "table": "table99"},
        {"kind": "table", "table": "table6", "scale": "huge"},
        {"kind": "explain", "workload": "wc", "cache_bytes": 3},
        {"kind": "explain", "workload": "wc", "assoc": "two"},
        {"kind": "explain", "workload": "nope"},
        {"kind": "tune", "budget": 100000},
        {"kind": "tune", "workloads": []},
        {"kind": "tune", "workloads": ["wc", "wc"]},
        {"kind": "tune", "workloads": ["nope"]},
        {"kind": "tune", "axes": ["bogus_axis"]},
        {"kind": "explain", "workload": "wc", "top": True},
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(RequestError):
            normalize_request(bad)

    @pytest.mark.parametrize("geometry", [
        {"assoc": 3},
        {"cache_bytes": 3000},
        {"block_bytes": 4096, "cache_bytes": 64},
        {"assoc": 64},              # 2 KB / 64 B holds 32 blocks
    ], ids=["assoc-3", "cache-3000", "block-over-cache", "assoc-64"])
    def test_rejects_invalid_explain_geometry(self, geometry):
        with pytest.raises(RequestError):
            normalize_request({"kind": "explain", "workload": "wc",
                               **geometry})

    def test_fingerprint_ignores_spelling(self):
        minimal = normalize_request({"kind": "table", "table": "table6"})
        spelled = normalize_request(
            {"scale": "default", "table": "table6", "kind": "table"}
        )
        assert request_fingerprint(minimal) == request_fingerprint(spelled)

    def test_fingerprint_separates_requests(self):
        a = normalize_request({"kind": "table", "table": "table6"})
        b = normalize_request({"kind": "table", "table": "table7"})
        assert request_fingerprint(a) != request_fingerprint(b)


# -- queue -----------------------------------------------------------------


def _req(name="table6"):
    return {"kind": "table", "table": name, "scale": "small"}


class TestJobQueue:
    def test_submit_claim_finish_lifecycle(self):
        queue = JobQueue(depth=4)
        ticket, outcome = queue.submit(_req(), "fp-1")
        assert outcome == "created" and ticket.state == "queued"
        claimed = queue.claim(timeout=1.0)
        assert claimed is ticket and claimed.state == "running"
        queue.finish(claimed, result={"output": "x"})
        assert queue.get(ticket.id).state == "done"
        assert queue.get(ticket.id).result == {"output": "x"}

    def test_coalesces_identical_inflight(self):
        queue = JobQueue(depth=4)
        first, outcome_first = queue.submit(_req(), "fp-same")
        second, outcome_second = queue.submit(_req(), "fp-same")
        assert (outcome_first, outcome_second) == ("created", "coalesced")
        assert second is first and first.coalesced == 1
        # A different fingerprint gets its own ticket.
        other, outcome_other = queue.submit(_req("table7"), "fp-other")
        assert outcome_other == "created" and other is not first

    def test_finished_tickets_not_coalesced_onto(self):
        queue = JobQueue(depth=4)
        first, _ = queue.submit(_req(), "fp-warm")
        queue.finish(queue.claim(timeout=1.0), result={})
        again, outcome = queue.submit(_req(), "fp-warm")
        assert outcome == "created" and again is not first

    def test_backpressure_past_depth(self):
        queue = JobQueue(depth=2)
        queue.submit(_req("table1"), "fp-a")
        queue.submit(_req("table2"), "fp-b")
        with pytest.raises(QueueFull) as info:
            queue.submit(_req("table3"), "fp-c")
        assert info.value.retry_after_s >= 1.0
        # Running tickets still count against depth...
        queue.claim(timeout=1.0)
        with pytest.raises(QueueFull):
            queue.submit(_req("table3"), "fp-c")
        # ...until one finishes.
        queue.finish(queue.claim(timeout=1.0), result={})
        ticket, outcome = queue.submit(_req("table3"), "fp-c")
        assert outcome == "created" and ticket.state == "queued"

    def test_closed_queue_rejects_but_drains(self):
        queue = JobQueue(depth=4)
        queue.submit(_req(), "fp-1")
        queue.close()
        with pytest.raises(QueueClosed):
            queue.submit(_req("table7"), "fp-2")
        ticket = queue.claim(timeout=1.0)
        assert ticket is not None       # accepted work stays claimable
        assert not queue.drained(timeout=0.05)
        queue.finish(ticket, result={})
        assert queue.drained(timeout=1.0)
        assert queue.claim(timeout=0.05) is None

    def test_failed_outcome_recorded(self):
        queue = JobQueue(depth=4)
        queue.submit(_req(), "fp-1")
        queue.finish(queue.claim(timeout=1.0), error="boom")
        doc = queue.get("job-000001").status_doc()
        assert doc["state"] == "failed" and doc["error"] == "boom"


# -- worker (stub executor: no engine work) --------------------------------


def _run_worker(queue, registry, executor):
    worker = ServiceWorker(queue, registry, executor=executor)
    worker.start()
    return worker


class TestServiceWorker:
    def test_serves_ticket_and_builds_receipt(self):
        queue = JobQueue(depth=4)
        registry = MetricsRegistry()

        def executor(request, telemetry, **_kwargs):
            # The receipt lists the keys of the run's records, in order
            # and de-duplicated; a record without a store has none.
            for key in ("k2", "k1", "k2", None):
                telemetry.record(job_id="artifacts", kind="artifacts",
                                 wall_s=0.0, key=key)
            return {"output": "rendered", "detail": {"extra": 1}}

        worker = _run_worker(queue, registry, executor)
        request = normalize_request({"kind": "table", "table": "table6",
                                     "scale": "small"})
        ticket, _ = queue.submit(request, request_fingerprint(request))
        queue.close()
        assert queue.drained(timeout=5.0)
        worker.join(timeout=5.0)

        assert ticket.state == "done"
        assert ticket.result["output"] == "rendered"
        receipt = ticket.result["receipt"]
        assert receipt["fingerprint"] == ticket.fingerprint
        assert receipt["kind"] == "table"
        assert receipt["store"]["keys"] == ["k2", "k1"]
        assert registry.counter_values()["service.requests"] == 1
        assert registry.counter_values()["service.completed"] == 1

    def test_failure_becomes_failed_ticket_not_crash(self):
        queue = JobQueue(depth=4)
        registry = MetricsRegistry()

        def executor(request, **_kwargs):
            raise RuntimeError("engine exploded")

        worker = _run_worker(queue, registry, executor)
        request = normalize_request({"kind": "table", "table": "table6"})
        ticket, _ = queue.submit(request, request_fingerprint(request))
        queue.close()
        assert queue.drained(timeout=5.0)
        worker.join(timeout=5.0)

        assert ticket.state == "failed"
        assert "engine exploded" in ticket.error
        assert registry.counter_values()["service.failed"] == 1


def test_execute_request_tune_small(tmp_path):
    """A real (tiny) tune request runs through the search layer."""
    request = normalize_request({
        "kind": "tune", "budget": 2, "workloads": ["wc"],
        "axes": ["cache_bytes"], "scale": "small",
    })
    body = execute_request(request, cache_dir=str(tmp_path))
    assert "Pareto" in body["output"] or "pareto" in body["output"].lower()
    assert body["detail"]["trials"] == 2


@pytest.mark.parametrize("request_doc,created", [
    ({"kind": "explain", "workload": "cmp", "scale": "small"}, 1),
    ({"kind": "explain", "workload": "cmp", "scale": "small",
      "opt": "dce"}, 2),
    ({"kind": "tune", "strategy": "grid", "budget": 3,
      "workloads": ["cmp"], "axes": ["opt"], "scale": "small"}, 3),
], ids=["none", "dce", "tune"])
def test_receipt_keys_are_the_entries_created(tmp_path, request_doc,
                                              created):
    """A served receipt lists exactly the store entries its run made."""
    from repro.engine.store import ArtifactStore

    queue = JobQueue(depth=4)
    worker = ServiceWorker(queue, MetricsRegistry(), cache_dir=str(tmp_path))
    worker.start()
    request = normalize_request(request_doc)
    ticket, _ = queue.submit(request, request_fingerprint(request))
    queue.close()
    assert queue.drained(timeout=120.0)
    worker.join(timeout=5.0)

    assert ticket.state == "done"
    keys = ticket.result["receipt"]["store"]["keys"]
    entries = ArtifactStore(str(tmp_path)).entries()
    assert len(set(keys)) == len(keys) == created
    assert sorted(keys) == sorted(e.key for e in entries)


# -- HTTP surface ----------------------------------------------------------


@pytest.fixture
def stub_service(tmp_path):
    """A daemon on an ephemeral port whose executor never hits the engine."""
    def executor(request, **_kwargs):
        if request.get("table") == "table9":
            raise RuntimeError("synthetic failure")
        time.sleep(0.05)
        return {"output": f"out:{json.dumps(request, sort_keys=True)}",
                "detail": {}}

    service = ExperimentService(
        port=0, cache_dir=str(tmp_path / "cache"),
        workers=2, queue_depth=8, executor=executor,
    )
    service.start()
    yield service
    service.shutdown(timeout=10.0)


class TestHTTP:
    def test_submit_poll_result(self, stub_service):
        client = ServiceClient(stub_service.url)
        accepted = client.submit({"kind": "table", "table": "table6",
                                  "scale": "small"})
        assert accepted["id"].startswith("job-")
        assert accepted["coalesced"] is False
        document = client.wait(accepted["id"], timeout=10.0)
        assert document["state"] == "done"
        assert document["output"].startswith("out:")
        assert document["receipt"]["kind"] == "table"

    def test_bad_request_is_400(self, stub_service):
        client = ServiceClient(stub_service.url)
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "table", "table": "table99"}, retries=0)
        assert info.value.status == 400
        assert "table" in str(info.value)

    def test_invalid_json_is_400(self, stub_service):
        request = urllib.request.Request(
            f"{stub_service.url}/v1/jobs", data=b"{nope",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5.0)
        assert info.value.code == 400

    def test_unknown_job_is_404(self, stub_service):
        client = ServiceClient(stub_service.url)
        with pytest.raises(ServiceError) as info:
            client.status("job-999999")
        assert info.value.status == 404
        with pytest.raises(ServiceError) as info:
            client.result("job-999999")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, stub_service):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{stub_service.url}/nope", timeout=5.0)
        assert info.value.code == 404

    def test_failed_job_result_is_500_with_error(self, stub_service):
        client = ServiceClient(stub_service.url)
        accepted = client.submit({"kind": "table", "table": "table9",
                                  "scale": "small"})
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if client.status(accepted["id"])["state"] == "failed":
                break
            time.sleep(0.05)
        with pytest.raises(ServiceError) as info:
            client.wait(accepted["id"], timeout=5.0)
        assert info.value.status == 500
        assert "synthetic failure" in str(info.value)

    def test_healthz_and_metrics(self, stub_service):
        client = ServiceClient(stub_service.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue"]["depth"] == 8
        client.run({"kind": "table", "table": "table6", "scale": "small"},
                   timeout=10.0)
        metrics = client.metrics()
        assert metrics["counters"]["service.requests"] >= 1
        assert "service.latency_s" in metrics["histograms"]

    def test_concurrent_identical_requests_coalesce(self, stub_service):
        client = ServiceClient(stub_service.url)
        request = {"kind": "table", "table": "table7", "scale": "small"}
        ids = []

        def submit():
            ids.append(client.submit(request)["id"])

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every submission that raced the same in-flight ticket shares
        # its id; at least some must have coalesced given 6 submissions
        # against a 0.05s execution.
        assert len(ids) == 6
        first = min(ids)
        shared = [job_id for job_id in ids if job_id == first]
        assert len(shared) >= 2
        document = client.wait(first, timeout=10.0)
        assert document["receipt"]["coalesced"] >= 1

    def test_mixed_concurrent_traffic_no_failures(self, stub_service):
        from repro.service.client import load_test

        requests = [
            {"kind": "table", "table": name, "scale": "small"}
            for name in ("table1", "table2", "table3", "table4")
        ] * 4
        outcome = load_test(stub_service.url, requests, clients=16,
                            timeout=30.0)
        assert outcome["ok"] == 16
        assert outcome["failed"] == 0
        assert outcome["latency_s"]["p99"] > 0


def test_retried_coalesced_key_is_idempotent_not_coalesced(tmp_path):
    release = threading.Event()

    def executor(request, **_kwargs):
        release.wait(5.0)
        return {"output": "x", "detail": {}}

    service = ExperimentService(
        port=0, cache_dir=str(tmp_path / "c"), workers=1, executor=executor,
    )
    service.start()
    try:
        client = ServiceClient(service.url)
        request = {"kind": "table", "table": "table6", "scale": "small"}
        first = client.submit(request, submission="k1")
        coalesced = client.submit(request, submission="k2")
        retried = client.submit(request, submission="k2")
        assert (first["coalesced"], first["idempotent"]) == (False, False)
        assert (coalesced["coalesced"], coalesced["idempotent"]) == (
            True, False)
        assert (retried["coalesced"], retried["idempotent"]) == (
            False, True)
        assert first["id"] == coalesced["id"] == retried["id"]
        counters = service.registry.counter_values()
        assert counters["service.coalesced"] == 1
        assert service.queue.get(first["id"]).coalesced == 1
    finally:
        release.set()
        service.shutdown(timeout=10.0)


class TestBackpressureAndDrain:
    def test_429_carries_retry_after(self, tmp_path):
        release = threading.Event()

        def executor(request, **_kwargs):
            release.wait(5.0)
            return {"output": "x", "detail": {}}

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"),
            workers=1, queue_depth=2, executor=executor,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            client.submit({"kind": "table", "table": "table1"})
            client.submit({"kind": "table", "table": "table2"})
            with pytest.raises(ServiceError) as info:
                client.submit({"kind": "table", "table": "table3"},
                              retries=0)
            assert info.value.status == 429
            assert float(info.value.document["retry_after_s"]) >= 1.0
        finally:
            release.set()
            service.shutdown(timeout=10.0)

    def test_shutdown_drains_accepted_jobs(self, tmp_path):
        started = threading.Event()

        def executor(request, **_kwargs):
            started.set()
            time.sleep(0.3)
            return {"output": "slow-but-done", "detail": {}}

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"),
            workers=1, executor=executor,
        )
        service.start()
        client = ServiceClient(service.url)
        accepted = client.submit({"kind": "table", "table": "table1"})
        assert started.wait(5.0)
        # Drain while the job is mid-execution: it must complete.
        assert service.shutdown(timeout=10.0)
        ticket = service.queue.get(accepted["id"])
        assert ticket.state == "done"
        assert ticket.result["output"] == "slow-but-done"

    def test_draining_service_rejects_with_503(self, tmp_path):
        def executor(request, **_kwargs):
            return {"output": "x", "detail": {}}

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"),
            workers=1, executor=executor,
        )
        service.start()
        try:
            service.queue.close()
            service.draining = True
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError) as info:
                client.submit({"kind": "table", "table": "table1"},
                              retries=0)
            assert info.value.status == 503
            assert client.healthz()["status"] == "draining"
        finally:
            service.shutdown(timeout=5.0)


# -- end to end against the real engine ------------------------------------


def test_service_result_byte_identical_to_cli(tmp_path, capsys):
    """The acceptance gate: HTTP output == CLI stdout, same store."""
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    service = ExperimentService(port=0, cache_dir=cache_dir, workers=1)
    service.start()
    try:
        client = ServiceClient(service.url)
        document = client.run(
            {"kind": "explain", "workload": "wc", "scale": "small",
             "top": 3},
            timeout=240.0,
        )
    finally:
        service.shutdown(timeout=10.0)

    assert main([
        "explain", "wc", "--scale", "small", "--top", "3",
        "--cache-dir", cache_dir,
    ]) == 0
    cli_text = capsys.readouterr().out
    assert document["output"] + "\n" == cli_text
    # The service's cold run warmed the shared store for the CLI run.
    receipt = document["receipt"]
    assert receipt["store"]["misses"] == 1
    assert receipt["store"]["keys"]
