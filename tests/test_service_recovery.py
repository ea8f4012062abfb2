"""Restart recovery, watchdog reaping, idempotent retry, client backoff.

The subprocess chaos tests (``test_service_chaos.py``) prove the
end-to-end invariant under real ``kill -9``; these tests pin each
recovery mechanism in-process where the states can be fabricated
exactly: a journal written by a "dead" daemon is replayed by a fresh
:class:`ExperimentService`, hung attempts are reaped by the watchdog,
stale executions are fenced, and the client's retry policy is exercised
against real 5xx/connection failures.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ExperimentService,
    JobQueue,
    ServiceClient,
    ServiceError,
    ServiceWatchdog,
    Ticket,
)
from repro.service import worker as worker_module
from repro.service.client import RetryPolicy
from repro.service.journal import JobJournal
from repro.service.schemas import normalize_request, request_fingerprint
from repro.service.worker import ServiceWorker


def _request(table="table6"):
    return normalize_request(
        {"kind": "table", "table": table, "scale": "small"}
    )


def _wait_recovered(service, timeout=10.0):
    deadline = time.monotonic() + timeout
    while service.recovering and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not service.recovering


def _echo_executor(request, **_kwargs):
    return {"output": f"out:{json.dumps(request, sort_keys=True)}",
            "detail": {}}


# -- journal replay into a fresh daemon ------------------------------------


class TestRestartRecovery:
    def _dead_daemons_journal(self, root):
        """Write the journal a daemon killed mid-run would leave behind.

        job-000001 finished (result journaled); job-000002 was running
        (orphaned); job-000003 was still queued, accepted with an
        idempotency key whose 202 the client may never have seen.
        """
        journal = JobJournal(root)
        req1, req2, req3 = _request("table6"), _request("table7"), \
            _request("table1")
        first = Ticket(id="job-000001", request=req1,
                       fingerprint=request_fingerprint(req1), created=1000.0)
        journal.append(asdict(first))
        first.state, first.started = "running", 1000.5
        journal.append(asdict(first))
        first.state, first.finished = "done", 1001.0
        first.result = {"output": "done-before-crash", "detail": {},
                        "receipt": {"attempt": 0}}
        journal.append(asdict(first))
        second = Ticket(id="job-000002", request=req2,
                        fingerprint=request_fingerprint(req2), created=1002.0)
        journal.append(asdict(second))
        second.state, second.started = "running", 1002.5
        journal.append(asdict(second))
        journal.append(asdict(Ticket(
            id="job-000003", request=req3,
            fingerprint=request_fingerprint(req3),
            submission="sub-lost-202", created=1003.0,
        )))
        journal.close()

    def test_replay_restores_serves_and_reexecutes(self, tmp_path):
        root = str(tmp_path / "journal")
        self._dead_daemons_journal(root)

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "cache"), workers=2,
            executor=_echo_executor, journal_dir=root,
        )
        service.start()
        try:
            _wait_recovered(service)
            client = ServiceClient(service.url)

            # The finished job's result survived the crash verbatim.
            document = client.wait("job-000001", timeout=5.0)
            assert document["output"] == "done-before-crash"

            # The orphaned-running and queued jobs were re-enqueued and
            # re-executed to completion by the new daemon.
            for job_id in ("job-000002", "job-000003"):
                document = client.wait(job_id, timeout=10.0)
                assert document["output"].startswith("out:")
                assert document["receipt"]["recovered"] is True

            # The idempotency map survived: retrying the POST whose 202
            # was lost re-matches the journaled ticket, no duplicate.
            accepted = client.submit(_request("table1"),
                                     submission="sub-lost-202")
            assert accepted["id"] == "job-000003"
            assert accepted["idempotent"] is True

            # The id counter resumed past the recovered ids.
            fresh = client.submit(_request("table2"))
            assert fresh["id"] == "job-000004"

            recovery = client.recovery()
            assert recovery["restored"]["done"] == 1
            assert recovery["restored"]["requeued"] == 2
            assert recovery["restored"]["orphaned_running"] == 1
            assert sorted(recovery["recovered_ids"]) == [
                "job-000002", "job-000003",
            ]
            assert recovery["compacted"] is True
        finally:
            service.shutdown(timeout=10.0)

    def test_replay_compacts_journal_to_one_file(self, tmp_path):
        import os

        root = str(tmp_path / "journal")
        self._dead_daemons_journal(root)
        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1,
            executor=_echo_executor, journal_dir=root,
        )
        service.start()
        try:
            _wait_recovered(service)
        finally:
            service.shutdown(timeout=10.0)
        assert sorted(os.listdir(root)) == [".lock", "journal.jsonl"]

    def test_empty_journal_recovers_to_clean_service(self, tmp_path):
        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1,
            executor=_echo_executor,
            journal_dir=str(tmp_path / "journal"),
        )
        service.start()
        try:
            _wait_recovered(service)
            client = ServiceClient(service.url)
            accepted = client.submit(_request())
            assert accepted["id"] == "job-000001"
            assert client.wait(accepted["id"],
                               timeout=10.0)["state"] == "done"
        finally:
            service.shutdown(timeout=10.0)


# -- watchdog: hung attempts, retry budget, fencing, respawn ---------------


class TestWatchdog:
    def test_hung_attempt_reaped_and_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "WATCHDOG_POLL_S", 0.05)
        first_hang = threading.Event()
        calls = []

        def executor(request, **_kwargs):
            calls.append(time.time())
            if len(calls) == 1:
                first_hang.wait(30.0)       # simulate a wedged engine
            return {"output": "second-attempt", "detail": {}}

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"), workers=2,
            executor=executor, retries=1, job_timeout=0.3,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            accepted = client.submit(_request())
            document = client.wait(accepted["id"], timeout=15.0)
            assert document["output"] == "second-attempt"
            assert document["receipt"]["attempt"] == 1
            status = client.status(accepted["id"])
            assert status["requeues"] == 1
            metrics = client.metrics()["counters"]
            assert metrics["service.reaped"] >= 1
            assert metrics["service.requeued"] >= 1
        finally:
            first_hang.set()
            service.shutdown(timeout=10.0)

    def test_exhausted_budget_fails_with_structured_cause(self, tmp_path):
        def executor(request, **_kwargs):
            raise RuntimeError("engine exploded")

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"), workers=1,
            executor=executor, retries=1,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            accepted = client.submit(_request())
            with pytest.raises(ServiceError) as info:
                client.wait(accepted["id"], timeout=10.0)
            assert info.value.status == 500
            failure = info.value.document["failure"]
            assert failure["cause"] == "error"
            assert failure["attempts"] == 2     # original + one retry
            assert "engine exploded" in failure["detail"]
        finally:
            service.shutdown(timeout=10.0)

    def test_reaped_attempts_late_result_is_fenced(self):
        """A reaped execution finishing after its retry must be dropped."""
        queue = JobQueue(depth=4, retries=1)
        ticket, _ = queue.submit(_request(), "fp-fence")
        claimed = queue.claim(timeout=1.0)
        stale_attempt = claimed.attempt
        # The watchdog reaps the hung attempt; the ticket is re-queued.
        assert queue.requeue(claimed, "timeout",
                             attempt=stale_attempt) == "requeued"
        retry = queue.claim(timeout=1.0)
        assert retry.attempt == stale_attempt + 1
        assert queue.finish(retry, result={"output": "retry-wins"},
                            attempt=retry.attempt)
        # Now the original hung execution limps home: fenced, a no-op.
        assert not queue.finish(ticket, result={"output": "stale-loses"},
                                attempt=stale_attempt)
        assert queue.requeue(ticket, "timeout",
                             attempt=stale_attempt) == "stale"
        assert queue.get(ticket.id).result == {"output": "retry-wins"}

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_worker_thread_respawned(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "WATCHDOG_POLL_S", 0.05)
        calls = []

        def executor(request, **_kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise SystemExit(1)   # BaseException: kills the thread
            return {"output": "respawned-worker", "detail": {}}

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"), workers=1,
            executor=executor, retries=1, job_timeout=0.3,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            accepted = client.submit(_request())
            document = client.wait(accepted["id"], timeout=15.0)
            assert document["output"] == "respawned-worker"
            metrics = client.metrics()["counters"]
            assert metrics["service.workers_respawned"] >= 1
        finally:
            service.shutdown(timeout=10.0)

    def test_watchdog_exits_when_queue_drains(self, monkeypatch):
        monkeypatch.setattr(worker_module, "WATCHDOG_POLL_S", 0.02)
        queue = JobQueue(depth=4)
        watchdog = ServiceWatchdog(queue, MetricsRegistry(), [])
        watchdog.start()
        queue.close()
        watchdog.join(timeout=5.0)
        assert not watchdog.is_alive()


# -- crash-site fault: worker-exec counts as a crash, retried --------------


def test_worker_exec_crash_fault_requeues(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash:worker-exec:times=1")
    queue = JobQueue(depth=4, retries=1)
    registry = MetricsRegistry()
    worker = ServiceWorker(queue, registry, executor=_echo_executor)
    worker.start()
    ticket, _ = queue.submit(_request(), "fp-crash")
    queue.close()
    assert queue.drained(timeout=10.0)
    worker.join(timeout=5.0)
    assert ticket.state == "done"            # times=1: the retry cleared it
    assert ticket.attempt == 1
    counters = registry.counter_values()
    assert counters["service.requeued"] == 1


# -- client resilience ------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_s=0.1, cap_s=2.0, jitter=0.0)
        delays = [policy.delay_s(attempt) for attempt in range(8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays == sorted(delays)
        assert delays[-1] == pytest.approx(2.0)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_s=0.1, cap_s=10.0, jitter=0.5)
        first = policy.delay_s(3, unit="/v1/jobs")
        assert first == policy.delay_s(3, unit="/v1/jobs")   # replays
        assert 0.8 <= first <= 1.2            # 0.8s backoff, +50% spread
        assert first != policy.delay_s(3, unit="/other")     # de-synced

    def test_retry_after_hint_wins(self):
        policy = RetryPolicy(base_s=0.1, cap_s=5.0)
        assert policy.delay_s(0, hint=3.0) == 3.0
        assert policy.delay_s(0, hint=60.0) == 5.0           # capped


class TestClientResilience:
    def test_submit_retries_connection_failure_to_dead_port(self):
        client = ServiceClient("http://127.0.0.1:9",   # discard port: dead
                               timeout=0.5,
                               retry=RetryPolicy(retries=2, base_s=0.01))
        started = time.perf_counter()
        with pytest.raises(ServiceError) as info:
            client.submit(_request())
        assert info.value.status == 0
        assert time.perf_counter() - started >= 0.02   # really backed off

    def test_retried_post_is_idempotent_not_duplicated(self, tmp_path):
        """Same submission key across retries -> one ticket, ever."""
        release = threading.Event()

        def executor(request, **_kwargs):
            release.wait(10.0)
            return {"output": "x", "detail": {}}

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"), workers=1,
            executor=executor,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            first = client.submit(_request(), submission="sub-once")
            again = client.submit(_request(), submission="sub-once")
            assert again["id"] == first["id"]
            assert again["idempotent"] is True
            # A different logical submission coalesces (shared
            # fingerprint) instead of matching idempotently.
            other = client.submit(_request(), submission="sub-two")
            assert other["id"] == first["id"]
            assert other["idempotent"] is False
            assert other["coalesced"] is True
        finally:
            release.set()
            service.shutdown(timeout=10.0)

    def test_wait_poll_interval_backs_off(self, tmp_path):
        """Polling must not busy-spin: call count stays far below
        fixed-rate polling for the same wall time."""
        release = threading.Event()

        def executor(request, **_kwargs):
            release.wait(1.2)
            return {"output": "slow", "detail": {}}

        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "c"), workers=1,
            executor=executor,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            calls = []
            original = client._call_with_retries

            def counting(path, **kwargs):
                calls.append(path)
                return original(path, **kwargs)

            client._call_with_retries = counting
            accepted = client.submit(_request())
            release_timer = threading.Timer(1.0, release.set)
            release_timer.start()
            client.wait(accepted["id"], timeout=30.0)
            release_timer.cancel()
            polls = [path for path in calls if path.endswith("/result")]
            # Fixed 0.2s polling over ~1s would be ~5+; geometric
            # backoff from 0.05s with a 2s cap stays under that while
            # still finishing promptly.
            assert 2 <= len(polls) <= 12
        finally:
            release.set()
            service.shutdown(timeout=10.0)
