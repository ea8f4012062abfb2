"""End-to-end request tracing: daemon -> worker -> forked engine jobs.

These tests drive a live :class:`ExperimentService` against the real
engine (small scale, single workload) and assert the trace id minted or
supplied at ``POST /v1/jobs`` survives every process boundary: the
queue ticket, the journal, the worker's recorder, the forked pool
children, the trace-dir dump, and the receipt a restarted daemon
replays from its journal.
"""

from __future__ import annotations

import json
import os
import urllib.request

import pytest

from repro.obs.prom import PROM_CONTENT_TYPE, validate_exposition
from repro.obs.timeline import build_timeline, load_trace, render_timeline
from repro.service import ExperimentService, ServiceClient, ServiceError

EXPLAIN = {"kind": "explain", "workload": "wc", "scale": "small", "top": 3}
TRACE_ID = "cafe" * 8


def _service(tmp_path, label="svc", **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("cache_dir", str(tmp_path / f"{label}-cache"))
    service = ExperimentService(port=0, **kwargs)
    service.start()
    return service


class TestTracePropagation:
    def test_trace_survives_daemon_worker_and_forked_engine_jobs(
        self, tmp_path
    ):
        trace_dir = tmp_path / "traces"
        service = _service(
            tmp_path, jobs=2, trace_dir=str(trace_dir),
            log_dir=str(tmp_path / "logs"),
        )
        try:
            client = ServiceClient(service.url)
            accepted = client.submit(dict(EXPLAIN), trace=TRACE_ID)
            assert accepted["trace"] == TRACE_ID
            document = client.wait(accepted["id"], timeout=240.0)
            status = client.status(accepted["id"])
        finally:
            assert service.shutdown(timeout=30.0)

        assert status["trace"] == TRACE_ID
        assert document["receipt"]["trace_id"] == TRACE_ID

        doc = load_trace(str(trace_dir / f"{accepted['id']}.jsonl"))
        assert doc["meta"]["trace"] == TRACE_ID
        records = doc["records"]
        assert records, "trace dump carried no records"
        # Every span and event is stamped — nothing leaks out of the
        # trace across thread and fork boundaries.
        assert all(r.get("trace") == TRACE_ID for r in records)
        # The engine job spans ran in forked pool children: their pid
        # differs from the worker's request span.
        request_spans = [r for r in records
                         if r.get("type") == "span" and r["name"] == "request"]
        engine_spans = [r for r in records
                        if r.get("type") == "span" and r.get("cat") == "engine"
                        and r["name"] == "job"]
        assert request_spans and engine_spans
        worker_pid = request_spans[0]["pid"]
        assert any(span["pid"] != worker_pid for span in engine_spans), (
            "no engine job span crossed the fork boundary"
        )

        # The reconstructed timeline spans accept -> queue wait ->
        # worker attempt -> engine jobs, in one trace.
        timeline = build_timeline(doc, status=status)
        assert timeline["trace"] == TRACE_ID
        names = [row["name"] for row in timeline["rows"]]
        for needle in ("accept", "queue_wait", "request", "job"):
            assert needle in names, f"timeline lacks {needle}: {names}"
        text = render_timeline(doc, status=status)
        assert TRACE_ID in text and "queue_wait" in text

        # The structured log carries the same ids on every record.
        log_path = tmp_path / "logs" / "events.jsonl"
        entries = [json.loads(line)
                   for line in log_path.read_text().splitlines() if line]
        ours = [e for e in entries if e.get("trace") == TRACE_ID]
        assert {"accept", "attempt_start", "attempt_finish"} <= {
            e["event"] for e in ours
        }
        assert all(e["job"] == accepted["id"] for e in ours
                   if e["event"] != "accept" or e.get("job"))

    def test_daemon_mints_trace_when_header_absent(self, tmp_path):
        def executor(request, **_kwargs):
            return {"output": "x", "detail": {}}

        service = _service(tmp_path, executor=executor)
        try:
            client = ServiceClient(service.url)
            accepted = client.submit({"kind": "table", "table": "table6"})
            minted = accepted["trace"]
            assert isinstance(minted, str) and len(minted) == 32
            int(minted, 16)     # lowercase hex
            # Coalesced and idempotent resubmits keep the original trace.
            again = client.submit({"kind": "table", "table": "table6"},
                                  trace="beef" * 8,
                                  submission=accepted["submission"])
            assert again["trace"] == minted
        finally:
            assert service.shutdown(timeout=10.0)

    def test_invalid_trace_header_rejected(self, tmp_path):
        def executor(request, **_kwargs):
            return {"output": "x", "detail": {}}

        service = _service(tmp_path, executor=executor)
        try:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError) as info:
                client.submit({"kind": "table", "table": "table6"},
                              trace="NOT hex!", retries=0)
            assert info.value.status == 400
            assert "X-Repro-Trace" in info.value.document["error"]
        finally:
            assert service.shutdown(timeout=10.0)


class TestTraceByteStability:
    def test_output_byte_stable_across_jobs_1_and_4(self, tmp_path):
        """Tracing never perturbs results: a traced ``--jobs 4`` run's
        output is byte-identical to an untraced ``--jobs 1`` run."""
        outputs = {}
        for jobs, trace in ((1, None), (4, TRACE_ID)):
            service = _service(
                tmp_path, label=f"jobs{jobs}", jobs=jobs,
                trace_dir=str(tmp_path / f"traces-{jobs}") if trace else None,
            )
            try:
                client = ServiceClient(service.url)
                accepted = client.submit(dict(EXPLAIN), trace=trace)
                document = client.wait(accepted["id"], timeout=240.0)
            finally:
                assert service.shutdown(timeout=30.0)
            outputs[jobs] = document["output"].encode()
        assert outputs[1] == outputs[4]


class TestTraceJournalReplay:
    def test_trace_survives_journal_restart(self, tmp_path):
        def executor(request, **_kwargs):
            return {"output": "replayable", "detail": {}}

        journal_dir = str(tmp_path / "journal")
        cache_dir = str(tmp_path / "cache")
        service = ExperimentService(
            port=0, cache_dir=cache_dir, workers=1,
            journal_dir=journal_dir, executor=executor,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            accepted = client.submit({"kind": "table", "table": "table6"},
                                     trace=TRACE_ID)
            client.wait(accepted["id"], timeout=30.0)
        finally:
            assert service.shutdown(timeout=10.0)

        # The journal's ticket records carry the trace id on disk.
        with open(os.path.join(journal_dir, "journal.jsonl")) as handle:
            stamped = [json.loads(line)["ticket"]["trace"] for line in handle]
        assert stamped and set(stamped) == {TRACE_ID}

        # A restarted daemon replays the job with its trace intact.
        service = ExperimentService(
            port=0, cache_dir=cache_dir, workers=1,
            journal_dir=journal_dir, executor=executor,
        )
        service.start()
        try:
            client = ServiceClient(service.url)
            status = client.status(accepted["id"])
            assert status["trace"] == TRACE_ID
            document = client.wait(accepted["id"], timeout=30.0)
            assert document["receipt"]["trace_id"] == TRACE_ID
        finally:
            assert service.shutdown(timeout=10.0)


class TestMetricsEndpoint:
    def test_prometheus_exposition_from_live_daemon(self, tmp_path):
        def executor(request, **_kwargs):
            return {"output": "x", "detail": {}}

        service = _service(tmp_path, executor=executor)
        try:
            client = ServiceClient(service.url)
            accepted = client.submit({"kind": "table", "table": "table6"})
            client.wait(accepted["id"], timeout=30.0)
            # No Accept header (a scraper): Prometheus text exposition.
            with urllib.request.urlopen(f"{service.url}/metrics") as response:
                assert response.headers["Content-Type"] == PROM_CONTENT_TYPE
                text = response.read().decode()
            # The Python client asks for JSON and still gets it.
            snapshot = client.metrics()
        finally:
            assert service.shutdown(timeout=10.0)

        assert validate_exposition(text) == []
        assert "repro_service_requests" in text
        assert "repro_service_latency_s_bucket" in text
        assert 'le="+Inf"' in text
        assert "repro_service_http_latency_s_bucket" in text
        assert 'endpoint="submit"' in text
        assert "repro_service_queue_depth" in text
        assert "repro_service_inflight" in text
        assert snapshot["counters"]["service.requests"] >= 1
        assert "service.http_latency_s_submit" in snapshot["histograms"]
