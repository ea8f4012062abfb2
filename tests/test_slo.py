"""Declarative SLO objectives and the ``repro slo check`` / ``repro
trace`` command surfaces."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.recorder import Recorder
from repro.obs.slo import (
    DEFAULT_SLO,
    SloError,
    evaluate_slo,
    load_slo,
    render_results,
)


def _snapshot(failed=0, completed=20, hits=15, misses=5, p99=0.8):
    return {
        "counters": {
            "service.failed": failed,
            "service.completed": completed,
            "store_hits": hits,
            "store_misses": misses,
        },
        "gauges": {"service.queue_depth": 0},
        "histograms": {
            "service.latency_s": {
                "count": completed, "sum": 4.0, "min": 0.01, "max": p99,
                "mean": 0.2, "p50": 0.1, "p90": 0.5, "p99": p99,
            },
        },
    }


class TestEvaluate:
    def test_default_objectives_pass_on_healthy_snapshot(self):
        results = evaluate_slo(_snapshot())
        assert [r["status"] for r in results] == ["pass"] * 3

    def test_max_and_min_violations_fail(self):
        results = evaluate_slo(_snapshot(failed=10, completed=10, hits=1,
                                         misses=9, p99=99.0))
        by_name = {r["name"]: r for r in results}
        assert by_name["request-latency-p99"]["status"] == "fail"
        assert by_name["error-rate"]["status"] == "fail"
        assert by_name["store-hit-rate"]["status"] == "fail"
        text = render_results(results)
        assert "FAIL" in text and "3 failed" in text

    def test_missing_metric_skips_unless_required(self):
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        results = evaluate_slo(snapshot)
        assert {r["status"] for r in results} == {"skipped"}
        required = {
            "slo": "repro-slo-v1",
            "objectives": [{"name": "must-have",
                            "metric": "service.latency_s", "stat": "p99",
                            "max": 1.0, "required": True}],
        }
        results = evaluate_slo(snapshot, slo=required)
        assert results[0]["status"] == "fail"

    def test_run_document_folds_meta_totals_into_counters(self, tmp_path):
        rec = Recorder(meta={"telemetry_totals": {
            "store_hits": 8, "store_misses": 2,
        }})
        rec.metrics.counter("service.completed").inc(5)
        rec.metrics.histogram("service.latency_s").observe(0.1)
        path = str(tmp_path / "run.jsonl")
        rec.dump_jsonl(path)
        document = Recorder.load_jsonl(path)
        by_name = {r["name"]: r for r in evaluate_slo(document)}
        assert by_name["store-hit-rate"]["status"] == "pass"
        assert by_name["store-hit-rate"]["value"] == pytest.approx(0.8)

    def test_zero_denominator_skips(self):
        results = evaluate_slo(_snapshot(failed=0, completed=0))
        by_name = {r["name"]: r for r in results}
        assert by_name["error-rate"]["status"] == "skipped"
        assert "zero" in by_name["error-rate"]["note"]


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"slo": "repro-slo-v1"},
        {"slo": "other-format", "objectives": [{"name": "x", "max": 1}]},
        {"slo": "repro-slo-v1", "objectives": []},
        {"slo": "repro-slo-v1", "objectives": [{"max": 1}]},
        {"slo": "repro-slo-v1",
         "objectives": [{"name": "x", "metric": "m",
                         "ratio": {"num": ["a"], "den": ["b"]}, "max": 1}]},
        {"slo": "repro-slo-v1",
         "objectives": [{"name": "x", "metric": "m", "stat": "p42",
                         "max": 1}]},
        {"slo": "repro-slo-v1",
         "objectives": [{"name": "x", "metric": "m"}]},
        {"slo": "repro-slo-v1",
         "objectives": [{"name": "x", "ratio": {"num": []}, "max": 1}]},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SloError):
            evaluate_slo(_snapshot(), slo=bad)

    def test_load_slo_validates_repo_file(self):
        import os

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        slo = load_slo(os.path.join(repo_root, "SLO_service.json"))
        assert slo["slo"] == "repro-slo-v1"
        assert DEFAULT_SLO["slo"] == "repro-slo-v1"


class TestLedgerObjectives:
    """``ledger`` is not an objective shape: ledger history is gated by
    ``repro perf check``, so an SLO file naming one fails validation."""

    @pytest.mark.parametrize("bad", [
        {"slo": "repro-slo-v1",
         "objectives": [{"name": "x", "ledger": {"stat": "last"},
                         "max": 1}]},
        {"slo": "repro-slo-v1",
         "objectives": [{"name": "x",
                         "ledger": {"metric": "m", "stat": "p42"},
                         "max": 1}]},
        {"slo": "repro-slo-v1",
         "objectives": [{"name": "x", "metric": "m", "stat": "p99",
                         "ledger": {"metric": "m"}, "max": 1}]},
    ])
    def test_rejects_malformed_ledger_objectives(self, bad):
        with pytest.raises(SloError):
            evaluate_slo({}, slo=bad)

    def test_cli_slo_check_with_ledger(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps(_snapshot()))
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(json.dumps({
            "slo": "repro-slo-v1",
            "objectives": [{
                "name": "wall-budget",
                "ledger": {"metric": "table6.wall_s", "stat": "last"},
                "max": 2.0,
            }],
        }))
        assert main(["slo", "check", str(snapshot),
                     "--slo", str(slo_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown field(s) ledger" in captured.err


class TestSloCheckCommand:
    def test_exit_zero_on_pass_and_one_on_violation(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_snapshot()))
        assert main(["slo", "check", str(good)]) == 0
        assert "3 objectives" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_snapshot(p99=99.0)))
        assert main(["slo", "check", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_accepts_jsonl_run_and_custom_slo_file(self, tmp_path, capsys):
        rec = Recorder()
        rec.metrics.histogram("service.latency_s").observe(0.25)
        run = str(tmp_path / "run.jsonl")
        rec.dump_jsonl(run)
        slo_path = tmp_path / "slo.json"
        slo_path.write_text(json.dumps({
            "slo": "repro-slo-v1",
            "objectives": [{"name": "p99", "metric": "service.latency_s",
                            "stat": "p99", "max": 1.0, "required": True}],
        }))
        assert main(["slo", "check", run, "--slo", str(slo_path)]) == 0
        assert "p99" in capsys.readouterr().out

    def test_bad_inputs_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["slo", "check", missing]) == 2
        bad_slo = tmp_path / "slo.json"
        bad_slo.write_text("{}")
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(json.dumps(_snapshot()))
        assert main(["slo", "check", str(snapshot),
                     "--slo", str(bad_slo)]) == 2
        capsys.readouterr()


class TestTraceCommand:
    def _dump(self, tmp_path, job="job-42"):
        rec = Recorder(meta={
            "kind": "service-request", "job": job, "trace": "ab" * 8,
            "attempt": 0, "created": 100.0, "started": 100.5,
            "queue_wait_s": 0.5, "request": {"kind": "explain"},
            "store": {"hits": 2, "misses": 1},
        }, trace="ab" * 8)
        with rec.span("request", cat="service", job=job):
            with rec.span("job", cat="engine", job_id="explain:wc"):
                rec.event("store", result="hit")
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        rec.dump_jsonl(str(trace_dir / f"{job}.jsonl"))
        return str(trace_dir)

    def test_renders_timeline_and_chrome_export(self, tmp_path, capsys):
        trace_dir = self._dump(tmp_path)
        out = str(tmp_path / "chrome.json")
        assert main(["trace", "job-42", "--trace-dir", trace_dir,
                     "--chrome-trace", out]) == 0
        text = capsys.readouterr().out
        assert "trace " + "ab" * 8 in text
        assert "queue_wait" in text and "request" in text
        events = json.load(open(out))["traceEvents"]
        assert any(e.get("name") == "queue_wait" for e in events)

    def test_missing_file_and_missing_dir_fail_cleanly(self, tmp_path,
                                                      capsys):
        assert main(["trace", "job-x"]) == 2
        trace_dir = self._dump(tmp_path)
        assert main(["trace", "job-unknown", "--trace-dir",
                     trace_dir]) == 1
        capsys.readouterr()
