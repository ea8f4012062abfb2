"""The performance observatory: ledger, sentinel, profiler, flamegraph,
dashboard, and the ``repro perf`` command surface."""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.perf.dashboard import render_dashboard, trend_section_html
from repro.perf.flame import render_flamegraph, write_collapsed
from repro.perf.ledger import (
    LEDGER_FORMAT,
    LedgerError,
    PerfLedger,
    flatten_snapshot,
    harvest_metrics,
)
from repro.perf import profiler
from repro.perf.sentinel import check_window, direction_for


def _seed(ledger: PerfLedger, walls, hit_rates=None, label="ci"):
    """One record per wall value; deterministic shas."""
    hit_rates = hit_rates or [0.9] * len(walls)
    for index, (wall, rate) in enumerate(zip(walls, hit_rates)):
        ledger.append(
            sha=f"sha{index:04d}", label=label,
            metrics={"table6.wall_s": wall, "service.hit_rate": rate},
        )


class TestLedger:
    def test_append_read_roundtrip(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        record = ledger.append("abc", "ci", {"a.wall_s": 1.5, "note": "x",
                                             "flag": True, "n": 3})
        # Non-numerics and bools are dropped; ints coerce to float.
        assert record["metrics"] == {"a.wall_s": 1.5, "n": 3.0}
        view = ledger.read()
        assert len(view) == 1 and view.corrupt == 0
        assert view.records[0]["format"] == LEDGER_FORMAT
        assert view.records[0]["seq"] == 1
        assert ledger.append("def", "ci", {"a.wall_s": 2.0})["seq"] == 2

    def test_torn_tail_skipped_and_counted(self, tmp_path):
        """Acceptance: a torn tail never poisons the history."""
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.1, 1.2])
        with open(ledger.path) as handle:
            intact = handle.read()
        # The recorder died mid-append: half a record at the tail.
        with open(ledger.path, "w") as handle:
            handle.write(intact + intact.splitlines()[0][:37])
        view = ledger.read()
        assert len(view) == 3
        assert view.corrupt == 1
        assert [r["seq"] for r in view.records] == [1, 2, 3]
        # The next append continues the sequence past the damage.
        assert ledger.append("xyz", "ci", {"a": 1.0})["seq"] == 4

    def test_torn_tail_does_not_swallow_next_append(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        ledger.append("a", "ci", {"x": 1.0})
        with open(ledger.path, "a") as handle:    # a crashed writer
            handle.write('{"format": "repro-perf-v1", "seq": 2, "ts')
        ledger.append("b", "ci", {"x": 2.0})
        view = ledger.read()
        assert [r["sha"] for r in view.records] == ["a", "b"]
        assert [r["seq"] for r in view.records] == [1, 2]
        assert view.corrupt == 1

    def test_append_reads_only_the_tail(self, tmp_path, monkeypatch):
        from repro import durable

        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        metrics = {f"m{n:03d}.wall_s": float(n) for n in range(200)}
        for n in range(40):
            ledger.append(f"sha{n}", "ci", metrics)

        def full_scan(*args, **kwargs):
            raise AssertionError("append scanned the whole ledger")

        monkeypatch.setattr(durable, "read", full_scan)
        assert ledger.append("next", "ci", metrics)["seq"] == 41
        with open(ledger.path, "a") as handle:
            handle.write('{"format": "repro-perf-v1", "seq": 42')
        assert ledger.append("after-tear", "ci", metrics)["seq"] == 42

    def test_append_scans_whole_file_when_tail_holds_no_record(
            self, tmp_path, monkeypatch):
        from repro import durable

        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        ledger.append("a", "ci", {"x": 1.0})
        ledger.append("b", "ci", {"x": 2.0})
        with open(ledger.path, "a") as handle:   # garbage past the window
            handle.write("x" * 256 + "\n")
        monkeypatch.setattr(durable, "TAIL_WINDOW", 64)
        assert durable.last_record(ledger.path, lambda r: True) is None
        assert ledger.append("c", "ci", {"x": 3.0})["seq"] == 3

    def test_bitrot_and_wrong_format_skipped(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.1])
        lines = open(ledger.path).read().splitlines()
        doctored = json.loads(lines[0])
        doctored["metrics"]["table6.wall_s"] = 999.0  # stale checksum now
        alien = {"format": "not-the-ledger", "seq": 9}
        with open(ledger.path, "w") as handle:
            for line in (json.dumps(doctored), lines[1], json.dumps(alien)):
                handle.write(line + "\n")
        view = ledger.read()
        assert len(view) == 1 and view.corrupt == 2
        assert view.records[0]["metrics"]["table6.wall_s"] == 1.1

    def test_missing_file_reads_empty(self, tmp_path):
        view = PerfLedger(str(tmp_path / "absent.jsonl")).read()
        assert len(view) == 0 and view.corrupt == 0

    def test_history_and_metric_names(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 2.0])
        view = ledger.read()
        assert [v for _, v in view.history("table6.wall_s")] == [1.0, 2.0]
        assert view.metric_names() == ["service.hit_rate", "table6.wall_s"]

    def test_harvest_flattens_bench_snapshots(self, tmp_path):
        (tmp_path / "BENCH_search.json").write_text(json.dumps({
            "cold_wall_s": 3.5, "trials": 6, "strategy": "random",
            "best": {"objectives": {"miss_ratio": 0.02}},
            "workloads": ["cmp", "wc"],
        }))
        (tmp_path / "BENCH_torn.json").write_text("{nope")
        metrics = harvest_metrics(str(tmp_path))
        assert metrics["search.cold_wall_s"] == 3.5
        assert metrics["search.best.objectives.miss_ratio"] == 0.02
        # Strings and lists are skipped; torn files never fail a harvest.
        assert "search.strategy" not in metrics
        assert not any(key.startswith("torn") for key in metrics)
        assert flatten_snapshot("x", {"a": {"b": 2}}) == {"x.a.b": 2.0}

    def test_harvest_keeps_histogram_summary_not_buckets(self, tmp_path):
        registry = MetricsRegistry()
        for value in (1, 2, 3, 50, 700):
            registry.histogram("run_ms").observe(value)
        (tmp_path / "BENCH_obs.json").write_text(json.dumps({
            "metrics": registry.to_dict(), "wall_s": 1.5,
        }))
        metrics = harvest_metrics(str(tmp_path))
        histogram = {
            key for key in metrics
            if key.startswith("obs.metrics.histograms.run_ms.")
        }
        assert histogram == {
            "obs.metrics.histograms.run_ms.count",
            "obs.metrics.histograms.run_ms.p50",
            "obs.metrics.histograms.run_ms.p99",
        }
        assert metrics["obs.metrics.histograms.run_ms.count"] == 5.0
        assert metrics["obs.wall_s"] == 1.5
        assert not any(".buckets." in key for key in metrics)


class TestSentinel:
    def test_clean_window_is_ok(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.02, 0.98, 1.01, 1.0])
        report = check_window(ledger.read().records)
        assert report.ok and not report.regressions

    def test_3x_wall_regression_detected(self, tmp_path):
        """Acceptance: a synthetic 3x wall-time regression is caught."""
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.02, 0.98, 1.01, 3.0])
        report = check_window(ledger.read().records)
        assert not report.ok
        assert [v.name for v in report.regressions] == ["table6.wall_s"]
        text = report.render()
        assert "REGRESSION" in text and "table6.wall_s" in text

    def test_direction_awareness(self, tmp_path):
        # Falling wall time is an improvement; a falling hit rate is not.
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.0, 1.0, 1.0, 0.3],
              hit_rates=[0.9, 0.9, 0.9, 0.9, 0.2])
        report = check_window(ledger.read().records)
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["table6.wall_s"].status == "improved"
        assert by_name["service.hit_rate"].status == "regression"
        assert direction_for("a.wall_s") == "up"
        assert direction_for("svc.hit_rate") == "down"
        assert direction_for("front_size") == "both"

    def test_new_metric_has_no_verdict_yet(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.0, 1.0, 1.0])
        ledger.append("shaN", "ci", {"table6.wall_s": 1.0, "fresh": 5.0})
        report = check_window(ledger.read().records)
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["fresh"].status == "new"
        assert report.ok

    def test_uncheckable_raises(self, tmp_path):
        with pytest.raises(ValueError):
            check_window([])
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0])
        with pytest.raises(ValueError):
            check_window(ledger.read().records)


class TestProfiler:
    def test_default_is_null_and_noop(self):
        assert profiler.current() is profiler.NULL
        assert not profiler.NULL.enabled
        with profiler.NULL.capture():
            pass  # no cProfile machinery engaged

    def test_capture_collects_collapsed_stacks(self):
        collector = profiler.ProfileCollector()
        with profiler.use(collector):
            assert profiler.current() is collector
            with collector.capture():
                sum(i * i for i in range(50_000))
        assert profiler.current() is profiler.NULL
        assert collector.stacks
        assert all(value > 0 for value in collector.stacks.values())
        # Frames are file:function labels joined root-first with ';'.
        assert any(";" in stack or ":" in stack for stack in collector.stacks)

    def test_record_merges_worker_stacks(self):
        collector = profiler.ProfileCollector()
        collector.record({"a;b": 1.0, "c": 0.5})
        collector.record({"a;b": 2.0})
        assert collector.stacks == {"a;b": 3.0, "c": 0.5}

    def test_job_outcome_ships_profile(self, tmp_path):
        from repro.engine.jobs import JobSpec, execute_job

        spec = JobSpec(
            job_id="profiled", kind="artifacts",
            params={"workload": "wc", "scale": "small"},
        )
        off = execute_job(spec, cache_dir=str(tmp_path / "c1"),
                          use_cache=False)
        assert off.sidecars == {}
        on = execute_job(spec, cache_dir=str(tmp_path / "c2"),
                         use_cache=False, sinks={"profile": None})
        assert on.records, "job ran no work"
        assert on.sidecars["profile"], "profiled job shipped no stacks"
        # The ambient collector is restored to NULL afterwards.
        assert profiler.current() is profiler.NULL


class TestFlame:
    STACKS = {"main;run;simulate": 0.75, "main;run;place": 0.20,
              "main;load": 0.05}

    def test_collapsed_file_format(self, tmp_path):
        path = str(tmp_path / "prof.collapsed")
        write_collapsed(self.STACKS, path)
        lines = open(path).read().splitlines()
        assert lines == sorted(lines)
        parsed = dict(line.rsplit(" ", 1) for line in lines)
        assert int(parsed["main;run;simulate"]) == 750000  # microseconds

    def test_flamegraph_self_contained_and_deterministic(self):
        page = render_flamegraph(self.STACKS, title="t")
        assert "http://" not in page and "https://" not in page
        assert "<script src=" not in page
        assert "simulate" in page and "place" in page
        assert page == render_flamegraph(self.STACKS, title="t")

    def test_empty_stacks_still_render(self):
        page = render_flamegraph({}, title="empty")
        assert "<html" in page


class TestDashboard:
    def _snapshot(self, records=()):
        return {
            "title": "repro experiment service — 127.0.0.1:0",
            "uptime_s": 12.5,
            "queue": {"depth": 2, "inflight": 1, "accepted": 9, "done": 8},
            "metrics": {
                "counters": {"service.completed": 8},
                "gauges": {"service.queue_depth": 2},
                "histograms": {"service.latency_s": {
                    "count": 8, "p50": 0.1, "p90": 0.4, "p99": 0.9,
                    "max": 0.9,
                }},
            },
            "recent": [{"id": "job-1", "kind": "table", "state": "done",
                        "wall_s": 1.25, "trace": "t" * 32}],
            "ledger_records": list(records),
        }

    def test_page_is_self_contained(self, tmp_path):
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.1, 0.9])
        page = render_dashboard(self._snapshot(ledger.read().records))
        assert "http://" not in page and "<script" not in page
        assert 'http-equiv="refresh"' in page
        assert "job-1" in page and "t" * 32 in page
        assert "table6.wall_s" in page  # the ledger trend drew

    def test_trend_fragment_deterministic_and_optional(self, tmp_path):
        assert trend_section_html([]) == ""
        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 2.0, 1.5])
        records = ledger.read().records
        first = trend_section_html(records)
        assert first == trend_section_html(records)
        assert "table6.wall_s" in first
        # One point is not a trend.
        assert trend_section_html(records[:1]) == ""

    def test_daemon_serves_dashboard(self, tmp_path):
        from repro.service.daemon import ExperimentService

        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        _seed(ledger, [1.0, 1.1, 1.05])
        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1,
            executor=lambda request, **_: {"output": "ok", "detail": {}},
            ledger=ledger.path,
        )
        service.start()
        try:
            page = urllib.request.urlopen(
                f"{service.url}/dashboard", timeout=5.0,
            ).read().decode()
        finally:
            service.shutdown(timeout=10.0)
        assert "http://" not in page and "<script" not in page
        assert "queue depth" in page
        assert "table6.wall_s" in page

    def test_dashboard_survives_torn_ledger(self, tmp_path):
        from repro.service.daemon import ExperimentService

        path = tmp_path / "led.jsonl"
        path.write_text('{"half a rec')
        service = ExperimentService(
            port=0, cache_dir=str(tmp_path / "cache"), workers=1,
            executor=lambda request, **_: {"output": "ok", "detail": {}},
            ledger=str(path),
        )
        service.start()
        try:
            page = urllib.request.urlopen(
                f"{service.url}/dashboard", timeout=5.0,
            ).read().decode()
        finally:
            service.shutdown(timeout=10.0)
        assert "queue depth" in page  # 200, not a 500


class TestPerfCommand:
    def _record(self, ledger, tmp_path, sha, wall, capsys):
        code = main([
            "perf", "record", "--ledger", ledger,
            "--bench-dir", str(tmp_path / "no-bench-files"),
            "--sha", sha, "--label", "test",
            "--metric", f"table6.wall_s={wall}",
            "--metric", "service.hit_rate=0.9",
        ])
        capsys.readouterr()
        assert code == 0

    def test_record_then_check_clean_exits_zero(self, tmp_path, capsys):
        ledger = str(tmp_path / "led.jsonl")
        for index, wall in enumerate([1.0, 1.02, 0.98, 1.01, 1.0]):
            self._record(ledger, tmp_path, f"sha{index}", wall, capsys)
        assert main(["perf", "check", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_synthetic_regression_exits_one(self, tmp_path, capsys):
        """Acceptance: 3x wall regression -> exit 1 from the CLI."""
        ledger = str(tmp_path / "led.jsonl")
        for index, wall in enumerate([1.0, 1.02, 0.98, 1.01, 3.0]):
            self._record(ledger, tmp_path, f"sha{index}", wall, capsys)
        assert main(["perf", "check", "--ledger", ledger]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "table6.wall_s" in out

    def test_history_and_compare(self, tmp_path, capsys):
        ledger = str(tmp_path / "led.jsonl")
        for index, wall in enumerate([1.0, 2.0]):
            self._record(ledger, tmp_path, f"sha{index}", wall, capsys)
        assert main(["perf", "history", "--ledger", ledger,
                     "--metric", "wall"]) == 0
        out = capsys.readouterr().out
        assert "table6.wall_s" in out and "sha1" in out
        assert main(["perf", "compare", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "table6.wall_s" in out and "+100.0%" in out

    def test_record_harvests_bench_dir(self, tmp_path, capsys):
        (tmp_path / "BENCH_x.json").write_text(json.dumps({"wall_s": 2.5}))
        ledger = str(tmp_path / "led.jsonl")
        assert main(["perf", "record", "--ledger", ledger,
                     "--bench-dir", str(tmp_path), "--sha", "s"]) == 0
        capsys.readouterr()
        view = PerfLedger(ledger).read()
        assert view.records[0]["metrics"]["x.wall_s"] == 2.5

    def test_empty_or_missing_ledger_exits_two(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.jsonl")
        assert main(["perf", "check", "--ledger", absent]) == 2
        assert main(["perf", "history", "--ledger", absent]) == 2
        assert main(["perf", "record", "--ledger", absent,
                     "--bench-dir", str(tmp_path / "empty")]) == 2
        capsys.readouterr()


class TestProfileOutFlag:
    def test_table_stdout_byte_identical_without_profiling(
        self, tmp_path, capsys,
    ):
        """Acceptance: --profile-out off is zero-overhead and absent from
        stdout; on, the table text is byte-identical and the artifacts
        appear."""
        base = ["table", "table2", "--scale", "small",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(base) == 0
        plain = capsys.readouterr().out
        prefix = str(tmp_path / "prof")
        assert main(base + ["--profile-out", prefix]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "flamegraph" in captured.err
        collapsed = open(prefix + ".collapsed").read()
        assert collapsed.strip(), "no stacks collected"
        page = open(prefix + ".html").read()
        assert "http://" not in page and "<script src=" not in page
