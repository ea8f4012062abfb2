"""The observability layer: tracer, metrics, recorder, and run reports."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.engine.telemetry import Telemetry
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.recorder import Recorder
from repro.obs.report import RunReport, compare
from repro.obs.trace import Tracer, chrome_trace_events


class TestNullRecorder:
    def test_default_recorder_is_null(self):
        assert obs.current() is obs.NULL
        assert not obs.current().enabled

    def test_null_span_is_one_shared_object(self):
        # Zero overhead: no allocation per span, no record per span.
        rec = obs.NULL
        assert rec.span("a") is rec.span("b", cat="x", attr=1)
        with rec.span("a"):
            with rec.span("b"):
                pass

    def test_null_ops_are_noops(self):
        rec = obs.NULL
        rec.event("x", value=1)
        rec.count("c")
        rec.gauge("g", 2.0)
        rec.observe("h", 3.0)
        rec.absorb([{"type": "event"}], {"counters": {"c": 1}})

    def test_unobserved_pipeline_records_nothing(self, small_runner):
        # The instrumented pipeline runs end to end without a recorder
        # installed and leaves no observable state behind.
        assert obs.current() is obs.NULL
        art = small_runner.artifacts("wc")
        assert art.placement is not None
        assert obs.current() is obs.NULL

    def test_use_restores_previous(self):
        rec = Recorder()
        with obs.use(rec):
            assert obs.current() is rec
        assert obs.current() is obs.NULL

    def test_untraced_records_carry_no_trace_key(self):
        # Zero overhead when no trace is attached: record schemas are
        # byte-identical to pre-tracing runs — no "trace" key anywhere.
        rec = Recorder()
        with rec.span("request", cat="service"):
            rec.event("store", result="hit")
        assert rec.trace_id is None
        assert "trace" not in rec.meta
        assert all("trace" not in record for record in rec.records)

    def test_traced_recorder_stamps_every_record(self):
        rec = Recorder(trace="ab" * 8)
        with rec.span("request", cat="service"):
            rec.event("store", result="hit")
        assert rec.meta["trace"] == "ab" * 8
        assert all(record["trace"] == "ab" * 8 for record in rec.records)


class TestTracer:
    def test_nesting_and_parents(self):
        sink: list = []
        tracer = Tracer(sink)
        with tracer.span("outer", cat="engine", workload="wc"):
            with tracer.span("inner", layout="optimized"):
                assert tracer.current_attrs() == {
                    "workload": "wc", "layout": "optimized",
                }
        inner, outer = sink
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["span_id"]
        assert outer["parent"] is None
        assert inner["dur"] <= outer["dur"]

    def test_span_record_survives_exceptions(self):
        sink: list = []
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert [r["name"] for r in sink] == ["doomed"]
        assert tracer.current_attrs() == {}

    def test_chrome_trace_schema(self):
        rec = Recorder()
        with rec.span("phase_a", cat="pipeline", workload="wc"):
            rec.event("cache_sim", miss_ratio=0.01)
        events = chrome_trace_events(rec.records)
        assert {e["ph"] for e in events} == {"X", "i"}
        for event in events:
            assert set(event) >= {"name", "cat", "ph", "ts", "pid", "tid"}
            assert event["ts"] >= 0.0
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["dur"] >= 0.0
        assert complete["args"] == {"workload": "wc"}
        instant = next(e for e in events if e["ph"] == "i")
        # The instant inherits the open span's attributes as context.
        assert instant["args"]["workload"] == "wc"
        assert instant["args"]["miss_ratio"] == 0.01
        json.dumps(events)  # the whole thing must be JSON-able


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("jobs").inc()
        reg.counter("jobs").inc(4)
        reg.gauge("load").set(0.5)
        for value in range(100):
            reg.histogram("latency").observe(value)
        snap = reg.to_dict()
        assert snap["counters"] == {"jobs": 5}
        assert snap["gauges"] == {"load": 0.5}
        hist = snap["histograms"]["latency"]
        assert hist["count"] == 100
        assert hist["min"] == 0 and hist["max"] == 99
        assert hist["mean"] == pytest.approx(49.5)
        assert 40 <= hist["p50"] <= 60

    def test_histogram_buckets_stay_bounded_and_deterministic(self):
        a = Histogram("h")
        b = Histogram("h")
        for value in range(10_000):
            a.observe(value)
            b.observe(value)
        # Log-linear bucketing: 16 sub-buckets per power of two, so
        # 10k distinct values collapse into a bounded sparse map.
        assert len(a.buckets) <= 16 * 15
        assert a.buckets == b.buckets          # no live randomness
        assert a.count == 10_000
        assert a.percentile(50) == pytest.approx(5000, rel=1 / 16)
        assert a.percentile(99) == pytest.approx(9900, rel=1 / 16)

    def test_histogram_bucket_merge_equals_single_process(self):
        # The property the service registry is built on: merging worker
        # snapshots is indistinguishable from one process observing the
        # whole stream.
        values = [0.0003 * (i % 97 + 1) * (1.7 ** (i % 11)) for i in range(500)]
        single = Histogram("h")
        for value in values:
            single.observe(value)
        workers = [Histogram("h") for _ in range(4)]
        for i, value in enumerate(values):
            workers[i % 4].observe(value)
        merged = Histogram("h")
        for worker in workers:
            merged.merge_summary(worker.summary())
        # Bucket counts, count, extrema, and hence every percentile are
        # byte-exact; only the float sum depends on addition order.
        ours, theirs = merged.summary(), single.summary()
        assert ours["buckets"] == theirs["buckets"]
        assert ours["zeros"] == theirs["zeros"]
        assert ours["count"] == theirs["count"]
        assert ours["min"] == theirs["min"] and ours["max"] == theirs["max"]
        for stat in ("p50", "p90", "p99"):
            assert ours[stat] == theirs[stat]
        assert ours["sum"] == pytest.approx(theirs["sum"])

    def test_merge_snapshot(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.counter("sims").inc(2)
        worker.counter("sims").inc(3)
        worker.gauge("last").set(7.0)
        for value in (1.0, 2.0, 3.0):
            worker.histogram("h").observe(value)
        main.histogram("h").observe(10.0)
        main.merge(worker.to_dict())
        snap = main.to_dict()
        assert snap["counters"]["sims"] == 5
        assert snap["gauges"]["last"] == 7.0
        merged = snap["histograms"]["h"]
        assert merged["count"] == 4            # exact across processes
        assert merged["sum"] == pytest.approx(16.0)
        assert merged["min"] == 1.0 and merged["max"] == 10.0

    def test_merge_empty_histogram_is_noop(self):
        main = MetricsRegistry()
        main.histogram("h").observe(1.0)
        main.merge({"histograms": {"h": {"count": 0, "sum": 0.0}}})
        assert main.histogram("h").count == 1

    def test_empty_histogram_percentiles_are_none(self):
        hist = Histogram("h")
        for q in (0, 50, 90, 99, 100):
            assert hist.percentile(q) is None
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None
        assert summary["p90"] is None and summary["p99"] is None
        assert summary["min"] is None and summary["max"] is None

    def test_single_sample_histogram(self):
        hist = Histogram("h")
        hist.observe(0.25)
        # Every quantile of one observation is that observation,
        # clamped into [min, max] regardless of bucket midpoints.
        for q in (0, 50, 90, 99, 100):
            assert hist.percentile(q) == pytest.approx(0.25)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["sum"] == pytest.approx(0.25)
        assert summary["mean"] == pytest.approx(0.25)
        assert summary["min"] == summary["max"] == 0.25

    def test_single_zero_sample_histogram(self):
        hist = Histogram("h")
        hist.observe(0.0)
        assert hist.zeros == 1 and not hist.buckets
        assert hist.percentile(50) == 0.0
        assert hist.summary()["p99"] == 0.0


class TestRecorderRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        rec = Recorder(meta={"tables": ["table6"], "scale": "small"})
        with rec.span("job", cat="engine", job_id="table:table6"):
            rec.event("cache_sim", miss_ratio=0.02, cache_bytes=2048)
            rec.count("cache_sims")
            rec.observe("miss_ratio", 0.02)
        path = str(tmp_path / "run.jsonl")
        rec.dump_jsonl(path)

        doc = Recorder.load_jsonl(path)
        assert doc["meta"]["tables"] == ["table6"]
        assert [r["type"] for r in doc["records"]] == ["event", "span"]
        assert doc["metrics"]["counters"] == {"cache_sims": 1}
        assert doc["metrics"]["histograms"]["miss_ratio"]["count"] == 1
        event = doc["records"][0]
        assert event["ctx"]["job_id"] == "table:table6"
        assert event["fields"]["miss_ratio"] == 0.02

    def test_absorb_worker_payload(self):
        main = Recorder()
        worker = Recorder()
        with worker.span("job", cat="engine"):
            worker.event("cache_sim", miss_ratio=0.5)
        worker.count("cache_sims", 2)
        main.count("cache_sims", 1)
        main.absorb(worker.records, worker.metrics.to_dict())
        assert len(main.records) == 2
        assert main.metrics.counter("cache_sims").value == 3


class TestRunReport:
    def _run_doc(self, miss=0.02):
        rec = Recorder(meta={
            "tables": ["table6"], "scale": "small",
            "telemetry_totals": {
                "jobs": 2, "interp_instructions": 100,
                "store_hits": 1, "store_misses": 1, "wall_s_sum": 0.5,
                "jobs_wall_s_sum": 1.75, "memo_hits": 1,
            },
        })
        with rec.span("job", cat="engine", job_id="table:table6"):
            with rec.span("simulate", cat="simulation",
                          workload="wc", layout="optimized"):
                rec.event(
                    "cache_sim", miss_ratio=miss, cache_bytes=2048,
                    block_bytes=64, accesses=1000,
                    misses=int(1000 * miss), organization="direct",
                    top_sets=[[3, 17], [1, 9]],
                )
            rec.event(
                "placement", workload="wc", total_bytes=148,
                effective_bytes=148,
                top_traces=[["main", 5, 55347]],
            )
            # Rehydration emits the same placement again; reports dedupe.
            rec.event(
                "placement", workload="wc", total_bytes=148,
                effective_bytes=148,
                top_traces=[["main", 5, 55347]],
            )
        return RunReport({
            "meta": rec.meta, "records": rec.records,
            "metrics": rec.metrics.to_dict(),
        })

    def test_queries(self):
        report = self._run_doc()
        assert report.miss_ratios()[
            ("wc", "optimized", 2048, 64)
        ]["miss_ratio"] == 0.02
        assert report.top_conflict_sets()[0] == (17, "wc", "2K/64B", 3)
        assert report.hottest_traces() == [(55347, "wc", "main", 5)]
        assert report.effective_regions() == [("wc", 148, 148)]
        timings = report.phase_timings()
        assert {(cat, name) for cat, name, _, _ in timings} == {
            ("engine", "job"), ("simulation", "simulate"),
        }

    def test_render_mentions_every_section(self):
        text = self._run_doc().render()
        for needle in (
            "per-phase span timings", "per-workload miss ratios",
            "top conflict sets", "hottest traces",
            "effective-region sizes", "store: 1 hits / 1 misses",
            "memo hits 1",
            "wall: table jobs 0.50s, all jobs 1.75s",
        ):
            assert needle in text

    def test_telemetry_totals_sum_table_and_all_job_walls(self):
        telemetry = Telemetry()
        telemetry.record(job_id="artifacts:wc", kind="artifacts",
                         wall_s=1.25, interp_instructions=10, store="miss")
        telemetry.record(job_id="table:table6", kind="table", wall_s=0.5)
        telemetry.record(job_id="explain:wc", kind="explain", wall_s=0.25)
        totals = telemetry.totals()
        # The key the CI observability job checks keeps its meaning.
        assert totals["wall_s_sum"] == 0.5
        assert totals["jobs_wall_s_sum"] == 2.0
        assert totals["jobs"] == 3 and totals["store_misses"] == 1

    def test_compare_flags_regression(self):
        baseline = self._run_doc(miss=0.02)
        regressed = self._run_doc(miss=0.03)
        text, regressions = compare(baseline, regressed, threshold=0.10)
        assert len(regressions) == 1
        assert "REGRESSION" in text

    def test_compare_tolerates_small_and_improved(self):
        baseline = self._run_doc(miss=0.02)
        _, regressions = compare(
            baseline, self._run_doc(miss=0.021), threshold=0.10
        )
        assert regressions == []
        _, regressions = compare(
            baseline, self._run_doc(miss=0.01), threshold=0.10
        )
        assert regressions == []

    def test_compare_treats_missing_new_keys_as_zero_with_warning(self):
        # An old run file predates keys a newer format added: comparing
        # it must warn and count the absence as 0, never crash.
        old = self._run_doc()
        for key in ("store_hits", "store_misses"):
            del old.meta["telemetry_totals"][key]
        text, regressions = compare(old, self._run_doc(), threshold=0.10)
        assert regressions == []
        assert "treating it as 0" in text
        assert "store_hits" in text
        # Same tolerance the other way around (new run vs. old baseline).
        text, regressions = compare(self._run_doc(), old, threshold=0.10)
        assert regressions == []
        assert "treating it as 0" in text

    def test_attributions_tolerate_old_key_formats(self):
        report = self._run_doc()
        payload = {"misses": 10, "compulsory": 2, "capacity": 3,
                   "conflict": 5}
        report.meta["attribution"] = {
            "wc|optimized|direct|2048|64": payload,
            "wc|optimized|2048|64": payload,     # skipped, not fatal
            "unparseable": payload,              # skipped, not fatal
        }
        rows = report.attributions()
        assert len(rows) == 1
        keys = [key for key, _ in rows]
        assert ("wc", "optimized", "direct", 2048, 64) in keys
        assert "miss attribution" in report.render()


class TestInstrumentation:
    def test_simulators_emit_cache_sim_events(self):
        import numpy as np

        from repro.cache.direct import simulate_direct
        from repro.cache.set_assoc import simulate_set_associative
        from repro.cache.vectorized import simulate_direct_vectorized

        addresses = [0, 64, 0, 2048, 0, 4096] * 50
        rec = Recorder()
        with obs.use(rec):
            simulate_direct(addresses, 2048, 64)
            simulate_set_associative(addresses, 2048, 64, 2)
            simulate_direct_vectorized(np.array(addresses), 2048, 64)
        events = [r for r in rec.records if r.get("type") == "event"]
        assert [e["name"] for e in events] == ["cache_sim"] * 3
        organizations = {e["fields"]["organization"] for e in events}
        assert organizations == {"direct", "2-way", "direct-vectorized"}
        # Direct-mapped results agree, so their per-set conflicts do too.
        direct, assoc, vectorized = events
        assert direct["fields"]["misses"] == vectorized["fields"]["misses"]
        assert direct["fields"]["top_sets"] == vectorized["fields"]["top_sets"]
        assert rec.metrics.counter("cache_sims").value == 3

    def test_trace_selection_emits_cutoffs(self, call_program, call_profile):
        from repro.placement.trace_selection import select_traces

        rec = Recorder()
        with obs.use(rec):
            for function in call_program.functions:
                select_traces(function, call_profile)
        counters = rec.metrics.counter_values()
        assert counters["traces_selected"] > 0
        assert "trace_cutoff_min_prob" in counters
        hist = rec.metrics.histogram("trace_length_blocks")
        assert hist.count == counters["traces_selected"]

    def test_table6_step3_counters_count_the_layout_once(self):
        from repro import experiments
        from repro.experiments.runner import ExperimentRunner

        rec = Recorder()
        with obs.use(rec):
            experiments.table6.run(ExperimentRunner(scale="small", store=None))
        counters = rec.metrics.counter_values()
        assert {
            name: value for name, value in counters.items()
            if name == "traces_selected" or name.startswith("trace_cutoff_")
        } == {
            "traces_selected": 792,
            "trace_cutoff_already_selected": 102,
            "trace_cutoff_min_prob": 796,
            "trace_cutoff_zero_weight": 487,
        }
        assert rec.metrics.histogram("trace_length_blocks").count == 792

    def test_interpreter_regions_add_no_trace_selection_counts(
        self, monkeypatch
    ):
        # Region formation runs the paper's selector too, but under the
        # null recorder: a build that runs regions reports the same
        # Step 3 counters as one that runs blocks only.
        from repro.experiments.runner import ExperimentRunner, clear_memo
        from repro.interp import regions as interp_regions

        formed = []

        class Spy(interp_regions.Regions):
            def __init__(self, program, counts):
                super().__init__(program, counts)
                formed.append(self)

        def selection_counters(regions):
            monkeypatch.setattr(interp_regions, "Regions", regions)
            # A fresh program, so its regions form inside this build.
            clear_memo()
            rec = Recorder()
            with obs.use(rec):
                ExperimentRunner(scale="small", store=None).artifacts("wc")
            return {
                name: value
                for name, value in rec.metrics.counter_values().items()
                if name == "traces_selected" or name.startswith("trace_")
            }, rec.metrics.histogram("trace_length_blocks").count

        with_regions = selection_counters(Spy)
        assert formed and any(regions.codes for regions in formed)

        class BlocksOnly:
            def __init__(self, program, counts):
                pass

            def code(self, program, bid):
                return None

        assert selection_counters(BlocksOnly) == with_regions
        assert with_regions[0]["traces_selected"] > 0

    def test_pipeline_spans_cover_phases(self):
        from repro.experiments.runner import ExperimentRunner

        rec = Recorder()
        with obs.use(rec):
            ExperimentRunner(scale="small").artifacts("cmp")
        names = {
            r["name"] for r in rec.records if r.get("type") == "span"
        }
        assert {"artifacts", "trace_selection", "function_layout",
                "global_layout"} <= names

    def test_execute_job_ships_records_when_observing(self, tmp_path):
        from repro.engine.jobs import JobSpec, execute_job

        spec = JobSpec(
            job_id="artifacts:wc", kind="artifacts",
            params={"workload": "wc", "scale": "small"},
        )
        outcome = execute_job(
            spec, cache_dir=str(tmp_path / "cache"), sinks={"obs": None}
        )
        assert obs.current() is obs.NULL   # recorder uninstalled after
        assert any(
            r.get("type") == "span" and r["name"] == "job"
            for r in outcome.sidecars["obs"]["records"]
        )
        assert outcome.sidecars["obs"]["metrics"]["counters"]["interp_runs"] > 0

    def test_execute_job_unobserved_ships_nothing(self, tmp_path):
        from repro.engine.jobs import JobSpec, execute_job

        spec = JobSpec(
            job_id="artifacts:wc", kind="artifacts",
            params={"workload": "wc", "scale": "small"},
        )
        outcome = execute_job(spec, cache_dir=str(tmp_path / "cache"))
        assert outcome.sidecars == {}


class TestEventLog:
    def test_levels_envelope_and_filtering(self, tmp_path):
        from repro.obs.logs import EventLog

        log = EventLog(str(tmp_path))
        log.info("accept", trace="aa" * 8, job="job-1", kind="table")
        log.error("attempt_failed", job="job-1", cause="boom")
        log.close()
        lines = [json.loads(line) for line in
                 open(log.path).read().splitlines()]
        assert [record["event"] for record in lines] == [
            "accept", "attempt_failed",
        ]
        first = lines[0]
        assert list(first)[:3] == ["ts", "level", "event"]
        assert first["trace"] == "aa" * 8 and first["job"] == "job-1"
        assert lines[1]["level"] == "error"

    def test_size_rotation_keeps_bounded_generations(self, tmp_path,
                                                     monkeypatch):
        import os

        from repro.obs import logs
        from repro.obs.logs import EventLog

        monkeypatch.setattr(logs, "MAX_BYTES", 512)
        monkeypatch.setattr(logs, "KEEP", 2)
        log = EventLog(str(tmp_path))
        for index in range(200):
            log.info("tick", job=f"job-{index:04d}", payload="x" * 40)
        log.close()
        produced = sorted(
            name for name in os.listdir(tmp_path)
            if name.startswith("events.jsonl")
        )
        # Active file plus at most `KEEP` rotated generations.
        assert produced == ["events.jsonl", "events.jsonl.1",
                            "events.jsonl.2"]
        assert os.path.getsize(log.path) <= 512 + 200
        # Every surviving line is intact JSON (rotation never tears).
        for name in produced:
            for line in open(tmp_path / name).read().splitlines():
                json.loads(line)

    def test_null_log_is_disabled_and_writes_nothing(self, tmp_path):
        from repro.obs.logs import NULL_LOG

        assert not NULL_LOG.enabled
        NULL_LOG.info("anything", job="j")
        NULL_LOG.close()


class TestPrometheusExposition:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("service.requests").inc(3)
        registry.counter("service.requests_table").inc(2)
        registry.gauge("service.queue_depth").set(1)
        for value in (0.001, 0.004, 0.02, 0.02, 1.5):
            registry.histogram("service.latency_s").observe(value)
            registry.histogram("service.latency_s_table").observe(value)
        registry.histogram("service.http_latency_s_submit").observe(0.002)
        return registry.to_dict()

    def test_render_is_valid_and_labelled(self):
        from repro.obs.prom import render_prometheus, validate_exposition

        text = render_prometheus(self._snapshot())
        assert validate_exposition(text) == []
        assert "# TYPE repro_service_requests counter" in text
        assert 'repro_service_requests{kind="table"} 2' in text
        assert "# TYPE repro_service_latency_s histogram" in text
        assert 'repro_service_latency_s_bucket{kind="table",le=' in text
        assert 'repro_service_http_latency_s_bucket{endpoint="submit",le='\
            in text
        assert "repro_service_queue_depth 1" in text
        # One TYPE line per family even with labelled + plain series.
        assert text.count("# TYPE repro_service_latency_s histogram") == 1

    def test_histogram_buckets_are_cumulative_and_capped(self):
        from repro.obs.prom import render_prometheus

        text = render_prometheus(self._snapshot())
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_service_latency_s_bucket{le=")
        ]
        assert buckets == sorted(buckets)
        inf = [line for line in text.splitlines()
               if line.startswith('repro_service_latency_s_bucket{le="+Inf"')]
        assert inf and inf[0].endswith(" 5")

    def test_validator_catches_structural_problems(self):
        from repro.obs.prom import validate_exposition

        assert validate_exposition("repro_orphan 1\n")
        assert validate_exposition(
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        assert validate_exposition("# BOGUS comment here\n")
