"""Tests for the command-line interface."""

import pytest

from repro.cli import TABLE_CHOICES, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_paper_table_is_a_choice(self):
        for n in range(1, 10):
            assert f"table{n}" in TABLE_CHOICES
        assert "comparison" in TABLE_CHOICES

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "wc"])
        assert args.cache == 2048 and args.block == 64
        assert args.layout == "optimized"

    def test_table_engine_defaults(self):
        args = build_parser().parse_args(["table", "table6"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache
        assert args.telemetry is None
        assert args.retries == 0
        assert args.job_timeout is None

    def test_table_fault_tolerance_flags(self):
        args = build_parser().parse_args([
            "table", "table6", "--retries", "2", "--job-timeout", "30",
        ])
        assert args.retries == 2
        assert args.job_timeout == 30.0


class TestUnknownTable:
    def test_exits_with_code_2_and_usage(self, capsys):
        assert main(["table", "table42"]) == 2
        err = capsys.readouterr().err
        assert "unknown table 'table42'" in err
        assert "usage: repro table" in err
        assert "table6" in err          # the valid names are listed

    def test_does_not_traceback(self, capsys):
        # A bad name must be a clean exit, never an exception.
        assert main(["table", ""]) == 2
        assert main(["table", "TABLE6"]) == 2


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("cccp", "wc", "yacc"):
            assert name in out

    def test_table1(self, capsys):
        assert main(["table", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Design Target" in out and "6.8%" in out

    def test_table4_small(self, capsys):
        assert main(["table", "table4", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Trace Selection Results" in out
        assert "wc" in out

    def test_optimize_small(self, capsys):
        code = main([
            "optimize", "tee", "--scale", "small",
            "--cache", "512", "--block", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "inline expansion" in out
        assert "512B/32B" in out
        assert "miss" in out

    def test_optimize_alternative_layout(self, capsys):
        code = main([
            "optimize", "wc", "--scale", "small", "--layout", "natural",
        ])
        assert code == 0
        assert "natural layout" in capsys.readouterr().out

    def test_disasm_source(self, capsys):
        assert main(["disasm", "tee"]) == 0
        out = capsys.readouterr().out
        assert "function sys_read [syscall]" in out
        assert "function main" in out

    def test_disasm_single_function(self, capsys):
        assert main(["disasm", "tee", "--function", "sys_write"]) == 0
        out = capsys.readouterr().out
        assert "sys_write" in out and "main" not in out

    def test_disasm_map(self, capsys):
        assert main(["disasm", "wc", "--map", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "main/" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["disasm", "nope"])


class TestEngineFlags:
    def test_table_shorthand(self, capsys, tmp_path):
        code = main([
            "table4", "--scale", "small",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        assert "Trace Selection Results" in capsys.readouterr().out

    def test_warm_rerun_via_telemetry(self, capsys, tmp_path):
        from repro.engine.telemetry import Telemetry

        cache = str(tmp_path / "cache")
        for run in ("cold", "warm"):
            path = str(tmp_path / f"{run}.json")
            assert main([
                "table", "table6", "--scale", "small",
                "--cache-dir", cache, "--telemetry", path,
            ]) == 0
        outputs = capsys.readouterr().out
        cold = Telemetry.load(str(tmp_path / "cold.json"))
        warm = Telemetry.load(str(tmp_path / "warm.json"))
        assert cold["totals"]["interp_instructions"] > 0
        assert warm["totals"]["interp_instructions"] == 0
        assert warm["totals"]["store_hits"] == 10
        first, second = outputs.split("Table 6.")[1:]
        assert first == second          # warm output is bit-identical

    def test_no_cache_leaves_directory_untouched(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main([
            "table", "table6", "--scale", "small",
            "--cache-dir", str(cache), "--no-cache",
        ]) == 0
        assert not cache.exists()


class TestReportCommands:
    def test_trace_out_then_report(self, capsys, tmp_path):
        run = str(tmp_path / "run.jsonl")
        chrome = str(tmp_path / "run.chrome.json")
        assert main([
            "table6", "--scale", "small",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-out", run, "--chrome-trace", chrome,
        ]) == 0
        capsys.readouterr()

        assert main(["report", run]) == 0
        out = capsys.readouterr().out
        for needle in (
            "per-phase span timings", "per-workload miss ratios",
            "top conflict sets", "hottest traces", "effective-region",
        ):
            assert needle in out
        # Every paper workload's miss ratios made it into the report.
        for name in ("wc", "cccp", "yacc"):
            assert name in out

        import json

        doc = json.load(open(chrome))
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i"}

    def test_compare_detects_injected_regression(self, capsys, tmp_path):
        import json

        run = str(tmp_path / "run.jsonl")
        assert main([
            "table6", "--scale", "small",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-out", run,
        ]) == 0
        capsys.readouterr()

        # Identical runs never regress.
        assert main(["report", "--compare", run, run]) == 0
        capsys.readouterr()

        # Inflate every miss ratio by 50% — well past the 10% gate.
        regressed = str(tmp_path / "regressed.jsonl")
        with open(run) as src, open(regressed, "w") as dst:
            for line in src:
                record = json.loads(line)
                if (
                    record.get("type") == "event"
                    and record.get("name") == "cache_sim"
                ):
                    record["fields"]["miss_ratio"] *= 1.5
                dst.write(json.dumps(record) + "\n")
        assert main(["report", "--compare", run, regressed]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

        # The regressed run as baseline: the candidate only improved.
        assert main(["report", "--compare", regressed, run]) == 0

    def test_report_requires_an_argument(self, capsys):
        assert main(["report"]) == 2
        assert "RUN.jsonl" in capsys.readouterr().err


class TestCacheCommands:
    def test_ls_stats_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main([
            "table6", "--scale", "small", "--cache-dir", cache,
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "wc" in out and "small" in out

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries:            10" in out
        assert "quarantine entries: 0" in out
        assert "quarantine bytes:   0" in out

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "removed 10" in out

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries:            0" in capsys.readouterr().out

    def test_verify_clean_then_corrupt(self, capsys, tmp_path):
        import os

        cache = str(tmp_path / "cache")
        assert main([
            "table4", "--scale", "small", "--cache-dir", cache,
        ]) == 0
        capsys.readouterr()

        assert main(["cache", "verify", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "checked 10 entries: 10 ok, 0 corrupt" in out

        objects = os.path.join(cache, "objects")
        victim = sorted(os.listdir(objects))[0]
        with open(
            os.path.join(objects, victim, "arrays.npz"), "r+b"
        ) as handle:
            handle.truncate(6)
        assert main(["cache", "verify", "--cache-dir", cache]) == 1
        out = capsys.readouterr().out
        assert "9 ok, 1 corrupt" in out
        assert f"quarantined {victim}" in out
        assert os.path.exists(os.path.join(cache, "quarantine", victim))

        # The quarantined entry shows up in the stats report.
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "quarantine entries: 1" in out
        assert "quarantine bytes:   0" not in out

        # The store self-healed: a re-verify is clean again.
        assert main(["cache", "verify", "--cache-dir", cache]) == 0

    def test_ls_rebuilds_damaged_index(self, capsys, tmp_path):
        import json
        import os

        cache = str(tmp_path / "cache")
        assert main([
            "table4", "--scale", "small", "--cache-dir", cache,
        ]) == 0
        capsys.readouterr()
        index_path = os.path.join(cache, "index.json")
        with open(index_path, "w") as handle:
            handle.write("garbage {")
        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        assert "wc" in capsys.readouterr().out
        assert len(json.load(open(index_path))["entries"]) == 10


class TestPartialFailure:
    def test_exhausted_retries_exit_3_with_summary(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:job=artifacts:wc")
        code = main([
            "table", "table4", "--scale", "small",
            "--cache-dir", str(tmp_path / "cache"), "--retries", "1",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "1 of 11 jobs failed, 1 skipped" in captured.err
        assert "artifacts:wc" in captured.err
        assert "table:table4" in captured.err
        assert "Traceback" not in captured.err


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.jobs == 1
        assert args.workers == 1
        assert args.queue_depth == 64
        assert args.cache_dir is None
        assert args.trace_dir is None

    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--jobs", "4", "--workers", "2",
            "--queue-depth", "8", "--cache-dir", "/tmp/c",
            "--trace-dir", "/tmp/t",
        ])
        assert args.port == 0 and args.jobs == 4 and args.workers == 2
        assert args.queue_depth == 8

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "table", "table6"])
        assert args.kind == "table" and args.name == "table6"
        assert args.url == "http://127.0.0.1:8787"
        assert not args.wait and args.scale is None
        assert args.param == [] and args.receipt is None

    def test_submit_params_repeat(self):
        args = build_parser().parse_args([
            "submit", "explain", "wc", "--scale", "small",
            "--param", "cache_bytes=1024", "--param", "top=3", "--wait",
        ])
        assert args.param == ["cache_bytes=1024", "top=3"]
        assert args.wait and args.scale == "small"

    def test_submit_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "bogus"])

    def test_status_job_id_optional(self):
        assert build_parser().parse_args(["status"]).job_id is None
        assert build_parser().parse_args(
            ["status", "job-000001"]
        ).job_id == "job-000001"

    def test_cache_gc_flags(self):
        # --max-bytes is required (the missing-flag exit is covered in
        # test_store_gc).
        args = build_parser().parse_args(
            ["cache", "gc", "--max-bytes", "1000"]
        )
        assert args.max_bytes == 1000


class TestServiceCommands:
    def test_submit_without_name_is_usage_error(self, capsys):
        assert main(["submit", "table"]) == 2
        assert "needs a NAME" in capsys.readouterr().err

    def test_submit_bad_param_is_usage_error(self, capsys):
        assert main([
            "submit", "explain", "wc", "--param", "nonsense",
        ]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_submit_unreachable_daemon_exits_1(self, capsys):
        assert main([
            "submit", "table", "table6",
            "--url", "http://127.0.0.1:1",   # nothing listens on port 1
        ]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_status_unreachable_daemon_exits_1(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_cache_gc_negative_budget_is_usage_error(self, capsys, tmp_path):
        assert main([
            "cache", "gc", "--max-bytes", "-1",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_cache_gc_shrinks_to_budget(self, capsys, tmp_path):
        import os

        cache = str(tmp_path / "cache")
        assert main([
            "table6", "--scale", "small", "--cache-dir", cache,
        ]) == 0
        capsys.readouterr()

        from repro.engine.store import ArtifactStore

        store = ArtifactStore(cache)
        sizes = sorted(entry.nbytes for entry in store.entries())
        # The largest single entry always fits, so the LRU sweep must
        # stop with at least one survivor — and with ten entries the
        # total exceeds the budget, so it must evict at least one.
        budget = sizes[-1]
        assert main([
            "cache", "gc", "--max-bytes", str(budget),
            "--cache-dir", cache,
        ]) == 0
        out = capsys.readouterr().out
        assert f"(budget {budget})" in out
        assert "entries evicted:" in out
        remaining = ArtifactStore(cache).entries()
        assert 0 < len(remaining) < 10
        assert sum(entry.nbytes for entry in remaining) <= budget
        # Gone from disk, not just the index.
        assert len(os.listdir(os.path.join(cache, "objects"))) == len(
            remaining
        )

    def test_serve_submit_status_roundtrip(self, capsys, tmp_path):
        """One in-process daemon: submit --wait output == direct CLI."""
        from repro.service import ExperimentService

        cache = str(tmp_path / "cache")
        service = ExperimentService(port=0, cache_dir=cache, workers=1)
        service.start()
        try:
            assert main([
                "submit", "explain", "wc", "--scale", "small",
                "--param", "top=3", "--url", service.url, "--wait",
                "--receipt", str(tmp_path / "receipt.json"),
                "--timeout", "240",
            ]) == 0
            via_http = capsys.readouterr().out

            assert main(["status", "--url", service.url]) == 0
            health = capsys.readouterr().out
            assert '"status": "ok"' in health

            assert main([
                "status", "job-000001", "--url", service.url,
            ]) == 0
            assert '"state": "done"' in capsys.readouterr().out
        finally:
            service.shutdown(timeout=10.0)

        assert main([
            "explain", "wc", "--scale", "small", "--top", "3",
            "--cache-dir", cache,
        ]) == 0
        assert capsys.readouterr().out == via_http

        import json

        receipt = json.load(open(tmp_path / "receipt.json"))
        assert receipt["kind"] == "explain"
        assert receipt["store"]["keys"]
