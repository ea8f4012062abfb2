"""End-to-end tests for ``repro explain`` and the attribution dashboard."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def attributed_run(tmp_path_factory):
    """One attributed table6 run (small scale), shared by the module."""
    base = tmp_path_factory.mktemp("attributed-run")
    run_path = str(base / "run.jsonl")
    code = main([
        "table", "table6", "--scale", "small",
        "--cache-dir", str(base / "cache"),
        "--attribution", "--trace-out", run_path,
    ])
    assert code == 0
    return run_path


class TestExplain:
    def test_explains_both_layouts(self, capsys, tmp_path):
        code = main([
            "explain", "cccp", "--scale", "small",
            "--cache-dir", str(tmp_path), "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[optimized layout]" in out
        assert "[natural layout]" in out
        assert "3C: compulsory" in out
        assert "victim -> evictor" in out
        assert "per-set miss heat map" in out
        assert "[optimized vs natural]" in out
        assert "conflict misses:" in out

    def test_opt_explain_is_reproducible(self, capsys, tmp_path):
        from repro.experiments.runner import clear_memo

        outputs = []
        for _ in range(2):
            # Each run hydrates afresh, replaying (and re-timing) the
            # middle-end passes.
            clear_memo()
            assert main([
                "explain", "cccp", "--scale", "small", "--opt", "all",
                "--cache-dir", str(tmp_path),
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert "[middle-end: " in outputs[0]
        assert outputs[0] == outputs[1]

    def test_opt_explain_telemetry_counts_both_builds(self, tmp_path):
        """Both executions of a cold ``--opt`` explain reach telemetry."""
        from repro import obs
        from repro.engine.telemetry import Telemetry
        from repro.service.schemas import normalize_request
        from repro.service.worker import execute_request

        telemetry = Telemetry()
        recorder = obs.Recorder()
        with obs.use(recorder):
            execute_request(
                normalize_request({"kind": "explain", "workload": "cmp",
                                   "scale": "small", "opt": "dce"}),
                cache_dir=str(tmp_path), telemetry=telemetry,
            )
        totals = telemetry.totals()
        executed = recorder.metrics.counter_values()["interp_instructions"]
        assert totals["interp_instructions"] == executed
        assert totals["store_misses"] == 2

    def test_unknown_workload_is_a_clean_exit(self, capsys):
        assert main(["explain", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--assoc", "3"],
        ["--assoc", "64"],          # 2 KB / 64 B holds 32 blocks
        ["--cache-bytes", "3000"],
        ["--cache-bytes", "64", "--block-bytes", "4096"],
        # Bounds the daemon enforces too (the same normalize_request).
        ["--top", "0"],
        ["--cache-bytes", "33554432"],
        ["--block-bytes", "8192", "--cache-bytes", "16384"],
    ], ids=["assoc-3", "assoc-64", "cache-3000", "block-over-cache",
            "top-0", "cache-32m", "block-8k"])
    def test_bad_geometry_is_a_clean_exit(self, capsys, tmp_path, flags):
        # Rejected before any artifact is built: the store stays empty.
        store = tmp_path / "store"
        assert main(["explain", "wc", "--scale", "small",
                     "--cache-dir", str(store), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro explain: ")
        assert len(err.strip().splitlines()) == 1
        assert not store.exists()

    def test_top_bounds_the_rankings(self, capsys, tmp_path):
        assert main([
            "explain", "cccp", "--scale", "small",
            "--cache-dir", str(tmp_path), "--top", "1",
        ]) == 0
        out = capsys.readouterr().out
        # One ranked function row per layout section.
        function_rows = [
            line for line in out.splitlines()
            if line.startswith(("main ", "directive"))
        ]
        assert len(function_rows) <= 4   # <=2 tables of <=2 ranked rows


class TestTableAttributionFlag:
    def test_requires_trace_out(self, capsys):
        assert main([
            "table", "table6", "--scale", "small", "--attribution",
        ]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_attribution_lands_in_the_run_file(self, attributed_run):
        with open(attributed_run) as handle:
            meta = json.loads(handle.readline())
        assert meta["type"] == "meta"
        attribution = meta["attribution"]
        assert attribution
        for flat_key, payload in attribution.items():
            workload, layout, org, cache, block = flat_key.split("|")
            assert payload["compulsory"] + payload["capacity"] \
                + payload["conflict"] == payload["misses"]

    def test_table_bytes_unchanged_by_attribution(
        self, capsys, tmp_path
    ):
        # Attribution must be observational: the rendered table is
        # byte-identical with and without it.
        cache = str(tmp_path / "cache")
        assert main([
            "table", "table6", "--scale", "small", "--cache-dir", cache,
        ]) == 0
        plain = capsys.readouterr().out
        assert main([
            "table", "table6", "--scale", "small", "--cache-dir", cache,
            "--attribution", "--trace-out", str(tmp_path / "run.jsonl"),
        ]) == 0
        attributed = capsys.readouterr().out
        assert plain == attributed


class TestReportRendering:
    def test_text_report_includes_attribution(self, capsys, attributed_run):
        assert main(["report", attributed_run]) == 0
        out = capsys.readouterr().out
        assert "miss attribution (3C" in out
        assert "top conflicting function pairs" in out

    def test_html_dashboard_is_self_contained(
        self, capsys, tmp_path, attributed_run
    ):
        out_path = str(tmp_path / "dash.html")
        assert main([
            "report", attributed_run, "--html", out_path, "--top", "5",
        ]) == 0
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
        assert text.startswith("<!DOCTYPE html>")
        assert "Miss attribution (3C)" in text
        assert 'class="bar"' in text          # the stacked 3C bars
        assert 'class="heat"' in text         # the per-set heat map
        # Self-contained: no external fetches of any kind.
        for banned in ("http://", "https://", "<script", "src=", "@import"):
            assert banned not in text

    def test_html_ledger_trend_section_deterministic(
        self, capsys, tmp_path, attributed_run
    ):
        from repro.perf.ledger import PerfLedger

        ledger = PerfLedger(str(tmp_path / "led.jsonl"))
        for index, wall in enumerate([1.0, 1.2, 1.1]):
            ledger.append(f"sha{index}", "ci",
                          {"observability.tables.table6.wall_s": wall})
        out_a = str(tmp_path / "a.html")
        out_b = str(tmp_path / "b.html")
        for out_path in (out_a, out_b):
            assert main([
                "report", attributed_run, "--html", out_path,
                "--ledger", ledger.path,
            ]) == 0
        text = open(out_a, encoding="utf-8").read()
        assert "Performance trends (perf ledger)" in text
        assert "observability.tables.table6.wall_s" in text
        # Still self-contained with the trend section appended...
        for banned in ("http://", "https://", "<script", "src="):
            assert banned not in text
        # ...and deterministic: a fixed ledger renders identical bytes.
        assert text == open(out_b, encoding="utf-8").read()
        # Without --ledger the section is absent.
        plain = str(tmp_path / "plain.html")
        assert main(["report", attributed_run, "--html", plain]) == 0
        assert "perf ledger" not in open(plain, encoding="utf-8").read()

    def test_html_without_attribution_still_renders(self, capsys, tmp_path):
        run_path = str(tmp_path / "plain.jsonl")
        assert main([
            "table", "table6", "--scale", "small",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace-out", run_path,
        ]) == 0
        out_path = str(tmp_path / "plain.html")
        assert main(["report", run_path, "--html", out_path]) == 0
        text = open(out_path, encoding="utf-8").read()
        assert "Per-workload miss ratios" in text
        assert "Miss attribution" not in text

    def test_parallel_attribution_matches_sequential(self, tmp_path):
        cache = str(tmp_path / "cache")
        runs = {}
        for jobs in ("1", "2"):
            run_path = str(tmp_path / f"run{jobs}.jsonl")
            assert main([
                "table", "table6", "--scale", "small", "--cache-dir", cache,
                "--jobs", jobs, "--attribution", "--trace-out", run_path,
            ]) == 0
            with open(run_path) as handle:
                runs[jobs] = json.loads(handle.readline())["attribution"]
        assert runs["1"] == runs["2"]
