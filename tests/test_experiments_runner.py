"""Unit tests for the shared experiment runner."""

import numpy as np
import pytest

from repro import obs
from repro.engine.telemetry import Telemetry
from repro.experiments.runner import ExperimentRunner
from repro.interp.interpreter import Interpreter
from repro.opt import OptOptions
from repro.placement.pipeline import PlacementOptions


class TestArtifacts:
    def test_artifacts_are_cached(self, small_runner):
        first = small_runner.artifacts("wc")
        second = small_runner.artifacts("wc")
        assert first is second

    def test_names_are_the_paper_suite(self, small_runner):
        assert small_runner.names() == [
            "cccp", "cmp", "compress", "grep", "lex",
            "make", "tee", "tar", "wc", "yacc",
        ]

    def test_traces_cover_both_programs(self, small_runner):
        art = small_runner.artifacts("wc")
        assert len(art.trace) > 0
        assert len(art.original_trace) > 0

    def test_image_property_is_optimized_image(self, small_runner):
        art = small_runner.artifacts("wc")
        assert art.image is art.placement.image
        assert art.program is art.placement.program


class TestInterpretOnce:
    def test_cold_build_runs_each_input_once(self, monkeypatch):
        programs = []
        run = Interpreter.run

        def counting_run(self, *args, **kwargs):
            programs.append(self.program)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run", counting_run)
        art = ExperimentRunner(scale="small").artifacts("cccp")
        assert art.placement.inline_report.inlined_sites
        # One run per profiling input plus the trace input, all on the
        # original program: neither the post-inline profile nor the
        # placed trace is interpreted.
        runs = len(art.workload.profiling_inputs("small")) + 1
        assert len(programs) == runs
        assert all(program is art.original_program for program in programs)

    @pytest.mark.parametrize("passes", [None, "lvn,simplify,dce"])
    def test_telemetry_counts_interpreted_instructions(self, passes):
        telemetry = Telemetry()
        options = PlacementOptions(opt=OptOptions.parse(passes))
        runner = ExperimentRunner(
            scale="small", options=options, telemetry=telemetry
        )
        recorder = obs.Recorder()
        with obs.use(recorder):
            runner.artifacts("cccp")
        executed = recorder.metrics.counter_values()["interp_instructions"]
        assert telemetry.totals()["interp_instructions"] == executed


class TestAddresses:
    def test_optimized_addresses_cached(self, small_runner):
        # One slot, linked and expanded once; each call gets its own
        # int64 copy of the slot's read-only addresses.
        slot = small_runner.replay("wc", "optimized")
        a = small_runner.addresses("wc", "optimized")
        b = small_runner.addresses("wc", "optimized")
        assert small_runner.replay("wc", "optimized") is slot
        assert a is not b and a.dtype == np.int64
        assert np.array_equal(a, b)
        assert np.array_equal(a, slot.addresses)

    def test_scaled_addresses_not_cached(self, small_runner):
        a = small_runner.addresses("wc", "optimized", scaling=0.5)
        b = small_runner.addresses("wc", "optimized", scaling=0.5)
        assert a is not b
        assert np.array_equal(a, b)

    def test_layouts_differ(self, small_runner):
        optimized = small_runner.addresses("lex", "optimized")
        natural = small_runner.addresses("lex", "natural")
        # Different programs (inlined vs not): different lengths or values.
        assert len(optimized) != len(natural) or not np.array_equal(
            optimized, natural
        )

    def test_scaling_changes_addresses(self, small_runner):
        full = small_runner.addresses("wc", "optimized", scaling=1.0)
        half = small_runner.addresses("wc", "optimized", scaling=0.5)
        assert len(half) < len(full)

    def test_random_seed_changes_layout(self, small_runner):
        a = small_runner.addresses("wc", "random", seed=1)
        b = small_runner.addresses("wc", "random", seed=2)
        assert not np.array_equal(a, b)

    def test_image_for_scaled_is_smaller(self, small_runner):
        full = small_runner.image_for("wc", "optimized", scaling=1.0)
        half = small_runner.image_for("wc", "optimized", scaling=0.5)
        assert half.total_bytes < full.total_bytes

    def test_bad_scale_rejected_at_construction(self):
        runner = ExperimentRunner(scale="tiny")
        with pytest.raises(ValueError, match="unknown scale"):
            runner.artifacts("wc")
