"""Unit tests for the conflict-aware global placement."""

import numpy as np
import pytest

from repro.cache.vectorized import simulate_direct_vectorized
from repro.interp.profiler import profile_program
from repro.placement.conflict_aware import (
    _footprint,
    conflict_aware_order,
)
from repro.placement.function_layout import layout_function
from repro.placement.image import MemoryImage
from repro.placement.trace_selection import select_traces


def _layouts(program, profile):
    return {
        f.name: layout_function(f, select_traces(f, profile), profile)
        for f in program
    }


class TestFootprint:
    def test_small_region_lines(self):
        assert _footprint(0, 128, 2048) == frozenset({0, 1})

    def test_wrapping_region(self):
        lines = _footprint(2048 - 64, 128, 2048)
        assert lines == frozenset({31, 0})

    def test_oversized_region_covers_cache(self):
        assert _footprint(0, 4096, 2048) == frozenset(range(32))

    def test_empty_region(self):
        assert _footprint(100, 0, 2048) == frozenset()

    def test_partial_line_counts(self):
        assert _footprint(4, 8, 2048) == frozenset({0})


class TestOrder:
    def test_order_is_permutation(self, call_program, call_profile):
        layouts = _layouts(call_program, call_profile)
        order = conflict_aware_order(
            call_program, call_profile, layouts
        )
        assert sorted(order) == list(range(call_program.num_blocks))

    def test_effective_regions_precede_cold(self, branchy_program):
        profile = profile_program(branchy_program, [[2, 4, 6]])
        layouts = _layouts(branchy_program, profile)
        order = conflict_aware_order(branchy_program, profile, layouts)
        position = {bid: i for i, bid in enumerate(order)}
        hot = [b for layout in layouts.values()
               for b in layout.effective_blocks]
        cold = [b for layout in layouts.values()
                for b in layout.non_executed_blocks]
        assert cold
        assert max(position[b] for b in hot) < min(position[b] for b in cold)

    def test_entry_function_first(self, call_program, call_profile):
        layouts = _layouts(call_program, call_profile)
        order = conflict_aware_order(call_program, call_profile, layouts)
        assert order[0] == call_program.function("main").entry.bid

    def test_deterministic(self, call_program, call_profile):
        layouts = _layouts(call_program, call_profile)
        a = conflict_aware_order(call_program, call_profile, layouts)
        b = conflict_aware_order(call_program, call_profile, layouts)
        assert a == b

    def test_image_replays(self, call_program, call_profile):
        from repro.interp.interpreter import run_program
        from repro.interp.trace import BlockTrace

        layouts = _layouts(call_program, call_profile)
        image = MemoryImage.build(
            call_program,
            conflict_aware_order(call_program, call_profile, layouts),
        )
        trace = BlockTrace.from_execution(run_program(call_program, [1, 2]))
        addresses = trace.addresses(image)
        assert len(addresses) == trace.instruction_count(image)


@pytest.fixture(scope="module")
def default_awk_runner():
    """A default-scale runner for awk only.

    The conflict-aware greedy needs representative interleave weights; at
    the tests' small scale the estimates are too noisy to assert on, so
    the effectiveness check runs one workload at full scale.
    """
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale="default")
    runner.artifacts("awk")
    return runner


class TestEffectiveness:
    def test_fixes_awk_style_overcapacity_dispatch(self, default_awk_runner):
        """On awk — the DFS layout's known failure — the conflict-aware
        placement must recover most of the regression."""
        dfs = simulate_direct_vectorized(
            default_awk_runner.addresses("awk", "optimized"), 2048, 64
        ).miss_ratio
        conflict_aware = simulate_direct_vectorized(
            default_awk_runner.addresses("awk", "conflict_aware"), 2048, 64
        ).miss_ratio
        assert conflict_aware < dfs * 0.7

    def test_does_not_hurt_paper_stress_cases(self, small_runner):
        for name in ("cccp", "make", "yacc", "lex"):
            dfs = simulate_direct_vectorized(
                small_runner.addresses(name, "optimized"), 2048, 64
            ).miss_ratio
            conflict_aware = simulate_direct_vectorized(
                small_runner.addresses(name, "conflict_aware"), 2048, 64
            ).miss_ratio
            assert conflict_aware <= dfs * 1.5 + 0.003, name
