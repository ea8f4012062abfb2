"""Property-based tests for the extension modules (Pettis-Hansen
layout, analytical estimator, paging)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.paging import simulate_paging, simulate_sectored_paging
from repro.interp.interpreter import run_program
from repro.interp.profiler import profile_program
from repro.interp.trace import BlockTrace
from repro.placement.estimate import estimate_direct_mapped
from repro.placement.image import MemoryImage
from repro.placement.pettis_hansen import pettis_hansen_order
from tests.test_properties import addresses_strategy, dag_programs

inputs_strategy = st.lists(st.integers(-4, 4), max_size=6)


class TestPettisHansenProperties:
    @given(dag_programs())
    @settings(max_examples=40, deadline=None)
    def test_order_is_permutation(self, program):
        profile = profile_program(program, [[1, 2], []])
        order = pettis_hansen_order(program, profile)
        assert sorted(order) == list(range(program.num_blocks))

    @given(dag_programs())
    @settings(max_examples=30, deadline=None)
    def test_functions_stay_contiguous(self, program):
        profile = profile_program(program, [[0, 1]])
        order = pettis_hansen_order(program, profile)
        seen: list[str] = []
        for bid in order:
            name = program.block_function[bid]
            if not seen or seen[-1] != name:
                assert name not in seen
                seen.append(name)

    @given(dag_programs(), inputs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_image_replays_any_execution(self, program, inputs):
        profile = profile_program(program, [[1]])
        image = MemoryImage.build(
            program, pettis_hansen_order(program, profile)
        )
        trace = BlockTrace.from_execution(
            run_program(program, inputs, max_instructions=20_000)
        )
        addresses = trace.addresses(image)
        assert len(addresses) == trace.instruction_count(image)


class TestEstimatorProperties:
    @given(dag_programs(), inputs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_access_count_is_exact(self, program, inputs):
        """The estimator's access count is derived from via-split weights
        and must equal the true fetch count of the profiled executions."""
        profile = profile_program(program, [inputs])
        image = MemoryImage.build(program, list(range(program.num_blocks)))
        estimate = estimate_direct_mapped(profile, image, 1024, 64)
        trace = BlockTrace.from_execution(
            run_program(program, inputs, max_instructions=20_000)
        )
        assert estimate.accesses == trace.instruction_count(image)

    @given(dag_programs())
    @settings(max_examples=30, deadline=None)
    def test_estimate_bounded_by_compulsory_floor(self, program):
        profile = profile_program(program, [[1, 2]])
        image = MemoryImage.build(program, list(range(program.num_blocks)))
        estimate = estimate_direct_mapped(profile, image, 512, 64)
        assert estimate.misses >= estimate.compulsory_misses
        assert estimate.conflict_misses >= 0.0

    @given(dag_programs())
    @settings(max_examples=20, deadline=None)
    def test_bigger_cache_never_estimates_more_conflicts(self, program):
        profile = profile_program(program, [[1, 2, 3]])
        image = MemoryImage.build(program, list(range(program.num_blocks)))
        small = estimate_direct_mapped(profile, image, 256, 64)
        large = estimate_direct_mapped(profile, image, 4096, 64)
        assert large.conflict_misses <= small.conflict_misses + 1e-9


class TestPagingProperties:
    @given(addresses_strategy, st.sampled_from([512, 1024, 2048]))
    @settings(max_examples=40, deadline=None)
    def test_lru_frame_inclusion(self, trace, page_bytes):
        few = simulate_paging(trace, page_bytes, 2)
        many = simulate_paging(trace, page_bytes, 6)
        assert many.faults <= few.faults

    @given(addresses_strategy, st.sampled_from([512, 1024]))
    @settings(max_examples=40, deadline=None)
    def test_sectoring_bounds(self, trace, page_bytes):
        whole = simulate_paging(trace, page_bytes, 4)
        sectored = simulate_sectored_paging(trace, page_bytes, 4, 128)
        # Sector faults are at least as frequent but never cost more bytes.
        assert sectored.faults >= whole.faults
        assert sectored.bytes_transferred <= whole.bytes_transferred

    @given(addresses_strategy)
    @settings(max_examples=40, deadline=None)
    def test_whole_page_sectoring_equals_paging(self, trace):
        whole = simulate_paging(trace, 1024, 4)
        sectored = simulate_sectored_paging(trace, 1024, 4, 1024)
        assert sectored.faults == whole.faults
        assert sectored.bytes_transferred == whole.bytes_transferred

    @given(addresses_strategy)
    @settings(max_examples=30, deadline=None)
    def test_distinct_pages_lower_bounds_faults(self, trace):
        stats = simulate_paging(trace, 512, 3)
        assert stats.faults >= stats.distinct_pages if len(trace) else True
