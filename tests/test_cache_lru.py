"""The one LRU kernel against the per-access reference loops.

Over random traces (long same-granule runs included) every simulator
built on ``repro.cache.lru.lru_misses`` must agree with
``tests/cache_reference.py`` on misses, probe positions, evictors and
per-set (per-page) miss counts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import diagnose
from repro.cache.paging import simulate_paging, simulate_sectored_paging
from repro.cache.set_assoc import (
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.diagnose.classify import fully_associative_miss_positions
from tests.cache_reference import (
    reference_lru,
    reference_paging,
    reference_sectored_paging,
    reference_set_associative,
)

#: A run of fetches: (start word, length, step in words).  Step 0 repeats
#: one address, which gives long same-granule runs.
_runs = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 48), st.integers(0, 1)),
    max_size=30,
)


def _trace(runs) -> np.ndarray:
    addresses = [
        4 * (start + i * step)
        for start, length, step in runs
        for i in range(length)
    ]
    return np.asarray(addresses, dtype=np.int64)


class _Capture:
    """A diagnose sink that keeps the last simulation's probe."""

    enabled = True
    probe = None
    set_misses = None

    def record(self, organization, cache_bytes, block_bytes, addresses,
               probe, set_misses=None):
        self.probe = probe
        self.set_misses = set_misses


def observe(simulate, trace, *args):
    capture = _Capture()
    with diagnose.use(capture):
        stats = simulate(trace, *args)
    return stats, capture


def _sparse(set_misses) -> dict[int, int]:
    items = (set_misses.items() if hasattr(set_misses, "items")
             else enumerate(set_misses))
    return {int(index): int(count) for index, count in items if count}


def _assert_agrees(misses, capture, reference) -> None:
    assert misses == reference.misses
    assert list(capture.probe.positions) == reference.positions
    assert list(capture.probe.evictors) == reference.evictors
    assert _sparse(capture.set_misses) == reference.set_misses


_EMPTY = []
_ONE = [(7, 1, 0)]
_LONG_RUN = [(3, 48, 0), (40, 48, 0), (3, 48, 0)]


class TestAgainstReference:
    @given(_runs, st.sampled_from([4, 8, 16, 32]), st.integers(0, 4),
           st.integers(0, 4))
    @example(_EMPTY, 16, 2, 1)
    @example(_ONE, 16, 2, 1)
    @example(_LONG_RUN, 4, 0, 0)
    @settings(max_examples=150, deadline=None)
    def test_set_associative(self, runs, block_bytes, log_blocks, log_ways):
        trace = _trace(runs)
        num_blocks = 1 << log_blocks
        ways = 1 << min(log_ways, log_blocks)
        cache_bytes = num_blocks * block_bytes
        stats, capture = observe(
            simulate_set_associative, trace, cache_bytes, block_bytes, ways)
        reference = reference_set_associative(
            trace, cache_bytes, block_bytes, ways)
        _assert_agrees(stats.misses, capture, reference)
        assert len(capture.set_misses) == num_blocks // ways

    @given(_runs, st.sampled_from([4, 16, 64]), st.integers(0, 4))
    @example(_EMPTY, 64, 0)
    @example(_ONE, 64, 3)
    @example(_LONG_RUN, 4, 1)
    @settings(max_examples=100, deadline=None)
    def test_fully_associative(self, runs, block_bytes, log_blocks):
        # ways == num_blocks: one set holds the whole cache.
        trace = _trace(runs)
        num_blocks = 1 << log_blocks
        cache_bytes = num_blocks * block_bytes
        stats, capture = observe(
            simulate_fully_associative, trace, cache_bytes, block_bytes)
        reference = reference_set_associative(
            trace, cache_bytes, block_bytes, num_blocks)
        _assert_agrees(stats.misses, capture, reference)

    @given(_runs, st.sampled_from([16, 64, 256]), st.integers(1, 6))
    @example(_EMPTY, 64, 1)
    @example(_ONE, 64, 1)
    @example(_LONG_RUN, 16, 1)
    @settings(max_examples=100, deadline=None)
    def test_paging(self, runs, page_bytes, resident_pages):
        trace = _trace(runs)
        stats, capture = observe(
            simulate_paging, trace, page_bytes, resident_pages)
        reference = reference_paging(trace, page_bytes, resident_pages)
        _assert_agrees(stats.faults, capture, reference)
        assert stats.distinct_pages == len(np.unique(trace // page_bytes))

    @given(_runs, st.sampled_from([32, 64, 256]), st.integers(1, 6),
           st.sampled_from([4, 16, 32]))
    @example(_EMPTY, 64, 1, 16)
    @example(_ONE, 64, 1, 16)
    @example(_LONG_RUN, 32, 1, 4)
    @settings(max_examples=100, deadline=None)
    def test_sectored_paging(self, runs, page_bytes, resident_pages,
                             sector_bytes):
        trace = _trace(runs)
        stats, capture = observe(
            simulate_sectored_paging, trace, page_bytes, resident_pages,
            sector_bytes)
        reference = reference_sectored_paging(
            trace, page_bytes, resident_pages, sector_bytes)
        _assert_agrees(stats.faults, capture, reference)
        assert stats.bytes_transferred == stats.faults * sector_bytes

    @given(_runs, st.sampled_from([4, 16]), st.integers(1, 12))
    @example(_EMPTY, 16, 1)
    @example(_ONE, 16, 1)
    @example(_LONG_RUN, 4, 1)
    @settings(max_examples=100, deadline=None)
    def test_three_c_shadow(self, runs, granule_bytes, capacity):
        granules = _trace(runs) // granule_bytes
        shadow = fully_associative_miss_positions(granules, capacity)
        assert shadow.tolist() == reference_lru(granules, capacity).positions

