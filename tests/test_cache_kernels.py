"""The transition-domain cache kernels against per-access references.

The vectorised direct-mapped simulator, the LRU kernel and the 3C
classifier all work on granule transitions only, sorted once by set on a
``uint16`` key up to ``2**16`` sets.  Under an installed
:class:`repro.diagnose.Collector`, their probes, per-set miss counts,
first touches and reused shadows must equal what per-access loops compute
over the full trace, on both sides of the narrow-key cast.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import diagnose
from repro.cache.direct import simulate_direct
from repro.cache.lru import lru_misses, set_order
from repro.cache.paging import simulate_paging
from repro.cache.sectored import simulate_sectored
from repro.cache.set_assoc import simulate_fully_associative
from repro.cache.vectorized import (
    direct_mapped_miss_mask,
    simulate_direct_vectorized,
)
from repro.diagnose.classify import (
    MissProbe,
    _first_touch_positions,
    attribute,
)
from tests.cache_reference import reference_set_associative

#: A run of fetches: (start word, length, step in words).  Starts sit in
#: four 2**16-word bands, so with 4-byte blocks a trace touches sets on
#: both sides of 2**16 and blocks that alias only under a uint16 key.
_runs = st.lists(
    st.tuples(
        st.builds(lambda word, band: word + (band << 16),
                  st.integers(0, 255), st.integers(0, 3)),
        st.integers(1, 48),
        st.integers(0, 1),
    ),
    max_size=30,
)

#: log2 of the set count: small caches, and both sides of the cast.
_log_sets = st.sampled_from([0, 1, 2, 3, 5, 16, 17])


def _trace(runs) -> np.ndarray:
    return np.asarray(
        [4 * (start + i * step)
         for start, length, step in runs for i in range(length)],
        dtype=np.int64,
    )


_EMPTY = []
_ONE = [(7, 1, 0)]
_LONG_RUN = [(3, 48, 0), (40, 48, 0), (3, 48, 0)]
#: Blocks 2**16 apart: one set under 2**16 sets, two under 2**17.
_ALIASED = [(5, 3, 1), ((1 << 16) + 5, 3, 1), (5, 3, 1),
            ((3 << 16) + 5, 2, 0), (5, 1, 0)]


class _Keeping(diagnose.Collector):
    """A collector that also keeps the last simulation's probe."""

    probe = None
    set_misses = None

    def record(self, organization, cache_bytes, block_bytes, addresses,
               probe, set_misses=None):
        self.probe, self.set_misses = probe, set_misses
        return super().record(organization, cache_bytes, block_bytes,
                              addresses, probe, set_misses=set_misses)


def collect(simulate, trace, *args):
    """``(stats, collector, the one attribution)`` of one simulation."""
    collector = _Keeping()
    with diagnose.use(collector):
        stats = simulate(trace, *args)
    (entry,) = collector.entries.values()
    return stats, collector, entry


def _sparse(set_misses) -> dict[int, int]:
    return {int(index): int(count)
            for index, count in enumerate(set_misses) if count}


def _classes(entry) -> dict:
    doc = entry.to_dict()
    del doc["organization"]
    return doc


class TestDirectMapped:
    @given(_runs, st.sampled_from([4, 16, 64]), _log_sets)
    @example(_EMPTY, 4, 16)
    @example(_ONE, 4, 17)
    @example(_LONG_RUN, 4, 0)          # block == cache: one set
    @example(_LONG_RUN, 64, 2)
    @example(_ALIASED, 4, 16)
    @example(_ALIASED, 4, 17)
    @settings(max_examples=150, deadline=None)
    def test_probe_and_set_misses_match_per_access_reference(
        self, runs, block_bytes, log_sets
    ):
        trace = _trace(runs)
        cache_bytes = block_bytes << log_sets
        stats, collector, entry = collect(
            simulate_direct_vectorized, trace, cache_bytes, block_bytes)
        reference = reference_set_associative(
            trace, cache_bytes, block_bytes, 1)
        assert stats.misses == reference.misses
        assert list(collector.probe.positions) == reference.positions
        assert list(collector.probe.evictors) == reference.evictors
        assert _sparse(collector.set_misses) == reference.set_misses
        mask = direct_mapped_miss_mask(trace, cache_bytes, block_bytes)
        assert np.flatnonzero(mask).tolist() == reference.positions
        # The per-access simulator of repro.cache.direct classifies the
        # same misses identically.
        _, _, sequential = collect(
            simulate_direct, trace.tolist(), cache_bytes, block_bytes)
        assert _classes(entry) == _classes(sequential)
        assert entry.compulsory + entry.capacity + entry.conflict \
            == entry.misses


class TestSectoredIsDirect:
    """With one sector per block, a sectored cache is direct-mapped."""

    @given(_runs, st.sampled_from([4, 16, 64]), st.sampled_from([0, 16]))
    @example(_EMPTY, 4, 0)
    @example(_EMPTY, 4, 16)
    @example(_ONE, 64, 0)
    @example(_ONE, 4, 16)
    @example(_ALIASED, 4, 16)
    @settings(max_examples=60, deadline=None)
    def test_sector_equal_to_block_matches_direct(
        self, runs, block_bytes, log_sets
    ):
        trace = _trace(runs)
        cache_bytes = block_bytes << log_sets
        direct_stats, direct, direct_entry = collect(
            simulate_direct_vectorized, trace, cache_bytes, block_bytes)
        sectored_stats, sectored, sectored_entry = collect(
            simulate_sectored, trace, cache_bytes, block_bytes, block_bytes)
        assert sectored_stats.misses == direct_stats.misses
        assert sectored_stats.words_transferred \
            == direct_stats.words_transferred
        assert _sparse(sectored.set_misses) == _sparse(direct.set_misses)
        assert list(sectored.probe.positions) \
            == list(direct.probe.positions)
        assert list(sectored.probe.evictors) \
            == list(direct.probe.evictors)
        assert _classes(sectored_entry) == _classes(direct_entry)


class TestThreeC:
    @given(_runs, st.sampled_from([1, 4, 64]))
    @example(_EMPTY, 4)
    @example(_ONE, 4)
    @example(_LONG_RUN, 64)
    @settings(max_examples=150, deadline=None)
    def test_first_touches_equal_full_trace_unique(self, runs, granule):
        granules = _trace(runs) // granule
        expected = np.sort(np.unique(granules, return_index=True)[1])
        assert _first_touch_positions(granules).tolist() == expected.tolist()

    @given(_runs, st.sampled_from([4, 16, 64]), st.integers(0, 5))
    @example(_EMPTY, 64, 5)
    @example(_ONE, 64, 0)
    @example(_LONG_RUN, 4, 1)
    @settings(max_examples=100, deadline=None)
    def test_reused_shadow_equals_recomputed_lru(
        self, runs, block_bytes, log_blocks
    ):
        trace = _trace(runs)
        cache_bytes = block_bytes << log_blocks
        granules = trace // block_bytes
        for simulate, args in (
            (simulate_fully_associative, (cache_bytes, block_bytes)),
            (simulate_direct_vectorized, (block_bytes, block_bytes)),
            (simulate_paging, (block_bytes, 1 << log_blocks)),
        ):
            _, collector, entry = collect(simulate, trace, *args)
            probe = collector.probe
            assert probe.fully_associative
            capacity = probe.capacity_bytes // probe.granule_bytes
            shadow = lru_misses(granules, capacity)[0]
            assert list(probe.positions) == shadow.tolist()
            # Classifying against a recomputed shadow changes nothing.
            recomputed = MissProbe(probe.granule_bytes, probe.capacity_bytes)
            recomputed.positions = probe.positions
            recomputed.evictors = probe.evictors
            assert attribute(
                trace, recomputed, entry.organization, entry.cache_bytes,
                entry.block_bytes, set_misses=collector.set_misses,
            ) == entry

    def test_multi_set_probe_is_not_the_shadow(self):
        trace = _trace(_ALIASED)
        _, collector, _ = collect(simulate_direct_vectorized, trace, 64, 4)
        assert not collector.probe.fully_associative


@given(st.lists(st.integers(0, (1 << 17) - 1), max_size=200),
       st.sampled_from([1 << 16, 1 << 17]))
@settings(max_examples=100, deadline=None)
def test_set_order_is_the_stable_grouping(values, num_sets):
    sets = np.asarray(values, dtype=np.int64) & (num_sets - 1)
    assert set_order(sets, num_sets).tolist() \
        == np.argsort(sets, kind="stable").tolist()
