"""Unit tests for set-associative / fully associative LRU caches."""

import pytest

from repro.cache.base import cache_sets
from repro.cache.direct import simulate_direct
from repro.cache.set_assoc import (
    simulate_fully_associative,
    simulate_set_associative,
)
from tests.test_cache_lru import observe


class TestGeometry:
    def test_sets_from_associativity(self):
        assert cache_sets(2048, 64, 4) == 8

    def test_fully_associative_has_one_set(self):
        assert cache_sets(2048, 64, 32) == 1

    def test_excessive_associativity_rejected(self):
        with pytest.raises(ValueError):
            simulate_set_associative([0], 2048, 64, associativity=64)

    def test_non_dividing_associativity_rejected(self):
        with pytest.raises(ValueError):
            simulate_set_associative([0], 2048, 64, associativity=3)

    @pytest.mark.parametrize("cache_bytes,block_bytes,assoc", [
        (2048, 64, 0),
        (3000, 64, 1),      # not a power of two
        (2048, 48, 1),
        (64, 4096, 1),      # block larger than the cache
    ])
    def test_bad_geometry_rejected(self, cache_bytes, block_bytes, assoc):
        with pytest.raises(ValueError):
            cache_sets(cache_bytes, block_bytes, assoc)


class TestLru:
    def test_lru_keeps_two_conflicting_blocks(self):
        # Two blocks mapping to the same direct-mapped set coexist 2-way.
        trace = [0, 1024, 0, 1024, 0, 1024]
        direct = simulate_set_associative(trace, 1024, 64, 1)
        two_way = simulate_set_associative(trace, 1024, 64, 2)
        assert direct.misses == 6
        assert two_way.misses == 2

    def test_lru_evicts_least_recent(self):
        # One 2-way set: A, B, A (B is now LRU), C evicts B, A hits,
        # B misses again and evicts C.
        trace = [0, 64, 0, 128, 0, 64]
        stats, capture = observe(simulate_set_associative, trace, 128, 64, 2)
        assert stats.misses == 4
        assert list(capture.probe.positions) == [0, 1, 3, 5]
        assert list(capture.probe.evictors) == [-1, -1, 1, 2]

    def test_one_way_matches_direct_mapped(self):
        trace = [(i * 100) % 8192 for i in range(2000)]
        assoc = simulate_set_associative(trace, 1024, 32, 1)
        direct = simulate_direct(trace, 1024, 32)
        assert assoc.misses == direct.misses

    def test_fully_associative_loop_fits_exactly(self):
        # A loop exactly the cache size never misses after warmup in FA.
        trace = list(range(0, 1024, 4)) * 5
        stats = simulate_fully_associative(trace, 1024, 64)
        assert stats.misses == 16

    def test_fully_associative_beats_direct_on_conflicts(self):
        # Two hot regions that collide in a direct-mapped cache.
        trace = []
        for _ in range(50):
            trace.extend(range(0, 256, 4))
            trace.extend(range(2048, 2304, 4))
        fa = simulate_fully_associative(trace, 1024, 64)
        dm = simulate_direct(trace, 1024, 64)
        assert fa.misses < dm.misses

    def test_lru_cyclic_overflow_thrashes(self):
        # The classic LRU pathology: loop over cache size + 1 block.
        blocks = 17
        trace = [64 * b for b in range(blocks)] * 4
        stats = simulate_fully_associative(trace, 1024, 64)
        assert stats.misses == len(trace)  # every access misses

    def test_traffic_counts_whole_blocks(self):
        stats = simulate_fully_associative([0, 64], 1024, 64)
        assert stats.words_transferred == 2 * 16
