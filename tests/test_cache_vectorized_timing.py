"""Unit tests for the vectorised direct-mapped simulator."""

import numpy as np
import pytest

from repro.cache.direct import simulate_direct
from repro.cache.vectorized import (
    direct_mapped_miss_mask,
    simulate_direct_vectorized,
)


class TestVectorized:
    def test_matches_reference_on_random_trace(self):
        rng = np.random.default_rng(7)
        trace = (rng.integers(0, 16384 // 4, 20_000) * 4).astype(np.int64)
        for cache, block in ((512, 16), (1024, 64), (4096, 32)):
            fast = simulate_direct_vectorized(trace, cache, block)
            slow = simulate_direct(trace.tolist(), cache, block)
            assert fast.misses == slow.misses, (cache, block)

    def test_miss_mask_positions(self):
        trace = np.asarray([0, 0, 64, 0, 1024, 0], dtype=np.int64)
        mask = direct_mapped_miss_mask(trace, 1024, 64)
        assert list(mask) == [True, False, True, False, True, True]

    def test_empty_trace(self):
        assert len(direct_mapped_miss_mask(np.empty(0, np.int64), 512, 16)) == 0
        stats = simulate_direct_vectorized(np.empty(0, np.int64), 512, 16)
        assert stats.misses == 0

    def test_mask_sum_equals_miss_count(self):
        rng = np.random.default_rng(3)
        trace = (rng.integers(0, 2048, 5000) * 4).astype(np.int64)
        mask = direct_mapped_miss_mask(trace, 1024, 32)
        stats = simulate_direct_vectorized(trace, 1024, 32)
        assert int(mask.sum()) == stats.misses

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            simulate_direct_vectorized(np.array([0]), 1000, 64)
        with pytest.raises(ValueError):
            simulate_direct_vectorized(np.array([0]), 64, 128)

