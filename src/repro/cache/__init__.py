"""Trace-driven instruction cache simulators."""

from repro.cache.base import BUS_WORD_BYTES, CacheStats, require_power_of_two
from repro.cache.direct import DirectMappedCache, simulate_direct
from repro.cache.paging import (
    PagingStats,
    WorkingSetStats,
    simulate_paging,
    simulate_sectored_paging,
    working_set_profile,
)
from repro.cache.partial import simulate_partial
from repro.cache.prefetch import PrefetchStats, simulate_prefetch
from repro.cache.sectored import simulate_sectored
from repro.cache.set_assoc import (
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.cache.vectorized import (
    direct_mapped_miss_mask,
    simulate_direct_vectorized,
)

__all__ = [
    "BUS_WORD_BYTES",
    "CacheStats",
    "DirectMappedCache",
    "PagingStats",
    "PrefetchStats",
    "WorkingSetStats",
    "direct_mapped_miss_mask",
    "require_power_of_two",
    "simulate_direct",
    "simulate_direct_vectorized",
    "simulate_fully_associative",
    "simulate_partial",
    "simulate_prefetch",
    "simulate_paging",
    "simulate_sectored",
    "simulate_sectored_paging",
    "simulate_set_associative",
    "working_set_profile",
]
