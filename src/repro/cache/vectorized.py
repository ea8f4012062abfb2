"""Exact, vectorised direct-mapped cache simulation.

A direct-mapped cache has a closed-form miss condition: an access misses
iff the *previous access to the same set* touched a different memory
block (or there was none).  Grouping the trace by set index with a stable
argsort turns the whole simulation into a handful of numpy comparisons,
with results identical to the sequential reference in
:mod:`repro.cache.direct` (the property-based tests assert this).

This is what makes sweeping ten workloads across the paper's full
cache-size x block-size grid cheap.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    emit_cache_sim,
    new_probe,
    require_power_of_two,
)

__all__ = ["simulate_direct_vectorized", "direct_mapped_miss_mask"]


def direct_mapped_miss_mask(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> np.ndarray:
    """Boolean mask (trace order): True where the access misses."""
    require_power_of_two(cache_bytes, "cache_bytes")
    require_power_of_two(block_bytes, "block_bytes")
    if block_bytes > cache_bytes:
        raise ValueError("block larger than cache")
    n = len(addresses)
    if n == 0:
        return np.zeros(0, dtype=bool)

    block_shift = block_bytes.bit_length() - 1
    num_sets = cache_bytes // block_bytes
    blocks = np.asarray(addresses, dtype=np.int64) >> block_shift
    sets = blocks & (num_sets - 1)

    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_blocks = blocks[order]

    hit_sorted = np.zeros(n, dtype=bool)
    hit_sorted[1:] = (sorted_sets[1:] == sorted_sets[:-1]) & (
        sorted_blocks[1:] == sorted_blocks[:-1]
    )

    miss = np.empty(n, dtype=bool)
    miss[order] = ~hit_sorted
    return miss


def simulate_direct_vectorized(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Vectorised equivalent of :func:`repro.cache.direct.simulate_direct`."""
    miss = direct_mapped_miss_mask(addresses, cache_bytes, block_bytes)
    misses = int(miss.sum())
    stats = CacheStats(
        accesses=len(addresses),
        misses=misses,
        words_transferred=misses * (block_bytes // BUS_WORD_BYTES),
    )
    recorder = obs.current()
    probe = new_probe(block_bytes, cache_bytes)
    if recorder.enabled or probe is not None:
        # Per-set conflict counts, computed only when a recorder or
        # collector is attached.
        num_sets = cache_bytes // block_bytes
        block_shift = block_bytes.bit_length() - 1
        addresses = np.asarray(addresses, dtype=np.int64)
        set_misses = np.bincount(
            (addresses[miss] >> block_shift) & (num_sets - 1),
            minlength=num_sets,
        )
        if probe is not None and len(addresses):
            # Evictor of a missing access = the block the previous access
            # to the same set installed (-1 on a cold set).  In the
            # set-grouped stable order that is simply the predecessor row
            # whenever it shares the set.
            blocks = addresses >> block_shift
            sets = blocks & (num_sets - 1)
            order = np.argsort(sets, kind="stable")
            evict_sorted = np.full(len(addresses), -1, dtype=np.int64)
            same_set = sets[order][1:] == sets[order][:-1]
            evict_sorted[1:][same_set] = blocks[order][:-1][same_set]
            evictors = np.empty(len(addresses), dtype=np.int64)
            evictors[order] = evict_sorted
            probe.positions = np.nonzero(miss)[0].tolist()
            probe.evictors = evictors[miss].tolist()
        emit_cache_sim(
            stats, cache_bytes, block_bytes, "direct-vectorized",
            set_misses=set_misses, addresses=addresses, probe=probe,
        )
    return stats
