"""Exact, vectorised direct-mapped cache simulation.

A direct-mapped cache has a closed-form miss condition: an access misses
iff the *previous access to the same set* touched a different memory
block (or there was none).  An access that repeats its predecessor's
block always hits, so the kernel keeps only the block transitions
(:func:`repro.cache.lru.transitions`): the previous same-set transition
holds the same block as the previous same-set access of the full trace,
so the condition is unchanged.  One stable sort of the transitions by set
index (:func:`repro.cache.lru.set_order`, a radix sort on a ``uint16``
key up to ``2**16`` sets) then turns the whole simulation, evictors
included, into a handful of numpy comparisons, with results identical to
the sequential reference in :mod:`repro.cache.direct` (the property-based
tests assert this).

This is what makes sweeping ten workloads across the paper's full
cache-size x block-size grid cheap.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    cache_sets,
    emit_cache_sim,
    new_probe,
)
from repro.cache.lru import set_order, transitions

__all__ = ["simulate_direct_vectorized", "direct_mapped_miss_mask"]


def _direct_mapped_misses(
    blocks: np.ndarray, num_sets: int, evictors: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Miss positions (trace order) of a direct-mapped cache over
    ``blocks``, and, when ``evictors`` is set, the block each miss
    displaced (``-1`` on a cold set)."""
    positions = transitions(blocks)
    moves = blocks[positions]
    sets = moves & (num_sets - 1)
    order = set_order(sets, num_sets)
    sorted_sets = sets[order]
    sorted_moves = moves[order]
    same_set = np.zeros(len(order), dtype=bool)
    np.equal(sorted_sets[1:], sorted_sets[:-1], out=same_set[1:])
    hit_sorted = same_set.copy()
    hit_sorted[1:] &= sorted_moves[1:] == sorted_moves[:-1]
    miss = np.empty(len(order), dtype=bool)
    miss[order] = ~hit_sorted
    if not evictors:
        return positions[miss], None
    # The evictor is the block the previous same-set access installed:
    # in the set-grouped stable order, the predecessor row.
    evict_sorted = np.full(len(order), -1, dtype=np.int64)
    evict_sorted[1:][same_set[1:]] = sorted_moves[:-1][same_set[1:]]
    evicted = np.empty(len(order), dtype=np.int64)
    evicted[order] = evict_sorted
    return positions[miss], evicted[miss]


def direct_mapped_miss_mask(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> np.ndarray:
    """Boolean mask (trace order): True where the access misses."""
    num_sets = cache_sets(cache_bytes, block_bytes, 1)
    blocks = np.asarray(addresses, dtype=np.int64) >> (
        block_bytes.bit_length() - 1
    )
    miss = np.zeros(len(blocks), dtype=bool)
    miss[_direct_mapped_misses(blocks, num_sets)[0]] = True
    return miss


def simulate_direct_vectorized(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Vectorised equivalent of :func:`repro.cache.direct.simulate_direct`."""
    num_sets = cache_sets(cache_bytes, block_bytes, 1)
    addresses = np.asarray(addresses, dtype=np.int64)
    blocks = addresses >> (block_bytes.bit_length() - 1)
    recorder = obs.current()
    probe = new_probe(block_bytes, cache_bytes)
    positions, evicted = _direct_mapped_misses(
        blocks, num_sets, evictors=probe is not None
    )
    misses = len(positions)
    stats = CacheStats(
        accesses=len(addresses),
        misses=misses,
        words_transferred=misses * (block_bytes // BUS_WORD_BYTES),
    )
    if recorder.enabled or probe is not None:
        # Per-set conflict counts, computed only when a recorder or
        # collector is attached.
        set_misses = np.bincount(
            blocks[positions] & (num_sets - 1), minlength=num_sets
        )
        if probe is not None:
            probe.positions = positions
            probe.evictors = evicted
            # One set is a one-way fully-associative cache: the 3C
            # shadow's own geometry.
            probe.fully_associative = num_sets == 1
        emit_cache_sim(
            stats, cache_bytes, block_bytes, "direct-vectorized",
            set_misses=set_misses, addresses=addresses, probe=probe,
        )
    return stats
