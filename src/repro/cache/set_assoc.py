"""Set-associative and fully associative caches with LRU replacement.

The paper's published baseline (its Table 1) is A. J. Smith's *fully
associative* design-target miss ratios; this module lets us simulate that
organisation directly on our own traces, so the headline comparison
("an optimized direct-mapped cache beats an unoptimized fully associative
one") can be reproduced end to end rather than only against constants.
Both organisations run on the one LRU model, :mod:`repro.cache.lru`.
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
from repro.cache.lru import lru_misses

__all__ = ["simulate_set_associative", "simulate_fully_associative"]


def simulate_set_associative(
    addresses,
    cache_bytes: int,
    block_bytes: int,
    associativity: int,
) -> CacheStats:
    """Run a full trace through an n-way LRU cache.

    ``associativity`` equal to the number of blocks makes it fully
    associative; 1 makes it direct-mapped (and agrees with
    :mod:`repro.cache.direct`, a property the tests check).
    """
    num_sets = cache_sets(cache_bytes, block_bytes, associativity)
    addresses = np.asarray(addresses, dtype=np.int64)
    blocks = addresses >> (block_bytes.bit_length() - 1)
    positions, evicted = lru_misses(blocks, associativity, num_sets)
    stats = CacheStats(
        accesses=len(addresses),
        misses=len(positions),
        words_transferred=len(positions) * (block_bytes // BUS_WORD_BYTES),
    )
    recorder = obs.current()
    probe = new_probe(block_bytes, cache_bytes)
    if not recorder.enabled and probe is None:
        return stats
    if probe is not None:
        probe.positions = positions
        probe.evictors = evicted
        # One set at block granularity is the 3C shadow's own geometry.
        probe.fully_associative = num_sets == 1
    set_misses = np.bincount(
        blocks[positions] & (num_sets - 1), minlength=num_sets
    ).tolist()
    emit_cache_sim(
        stats, cache_bytes, block_bytes, f"{associativity}-way",
        set_misses=set_misses, addresses=addresses, probe=probe,
    )
    return stats


def simulate_fully_associative(
    addresses, cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Fully associative LRU: one set holding every block."""
    return simulate_set_associative(
        addresses, cache_bytes, block_bytes,
        associativity=cache_bytes // block_bytes,
    )
