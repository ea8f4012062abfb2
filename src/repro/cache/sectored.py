"""Sectored (sub-block) direct-mapped cache (paper Section 4.2.2, Table 8).

"One approach to decreasing the memory traffic ratio and the cache miss
penalty while increasing the miss ratio is to partition each block into
sectors and only bring in the accessed sector upon cache miss."

One tag covers the whole block; each sector has a valid bit.  A tag
mismatch invalidates every sector and loads only the accessed one, so each
miss transfers ``sector_bytes`` instead of ``block_bytes`` — halving-or-
better the traffic of traffic-heavy programs at the cost of forgoing the
spatial locality the placement algorithm worked to create (which is why
the paper finds the miss-ratio increase can outweigh the gain).
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

__all__ = ["simulate_sectored"]


def simulate_sectored(
    addresses: np.ndarray,
    cache_bytes: int,
    block_bytes: int,
    sector_bytes: int,
) -> CacheStats:
    """Run a trace through a sectored direct-mapped cache.

    The paper's Table 8 uses 8-byte sectors inside 64-byte blocks of a
    2048-byte cache.
    """
    require_power_of_two(cache_bytes, "cache_bytes")
    require_power_of_two(block_bytes, "block_bytes")
    require_power_of_two(sector_bytes, "sector_bytes")
    if not sector_bytes <= block_bytes <= cache_bytes:
        raise ValueError("need sector_bytes <= block_bytes <= cache_bytes")

    num_sets = cache_bytes // block_bytes
    block_shift = block_bytes.bit_length() - 1
    sector_shift = sector_bytes.bit_length() - 1
    sectors_per_block = block_bytes // sector_bytes
    sector_mask_bits = sectors_per_block - 1
    set_mask = num_sets - 1
    words_per_sector = sector_bytes // BUS_WORD_BYTES

    tags = [-1] * num_sets
    valid = [0] * num_sets            # bit k set = sector k present
    #: Per-set miss counts (block and sector misses both land here).
    set_misses = [0] * num_sets

    recorder = obs.current()
    # The fill unit is a sector, so the 3C shadow is a fully-associative
    # sector cache of the same capacity; the evictor of a *block* miss is
    # the displaced tag, scaled to its first sector's granule number.
    probe = new_probe(sector_bytes, cache_bytes)
    sectors_shift = block_shift - sector_shift

    misses = 0
    for position, address in enumerate(map(int, addresses)):
        block = address >> block_shift
        index = block & set_mask
        sector = (address >> sector_shift) & sector_mask_bits
        bit = 1 << sector
        if tags[index] == block:
            if valid[index] & bit:
                continue
            valid[index] |= bit       # sector miss within a present block
            if probe is not None:
                probe.miss(position)  # no eviction: lazy sector fill
        else:
            if probe is not None:
                evicted = tags[index]
                probe.miss(
                    position,
                    -1 if evicted < 0 else evicted << sectors_shift,
                )
            tags[index] = block       # block miss: only this sector loads
            valid[index] = bit
        misses += 1
        set_misses[index] += 1

    stats = CacheStats(
        accesses=len(addresses),
        misses=misses,
        words_transferred=misses * words_per_sector,
    )
    if recorder.enabled or probe is not None:
        emit_cache_sim(
            stats, cache_bytes, block_bytes, f"sectored/{sector_bytes}B",
            set_misses=set_misses, addresses=addresses, probe=probe,
        )
    return stats
