"""Next-line instruction prefetching (sequential prefetch).

The paper's introduction frames the problem with the VAX-11/780's 8-byte
prefetching instruction buffer; the natural hardware companion to
compiler placement is next-line prefetch, and because placement makes
instruction streams *more* sequential, the two should compose.  This
module implements the two classic schemes over a direct-mapped cache:

* **prefetch-on-miss** — a demand miss to block ``b`` also fetches
  ``b+1`` (if absent);
* **tagged prefetch** (Gindele) — every block carries a tag bit set when
  the block arrives by prefetch; the *first demand reference* to a
  tagged block also triggers a prefetch of the next block, so a
  sequential run keeps exactly one block of lookahead in flight.

Reported: demand miss ratio, total traffic (demand + prefetch), and
prefetch accuracy (fraction of prefetched blocks that were used before
eviction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    emit_cache_sim,
    new_probe,
    require_power_of_two,
)

__all__ = ["PrefetchStats", "simulate_prefetch"]


@dataclass(frozen=True)
class PrefetchStats:
    """Outcome of one prefetching-cache simulation."""

    accesses: int
    demand_misses: int
    prefetches: int
    useful_prefetches: int
    words_transferred: int

    @property
    def miss_ratio(self) -> float:
        """Demand misses per instruction access."""
        return self.demand_misses / self.accesses if self.accesses else 0.0

    @property
    def traffic_ratio(self) -> float:
        """Bus words (demand + prefetch) per instruction access."""
        return self.words_transferred / self.accesses if self.accesses else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of prefetched blocks referenced before eviction."""
        return (
            self.useful_prefetches / self.prefetches if self.prefetches
            else 0.0
        )


def simulate_prefetch(
    addresses: np.ndarray,
    cache_bytes: int,
    block_bytes: int,
    policy: str = "tagged",
) -> PrefetchStats:
    """Run a trace through a direct-mapped cache with next-line prefetch.

    ``policy`` is ``"on-miss"`` or ``"tagged"``.
    """
    require_power_of_two(cache_bytes, "cache_bytes")
    require_power_of_two(block_bytes, "block_bytes")
    if block_bytes > cache_bytes:
        raise ValueError("block larger than cache")
    if policy not in ("on-miss", "tagged"):
        raise ValueError(f"unknown prefetch policy {policy!r}")
    tagged_policy = policy == "tagged"

    num_sets = cache_bytes // block_bytes
    shift = block_bytes.bit_length() - 1
    set_mask = num_sets - 1
    words_per_block = block_bytes // BUS_WORD_BYTES

    tags = [-1] * num_sets
    tag_bit = [False] * num_sets      # block arrived by prefetch, unused yet
    #: Per-set demand-miss counts (prefetch fills are not misses).
    set_misses = [0] * num_sets

    recorder = obs.current()
    # 3C applies to the demand-miss stream; the shadow has no prefetcher,
    # so "conflict" here is a demand miss a fully-associative non-
    # prefetching cache of the same size would have hit.
    probe = new_probe(block_bytes, cache_bytes)

    demand_misses = 0
    prefetches = 0
    useful = 0
    transferred = 0

    def prefetch(block: int) -> None:
        nonlocal prefetches, transferred
        index = block & set_mask
        if tags[index] == block:
            return                    # already resident
        tags[index] = block
        tag_bit[index] = True
        prefetches += 1
        transferred += words_per_block

    for position, address in enumerate(
        map(int, np.asarray(addresses, dtype=np.int64))
    ):
        block = address >> shift
        index = block & set_mask
        if tags[index] == block:
            if tag_bit[index]:
                # First demand use of a prefetched block.
                tag_bit[index] = False
                useful += 1
                if tagged_policy:
                    prefetch(block + 1)
            continue
        demand_misses += 1
        set_misses[index] += 1
        if probe is not None:
            probe.miss(position, tags[index])
        transferred += words_per_block
        tags[index] = block
        tag_bit[index] = False
        prefetch(block + 1)

    stats = PrefetchStats(
        accesses=len(addresses),
        demand_misses=demand_misses,
        prefetches=prefetches,
        useful_prefetches=useful,
        words_transferred=transferred,
    )
    if recorder.enabled or probe is not None:
        emit_cache_sim(
            CacheStats(
                accesses=stats.accesses,
                misses=stats.demand_misses,
                words_transferred=stats.words_transferred,
                extras={
                    "prefetches": float(prefetches),
                    "accuracy": stats.accuracy,
                },
            ),
            cache_bytes, block_bytes, f"prefetch/{policy}",
            set_misses=set_misses, addresses=addresses, probe=probe,
        )
    return stats
