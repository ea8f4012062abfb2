"""Direct-mapped instruction cache (reference implementation).

"Direct-mapped caches are used in all the measurements due to their
minimal set-associativity overhead" (paper Section 4.2).  This is the
straightforward tag-per-set simulation; the numerically identical but much
faster vectorised version in :mod:`repro.cache.vectorized` is what the
experiment harness uses, and the test suite cross-checks the two.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.cache.base import (
    BUS_WORD_BYTES,
    CacheStats,
    emit_cache_sim,
    new_probe,
    require_power_of_two,
)

__all__ = ["DirectMappedCache", "simulate_direct"]


class DirectMappedCache:
    """A direct-mapped cache usable incrementally (access by access)."""

    def __init__(self, cache_bytes: int, block_bytes: int) -> None:
        require_power_of_two(cache_bytes, "cache_bytes")
        require_power_of_two(block_bytes, "block_bytes")
        if block_bytes > cache_bytes:
            raise ValueError("block larger than cache")
        self.cache_bytes = cache_bytes
        self.block_bytes = block_bytes
        self.num_sets = cache_bytes // block_bytes
        self._block_shift = block_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._tags = [-1] * self.num_sets
        self.accesses = 0
        self.misses = 0
        #: Per-set conflict-miss counts (index -> misses landing there).
        self.set_misses = [0] * self.num_sets

    def access(self, address: int) -> bool:
        """Fetch one instruction; returns True on hit."""
        self.accesses += 1
        block = address >> self._block_shift
        index = block & self._set_mask
        if self._tags[index] == block:
            return True
        self._tags[index] = block
        self.misses += 1
        self.set_misses[index] += 1
        return False

    def stats(self) -> CacheStats:
        """Snapshot of the metrics so far (whole-block fills)."""
        words_per_block = self.block_bytes // BUS_WORD_BYTES
        return CacheStats(
            accesses=self.accesses,
            misses=self.misses,
            words_transferred=self.misses * words_per_block,
        )


def simulate_direct(
    addresses: Iterable[int], cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Run a full trace through a direct-mapped cache."""
    cache = DirectMappedCache(cache_bytes, block_bytes)
    shift = cache._block_shift
    mask = cache._set_mask
    tags = cache._tags
    set_misses = cache.set_misses
    recorder = obs.current()
    probe = new_probe(block_bytes, cache_bytes)
    seen: list[int] | None = [] if probe is not None else None
    accesses = 0
    misses = 0
    for address in addresses:
        accesses += 1
        block = address >> shift
        index = block & mask
        if tags[index] != block:
            if probe is not None:
                probe.miss(accesses - 1, tags[index])
            tags[index] = block
            misses += 1
            set_misses[index] += 1
        if seen is not None:
            seen.append(address)
    cache.accesses = accesses
    cache.misses = misses
    stats = cache.stats()
    if recorder.enabled or probe is not None:
        emit_cache_sim(
            stats, cache_bytes, block_bytes, "direct",
            set_misses=set_misses, addresses=seen, probe=probe,
        )
    return stats
