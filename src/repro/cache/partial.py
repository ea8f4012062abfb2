"""Partial-block loading (paper Section 4.2.2, Table 8 "partial" columns).

"An alternative scheme is to load only part of the missing block, from the
accessed location to the end of that block or to a valid entry previously
loaded in.  The processor resumes execution as soon as the accessed
location comes back from main memory."

One tag per block plus a valid bit per 4-byte word.  On a miss:

* tag mismatch — the whole block is repurposed (all words invalidated),
  then words load from the missed word to the end of the block;
* tag match with an invalid word — words load from the missed word up to
  the first already-valid word (or block end).

Reported alongside miss and traffic ratios:

* ``avg_fetch`` — mean 4-byte entities transferred per miss (the paper's
  ``avg.fetch``);
* ``avg_exec`` — mean number of consecutive instructions used from a miss
  point until a taken branch (any fetch-address discontinuity) or the next
  miss (the paper's ``avg.exec``).
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

__all__ = ["simulate_partial"]


def simulate_partial(
    addresses: np.ndarray, cache_bytes: int, block_bytes: int
) -> CacheStats:
    """Run a trace through a partial-loading direct-mapped cache."""
    require_power_of_two(cache_bytes, "cache_bytes")
    require_power_of_two(block_bytes, "block_bytes")
    if block_bytes > cache_bytes:
        raise ValueError("block larger than cache")

    num_sets = cache_bytes // block_bytes
    block_shift = block_bytes.bit_length() - 1
    words_per_block = block_bytes // BUS_WORD_BYTES
    word_index_mask = words_per_block - 1
    set_mask = num_sets - 1
    word_shift = BUS_WORD_BYTES.bit_length() - 1  # log2(4)

    tags = [-1] * num_sets
    valid = [0] * num_sets            # bit w set = word w present
    #: Per-set miss counts (block repurposes and word fills both count).
    set_misses = [0] * num_sets

    recorder = obs.current()
    # The fill unit is a 4-byte word, so the 3C shadow is a fully
    # associative word cache of the same capacity; a block repurpose
    # evicts the old tag (scaled to its first word's granule number).
    probe = new_probe(BUS_WORD_BYTES, cache_bytes)
    words_shift = block_shift - word_shift

    n = len(addresses)
    misses = 0
    words_transferred = 0
    miss_positions: list[int] = []

    for position in range(n):
        address = int(addresses[position])
        block = address >> block_shift
        index = block & set_mask
        word = (address >> word_shift) & word_index_mask
        bits = valid[index]
        if tags[index] == block and (bits >> word) & 1:
            continue

        misses += 1
        miss_positions.append(position)
        set_misses[index] += 1
        if tags[index] != block:
            if probe is not None:
                evicted = tags[index]
                probe.miss(
                    position,
                    -1 if evicted < 0 else evicted << words_shift,
                )
            tags[index] = block
            bits = 0
        elif probe is not None:
            probe.miss(position)      # word fill within the present block
        # Fill from the missed word to the first valid word or block end.
        ahead = bits >> word          # bit 0 is the missed word (0 here)
        if ahead == 0:
            fill = words_per_block - word
        else:
            fill = (ahead & -ahead).bit_length() - 1
        valid[index] = bits | (((1 << fill) - 1) << word)
        words_transferred += fill

    extras = _execution_run_stats(
        np.asarray(addresses, dtype=np.int64),
        np.asarray(miss_positions, dtype=np.int64),
    )
    extras["avg_fetch"] = words_transferred / misses if misses else 0.0
    stats = CacheStats(
        accesses=n,
        misses=misses,
        words_transferred=words_transferred,
        extras=extras,
    )
    if recorder.enabled or probe is not None:
        emit_cache_sim(
            stats, cache_bytes, block_bytes, "partial",
            set_misses=set_misses, addresses=addresses, probe=probe,
        )
    return stats


def _execution_run_stats(
    addresses: np.ndarray, miss_positions: np.ndarray
) -> dict[str, float]:
    """Compute ``avg_exec``: instructions used from each miss point until
    a fetch discontinuity or the next miss, whichever comes first."""
    if len(miss_positions) == 0:
        return {"avg_exec": 0.0}
    n = len(addresses)
    # Positions p where the fetch after p is not sequential (taken branch,
    # call, return, inserted-jump landing...).  The run started at a miss
    # ends after such a position.
    breaks = np.nonzero(
        addresses[1:] != addresses[:-1] + BUS_WORD_BYTES
    )[0]
    # End-of-trace always terminates a run.
    breaks = np.append(breaks, n - 1)
    # For each miss at position m, the first break >= m closes the run at
    # that break (inclusive); the next miss may close it sooner.
    next_break = breaks[np.searchsorted(breaks, miss_positions, side="left")]
    run_end = next_break + 1
    next_miss = np.append(miss_positions[1:], n)
    run_end = np.minimum(run_end, next_miss)
    lengths = run_end - miss_positions
    return {"avg_exec": float(lengths.mean())}
