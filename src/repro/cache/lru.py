"""The one LRU model behind every set-associative, fully-associative,
paging and 3C-shadow simulation, and the transition step every cache
kernel shares.

A simulator turns its address trace into *granules* (its fill unit:
block, page, or shadow granule) and asks :func:`lru_misses` where an LRU
cache of ``num_sets`` sets of ``ways`` granules misses.  Fully
associative is one set; set-associative indexes by the low granule bits.

Instruction fetch is overwhelmingly sequential within a granule, so the
kernel first drops every access that repeats its predecessor's granule
(:func:`transitions`).  That is exact for LRU: such a repeat hits the
block that is already the most recently used one in its set, and changes
no state.  Only the transitions are grouped by set (:func:`set_order`,
skipped for one set) and run through the per-set ``OrderedDict`` loop.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["lru_misses", "set_order", "transitions"]


def transitions(granules: np.ndarray) -> np.ndarray:
    """Positions where the granule differs from the previous access."""
    keep = np.empty(len(granules), dtype=bool)
    keep[:1] = True
    np.not_equal(granules[1:], granules[:-1], out=keep[1:])
    return np.flatnonzero(keep)


def set_order(sets: np.ndarray, num_sets: int) -> np.ndarray:
    """The stable permutation that groups ``sets`` by set index.

    With at most ``2**16`` sets the key is cast to ``uint16``, for which
    numpy's stable sort is a radix sort; wider set indices sort as they
    are.
    """
    if num_sets <= 1 << 16:
        sets = sets.astype(np.uint16)
    return np.argsort(sets, kind="stable")


def lru_misses(
    granules, ways: int, num_sets: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Miss positions and evicted granules of an LRU cache over a trace.

    ``granules`` is the trace in fill units; access ``i`` maps to set
    ``granules[i] & (num_sets - 1)`` (``num_sets`` is a power of two),
    each set holding ``ways`` granules.  Returns two parallel int64
    arrays in trace order: the position of every miss and the granule
    it evicted (``-1`` while its set was not yet full).
    """
    granules = np.asarray(granules, dtype=np.int64)
    positions = transitions(granules)
    moves = granules[positions]
    # Sets are independent, so each one replays its own subsequence.
    if num_sets == 1:
        groups = [(positions, moves)]
    else:
        sets = moves & (num_sets - 1)
        order = set_order(sets, num_sets)
        bounds = np.searchsorted(sets[order], np.arange(num_sets + 1))
        groups = (
            (positions[order[start:end]], moves[order[start:end]])
            for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        )
    miss_positions: list[int] = []
    evicted: list[int] = []
    for picked_positions, picked_moves in groups:
        resident: OrderedDict[int, None] = OrderedDict()
        move_to_end = resident.move_to_end
        for position, granule in zip(
            picked_positions.tolist(), picked_moves.tolist()
        ):
            if granule in resident:
                move_to_end(granule)
                continue
            miss_positions.append(position)
            if len(resident) >= ways:
                evicted.append(resident.popitem(last=False)[0])
            else:
                evicted.append(-1)
            resident[granule] = None
    miss_positions_array = np.asarray(miss_positions, dtype=np.int64)
    evicted_array = np.asarray(evicted, dtype=np.int64)
    if num_sets == 1:
        # One set replays the trace in order: already sorted.
        return miss_positions_array, evicted_array
    in_trace_order = np.argsort(miss_positions_array)
    return miss_positions_array[in_trace_order], evicted_array[in_trace_order]
