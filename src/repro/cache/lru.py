"""The one LRU model behind every set-associative, fully-associative,
paging and 3C-shadow simulation.

A simulator turns its address trace into *granules* (its fill unit:
block, page, or shadow granule) and asks :func:`lru_misses` where an LRU
cache of ``num_sets`` sets of ``ways`` granules misses.  Fully
associative is one set; set-associative indexes by the low granule bits.

Instruction fetch is overwhelmingly sequential within a granule, so the
kernel first drops every access that repeats its predecessor's granule.
That is exact for LRU: such a repeat hits the block that is already the
most recently used one in its set, and changes no state.  Only the
transitions run through the per-set ``OrderedDict`` loop.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["lru_misses", "transitions"]


def transitions(granules: np.ndarray) -> np.ndarray:
    """Positions where the granule differs from the previous access."""
    keep = np.empty(len(granules), dtype=bool)
    keep[:1] = True
    np.not_equal(granules[1:], granules[:-1], out=keep[1:])
    return np.flatnonzero(keep)


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
    sets = moves & (num_sets - 1)
    # Sets are independent, so each one replays its own subsequence.
    order = np.argsort(sets, kind="stable")
    bounds = np.searchsorted(sets[order], np.arange(num_sets + 1))
    miss_positions: list[int] = []
    evicted: list[int] = []
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        picked = order[start:end]
        resident: OrderedDict[int, None] = OrderedDict()
        move_to_end = resident.move_to_end
        for position, granule in zip(
            positions[picked].tolist(), moves[picked].tolist()
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
    in_trace_order = np.argsort(miss_positions_array)
    return (miss_positions_array[in_trace_order],
            np.asarray(evicted, dtype=np.int64)[in_trace_order])
