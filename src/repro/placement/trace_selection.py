"""Trace selection (paper Section 3 Step 3 and Appendix ``TraceSelection``).

Basic blocks that tend to execute in sequence are grouped into *traces*,
the paper's unit of instruction placement.  This is a direct transcription
of the appendix pseudo-code:

* ``MIN_PROB = 0.7``;
* for a never-executed function, every block forms its own trace;
* otherwise, repeatedly seed a trace with the hottest unselected block and
  grow it forward through ``best_successor`` and backward through
  ``best_predecessor``;
* an arc extends a trace only if it is the heaviest arc out of (into) the
  current block, carries non-zero weight, accounts for at least
  ``MIN_PROB`` of both endpoint weights, and its far endpoint is not yet in
  any trace; forward growth never absorbs the function entry block.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro import obs
from repro.ir.function import Function
from repro.placement.profile_data import ProfileData

__all__ = ["MIN_PROB", "Trace", "TraceSelection", "select_traces"]

#: The appendix's arc-probability threshold.
MIN_PROB = 0.7

_weight = itemgetter(0)


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of basic blocks placed contiguously."""

    tid: int
    blocks: tuple[int, ...]       # bids, in placement order
    weight: int                   # sum of member block weights

    @property
    def head(self) -> int:
        """bid of the first block."""
        return self.blocks[0]

    @property
    def tail(self) -> int:
        """bid of the last block."""
        return self.blocks[-1]

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class TraceSelection:
    """All traces of one function plus the block -> trace index."""

    function_name: str
    traces: tuple[Trace, ...]
    trace_of: dict[int, int]      # bid -> tid

    def trace_containing(self, bid: int) -> Trace:
        """The trace a block belongs to."""
        return self.traces[self.trace_of[bid]]

    def position_in_trace(self, bid: int) -> int:
        """Index of ``bid`` within its trace."""
        return self.trace_containing(bid).blocks.index(bid)


def select_traces(
    function: Function,
    profile: ProfileData,
    min_prob: float = MIN_PROB,
) -> TraceSelection:
    """Run the appendix ``TraceSelection`` algorithm on one function."""
    entry_bid = function.entry.bid
    assert entry_bid is not None
    bids = [block.bid for block in function.blocks]

    if profile.function_weight(function.name) == 0:
        # Never-executed function: each block forms its own trace.
        traces = tuple(
            Trace(tid=i, blocks=(bid,), weight=0)
            for i, bid in enumerate(bids)
        )
        return TraceSelection(
            function_name=function.name,
            traces=traces,
            trace_of={bid: i for i, bid in enumerate(bids)},
        )

    weights = dict(zip(bids, profile.block_weights[bids].tolist()))
    # ``(weight, far end)`` of each arc out of (into) a block.
    outgoing: dict[int, list[tuple[int, int]]] = {bid: [] for bid in bids}
    incoming: dict[int, list[tuple[int, int]]] = {bid: [] for bid in bids}
    for src, dst, _kind, weight in profile.control_arcs(function):
        outgoing[src].append((weight, dst))
        incoming[dst].append((weight, src))

    selected: set[int] = set()
    # Why trace growth stopped, tallied for the observability layer:
    # zero-weight best arcs, arcs below MIN_PROB, far ends already taken.
    cutoffs = {"zero_weight": 0, "min_prob": 0, "already_selected": 0}

    def best(arcs: list[tuple[int, int]], bb: int) -> int | None:
        """The far end of ``bb``'s best arc in ``arcs`` (the appendix's
        ``best_successor`` on outgoing arcs, ``best_predecessor`` on
        incoming ones), or ``None``."""
        if not arcs:
            return None
        weight, far = max(arcs, key=_weight)
        if weight == 0:
            cutoffs["zero_weight"] += 1
            return None
        if (weight / max(weights[bb], 1) < min_prob
                or weight / max(weights[far], 1) < min_prob):
            cutoffs["min_prob"] += 1
            return None
        if far in selected:
            cutoffs["already_selected"] += 1
            return None
        return far

    # Seeds in decreasing weight (ties broken by declaration order, for
    # determinism).
    seed_order = sorted(bids, key=lambda b: (-weights[b], b))
    traces: list[Trace] = []
    trace_of: dict[int, int] = {}

    for seed in seed_order:
        if seed in selected:
            continue
        tid = len(traces)
        selected.add(seed)
        chain: list[int] = [seed]

        # Grow the trace forward.
        current = seed
        while True:
            successor = best(outgoing[current], current)
            if successor is None or successor == entry_bid:
                break
            selected.add(successor)
            chain.append(successor)
            current = successor

        # Grow the trace backward.
        current = seed
        while current != entry_bid:
            predecessor = best(incoming[current], current)
            if predecessor is None:
                break
            selected.add(predecessor)
            chain.insert(0, predecessor)
            current = predecessor

        trace = Trace(
            tid=tid,
            blocks=tuple(chain),
            weight=sum(weights[b] for b in chain),
        )
        traces.append(trace)
        for bid in chain:
            trace_of[bid] = tid

    recorder = obs.current()
    if recorder.enabled:
        for trace in traces:
            recorder.observe("trace_length_blocks", len(trace.blocks))
        recorder.count("traces_selected", len(traces))
        recorder.count("trace_cutoff_zero_weight", cutoffs["zero_weight"])
        recorder.count("trace_cutoff_min_prob", cutoffs["min_prob"])
        recorder.count(
            "trace_cutoff_already_selected", cutoffs["already_selected"]
        )

    return TraceSelection(
        function_name=function.name,
        traces=tuple(traces),
        trace_of=trace_of,
    )
