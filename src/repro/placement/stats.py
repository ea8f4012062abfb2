"""Statistics the paper reports about the placement itself.

* :func:`trace_selection_stats` — Table 4's neutral / undesirable /
  desirable control-transfer percentages and average trace length.
* :func:`inline_stats` — Table 3's code increase, call decrease, and
  dynamic instructions / control transfers per call.

Table 4 classification of a weighted intra-function arc ``a -> b``
(only dynamically executed arcs count):

* **desirable** — ``b`` immediately follows ``a`` inside the same trace:
  control stays sequential within the unit of placement;
* **neutral** — ``a`` is the tail of its trace and ``b`` is the head of a
  trace: a careful linear ordering of traces can still make it sequential;
* **undesirable** — everything else: the transfer enters and/or exits a
  trace at a non-terminal block.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.program import Program
from repro.placement.inline import InlineReport
from repro.placement.profile_data import ProfileData
from repro.placement.trace_selection import TraceSelection

__all__ = ["TraceStats", "InlineStats", "trace_selection_stats", "inline_stats"]


@dataclass(frozen=True)
class TraceStats:
    """Table 4 row for one benchmark."""

    neutral_pct: float
    undesirable_pct: float
    desirable_pct: float
    avg_trace_length: float
    total_transfers: int


@dataclass(frozen=True)
class InlineStats:
    """Table 3 row for one benchmark."""

    code_increase_pct: float
    call_decrease_pct: float
    instructions_per_call: float
    control_transfers_per_call: float


def trace_selection_stats(
    program: Program,
    profile: ProfileData,
    selections: dict[str, TraceSelection],
) -> TraceStats:
    """Classify every dynamic intra-function control transfer (Table 4)."""
    desirable = 0
    neutral = 0
    undesirable = 0
    trace_lengths: list[int] = []

    for function in program:
        selection = selections[function.name]
        for trace in selection.traces:
            if trace.weight > 0:
                trace_lengths.append(len(trace))
        if profile.function_weight(function.name) == 0:
            continue

        # Position of each block within its trace, for adjacency checks.
        position: dict[int, tuple[int, int]] = {}
        for trace in selection.traces:
            for index, bid in enumerate(trace.blocks):
                position[bid] = (trace.tid, index)

        for arc in profile.control_arcs(function):
            if arc.weight == 0:
                continue
            src_tid, src_index = position[arc.src]
            dst_tid, dst_index = position[arc.dst]
            src_trace = selection.traces[src_tid]
            dst_trace = selection.traces[dst_tid]
            if src_tid == dst_tid and dst_index == src_index + 1:
                desirable += arc.weight
            elif (
                src_index == len(src_trace) - 1 and dst_index == 0
            ):
                neutral += arc.weight
            else:
                undesirable += arc.weight

    total = desirable + neutral + undesirable
    if total == 0:
        return TraceStats(0.0, 0.0, 0.0, 0.0, 0)
    avg_length = (
        sum(trace_lengths) / len(trace_lengths) if trace_lengths else 0.0
    )
    return TraceStats(
        neutral_pct=100.0 * neutral / total,
        undesirable_pct=100.0 * undesirable / total,
        desirable_pct=100.0 * desirable / total,
        avg_trace_length=avg_length,
        total_transfers=total,
    )


def inline_stats(
    report: InlineReport, post_inline_profile: ProfileData
) -> InlineStats:
    """Assemble the Table 3 row from the inliner report and the post-inline
    profile.

    ``DI's per call`` and ``CT's per call`` are measured *after* inline
    expansion, as in the paper, hence the post-inline profile.
    """
    return InlineStats(
        code_increase_pct=report.code_increase_pct,
        call_decrease_pct=report.call_decrease_pct,
        instructions_per_call=post_inline_profile.instructions_per_call,
        control_transfers_per_call=(
            post_inline_profile.control_transfers_per_call
        ),
    )
