"""Profile-driven superblock formation: the paper's traces + tail duplication.

The paper's trace *selection* (Section 3 Step 3 and the appendix
``TraceSelection``) groups blocks for layout without changing the code;
superblock formation takes the same traces one step further and
restructures the code itself, the way IMPACT did (Hwu et al., "The
Superblock", J. Supercomputing 1993): every trace
:func:`~repro.placement.trace_selection.select_traces` returns is
*tail-duplicated* from its first side entrance on, so the hot path
becomes a single-entry region.  There is one trace-growth rule in the
repository, with the appendix's ``MIN_PROB`` on both arc endpoints.

Semantics of the resulting region:

* **guards** — the in-trace conditional branches; while they keep going
  the likely way, execution stays inside the duplicated straight line,
* **aborts** — each guard's off-trace edge still targets the *original*
  blocks, so an unlikely outcome falls back to unduplicated code with
  identical behaviour (the clones are exact copies, so no compensation
  code is needed — every register/memory effect before the abort point
  is the same on both copies),
* **commit** — the last trace block's successors leave the region
  normally.

Traces are duplicated in the order the selector returns them (hottest
seed first) while tail duplication has grown the function by at most
``MAX_GROWTH - 1`` of its original size; a trace whose tail would not
fit is skipped.  A final unreachable-prune + straight-line merge turns
each duplicated tail into one long block, which is where the layout
stage's fall-through elision then deletes the intra-trace jumps.
"""

from __future__ import annotations

from repro import obs
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.program import Program
from repro.opt.analysis import (
    merge_straight_line,
    predecessors,
    rebuild_program,
    remove_unreachable,
)
from repro.placement.profile_data import ProfileData
from repro.placement.trace_selection import select_traces

__all__ = ["MAX_GROWTH", "run_superblock"]

#: Cap on per-function code growth from tail duplication
#: (1.25 = at most 25% more instructions).
MAX_GROWTH = 1.25


def _duplication_point(
    trace: list[str], preds: dict[str, list[str]]
) -> int | None:
    """First trace index needing a clone (side entrance), if any.

    The selector never places the function entry (whose caller is an
    implicit predecessor) after a trace's first block.
    """
    for index in range(1, len(trace)):
        if any(pred != trace[index - 1] for pred in preds[trace[index]]):
            return index
    return None


def _form_superblocks(
    function: Function, profile: ProfileData
) -> list[BasicBlock]:
    # The selector's Step-3 counters belong to the layout stage.
    with obs.use(obs.NULL):
        selection = select_traces(function, profile)
    name_of = {block.bid: block.name for block in function.blocks}

    blocks = [block.clone({}) for block in function.blocks]
    budget = int((MAX_GROWTH - 1.0) * function.num_instructions)
    counter = 0
    for selected in selection.traces:
        trace = [name_of[bid] for bid in selected.blocks]
        if len(trace) < 2:
            continue
        point = _duplication_point(trace, predecessors(blocks))
        if point is None:
            continue                            # already single-entry
        by_name = {block.name: block for block in blocks}
        cost = sum(
            by_name[label].num_instructions for label in trace[point:]
        )
        if cost > budget:
            continue
        budget -= cost
        clone_names = {
            label: f"__sb{counter + offset}__{label}"
            for offset, label in enumerate(trace[point:])
        }
        counter += len(clone_names)
        clones = []
        for index in range(point, len(trace)):
            label = trace[index]
            rename = {label: clone_names[label]}
            if index + 1 < len(trace):
                follower = trace[index + 1]
                rename[follower] = clone_names[follower]
            clones.append(by_name[label].clone(rename))
        head = by_name[trace[point - 1]]
        if head.taken == trace[point]:
            head.taken = clone_names[trace[point]]
        if head.fall == trace[point]:
            head.fall = clone_names[trace[point]]
        blocks = blocks + clones

    return merge_straight_line(remove_unreachable(blocks))


def run_superblock(program: Program, ctx) -> Program:
    """Form superblocks along the selector's traces of a fresh profile."""
    profile = ctx.profile(program)
    replacements = {
        function.name: _form_superblocks(function, profile)
        for function in program
    }
    return rebuild_program(program, replacements)
