"""Regions: hot paths of a program compiled as one Python function each.

:class:`~repro.interp.interpreter.Interpreter` runs a program's first run
block by block.  The next run forms the program's :class:`Regions` from
the first run's per-block counts: the paper's own Step 3 selector
(:func:`~repro.placement.trace_selection.select_traces`) picks traces,
and each hot trace head, and each return point after a hot call, starts
a region that :func:`region_source` emits the first time a run dispatches
to it.  A region is a superblock with guarded side exits (Way and
Pollock's profile-driven regions; the guard/abort traces of SNIPPETS.md
§1): it runs its blocks inline, absorbs if/else diamonds, follows jumps
and calls, and runs a back edge to its head as a ``while`` loop.  Every
exit appends the bids it ran to the block trace as one constant
``bytes`` and returns the next bid, so the dispatch loop sees block ids
only.  This module is imported when a program first forms regions, so a
process that runs each program once never compiles it.
"""

from __future__ import annotations

import array
import functools
from types import CodeType

import numpy as np

from repro import obs
from repro.interp.interpreter import (
    _BID_TYPECODE,
    _BRANCH_COMPARISONS,
    _PAD,
    _RUN_NAMES,
    REGION_MAX_BLOCKS,
    VIA_FALL,
    VIA_TAKEN,
    _compile,
    _condition,
    _direction,
    _exit,
    _statements,
)
from repro.ir.instructions import Instruction, Opcode
from repro.ir.program import Program
from repro.placement.profile_data import ProfileData
from repro.placement.trace_selection import select_traces

__all__ = ["Regions", "region_source"]

#: Bound on the process-wide region code cache (about 1.5 KB marshaled
#: per entry, 6 KB at most).  A region's source names its blocks' bids,
#: so each program has its own: the ten paper programs emit 86 regions on
#: their ``scale=small`` inputs, and about 165 over 30 rounds of fresh
#: inputs, whose profiles move some heads and branch directions.
REGION_CODE_CACHE_SIZE = 1024

#: Fewest executions in a program's first run that make a block a region
#: head, or a function worth running the selector on.  A head that ran a
#: few times saves fewer dispatches than emitting its region costs; 4, 16
#: and 64 measured alike within noise on fresh paper programs.
REGION_MIN_WEIGHT = 16


class _RegionEmitter:
    """Emits the region of one head: the blocks its traces lead through.

    The walk starts at ``head`` and emits each block's statements inline.
    At a conditional branch it goes on to the block ``follow`` names
    (mostly the next on the trace) and guards the other direction as an
    exit; where one arm is a block that jumps straight to the other
    successor (an if/else diamond), the arm runs as an ``if`` and the walk
    goes on from the join.  A jump is followed, and so is a call:
    ``frames`` holds the return points of the calls the walk is inside,
    which a RET resumes at and an exit pushes onto the call stack.  An
    edge to the head outside any call is a back edge: it checks the budget
    and starts the next iteration of the ``while`` loop the body sits in.
    Every other edge to a block already emitted, and every HALT and
    outermost RET, leaves the region.  ``pending`` holds the bids run
    since the last record; the dispatch loop records the head, so a pass
    starts with none pending.  ``bodies`` caches each block's statements
    across the regions of one program.
    """

    def __init__(
        self, program: Program, head: int, follow: dict[int, int],
        bodies: dict[int, list[str]],
    ) -> None:
        self.program = program
        self.head = head
        self.follow = follow
        self.bodies = bodies
        self.members = {head}
        self.lines = [f"def region({_RUN_NAMES}):", "    while True:"]
        self.loops = False

    def source(self) -> str | None:
        """The region's Python source; ``None`` when it would only run
        its head block once, which the block function already does."""
        self._walk(self.head, [], _PAD * 2, ())
        if len(self.members) == 1 and not self.loops:
            return None
        return "\n".join(self.lines) + "\n"

    def _add(self, pad: str, line: str) -> None:
        self.lines.append(pad + line)

    def _body(self, bid: int, pad: str) -> None:
        body = self.bodies.get(bid)
        if body is None:
            body = self.bodies[bid] = [
                line for instr in self.program.blocks[bid].instructions[:-1]
                for line in _statements(instr)
            ]
        self.lines.extend(pad + line for line in body)

    def _record(self, bids: list[int], pad: str) -> None:
        if bids:
            packed = array.array(_BID_TYPECODE, bids).tobytes()
            self.lines.append(f"{pad}T({packed!r})")

    def _walk(
        self, bid: int, pending: list[int], pad: str, frames: tuple[int, ...]
    ) -> None:
        program = self.program
        self._body(bid, pad)
        term = program.blocks[bid].terminator
        op = term.op
        taken, fall = program.block_taken[bid], program.block_fall[bid]
        if op is Opcode.JMP:
            self._goto(taken, pending, pad, frames)
        elif op is Opcode.CALL:
            self._goto(
                program.block_callee_entry[bid], pending, pad, frames + (fall,)
            )
        elif op is Opcode.RET and frames:
            self._goto(frames[-1], pending, pad, frames[:-1])
        elif op in _BRANCH_COMPARISONS and taken == fall:
            self._add(pad, _direction(term))
            self._goto(taken, pending, pad, frames)
        elif op in _BRANCH_COMPARISONS:
            self._branch(bid, term, taken, fall, pending, pad, frames)
        else:
            # HALT, or a RET to a caller outside the region.
            self._record(pending, pad)
            for line in _exit(term, taken, fall, -1):
                self._add(pad, line)

    def _branch(
        self, bid: int, term: Instruction, taken: int, fall: int,
        pending: list[int], pad: str, frames: tuple[int, ...],
    ) -> None:
        inner = pad + _PAD
        for arm, join, on_taken in ((taken, fall, True), (fall, taken, False)):
            if self._is_arm(arm, join):
                self.members.add(arm)
                self._add(pad, f"if {_condition(term, on_taken)}:")
                self._body(arm, inner)
                self._record(pending + [arm], inner)
                if pending:
                    self._add(pad, "else:")
                    self._record(pending, inner)
                self._goto(join, [], pad, frames)
                return
        on = self.follow.get(bid)
        if on != taken and on != fall:
            self._add(pad, f"if {_condition(term)}:")
            self._leave(taken, pending, inner, frames)
            self._leave(fall, pending, pad, frames)
            return
        off = fall if on == taken else taken
        self._add(pad, f"if {_condition(term, off == taken)}:")
        self._leave(off, pending, inner, frames)
        self._goto(on, pending, pad, frames)

    def _is_arm(self, arm: int, join: int) -> bool:
        program = self.program
        return (
            arm != self.head and arm not in self.members
            and len(self.members) < REGION_MAX_BLOCKS
            and program.blocks[arm].terminator.op is Opcode.JMP
            and program.block_taken[arm] == join
        )

    def _goto(
        self, bid: int, pending: list[int], pad: str, frames: tuple[int, ...]
    ) -> None:
        if (bid == self.head or bid in self.members
                or len(self.members) >= REGION_MAX_BLOCKS):
            self._leave(bid, pending, pad, frames)
            return
        self.members.add(bid)
        self._walk(bid, pending + [bid], pad, frames)

    def _leave(
        self, bid: int, pending: list[int], pad: str, frames: tuple[int, ...]
    ) -> None:
        if bid != self.head or frames:
            self._record(pending, pad)
            for point in frames:
                self._add(pad, f"S({point})")
            self._add(pad, f"return {bid}")
            return
        # A back edge.  The blocks recorded so far plus the pending ones
        # have run; iterate while one more pass surely fits the budget
        # (``G``, as in the dispatch loop), else leave for its exact path.
        self.loops = True
        waiting = len(pending)
        self._add(pad, f"if L(B) > G - {waiting}:" if waiting
                  else "if L(B) > G:")
        self._record(pending, pad + _PAD)
        self._add(pad + _PAD, f"return {bid}")
        self._record(pending + [bid], pad)
        self._add(pad, "continue")


def region_source(
    program: Program, head: int, follow: dict[int, int],
    bodies: dict[int, list[str]],
) -> str | None:
    """The Python source of the region at ``head``.

    ``follow`` maps a branch block to the successor the region goes on
    to, and ``bodies`` caches block statements across calls.  The source
    is ``None`` for a region that would only run its head.
    """
    return _RegionEmitter(program, head, follow, bodies).source()


@functools.lru_cache(maxsize=REGION_CODE_CACHE_SIZE)
def _region_code(source: str) -> CodeType:
    """The code object of one region's function."""
    return _compile(source, "region")


class Regions:
    """Where one program's regions start, and their code once emitted.

    Formed from the program's first run.  The heads are the trace heads
    the paper's selector picks in each function, plus the return point of
    each call, that the run executed at least ``REGION_MIN_WEIGHT`` times.
    A region follows each trace; where a trace ends at a branch (neither
    arc reached ``MIN_PROB``), it goes on the way that run went more
    often.  The selector runs under the null recorder: forming regions is
    not the paper's Step 3, and must not add to its trace-selection
    metrics.  A head's region is emitted the first time a run dispatches
    to it, so heads that other regions absorb cost nothing.
    """

    def __init__(self, program: Program, counts: np.ndarray) -> None:
        weights = counts.sum(axis=1)
        hot = weights >= REGION_MIN_WEIGHT
        profile = ProfileData(
            program, num_runs=1, block_weights=weights,
            taken_weights=counts[:, VIA_TAKEN],
            fall_weights=counts[:, VIA_FALL],
        )
        #: Hot heads whose region is not emitted yet.
        self.pending: set[int] = set()
        #: The block a region goes on to after each block.
        self.follow: dict[int, int] = {}
        with obs.use(obs.NULL):
            for function in program:
                # A function's bids are consecutive.
                first, last = function.blocks[0].bid, function.blocks[-1].bid
                if not hot[first:last + 1].any():
                    continue
                for trace in select_traces(function, profile).traces:
                    if hot[trace.head]:
                        self.pending.add(trace.head)
                    self.follow.update(zip(trace.blocks, trace.blocks[1:]))
        for bid in np.flatnonzero(hot).tolist():
            term = program.blocks[bid].terminator
            taken, fall = program.block_taken[bid], program.block_fall[bid]
            if term.op is Opcode.CALL and hot[fall]:
                self.pending.add(fall)
            elif term.is_branch and bid not in self.follow:
                self.follow[bid] = (
                    taken if counts[bid, VIA_TAKEN] >= counts[bid, VIA_FALL]
                    else fall
                )
        self.codes: dict[int, CodeType] = {}
        self.bodies: dict[int, list[str]] = {}

    def code(self, program: Program, bid: int) -> CodeType | None:
        """The region code at ``bid``, emitted on first use; ``None`` off
        a head, or where the region would only run its head."""
        if bid in self.pending:
            source = region_source(program, bid, self.follow, self.bodies)
            if source is not None:
                self.codes[bid] = _region_code(source)
            self.pending.discard(bid)
        return self.codes.get(bid)
