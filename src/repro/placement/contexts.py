"""Calling-context profiles: one profile of the runs for every inline policy.

Which inlined copy of a block runs depends only on the call sites active
at that point, so exit counts per (calling context, block) — a
calling-context profile (Ammons, Ball & Larus, PLDI 1997) — projected
through an :class:`~repro.placement.inline.InlineReport`'s block origins
give exactly what interpreting the inlined program would measure, under
*any* inline policy.  Walking one run the same way rewrites its block
trace (:func:`derive_trace`).

A *context* is the stack of call sites active since the last call into a
callee the inliner can never expand: a recursive function or a syscall.
That set depends on the program, not the policy, so the contexts are
finite and shared by every report.  A report maps a context to one of
its inlined chains by folding the sites from ``()``: a site the report
expanded there extends the chain, any other site restarts it at ``()``.

A program's per-block event tables are built once per ``Program``, and a
report's chain numbering and copy table once per report, so profiling a
program, projecting its profile and deriving its trace share them.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.interp.trace import BlockTrace
from repro.ir.instructions import Opcode
from repro.ir.program import Program
from repro.placement.inline import InlineReport
from repro.placement.profile_data import ProfileData

if TYPE_CHECKING:
    from repro.interp.interpreter import ExecutionResult

__all__ = ["ContextProfile", "ContextProfiler", "derive_trace"]

Context = tuple[int, ...]

#: Each program's read-only ``(is_call, is_event, reset row)`` block
#: tables (see :func:`_event_tables`), for as long as the program lives.
_EVENT_TABLES: weakref.WeakKeyDictionary[
    Program, tuple[np.ndarray, np.ndarray, np.ndarray]
] = weakref.WeakKeyDictionary()

#: Each inline report's chain numbers and copy table (see :func:`_chains`),
#: for as long as the report lives.
_CHAINS: weakref.WeakKeyDictionary[
    InlineReport, tuple[dict[Context, int], np.ndarray]
] = weakref.WeakKeyDictionary()


def _event_tables(
    program: Program,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per block of ``program``: whether it ends in a CALL, whether in a
    CALL or RET, and the reset row of the child table (0 at a site whose
    callee resets the context, -1 elsewhere)."""
    tables = _EVENT_TABLES.get(program)
    if tables is None:
        never = program.recursive_functions() | {
            function.name for function in program if function.is_syscall
        }
        is_call = np.asarray(program.block_callee_entry) >= 0
        is_event = is_call | np.asarray(
            [block.kind is Opcode.RET for block in program.blocks], bool
        )
        row = np.where(
            [block.callee in never for block in program.blocks], 0, -1
        )
        for table in (is_call, is_event, row):
            table.flags.writeable = False
        tables = _EVENT_TABLES[program] = (is_call, is_event, row)
    return tables


class ContextProfiler:
    """Folds runs of a program into a :class:`ContextProfile` one at a
    time, numbering contexts in order of first appearance."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._is_call, self._is_event, self._row = _event_tables(program)
        self.contexts: list[Context] = [()]
        # Row ``c`` of the child table maps a call site to the context a
        # call there from context ``c`` enters: 0 at a site whose callee
        # resets the context, -1 while unseen (a row starts as ``_row``).
        self._child = self._row.copy()
        self._totals = np.zeros(0, dtype=np.int64)
        self._run_instructions: list[int] = []

    def codes(self, block_ids: np.ndarray) -> np.ndarray:
        """``context * num_blocks + bid`` of every position of a run.

        Vectorized over the run's CALL and RET events: the call depth
        after each event is a ``cumsum``; the context after an event is
        the one its innermost open call entered (a running maximum per
        depth level); and the child table maps each call's ``(parent
        context, site)`` pair, one level of context length at a time.
        Contexts new to this run are numbered in order of their first
        call, as a walk of the events would number them.
        """
        n = self.program.num_blocks
        events = self._is_event.take(block_ids).nonzero()[0]
        count = len(events)
        if not count:
            return block_ids.astype(np.int64)
        sites = block_ids[events]
        is_call = self._is_call.take(sites)
        depth = np.where(is_call, 1, -1).cumsum()
        if depth.min() < 0:
            raise ValueError("trace returns with an empty call stack")
        # The number of the call open after each event, -1 at depth 0.
        # Past a call, that is the call; past a return into depth d > 0,
        # the last call that reached depth d: sorted by depth (stably), a
        # running maximum of call numbers that each depth's floor restarts.
        number = is_call.cumsum() - 1
        open_call = np.where(is_call, number, -1)
        deepest = depth.max()
        if deepest > 1:
            floor = depth * (count + 1)
            keys = np.where(is_call, floor + number, floor - 1)
            order = np.argsort(depth, kind="stable")
            open_call[order] = (
                np.maximum.accumulate(keys[order]) - floor[order])
        # A call's parent is the call open before it.
        parent = np.concatenate(([-1], open_call[:-1]))[is_call]
        entered = self._enter(parent, sites[is_call], n)
        # The context before the first event, then after each event.
        segments = np.concatenate(([0], entered[open_call]))
        lengths = np.empty(count + 1, dtype=np.int64)
        lengths[0] = events[0] + 1
        lengths[1:-1] = events[1:] - events[:-1]
        lengths[-1] = len(block_ids) - 1 - events[-1]
        codes = np.repeat(segments * n, lengths)
        codes += block_ids
        return codes

    def _enter(
        self, parent: np.ndarray, sites: np.ndarray, n: int
    ) -> np.ndarray:
        """The context each call enters, followed by a 0 for no call.

        ``parent`` is each call's innermost open call before it (``-1``
        for none) and ``sites`` its block, both in event order.
        """
        entered = np.append(self._row.take(sites), 0)
        # Ids from ``fresh`` up are provisional until renumbered.
        fresh = len(self.contexts)
        new: list[tuple[int, int]] = []     # (first call, pair)
        pending = (entered < 0).nonzero()[0]
        while len(pending):
            above = entered[parent[pending]]
            ready = above >= 0
            if ready.all():
                todo, pending = pending, pending[:0]
            else:
                todo, above = pending[ready], above[ready]
                pending = pending[~ready]
            pairs = above * n + sites[todo]
            found = self._child[pairs]
            missing = (found < 0).nonzero()[0]
            if len(missing):
                unique, first, inverse = np.unique(
                    pairs[missing], return_index=True, return_inverse=True)
                found[missing] = fresh + len(new) + inverse
                new.extend(zip(todo[missing[first]].tolist(),
                               unique.tolist()))
                self._child = np.concatenate(
                    (self._child, np.tile(self._row, len(unique))))
            entered[todo] = found
        if new:
            # A context's parent appears before it, so numbering by first
            # call renumbers every parent before its children.
            final = np.arange(fresh + len(new))
            by_first_call = sorted(range(len(new)), key=lambda i: new[i][0])
            for context, i in enumerate(by_first_call, start=fresh):
                final[fresh + i] = context
                above, site = divmod(new[i][1], n)
                above = int(final[above])
                self._child[above * n + site] = context
                self.contexts.append(self.contexts[above] + (site,))
            entered = final[entered]
        return entered

    def record(self, run: ExecutionResult) -> None:
        """Fold one interpreter run."""
        self._run_instructions.append(run.instructions)
        codes = self.codes(run.block_ids)
        codes *= 3
        codes += run.via
        counts = np.bincount(codes, minlength=len(self._totals))
        counts[: len(self._totals)] += self._totals
        self._totals = counts

    def finish(self) -> ContextProfile:
        counts = np.zeros((len(self.contexts) * self.program.num_blocks, 3),
                          dtype=np.int64)
        counts.ravel()[: len(self._totals)] = self._totals
        keys = np.flatnonzero(counts.any(axis=1))
        return ContextProfile(self.program, tuple(self.contexts), keys,
                              counts[keys], tuple(self._run_instructions))


def _chains(
    report: InlineReport, num_blocks: int
) -> tuple[dict[Context, int], np.ndarray]:
    """The number of each chain ``report`` inlined along (``()`` is 0),
    and the read-only table of the inlined bid of each (chain number,
    pre-inline bid) pair, -1 where the inlined program has no copy."""
    cached = _CHAINS.get(report)
    if cached is None:
        chains: dict[Context, int] = {(): 0}
        rows = [chains.setdefault(chain, len(chains))
                for chain, _ in report.origins]
        remap = np.full((len(chains), num_blocks), -1, dtype=np.int64)
        remap[rows, [bid for _, bid in report.origins]] = np.arange(len(rows))
        remap.flags.writeable = False
        cached = _CHAINS[report] = (chains, remap)
    return cached


def _project(
    contexts: Iterable[Context], report: InlineReport, num_blocks: int,
    codes: np.ndarray,
) -> np.ndarray:
    """The inlined bid of each ``context * num_blocks + bid`` code.

    Raises ``ValueError`` for a block the inlined program has no copy of.
    """
    chains, remap = _chains(report, num_blocks)
    folded = []
    for context in contexts:
        chain: Context = ()
        for site in context:
            chain += (site,)
            if chain not in chains:
                chain = ()
        folded.append(chains[chain])
    mapped = remap[folded].ravel()[codes]
    if len(mapped) and mapped.min() < 0:
        position = int(np.argmax(mapped < 0))
        raise ValueError(
            f"position {position}: block {int(codes[position]) % num_blocks}"
            " has no copy in the inlined program"
        )
    return mapped


@dataclass(frozen=True, eq=False)
class ContextProfile:
    """Exit counts per (calling context, block) over some profiling runs.

    ``keys`` are the ascending ``context * num_blocks + bid`` codes of the
    pairs that ran; row ``i`` of ``counts`` is pair ``i``'s exits per
    ``VIA_*`` code (terminator, taken, fall).  ``run_instructions`` is
    each run's instruction count, which inlining preserves.
    """

    program: Program
    contexts: tuple[Context, ...]
    keys: np.ndarray
    counts: np.ndarray
    run_instructions: tuple[int, ...]

    def project(
        self, report: InlineReport | None = None,
        program: Program | None = None,
    ) -> ProfileData:
        """The profile of ``program``, the inlined program ``report``
        describes (without a report, of :attr:`program`) — the one place
        exit counts become a :class:`ProfileData`."""
        n = self.program.num_blocks
        if report is None:
            program, bids = self.program, self.keys % n
        else:
            bids = _project(self.contexts, report, n, self.keys)
        counts = np.zeros((program.num_blocks, 3), dtype=np.int64)
        np.add.at(counts, bids, self.counts)
        blocks = counts.sum(axis=1)
        # In a valid program only JMPs and conditional branches have a
        # taken successor, and only CALLs a callee.
        transfers = np.asarray(program.block_taken) >= 0
        calls = np.asarray(program.block_callee_entry) >= 0
        sizes = np.asarray(program.block_num_instructions, dtype=np.int64)
        return ProfileData(
            program=program,
            num_runs=len(self.run_instructions),
            block_weights=blocks,
            taken_weights=counts[:, 1].copy(),
            fall_weights=counts[:, 2].copy(),
            dynamic_instructions=int(blocks @ sizes),
            control_transfers=int(blocks[transfers].sum()),
            dynamic_calls=int(blocks[calls].sum()),
            run_instructions=list(self.run_instructions),
        )


def derive_trace(
    program: Program, report: InlineReport, trace: BlockTrace
) -> BlockTrace:
    """Rewrite a block trace of ``program`` into the inlined program's.

    ``report`` is what :func:`~repro.placement.inline.inline_expand`
    returned for ``program``.  ``via`` carries over unchanged: CALL→JMP
    and RET→JMP both leave through the terminator.
    """
    contexts, codes = [()], trace.block_ids
    if len(_chains(report, program.num_blocks)[0]) > 1:
        walk = ContextProfiler(program)
        codes = walk.codes(codes)
        contexts = walk.contexts
    mapped = _project(contexts, report, program.num_blocks, codes)
    return BlockTrace(block_ids=mapped.astype(np.int32), via=trace.via)
