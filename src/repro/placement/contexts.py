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
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.interp.trace import BlockTrace
from repro.ir.instructions import Opcode
from repro.ir.program import Program
from repro.placement.inline import InlineReport
from repro.placement.profile_data import ProfileData

__all__ = ["ContextProfile", "ContextProfiler", "derive_trace"]

Context = tuple[int, ...]


class ContextProfiler:
    """Folds runs of a program into a :class:`ContextProfile` one at a
    time, numbering contexts in order of first appearance."""

    def __init__(self, program: Program) -> None:
        self.program = program
        never = program.recursive_functions() | {
            function.name for function in program if function.is_syscall
        }
        self._is_call = np.asarray(program.block_callee_entry) >= 0
        self._is_event = self._is_call | np.asarray(
            [block.kind is Opcode.RET for block in program.blocks], bool
        )
        self._resets = {b.bid for b in program.blocks if b.callee in never}
        self.contexts: list[Context] = [()]
        self._child: dict[int, int] = {}
        self._sizes = np.asarray(program.block_num_instructions, np.int64)
        self._totals = np.zeros(0, dtype=np.int64)
        self._run_instructions: list[int] = []

    def codes(self, block_ids: np.ndarray) -> np.ndarray:
        """``context * num_blocks + bid`` of every position of a run."""
        n = self.program.num_blocks
        events = np.flatnonzero(self._is_event[block_ids])
        sites = block_ids[events]
        contexts, child, stack = self.contexts, self._child, []
        # The context before the first event, then after each event.
        segments = [0]
        current = 0
        for site, call in zip(sites.tolist(), self._is_call[sites].tolist()):
            if call:
                stack.append(current)
                key = current * n + site
                entered = child.get(key)
                if entered is None:
                    entered = child[key] = (
                        0 if site in self._resets else len(contexts))
                    if entered:
                        contexts.append(contexts[current] + (site,))
                current = entered
            elif stack:
                current = stack.pop()
            else:
                raise ValueError("trace returns with an empty call stack")
            segments.append(current)
        lengths = np.diff(np.concatenate(([0], events + 1, [len(block_ids)])))
        return np.repeat(np.asarray(segments) * n, lengths) + block_ids

    def record(self, run: BlockTrace) -> None:
        """Fold one run (a block trace or an interpreter result)."""
        self._run_instructions.append(int(self._sizes[run.block_ids].sum()))
        counts = np.bincount(self.codes(run.block_ids) * 3 + run.via,
                             minlength=len(self._totals))
        counts[: len(self._totals)] += self._totals
        self._totals = counts

    def finish(self) -> ContextProfile:
        counts = np.zeros((len(self.contexts) * self.program.num_blocks, 3),
                          dtype=np.int64)
        counts.ravel()[: len(self._totals)] = self._totals
        keys = np.flatnonzero(counts.any(axis=1))
        return ContextProfile(self.program, tuple(self.contexts), keys,
                              counts[keys], tuple(self._run_instructions))


def _project(
    contexts: Iterable[Context], report: InlineReport, num_blocks: int,
    codes: np.ndarray,
) -> np.ndarray:
    """The inlined bid of each ``context * num_blocks + bid`` code.

    Raises ``ValueError`` for a block the inlined program has no copy of.
    """
    chains: dict[Context, int] = {(): 0}
    for chain, _ in report.origins:
        chains.setdefault(chain, len(chains))
    remap = np.full((len(chains), num_blocks), -1, dtype=np.int64)
    for new_bid, (chain, bid) in enumerate(report.origins):
        remap[chains[chain], bid] = new_bid
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
    if any(chain for chain, _ in report.origins):
        walk = ContextProfiler(program)
        codes = walk.codes(codes)
        contexts = walk.contexts
    mapped = _project(contexts, report, program.num_blocks, codes)
    return BlockTrace(block_ids=mapped.astype(np.int32), via=trace.via)
