"""The calling-context walk, one CALL or RET event at a time.

This is how :meth:`repro.placement.contexts.ContextProfiler.codes`
computed a run's context codes before it was vectorized.  It stays here
as the oracle the numpy fold is checked against: same codes, same
contexts in the same first-appearance order, same error.
"""

from __future__ import annotations

import numpy as np

from repro.interp.trace import BlockTrace
from repro.ir.instructions import Opcode
from repro.ir.program import Program
from repro.placement.contexts import _project
from repro.placement.inline import InlineReport

__all__ = ["ReferenceContexts", "reference_derive_trace"]


class ReferenceContexts:
    """Numbers a program's calling contexts over runs, walking each run's
    events in order."""

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
        self.contexts: list[tuple[int, ...]] = [()]
        self._child: dict[int, int] = {}

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


def reference_derive_trace(
    program: Program, report: InlineReport, trace: BlockTrace
) -> BlockTrace:
    """:func:`repro.placement.contexts.derive_trace` on the walked codes."""
    contexts, codes = [()], trace.block_ids
    if any(chain for chain, _ in report.origins):
        walk = ReferenceContexts(program)
        codes = walk.codes(codes)
        contexts = walk.contexts
    mapped = _project(contexts, report, program.num_blocks, codes)
    return BlockTrace(block_ids=mapped.astype(np.int32), via=trace.via)
