"""Execution profiling (paper Section 3, Step 1).

The paper's IMPACT-I profiler rewrites the C source with probe calls and
runs it over many representative inputs; we get the same node/arc weights
by running the IR interpreter over many seeded input streams and folding
each execution's block trace into dense weight arrays.  The folding needs
only the trace, so :func:`profile_traces` also profiles traces that were
derived rather than interpreted (the inliner's, see
:func:`repro.placement.inline.derive_trace`).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro import obs
from repro.interp.interpreter import (
    DEFAULT_MAX_INSTRUCTIONS,
    ExecutionResult,
    Interpreter,
    VIA_FALL,
    VIA_TAKEN,
)
from repro.interp.trace import BlockTrace
from repro.ir.instructions import Opcode
from repro.ir.program import Program
from repro.placement.profile_data import ProfileData

__all__ = ["Profiler", "profile_program", "profile_traces"]


class Profiler:
    """Accumulates :class:`ProfileData` over any number of runs."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._profile = ProfileData(program)
        # Static masks used to classify executed terminators.
        kinds = [block.kind for block in program.blocks]
        self._is_jmp = np.asarray(
            [k is Opcode.JMP for k in kinds], dtype=bool
        )
        self._is_call = np.asarray(
            [k is Opcode.CALL for k in kinds], dtype=bool
        )
        self._is_branch = np.asarray(
            [program.blocks[b].terminator.is_branch
             for b in range(program.num_blocks)],
            dtype=bool,
        )
        self._sizes = np.asarray(
            program.block_num_instructions, dtype=np.int64
        )

    def record(self, result: ExecutionResult | BlockTrace) -> None:
        """Fold one execution's block trace into the profile."""
        n = self.program.num_blocks
        profile = self._profile
        counts = np.bincount(result.block_ids, minlength=n).astype(np.int64)
        profile.block_weights += counts
        profile.taken_weights += np.bincount(
            result.block_ids[result.via == VIA_TAKEN], minlength=n
        ).astype(np.int64)
        profile.fall_weights += np.bincount(
            result.block_ids[result.via == VIA_FALL], minlength=n
        ).astype(np.int64)

        instructions = int(counts @ self._sizes)
        profile.dynamic_instructions += instructions
        profile.run_instructions.append(instructions)
        profile.control_transfers += int(
            counts[self._is_branch].sum() + counts[self._is_jmp].sum()
        )
        profile.dynamic_calls += int(counts[self._is_call].sum())
        profile.num_runs += 1

    def finish(self) -> ProfileData:
        """Return the accumulated profile."""
        recorder = obs.current()
        if recorder.enabled:
            profile = self._profile
            weights = [
                (function.name, int(profile.function_weight(function.name)))
                for function in self.program
            ]
            for _, weight in weights:
                recorder.observe("function_execution_weight", weight)
            weights.sort(key=lambda pair: (-pair[1], pair[0]))
            recorder.event(
                "profile_functions",
                runs=profile.num_runs,
                dynamic_instructions=profile.dynamic_instructions,
                dynamic_calls=profile.dynamic_calls,
                top_functions=weights[:10],
            )
        return self._profile


def profile_program(
    program: Program,
    input_sets: Iterable[Iterable[int]],
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> ProfileData:
    """Profile ``program`` over several input streams (one run each)."""
    interpreter = Interpreter(program)
    return profile_traces(
        program,
        (
            interpreter.run(input_values, max_instructions=max_instructions)
            for input_values in input_sets
        ),
    )


def profile_traces(
    program: Program, runs: Iterable[ExecutionResult | BlockTrace]
) -> ProfileData:
    """Profile ``program`` from block traces of its executions."""
    profiler = Profiler(program)
    for run in runs:
        profiler.record(run)
    return profiler.finish()
