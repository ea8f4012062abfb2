"""Execution profiling (paper Section 3, Step 1).

The paper's IMPACT-I profiler rewrites the C source with probe calls and
runs it over many representative inputs; we get the same node/arc weights
by running the IR interpreter over many seeded input streams and folding
each execution's block trace into dense weight arrays — per calling
context (:mod:`repro.placement.contexts`), so the placement pipeline can
also project the profile of every inlined program.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.interp.interpreter import DEFAULT_MAX_INSTRUCTIONS, Interpreter
from repro.ir.program import Program
from repro.placement.contexts import ContextProfiler
from repro.placement.profile_data import ProfileData

__all__ = ["Profiler", "observe_profile", "profile_program"]


class Profiler(ContextProfiler):
    """Accumulates :class:`ProfileData` over any number of runs."""

    def finish(self) -> ProfileData:
        """Return the accumulated profile."""
        return observe_profile(super().finish().project())


def observe_profile(profile: ProfileData) -> ProfileData:
    """Record a profile's function weights on the ambient recorder."""
    recorder = obs.current()
    if recorder.enabled:
        weights = sorted(
            ((f.name, profile.function_weight(f.name)) for f in profile.program),
            key=lambda pair: (-pair[1], pair[0]),
        )
        for _, weight in weights:
            recorder.observe("function_execution_weight", weight)
        recorder.event(
            "profile_functions", runs=profile.num_runs,
            dynamic_instructions=profile.dynamic_instructions,
            dynamic_calls=profile.dynamic_calls, top_functions=weights[:10],
        )
    return profile


def profile_program(
    program: Program,
    input_sets: Iterable[Iterable[int]],
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> ProfileData:
    """Profile ``program`` over several input streams (one run each)."""
    interpreter = Interpreter(program)
    profiler = Profiler(program)
    for input_values in input_sets:
        profiler.record(
            interpreter.run(input_values, max_instructions=max_instructions)
        )
    return profiler.finish()
