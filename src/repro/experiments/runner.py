"""Shared experiment state: build, profile, place, and trace each workload
once, then let every table reuse the artifacts.

This mirrors the paper's methodology exactly: placement comes from the
profiling runs, the evaluation trace comes from one randomly-selected
input, and the same trace is replayed against every cache configuration
(and, via :meth:`addresses`, every layout and code-scaling factor).

A build interprets the workload into an *execution* (:meth:`_compute`),
then places it under the runner's options (:meth:`_hydrate`).  With an
:class:`~repro.engine.store.ArtifactStore`, executions persist, and every
later build — under any placement options, in any process — only places,
executing **zero** interpreter steps (a
:class:`~repro.engine.telemetry.Telemetry` observes exactly that).

Hydrated artifacts are also kept in a bounded process-wide memo, so a
long-lived process (``repro serve``, a benchmark loop) rebuilds and
re-places each stored entry once, not once per request.  The memo is
consulted only after the store has returned a verified entry, so store
hit/miss accounting, quarantine and ``repro cache clear`` see every
lookup exactly as without it.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import diagnose, obs
from repro.engine.store import ArtifactPayload, ArtifactStore, artifact_key
from repro.engine.telemetry import Telemetry
from repro.interp.interpreter import Interpreter
from repro.interp.trace import BlockTrace
from repro.ir.program import Program
from repro.ir.serialize import profile_from_dict, profile_to_dict
from repro.opt import run_opt
from repro.placement.baselines import natural_order, random_order
from repro.placement.conflict_aware import conflict_aware_order
from repro.placement.pettis_hansen import pettis_hansen_order
from repro.placement.image import MemoryImage
from repro.placement.contexts import ContextProfile, derive_trace
from repro.placement.pipeline import (
    PlacementOptions,
    PlacementResult,
    ProfiledProgram,
    optimize_from_profiles,
    profile_execution,
)
from repro.placement.scaling import scaled_sizes
from repro.workloads.registry import Workload, get_workload, workload_names

__all__ = [
    "WorkloadArtifacts", "ExperimentRunner", "clear_memo", "default_runner",
]

#: Safety net for runaway workloads during experiments.
MAX_TRACE_INSTRUCTIONS = 200_000_000

#: Hydrated artifacts the process-wide memo keeps (least recently used
#: evicted first); room for every bundled workload at one configuration.
MEMO_CAPACITY = 16


@dataclass
class WorkloadArtifacts:
    """Everything the experiment tables need for one benchmark."""

    workload: Workload
    original_program: Program
    placement: PlacementResult
    trace: BlockTrace             # on the post-inline program
    original_trace: BlockTrace    # on the original (uninlined) program

    @property
    def program(self) -> Program:
        """The post-inline program the placed image was linked from."""
        return self.placement.program

    @property
    def image(self) -> MemoryImage:
        """The optimized memory image."""
        return self.placement.image


_MEMO: OrderedDict[tuple, WorkloadArtifacts] = OrderedDict()
_MEMO_LOCK = threading.Lock()


def clear_memo() -> None:
    """Forget every memoized hydration (the next store hit hydrates)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def _memo_get(key: tuple) -> WorkloadArtifacts | None:
    with _MEMO_LOCK:
        art = _MEMO.get(key)
        if art is not None:
            _MEMO.move_to_end(key)
        return art


def _memo_admit(key: tuple, art: WorkloadArtifacts) -> WorkloadArtifacts:
    """Share ``art`` process-wide; returns the entry the memo now holds.

    Its trace arrays become read-only, so a consumer that writes into a
    shared trace raises instead of corrupting every later request.
    """
    for trace in (art.trace, art.original_trace):
        trace.block_ids.flags.writeable = False
        trace.via.flags.writeable = False
    with _MEMO_LOCK:
        art = _MEMO.setdefault(key, art)
        _MEMO.move_to_end(key)
        while len(_MEMO) > MEMO_CAPACITY:
            _MEMO.popitem(last=False)
        return art


class ExperimentRunner:
    """Caches per-workload artifacts and derived address traces.

    ``store`` (optional) persists artifacts across processes; ``telemetry``
    (optional) records one job per artifact build with its wall time,
    interpreter step count, and store hit/miss outcome.
    """

    def __init__(
        self,
        scale: str = "default",
        options: PlacementOptions | None = None,
        store: ArtifactStore | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.scale = scale
        self.options = options or PlacementOptions()
        self.store = store
        self.telemetry = telemetry
        self._artifacts: dict[str, WorkloadArtifacts] = {}
        self._addresses: dict[tuple, np.ndarray] = {}

    def names(self) -> list[str]:
        """The benchmark names, in paper table order."""
        return workload_names()

    def artifacts(self, name: str) -> WorkloadArtifacts:
        """Build+profile+place+trace one workload (cached, store-backed)."""
        if name in self._artifacts:
            return self._artifacts[name]
        started = time.perf_counter()
        workload = get_workload(name)
        recorder = obs.current()
        with recorder.span("artifacts", cat="pipeline",
                           workload=name, scale=self.scale):
            art = interp_steps = None
            outcome = "off"
            memo_hits = 0
            key = None
            with contextlib.ExitStack() as building:
                if self.store is not None:
                    key = artifact_key(name, self.scale, self.options.opt)
                    # The Workload object, not its name: a name
                    # re-registered with other inputs is another program.
                    memo_key = (workload, self.scale, self.options,
                                self.store.root)
                    payload = self.store.get(key)
                    if payload is None:
                        # Cold entry: take its compute lock, so a
                        # concurrent build of this exact configuration is
                        # waited for and shared instead of duplicated.
                        payload = building.enter_context(
                            self.store.computing(key)
                        )
                    if payload is not None:
                        art = _memo_get(memo_key)
                        if art is not None:
                            memo_hits = 1
                            recorder.count("artifacts_memo_hits", 1)
                        else:
                            try:
                                with recorder.span("hydrate", cat="pipeline"):
                                    art = _memo_admit(
                                        memo_key,
                                        self._hydrate(workload, payload),
                                    )
                            except (LookupError, ValueError):
                                pass   # a structurally stale entry: compute
                        if art is not None:
                            interp_steps = 0
                            outcome = "hit"
                if art is None:
                    payload, profiled = self._compute(workload)
                    interp_steps = payload.meta["interp_instructions"]
                    if self.store is not None:
                        outcome = "miss"
                        self.store.put(key, payload)
                    art = self._hydrate(workload, payload, profiled)
            self._artifacts[name] = art
            if recorder.enabled:
                self._emit_placement_event(recorder, name, art, outcome)
        if self.telemetry is not None:
            self.telemetry.record(
                job_id=f"artifacts:{name}@{self.scale}",
                kind="artifacts",
                wall_s=time.perf_counter() - started,
                interp_instructions=interp_steps,
                store=outcome,
                memo_hits=memo_hits,
                trace_blocks=len(art.trace) + len(art.original_trace),
            )
        return art

    @staticmethod
    def _emit_placement_event(
        recorder, name: str, art: WorkloadArtifacts, outcome: str
    ) -> None:
        """One per-workload placement summary for the run report."""
        placement = art.placement
        mask = placement.profile.effective_blocks()
        top_traces = sorted(
            (
                (function_name, len(trace.blocks), int(trace.weight))
                for function_name, selection in placement.selections.items()
                for trace in selection.traces
            ),
            key=lambda row: (-row[2], row[0]),
        )[:5]
        recorder.event(
            "placement",
            workload=name,
            total_bytes=int(art.image.total_bytes),
            effective_bytes=int(art.image.static_bytes(mask)),
            top_traces=top_traces,
            store=outcome,
        )
        if outcome == "hit":
            recorder.count("store_hits", 1)
        elif outcome == "miss":
            recorder.count("store_misses", 1)

    # -- cold path: run the interpreter ------------------------------------

    def _compute(
        self, workload: Workload
    ) -> tuple[ArtifactPayload, ProfiledProgram]:
        """Interpret the workload into an execution entry (the store
        module lists what one holds)."""
        recorder = obs.current()
        with recorder.span("build", cat="pipeline"):
            source = workload.build()
        profiled = profile_execution(
            source, workload.profiling_inputs(self.scale), self.options.opt
        )
        contexts = profiled.contexts
        profiles = {
            "contexts": [list(context) for context in contexts.contexts],
            "run_instructions": list(contexts.run_instructions),
            "opt": [profile_to_dict(p) for p in profiled.opt_profiles],
        }
        arrays = {"context_keys": contexts.keys,
                  "context_counts": contexts.counts}
        steps = sum(contexts.run_instructions) + sum(
            p.dynamic_instructions for p in profiled.opt_profiles)
        runs = {"input": profiled.program}
        if profiled.original_profile is not None:
            runs["original"] = source
            profiles["orig"] = profile_to_dict(profiled.original_profile)
            steps += profiled.original_profile.dynamic_instructions
        trace_input = workload.trace_input(self.scale)
        with recorder.span("trace_generation", cat="pipeline"):
            for name, program in runs.items():
                result = Interpreter(program).run(
                    trace_input, max_instructions=MAX_TRACE_INSTRUCTIONS
                )
                arrays[f"{name}_block_ids"] = result.block_ids
                arrays[f"{name}_via"] = result.via
                steps += result.instructions
        return ArtifactPayload(profiles, arrays, {
            "workload": workload.name, "scale": self.scale,
            "interp_instructions": steps,
        }), profiled

    # -- one path from an execution entry to placed artifacts --------------

    def _hydrate(
        self,
        workload: Workload,
        payload: ArtifactPayload,
        profiled: ProfiledProgram | None = None,
    ) -> WorkloadArtifacts:
        """Place an execution entry under this runner's options, without
        interpreting.  A store hit rebuilds the :class:`ProfiledProgram`
        a cold build passes in (``Workload.build`` and the middle-end are
        deterministic).  Raises ``LookupError``/``ValueError`` on an entry
        that does not fit."""
        profiles, arrays = payload.profiles, payload.arrays
        if profiled is None:
            source = workload.build()
            # The passes' profiles, replayed in the order they asked.
            opt_docs = list(profiles["opt"])
            program, opt_report, opt_profiles = run_opt(
                source, self.options.opt,
                profile_source=lambda p: profile_from_dict(opt_docs.pop(0), p),
            )
            contexts = ContextProfile(
                program, tuple(map(tuple, profiles["contexts"])),
                arrays["context_keys"], arrays["context_counts"],
                tuple(profiles["run_instructions"]),
            )
            profiled = ProfiledProgram(
                source, program, contexts, opt_report, opt_profiles,
                None if program is source
                else profile_from_dict(profiles["orig"], source),
            )
        placement = optimize_from_profiles(profiled, self.options)
        trace_input = BlockTrace(arrays["input_block_ids"], arrays["input_via"])
        original_trace = trace_input
        if profiled.original_profile is not None:
            original_trace = BlockTrace(
                arrays["original_block_ids"], arrays["original_via"]
            )
        return WorkloadArtifacts(
            workload=workload,
            original_program=profiled.original_program,
            placement=placement,
            trace=derive_trace(
                profiled.program, placement.inline_report, trace_input
            ),
            original_trace=original_trace,
        )

    # -- derived images and address traces ---------------------------------

    def image_for(
        self, name: str, layout: str = "optimized",
        scaling: float = 1.0, seed: int = 0,
    ) -> MemoryImage:
        """A linked image of the workload under a named layout.

        ``layout`` is ``"optimized"`` (the IMPACT-I pipeline output),
        ``"natural"`` (declaration order of the *original*, uninlined
        program — the no-optimization baseline), ``"random"``, or
        ``"pettis_hansen"`` (the PLDI'90 follow-on's layout policy).
        """
        art = self.artifacts(name)
        if layout == "optimized":
            program = art.program
            order = art.placement.order
        elif layout == "natural":
            program = art.original_program
            order = natural_order(program)
        elif layout == "random":
            program = art.original_program
            order = random_order(program, seed)
        elif layout == "conflict_aware":
            # Steps 1-4 as usual; step 5 replaced by the conflict-aware
            # greedy placement (post-paper refinement, see
            # placement.conflict_aware).
            program = art.program
            order = conflict_aware_order(
                program, art.placement.profile,
                art.placement.function_layouts,
            )
        elif layout == "pettis_hansen":
            # PH is applied to the original program with the same profile
            # information the IMPACT-I pipeline consumed, isolating the
            # layout policy itself.  ``original_profile`` binds to the
            # pre-middle-end program (it is the pre-inline profile when
            # the middle-end is off).
            program = art.original_program
            order = pettis_hansen_order(
                program, art.placement.original_profile
            )
        else:
            raise ValueError(f"unknown layout {layout!r}")
        sizes = scaled_sizes(program, scaling) if scaling != 1.0 else None
        return MemoryImage.build(program, order, sizes=sizes)

    def addresses(
        self, name: str, layout: str = "optimized",
        scaling: float = 1.0, seed: int = 0,
    ) -> np.ndarray:
        """The instruction-fetch address trace under a layout (cached for
        the unscaled optimized and natural layouts, which every cache table
        replays)."""
        key = (name, layout, scaling, seed)
        collector = diagnose.current()
        # A cached trace can only short-circuit when no attribution is
        # running: each Collector needs the symbol table registered into
        # *it*, so a cache hit still rebuilds the (cheap) image below.
        if key in self._addresses and not (
            collector.enabled and scaling == 1.0
        ):
            return self._addresses[key]
        art = self.artifacts(name)
        recorder = obs.current()
        with recorder.span("addresses", cat="pipeline",
                           workload=name, layout=layout):
            image = self.image_for(name, layout, scaling, seed)
            if key in self._addresses:
                addresses = self._addresses[key]
            else:
                trace = (
                    art.trace if layout in ("optimized", "conflict_aware")
                    else art.original_trace
                )
                addresses = trace.addresses(image)
        if collector.enabled and scaling == 1.0:
            # The address->symbol map every attribution under this
            # (workload, layout) resolves misses through.  Trace labels
            # come from the placement selections on optimized layouts
            # (natural/random images are of the pre-trace-selection
            # program, which has no selections).
            selections = (
                art.placement.selections
                if layout in ("optimized", "conflict_aware") else None
            )
            collector.register_symbols(
                name, layout,
                diagnose.SymbolTable.from_image(image, selections),
            )
        if scaling == 1.0 and layout in ("optimized", "natural"):
            self._addresses[key] = addresses
        return addresses


_DEFAULT_RUNNER: ExperimentRunner | None = None


def default_runner() -> ExperimentRunner:
    """The process-wide runner the benchmark suite shares.

    Backed by the default artifact store so repeated table regenerations
    skip interpretation; set ``REPRO_NO_CACHE=1`` to opt out.
    """
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        import os

        store = None if os.environ.get("REPRO_NO_CACHE") else ArtifactStore()
        _DEFAULT_RUNNER = ExperimentRunner(store=store)
    return _DEFAULT_RUNNER
