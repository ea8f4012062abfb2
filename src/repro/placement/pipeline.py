"""The five-step IMPACT-I instruction placement pipeline (paper Section 3).

    0. (optional) middle-end passes   -> repro.opt
    1. execution profiling            -> repro.placement.contexts
    2. function inline expansion      -> repro.placement.inline
    3. trace selection                -> repro.placement.trace_selection
    4. function layout                -> repro.placement.function_layout
    5. global layout                  -> repro.placement.global_layout

:func:`optimize_program` runs all five and links the result into a
:class:`~repro.placement.image.MemoryImage`: :func:`profile_execution`
interprets (Steps 0-1), then :func:`optimize_from_profiles` places.
Profiling records a calling-context profile, so the post-inline profile
is its projection through the inliner's block origins — the paper
carrying weights through the transformation, exact for any policy.

Steps can be disabled individually through :class:`PlacementOptions`,
which is what the ablation benchmarks exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Sequence

from repro import obs
from repro.interp.interpreter import Interpreter
from repro.ir.program import Program
from repro.opt import OptOptions, PipelineReport, run_opt
from repro.placement.contexts import ContextProfile, ContextProfiler
from repro.placement.function_layout import FunctionLayout, layout_function
from repro.placement.global_layout import (
    GlobalLayout,
    assemble_block_order,
    layout_globally,
)
from repro.placement.image import MemoryImage
from repro.placement.inline import InlinePolicy, InlineReport, inline_expand
from repro.placement.profile_data import ProfileData
from repro.placement.trace_selection import (
    MIN_PROB,
    TraceSelection,
    select_traces,
)

__all__ = [
    "PlacementOptions",
    "PlacementResult",
    "ProfiledProgram",
    "optimize_from_profiles",
    "optimize_program",
    "place",
    "profile_execution",
]


@dataclass(frozen=True)
class PlacementOptions:
    """Configuration of the placement pipeline.

    Disabling a step degrades gracefully:

    * ``inline=None`` skips Step 2 (the pre-inline profile is reused);
    * ``select_traces=False`` makes every block its own trace, so Step 4
      reduces to chaining individual blocks;
    * ``split_regions=False`` keeps zero-weight traces in place instead of
      moving them behind the effective region;
    * ``global_dfs=False`` keeps functions in declaration order.

    ``opt`` configures the optimizing middle-end (Step 0); its default —
    no passes — leaves the program untouched, keeping every downstream
    artifact byte-identical to a pipeline without the middle-end.
    """

    min_prob: float = MIN_PROB
    inline: InlinePolicy | None = field(default_factory=InlinePolicy)
    select_traces: bool = True
    split_regions: bool = True
    global_dfs: bool = True
    opt: OptOptions = field(default_factory=OptOptions)

    @classmethod
    def paper(cls) -> PlacementOptions:
        """The paper's published configuration — identical to the default
        constructor, but explicit at call sites that mean "the paper's
        numbers" rather than "whatever the defaults happen to be"."""
        return cls()

    @classmethod
    def tuned(
        cls,
        min_prob: float | None = None,
        inline_min_call_count: int | None = None,
        inline_max_code_growth: float | None = None,
        opt_passes: str | None = None,
    ) -> PlacementOptions:
        """Paper options with specific hyperparameters overridden.

        This is the autotuner's entry point into the pipeline: each
        argument replaces one published constant (``MIN_PROB``, the
        inliner's dynamic-call floor, its code-growth ceiling) or, for
        ``opt_passes``, one pipeline stage the paper's compiler had but
        the default reproduction disables; ``None`` keeps the paper's
        value, so ``tuned()`` == ``paper()`` == ``PlacementOptions()``
        — equal as dataclasses and under
        :func:`~repro.engine.store.options_fingerprint`.
        """
        inline = InlinePolicy()
        if inline_min_call_count is not None:
            inline = replace(inline, min_call_count=int(inline_min_call_count))
        if inline_max_code_growth is not None:
            inline = replace(
                inline, max_code_growth=float(inline_max_code_growth)
            )
        return cls(
            min_prob=MIN_PROB if min_prob is None else float(min_prob),
            inline=inline,
            opt=OptOptions.parse(opt_passes),
        )


@dataclass
class PlacementResult:
    """Everything the pipeline produced, for inspection and experiments."""

    program: Program                      # post-inline
    pre_inline_profile: ProfileData       # binds to the post-opt program
    profile: ProfileData                  # post-inline
    inline_report: InlineReport
    selections: dict[str, TraceSelection]
    function_layouts: dict[str, FunctionLayout]
    global_layout: GlobalLayout
    order: list[int]
    image: MemoryImage
    #: Per-pass middle-end stats (empty when the middle-end is off).
    opt_report: PipelineReport = field(default_factory=PipelineReport)
    #: A profile of the program as the workload built it.  With the
    #: middle-end off this *is* ``pre_inline_profile``; with it on, it is
    #: the extra profiling run baselines (Pettis-Hansen) need against the
    #: unoptimized program.
    original_profile: ProfileData | None = None


@dataclass
class ProfiledProgram:
    """Steps 0-1: all Steps 2-5 read, for any options with these passes."""

    original_program: Program     # pre-opt, as the workload built it
    program: Program              # post-opt (``original_program`` if off)
    contexts: ContextProfile      # of ``program`` over the profiling runs
    opt_report: PipelineReport = field(default_factory=PipelineReport)
    opt_profiles: list[ProfileData] = field(default_factory=list)
    #: Of ``original_program``; ``None`` with the middle-end off.
    original_profile: ProfileData | None = None


def profile_execution(
    program: Program,
    profiling_inputs: Sequence[Iterable[int]],
    opt: OptOptions = OptOptions(),
) -> ProfiledProgram:
    """Step 0 (if configured) and Step 1: interpret the profiling runs."""
    # Imported here: repro.interp.profiler imports this package.
    from repro.interp.profiler import observe_profile, profile_program

    recorder = obs.current()
    source = program
    program, opt_report, opt_profiles = run_opt(
        source, opt,
        profile_source=lambda p: profile_program(p, profiling_inputs),
    )
    with recorder.span("profiling", cat="pipeline",
                       runs=len(profiling_inputs)):
        interpreter = Interpreter(program)
        profiler = ContextProfiler(program)
        for input_values in profiling_inputs:
            profiler.record(interpreter.run(input_values))
        contexts = profiler.finish()
        if recorder.enabled:
            observe_profile(contexts.project())
    original_profile = None
    if program is not source:
        with recorder.span("profiling_original", cat="pipeline",
                           runs=len(profiling_inputs)):
            original_profile = profile_program(source, profiling_inputs)
    return ProfiledProgram(
        original_program=source,
        program=program,
        contexts=contexts,
        opt_report=opt_report,
        opt_profiles=opt_profiles,
        original_profile=original_profile,
    )


def optimize_program(
    program: Program,
    profiling_inputs: Sequence[Iterable[int]],
    options: PlacementOptions = PlacementOptions(),
) -> PlacementResult:
    """Run Step 0 (if configured), profiling, and the placement pipeline."""
    return optimize_from_profiles(
        profile_execution(program, profiling_inputs, options.opt), options
    )


def optimize_from_profiles(
    profiled: ProfiledProgram,
    options: PlacementOptions = PlacementOptions(),
) -> PlacementResult:
    """Steps 2-5, without interpreting: the pre- and post-inline profiles
    are both projections of the one context profile."""
    recorder = obs.current()
    program = profiled.program
    pre_profile = profiled.contexts.project()
    if options.inline is not None:
        with recorder.span("inlining", cat="pipeline"):
            inlined, report = inline_expand(
                program, pre_profile, options.inline
            )
        profile = profiled.contexts.project(report, inlined)
    else:
        inlined = program
        profile = pre_profile
        report = InlineReport(
            original_instructions=program.num_instructions,
            final_instructions=program.num_instructions,
            total_dynamic_calls=pre_profile.dynamic_calls,
            eliminated_dynamic_calls=0,
            origins=[((), bid) for bid in range(program.num_blocks)],
        )

    result = place(inlined, profile, options)
    return PlacementResult(
        program=inlined,
        pre_inline_profile=pre_profile,
        profile=profile,
        inline_report=report,
        selections=result.selections,
        function_layouts=result.function_layouts,
        global_layout=result.global_layout,
        order=result.order,
        image=result.image,
        opt_report=profiled.opt_report,
        original_profile=(
            pre_profile if profiled.original_profile is None
            else profiled.original_profile
        ),
    )


@dataclass
class _PlaceResult:
    selections: dict[str, TraceSelection]
    function_layouts: dict[str, FunctionLayout]
    global_layout: GlobalLayout
    order: list[int]
    image: MemoryImage


def place(
    program: Program,
    profile: ProfileData,
    options: PlacementOptions = PlacementOptions(),
) -> _PlaceResult:
    """Steps 3-5 only: lay out an already-profiled (and inlined) program."""
    recorder = obs.current()
    selections: dict[str, TraceSelection] = {}
    with recorder.span("trace_selection", cat="pipeline",
                       functions=len(program.functions)):
        for function in program:
            if options.select_traces:
                selections[function.name] = select_traces(
                    function, profile, options.min_prob
                )
            else:
                selections[function.name] = _singleton_traces(
                    function, profile
                )

    layouts: dict[str, FunctionLayout] = {}
    with recorder.span("function_layout", cat="pipeline"):
        for function in program:
            layout = layout_function(
                function, selections[function.name], profile
            )
            if not options.split_regions:
                layout = FunctionLayout(
                    function_name=layout.function_name,
                    blocks=layout.blocks,
                    effective_end=len(layout.blocks),
                )
            layouts[function.name] = layout

    with recorder.span("global_layout", cat="pipeline"):
        if options.global_dfs:
            global_layout = layout_globally(program, profile)
        else:
            global_layout = GlobalLayout(
                order=tuple(function.name for function in program)
            )

        order = assemble_block_order(program, layouts, global_layout)
        image = MemoryImage.build(program, order)
    return _PlaceResult(
        selections=selections,
        function_layouts=layouts,
        global_layout=global_layout,
        order=order,
        image=image,
    )


def _singleton_traces(program_function, profile: ProfileData) -> TraceSelection:
    """Degenerate selection used when trace selection is ablated away."""
    from repro.placement.trace_selection import Trace

    weights = profile.block_weights
    traces = []
    trace_of = {}
    for index, block in enumerate(program_function.blocks):
        bid = block.bid
        traces.append(
            Trace(tid=index, blocks=(bid,), weight=int(weights[bid]))
        )
        trace_of[bid] = index
    return TraceSelection(
        function_name=program_function.name,
        traces=tuple(traces),
        trace_of=trace_of,
    )
