"""Oracle tests for the derived post-inline profile and placed trace.

The pipeline never interprets the inlined program: it projects a
calling-context profile of the pre-inline runs, and rewrites the
pre-inline trace, through the inliner's block origins.  Each test here
interprets the inlined program anyway and demands exact equality —
block weights, per-run instruction counts, control transfers, dynamic
calls, and the placed trace's ``block_ids`` and ``via`` — both on a cold
build and on a hydration of an execution entry another inline policy
stored.
"""

import numpy as np
import pytest

from repro.engine.store import ArtifactStore
from repro.engine.telemetry import Telemetry
from repro.experiments.runner import MAX_TRACE_INSTRUCTIONS, ExperimentRunner
from repro.interp.interpreter import Interpreter
from repro.interp.profiler import profile_program
from repro.interp.trace import BlockTrace
from repro.ir.builder import ProgramBuilder
from repro.opt import OptOptions
from repro.placement.contexts import derive_trace
from repro.placement.inline import InlinePolicy, inline_expand
from repro.placement.pipeline import PlacementOptions, optimize_program
from repro.workloads.registry import workload_names

WORKLOADS = workload_names() + workload_names("extended")

POLICIES = {
    "default": InlinePolicy(),
    "aggressive": InlinePolicy(
        min_call_count=1, min_call_fraction=0.0, max_code_growth=4.0
    ),
    "none": None,
}

#: Thresholds low enough that the hand-built programs inline everything.
EAGER = InlinePolicy(
    min_call_fraction=0.0, min_call_count=1, max_code_growth=10.0
)


def assert_profiles_equal(derived, oracle):
    assert derived.program is oracle.program
    np.testing.assert_array_equal(derived.block_weights, oracle.block_weights)
    np.testing.assert_array_equal(derived.taken_weights, oracle.taken_weights)
    np.testing.assert_array_equal(derived.fall_weights, oracle.fall_weights)
    assert derived.num_runs == oracle.num_runs
    assert derived.run_instructions == oracle.run_instructions
    assert derived.dynamic_instructions == oracle.dynamic_instructions
    assert derived.control_transfers == oracle.control_transfers
    assert derived.dynamic_calls == oracle.dynamic_calls


def assert_traces_equal(derived: BlockTrace, run):
    np.testing.assert_array_equal(derived.block_ids, run.block_ids)
    np.testing.assert_array_equal(derived.via, run.via)


def assert_art_exact(art):
    """Derived artifacts equal what interpreting the placed program gives."""
    placed = art.placement.program
    oracle = profile_program(placed, art.workload.profiling_inputs("small"))
    assert_profiles_equal(art.placement.profile, oracle)
    run = Interpreter(placed).run(
        art.workload.trace_input("small"),
        max_instructions=MAX_TRACE_INSTRUCTIONS,
    )
    assert_traces_equal(art.trace, run)


def assert_runner_exact(
    options: PlacementOptions, name: str, filler: PlacementOptions, tmp_path
):
    """A cold build, and a hydration of the execution entry a build under
    ``filler`` stored, both equal the interpreted oracle."""
    cold = ExperimentRunner(scale="small", options=options).artifacts(name)
    assert_art_exact(cold)
    store = ArtifactStore(str(tmp_path))
    ExperimentRunner(scale="small", options=filler, store=store).artifacts(
        name
    )
    telemetry = Telemetry()
    warm = ExperimentRunner(
        scale="small", options=options, store=store, telemetry=telemetry
    ).artifacts(name)
    assert telemetry.totals()["store_hits"] == 1
    assert telemetry.totals()["interp_instructions"] == 0
    assert_art_exact(warm)
    assert warm.placement.order == cold.placement.order
    return cold


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_derivation_is_exact(name, policy, tmp_path):
    # The entry is filled under the next policy in turn, so every policy
    # hydrates an execution another policy placed.
    names = sorted(POLICIES)
    filler = names[(names.index(policy) + 1) % len(names)]
    assert_runner_exact(
        PlacementOptions(inline=POLICIES[policy]), name,
        PlacementOptions(inline=POLICIES[filler]), tmp_path,
    )


@pytest.mark.parametrize("name", ["cccp", "awk"])
def test_opt_stack_derivation_is_exact(name, tmp_path):
    opt = OptOptions.parse("lvn,simplify,dce")
    art = assert_runner_exact(
        PlacementOptions(opt=opt), name,
        PlacementOptions(opt=opt, inline=POLICIES["aggressive"]), tmp_path,
    )
    # The original trace is its own interpreter run on the pre-opt program.
    original = Interpreter(art.original_program).run(
        art.workload.trace_input("small"),
        max_instructions=MAX_TRACE_INSTRUCTIONS,
    )
    assert_traces_equal(art.original_trace, original)


def build_nested_program(outer_calls: int, inner_per_call: int):
    """main calls ``outer`` from two sites; ``outer`` calls ``inner``.

    Each loop iteration calls ``outer`` at ``work`` and again at
    ``report``.  On odd iterations the ``work`` call makes ``outer`` call
    ``inner`` ``inner_per_call`` times; every other call makes none.  With
    a large ``inner_per_call`` the inner site is the hottest, so the
    inliner expands it first and the later outer expansions clone a body
    that already holds a clone (two-site chains); with 1 the outer sites
    go first and their clones keep a real CALL to ``inner``.
    """
    pb = ProgramBuilder()
    f = pb.function("inner")
    b = f.block("entry")
    b.add("r3", "r3", "r2")
    b.blt("r3", 1000, taken="done", fall="wrap")
    b = f.block("wrap")
    b.sub("r3", "r3", 1000)
    b.jmp("done")
    b = f.block("done")
    b.ret()

    f = pb.function("outer")
    b = f.block("entry")
    b.li("r2", 0)
    b.jmp("head")
    b = f.block("head")
    b.bge("r2", "r5", taken="exit", fall="body")
    b = f.block("body")
    b.add("r2", "r2", 1)
    b.call("inner", cont="head")
    b = f.block("exit")
    b.ret()

    f = pb.function("main")
    b = f.block("entry")
    b.li("r1", 0)
    b.li("r3", 0)
    b.jmp("loop")
    b = f.block("loop")
    b.bge("r1", outer_calls, taken="end", fall="work")
    b = f.block("work")
    b.add("r1", "r1", 1)
    b.and_("r5", "r1", 1)
    b.mul("r5", "r5", inner_per_call)
    b.call("outer", cont="report")
    b = f.block("report")
    b.out("r3")
    b.li("r5", 0)
    b.call("outer", cont="loop")
    b = f.block("end")
    b.out("r3")
    b.halt()
    return pb.build()


@pytest.mark.parametrize(
    "outer_calls,inner_per_call,depth",
    [(4, 50, 2), (30, 1, 1)],
    ids=["inner-hotter", "outer-hotter"],
)
def test_nested_clone_chains(outer_calls, inner_per_call, depth):
    program = build_nested_program(outer_calls, inner_per_call)
    inputs = [[], []]
    result = optimize_program(program, inputs, PlacementOptions(inline=EAGER))
    report = result.inline_report
    assert len(report.inlined_sites) == 3
    assert max(len(chain) for chain, _ in report.origins) == depth
    assert_profiles_equal(
        result.profile, profile_program(result.program, inputs)
    )
    pre_run = Interpreter(program).run([])
    assert_traces_equal(
        derive_trace(program, report, BlockTrace.from_execution(pre_run)),
        Interpreter(result.program).run([]),
    )


def test_origins_cover_every_inlined_block():
    program = build_nested_program(4, 50)
    profile = profile_program(program, [[]])
    inlined, report = inline_expand(program, profile, EAGER)
    assert len(report.origins) == inlined.num_blocks
    for new_bid, (chain, bid) in enumerate(report.origins):
        # Same instructions modulo the CALL/RET -> JMP rewrite.
        old = program.blocks[bid].instructions
        new = inlined.blocks[new_bid].instructions
        assert old[:-1] == new[:-1]
        assert all(program.blocks[site].callee for site in chain)


def test_unmapped_block_raises():
    program = build_nested_program(4, 50)
    profile = profile_program(program, [[]])
    _, report = inline_expand(program, profile, EAGER)
    entry = ((), program.function_entry_bid["main"])
    report.origins = [o for o in report.origins if o != entry]
    trace = BlockTrace.from_execution(Interpreter(program).run([]))
    with pytest.raises(ValueError, match="no copy"):
        derive_trace(program, report, trace)
