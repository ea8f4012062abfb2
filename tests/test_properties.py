"""Property-based tests (hypothesis) on the core invariants.

Two generators drive these:

* random fetch-address traces — cross-checking the cache simulators
  against each other and against textbook cache properties;
* random terminating IR programs (block- and call-DAGs, so execution
  provably halts, plus bounded recursion and syscalls behind them) —
  differential testing of the middle-end passes, the inliner, the
  context-profile projection, the placement pipeline, and the
  linker/expansion machinery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.direct import simulate_direct
from repro.cache.partial import simulate_partial
from repro.cache.sectored import simulate_sectored
from repro.cache.set_assoc import (
    simulate_fully_associative,
    simulate_set_associative,
)
from repro.cache.vectorized import (
    direct_mapped_miss_mask,
    simulate_direct_vectorized,
)
from repro.interp.interpreter import run_program
from repro.interp.profiler import profile_program
from repro.interp.trace import BlockTrace
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import Opcode
from repro.ir.validate import validate_optimized, validate_program
from repro.opt import OptOptions, PASS_NAMES, run_opt
from repro.placement.contexts import ContextProfiler, derive_trace
from repro.placement.image import MemoryImage
from repro.placement.inline import InlinePolicy, inline_expand
from repro.placement.pipeline import PlacementOptions, optimize_program
from repro.placement.scaling import scaled_sizes
from repro.placement.trace_selection import select_traces

# ---------------------------------------------------------------------------
# Address-trace strategies.

addresses_strategy = st.lists(
    st.integers(0, (1 << 14) - 1).map(lambda v: v * 4),
    min_size=0, max_size=400,
).map(lambda values: np.asarray(values, dtype=np.int64))

geometry_strategy = st.sampled_from(
    [(512, 16), (512, 64), (1024, 32), (2048, 64), (4096, 128)]
)


class TestCacheEquivalences:
    @given(addresses_strategy, geometry_strategy)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_equals_reference(self, trace, geometry):
        cache, block = geometry
        fast = simulate_direct_vectorized(trace, cache, block)
        slow = simulate_direct(trace.tolist(), cache, block)
        assert fast.misses == slow.misses
        assert fast.words_transferred == slow.words_transferred

    @given(addresses_strategy, geometry_strategy)
    @settings(max_examples=40, deadline=None)
    def test_one_way_lru_equals_direct(self, trace, geometry):
        cache, block = geometry
        assoc = simulate_set_associative(trace.tolist(), cache, block, 1)
        direct = simulate_direct(trace.tolist(), cache, block)
        assert assoc.misses == direct.misses

    @given(addresses_strategy, geometry_strategy)
    @settings(max_examples=40, deadline=None)
    def test_whole_block_sector_equals_direct(self, trace, geometry):
        cache, block = geometry
        sector = simulate_sectored(trace, cache, block, block)
        direct = simulate_direct_vectorized(trace, cache, block)
        assert sector.misses == direct.misses

    @given(addresses_strategy, geometry_strategy)
    @settings(max_examples=40, deadline=None)
    def test_partial_bounds(self, trace, geometry):
        cache, block = geometry
        partial = simulate_partial(trace, cache, block)
        direct = simulate_direct_vectorized(trace, cache, block)
        # Partial loading can only add misses, and only save traffic.
        assert partial.misses >= direct.misses
        assert partial.words_transferred <= direct.words_transferred

    @given(addresses_strategy)
    @settings(max_examples=40, deadline=None)
    def test_lru_inclusion_property(self, trace):
        # A bigger fully-associative LRU cache never misses more.
        small = simulate_fully_associative(trace.tolist(), 512, 64)
        large = simulate_fully_associative(trace.tolist(), 2048, 64)
        assert large.misses <= small.misses

    @given(addresses_strategy, geometry_strategy)
    @settings(max_examples=40, deadline=None)
    def test_miss_mask_first_touch_always_misses(self, trace, geometry):
        cache, block = geometry
        mask = direct_mapped_miss_mask(trace, cache, block)
        seen: set[int] = set()
        for address, missed in zip(trace, mask):
            blk = int(address) // block
            if blk not in seen:
                assert missed
                seen.add(blk)

    @given(addresses_strategy, geometry_strategy)
    @settings(max_examples=30, deadline=None)
    def test_simulation_is_pure(self, trace, geometry):
        cache, block = geometry
        first = simulate_direct_vectorized(trace, cache, block)
        second = simulate_direct_vectorized(trace, cache, block)
        assert first.misses == second.misses


# ---------------------------------------------------------------------------
# Random terminating programs: block successors and callees point strictly
# "forward", so control flow is a DAG and every run halts.

REGS = ["r1", "r2", "r3", "r4", "r5"]


@st.composite
def dag_programs(draw):
    num_functions = draw(st.integers(1, 4))
    pb = ProgramBuilder()
    for fi in range(num_functions):
        name = "main" if fi == 0 else f"f{fi}"
        fb = pb.function(name)
        num_blocks = draw(st.integers(1, 5))
        for bi in range(num_blocks):
            b = fb.block(f"b{bi}")
            for _ in range(draw(st.integers(0, 3))):
                kind = draw(st.integers(0, 4))
                rd = draw(st.sampled_from(REGS))
                rs = draw(st.sampled_from(REGS))
                if kind == 0:
                    b.li(rd, draw(st.integers(-8, 8)))
                elif kind == 1:
                    b.add(rd, rs, draw(st.integers(-4, 4)))
                elif kind == 2:
                    b.xor(rd, rs, draw(st.sampled_from(REGS)))
                elif kind == 3:
                    b.in_(rd)
                else:
                    b.out(rs)
            is_last = bi == num_blocks - 1
            can_call = fi < num_functions - 1
            choice = draw(st.integers(0, 2 if can_call and not is_last else 1))
            if is_last:
                if fi == 0:
                    b.halt()
                else:
                    b.ret()
            elif choice == 0:
                b.jmp(f"b{draw(st.integers(bi + 1, num_blocks - 1))}")
            elif choice == 1:
                taken = draw(st.integers(bi + 1, num_blocks - 1))
                fall = draw(st.integers(bi + 1, num_blocks - 1))
                b.beq(
                    draw(st.sampled_from(REGS)),
                    draw(st.integers(-2, 2)),
                    taken=f"b{taken}",
                    fall=f"b{fall}",
                )
            else:
                callee = draw(st.integers(fi + 1, num_functions - 1))
                b.call(f"f{callee}", cont=f"b{bi + 1}")
    return pb.build()


@st.composite
def context_programs(draw):
    """Call DAGs behind a self-recursive function and a syscall, so
    calling contexts both nest and restart.

    ``main`` calls a drawn sequence of ``g*``, ``rec`` and ``sys``;
    ``rec`` recurses while ``r6`` (which nothing else writes) is
    positive, then calls one ``g*``; each ``g*`` may call later ones
    and ``sys``.
    """
    pb = ProgramBuilder()
    helpers = [f"g{i}" for i in range(draw(st.integers(1, 3)))]
    callees = helpers + ["rec", "sys"]

    f = pb.function("main")
    calls = draw(st.lists(st.sampled_from(callees), min_size=1, max_size=5))
    for index, callee in enumerate(calls):
        b = f.block(f"c{index}")
        if callee == "rec":
            b.li("r6", draw(st.integers(0, 3)))
        b.add("r1", "r1", draw(st.integers(-2, 2)))
        b.call(callee, cont=f"c{index + 1}")
    b = f.block(f"c{len(calls)}")
    b.out("r1")
    b.halt()

    f = pb.function("rec")
    b = f.block("entry")
    b.ble("r6", 0, taken="base", fall="down")
    b = f.block("down")
    b.sub("r6", "r6", 1)
    b.call("rec", cont="base")
    b = f.block("base")
    b.call(draw(st.sampled_from(helpers)), cont="done")
    b = f.block("done")
    b.ret()

    for index, name in enumerate(helpers):
        f = pb.function(name)
        b = f.block("entry")
        b.add("r2", "r2", "r1")
        b.blt("r2", draw(st.integers(-3, 3)), taken="call", fall="done")
        b = f.block("call")
        b.call(draw(st.sampled_from(helpers[index + 1:] + ["sys"])),
               cont="done")
        b = f.block("done")
        b.in_("r1")
        b.ret()

    f = pb.function("sys", is_syscall=True)
    b = f.block("entry")
    b.out("r2")
    b.ret()
    return pb.build()


inputs_strategy = st.lists(st.integers(-4, 4), max_size=6)

policies_strategy = st.builds(
    InlinePolicy,
    min_call_fraction=st.just(0.0),
    min_call_count=st.integers(1, 4),
    max_code_growth=st.sampled_from([1.0, 1.5, 3.0, 20.0]),
    min_growth_instructions=st.sampled_from([0, 8, 250]),
)

EAGER = PlacementOptions(
    inline=InlinePolicy(
        min_call_fraction=0.0, min_call_count=1, max_code_growth=20.0
    )
)


def _assert_interpreted_profile(profile, program, runs):
    """``profile`` equals interpreting ``program`` over ``runs``, folded
    here without the context machinery the pipeline uses."""
    counts = np.zeros((program.num_blocks, 3), dtype=np.int64)
    instructions = []
    for values in runs:
        result = run_program(program, values)
        np.add.at(counts, (result.block_ids, result.via), 1)
        instructions.append(result.instructions)
    blocks = counts.sum(axis=1)
    assert profile.program is program
    assert np.array_equal(profile.block_weights, blocks)
    assert np.array_equal(profile.taken_weights, counts[:, 1])
    assert np.array_equal(profile.fall_weights, counts[:, 2])
    assert profile.run_instructions == instructions
    assert profile.dynamic_instructions == sum(instructions)
    assert profile.dynamic_calls == sum(
        weight for weight, block in zip(blocks, program.blocks)
        if block.kind is Opcode.CALL
    )
    assert profile.control_transfers == sum(
        weight for weight, block in zip(blocks, program.blocks)
        if block.kind is Opcode.JMP or block.terminator.is_branch
    )


class TestProgramProperties:
    @given(dag_programs())
    @settings(max_examples=50, deadline=None)
    def test_generated_programs_validate_and_halt(self, program):
        validate_program(program)
        result = run_program(program, [1, 2, 3], max_instructions=10_000)
        assert result.halted

    @given(dag_programs(), inputs_strategy)
    @settings(max_examples=50, deadline=None)
    def test_inlining_preserves_semantics(self, program, inputs):
        profile = profile_program(program, [[0, 1], [2]])
        policy = InlinePolicy(
            min_call_fraction=0.0, min_call_count=1, max_code_growth=20.0
        )
        inlined, _report = inline_expand(program, profile, policy)
        validate_program(inlined)
        original = run_program(program, inputs, max_instructions=20_000)
        transformed = run_program(inlined, inputs, max_instructions=40_000)
        assert transformed.output == original.output
        assert transformed.state.registers == original.state.registers
        assert transformed.state.memory == original.state.memory

    @given(
        st.one_of(dag_programs(), context_programs()),
        policies_strategy,
        st.lists(inputs_strategy, min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_context_projection_equals_interpretation(
        self, program, policy, runs
    ):
        profiler = ContextProfiler(program)
        for values in runs:
            profiler.record(run_program(program, values))
        contexts = profiler.finish()
        pre = contexts.project()
        _assert_interpreted_profile(pre, program, runs)
        inlined, report = inline_expand(program, pre, policy)
        _assert_interpreted_profile(
            contexts.project(report, inlined), inlined, runs
        )
        derived = derive_trace(
            program, report, BlockTrace.from_execution(
                run_program(program, runs[0])
            ),
        )
        oracle = run_program(inlined, runs[0])
        assert np.array_equal(derived.block_ids, oracle.block_ids)
        assert np.array_equal(derived.via, oracle.via)

    @given(
        st.one_of(dag_programs(), context_programs()),
        st.lists(inputs_strategy, min_size=1, max_size=3),
        inputs_strategy,
    )
    @settings(max_examples=150, deadline=None)
    def test_every_pass_preserves_out(self, program, runs, unprofiled):
        for spec in PASS_NAMES + ("all",):
            optimized, _, _ = run_opt(
                program, OptOptions.parse(spec),
                profile_source=lambda p: profile_program(p, runs),
            )
            validate_optimized(optimized)
            for values in runs + [unprofiled]:
                assert (run_program(optimized, values).output
                        == run_program(program, values).output), spec

    @given(dag_programs(), inputs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_pipeline_image_covers_trace(self, program, inputs):
        result = optimize_program(program, [[0, 1], [2, 3]], EAGER)
        assert sorted(result.order) == list(range(result.program.num_blocks))
        execution = run_program(
            result.program, inputs, max_instructions=40_000
        )
        trace = BlockTrace.from_execution(execution)
        addresses = trace.addresses(result.image)
        assert len(addresses) == trace.instruction_count(result.image)
        if len(addresses):
            low, high = result.image.span()
            assert addresses.min() >= low and addresses.max() < high

    @given(dag_programs())
    @settings(max_examples=30, deadline=None)
    def test_image_blocks_do_not_overlap(self, program):
        image = MemoryImage.build(
            program, list(range(program.num_blocks))
        )
        address = 0
        for bid in image.order:
            assert image.block_address(bid) == address
            address += int(image.placed_bytes[bid])
        # Fetch lengths never exceed the placed size.
        placed_instructions = image.placed_bytes // 4
        assert (image.fetch_lengths <= placed_instructions).all()

    @given(dag_programs(), st.sampled_from([0.5, 0.7, 1.0, 1.1, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_scaled_sizes_properties(self, program, factor):
        sizes = scaled_sizes(program, factor)
        assert len(sizes) == program.num_blocks
        assert (sizes >= 1).all()
        if factor >= 1.0:
            assert (
                sizes >= np.asarray(program.block_num_instructions)
            ).all()

    @given(dag_programs())
    @settings(max_examples=30, deadline=None)
    def test_trace_selection_partitions_every_function(self, program):
        profile = profile_program(program, [[1, 2], []])
        for function in program:
            selection = select_traces(function, profile)
            seen = sorted(b for t in selection.traces for b in t.blocks)
            assert seen == sorted(b.bid for b in function.blocks)

    @given(dag_programs(), inputs_strategy)
    @settings(max_examples=20, deadline=None)
    def test_expansion_identical_across_replays(self, program, inputs):
        result = optimize_program(program, [[1]], EAGER)
        execution = run_program(
            result.program, inputs, max_instructions=40_000
        )
        trace = BlockTrace.from_execution(execution)
        a = trace.addresses(result.image)
        b = trace.addresses(result.image)
        assert np.array_equal(a, b)
