"""Unit tests for the Pettis-Hansen-style layout."""

from repro.interp.profiler import profile_program
from repro.placement.image import MemoryImage
from repro.placement.pettis_hansen import (
    pettis_hansen_block_order,
    pettis_hansen_function_order,
    pettis_hansen_order,
)
from tests.conftest import build_call_program


class TestFunctionOrder:
    def test_all_functions_once(self, call_program, call_profile):
        order = pettis_hansen_function_order(call_program, call_profile)
        assert sorted(order) == sorted(f.name for f in call_program)

    def test_heavy_pair_placed_adjacent(self):
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder()
        for name in ("hot", "cold"):
            f = pb.function(name)
            b = f.block("entry")
            b.add("r1", "r1", 1)
            b.ret()
        f = pb.function("main")
        b = f.block("entry")
        b.call("cold", cont="loop")
        b = f.block("loop")
        b.in_("r1")
        b.beq("r1", -1, taken="done", fall="work")
        b = f.block("work")
        b.call("hot", cont="loop_back")
        b = f.block("loop_back")
        b.jmp("loop")
        b = f.block("done")
        b.halt()
        program = pb.build()
        profile = profile_program(program, [list(range(20))])
        order = pettis_hansen_function_order(program, profile)
        # main-hot is the heaviest edge: they must be adjacent.
        assert abs(order.index("main") - order.index("hot")) == 1

    def test_entry_chain_comes_first(self, call_program, call_profile):
        order = pettis_hansen_function_order(call_program, call_profile)
        # main's chain leads, so main appears before unconnected names.
        assert "main" in order[:2]

    def test_deterministic(self, call_program, call_profile):
        a = pettis_hansen_function_order(call_program, call_profile)
        b = pettis_hansen_function_order(call_program, call_profile)
        assert a == b


class TestBlockOrder:
    def test_order_is_permutation_of_function(self, branchy_program):
        profile = profile_program(branchy_program, [[1, 2, 3]])
        order = pettis_hansen_block_order(branchy_program, profile, "main")
        expected = sorted(
            b.bid for b in branchy_program.function("main").blocks
        )
        assert sorted(order) == expected

    def test_entry_block_first(self, branchy_program):
        profile = profile_program(branchy_program, [[2, 4]])
        order = pettis_hansen_block_order(branchy_program, profile, "main")
        assert order[0] == branchy_program.function("main").entry.bid

    def test_heavy_arc_endpoints_chained(self, loop_program):
        profile = profile_program(loop_program, [[]])
        order = pettis_hansen_block_order(loop_program, profile, "main")
        main = loop_program.function("main")
        head, body = main.block("head").bid, main.block("body").bid
        # head->body carries weight 5: they should be adjacent.
        assert abs(order.index(head) - order.index(body)) == 1

    def test_cold_function_still_ordered(self, call_program):
        profile = profile_program(call_program, [[]])
        order = pettis_hansen_block_order(call_program, profile, "twice")
        assert sorted(order) == sorted(
            b.bid for b in call_program.function("twice").blocks
        )


class TestWholeProgram:
    def test_order_is_program_permutation(self, call_program, call_profile):
        order = pettis_hansen_order(call_program, call_profile)
        assert sorted(order) == list(range(call_program.num_blocks))

    def test_image_builds_and_replays(self, call_program, call_profile):
        from repro.interp.interpreter import run_program
        from repro.interp.trace import BlockTrace

        image = MemoryImage.build(
            call_program, pettis_hansen_order(call_program, call_profile)
        )
        trace = BlockTrace.from_execution(run_program(call_program, [1, 2]))
        addresses = trace.addresses(image)
        assert len(addresses) == trace.instruction_count(image)

    def test_ph_groups_hot_functions(self):
        """Hot callers/callees scattered between cold functions in
        declaration order end up contiguous under PH, so a cache sized
        for the hot set stops conflict-missing."""
        from repro.cache.vectorized import simulate_direct_vectorized
        from repro.interp.interpreter import run_program
        from repro.interp.trace import BlockTrace
        from repro.ir.builder import ProgramBuilder
        from repro.placement.baselines import natural_image

        pb = ProgramBuilder()

        def helper(name, pad):
            f = pb.function(name)
            b = f.block("entry")
            b.nop(pad)
            b.add("r1", "r1", 1)
            b.ret()

        helper("hot_a", 10)
        helper("cold_x", 40)     # cold padding between the hot functions
        helper("hot_b", 10)
        helper("cold_y", 40)
        f = pb.function("main")
        b = f.block("entry")
        b.jmp("loop")
        b = f.block("loop")
        b.in_("r1")
        b.beq("r1", -1, taken="done", fall="a")
        b = f.block("a")
        b.call("hot_a", cont="b")
        b = f.block("b")
        b.call("hot_b", cont="loop_back")
        b = f.block("loop_back")
        b.jmp("loop")
        b = f.block("done")
        b.halt()
        program = pb.build()

        profile = profile_program(program, [list(range(30))])
        trace = BlockTrace.from_execution(
            run_program(program, list(range(100)))
        )
        # Cache big enough for main+hot_a+hot_b, not for the cold pads.
        ph = simulate_direct_vectorized(
            trace.addresses(MemoryImage.build(
                program, pettis_hansen_order(program, profile)
            )), 128, 32
        )
        nat = simulate_direct_vectorized(
            trace.addresses(natural_image(program)), 128, 32
        )
        assert ph.miss_ratio < nat.miss_ratio
