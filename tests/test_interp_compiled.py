"""Differential tests: the compiled interpreter against the old loop.

:class:`~repro.interp.interpreter.Interpreter` runs each basic block as
generated Python, and from a program's second run on its hot paths as
regions; :class:`tests.interp_reference.ReferenceInterpreter` is the
opcode-dispatch loop it replaced.  Every observable of an execution must
agree: the block sequence, the exit kinds, the output, the final
registers and memory, the instruction count, and the errors raised.
Region tests run a program once to form its regions, then compare.
"""

from __future__ import annotations

import array
import random
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.interp import interpreter as interp_module
from repro.interp import regions as regions_module
from repro.interp.interpreter import (
    ExecutionError,
    ExecutionLimitExceeded,
    Interpreter,
    block_source,
)
from repro.interp.machine import MachineState
from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program
from repro.opt.passes import OptOptions, run_opt
from repro.workloads.registry import (
    extended_workload_names,
    get_workload,
    workload_names,
)
from tests.interp_reference import ReferenceInterpreter

ALL_WORKLOADS = workload_names() + extended_workload_names()

#: ``rd = rs1 <op> rs2-or-imm`` builder methods.
ALU_OPS = (
    "add", "sub", "mul", "div", "rem", "and_", "or_", "xor",
    "shl", "shr", "slt",
)

#: Operand values: negative, zero, small and beyond 32 bits.
VALUES = (-7, -1, 0, 3, 1 << 40)

BRANCH_OPS = ("beq", "bne", "blt", "bge", "ble", "bgt")


def assert_same_execution(
    program, inputs=(), interpreter=None, **kwargs
) -> None:
    """Run both interpreters; assert identical results or errors.

    ``interpreter`` is a compiled one that may have run before (a fresh
    one by default).
    """
    interpreter = interpreter or Interpreter(program)
    try:
        expected = ReferenceInterpreter(program).run(list(inputs), **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            interpreter.run(list(inputs), **kwargs)
        assert str(raised.value) == str(exc)
        return
    actual = interpreter.run(list(inputs), **kwargs)
    assert actual.block_ids.dtype == expected.block_ids.dtype
    assert actual.via.dtype == expected.via.dtype
    assert np.array_equal(actual.block_ids, expected.block_ids)
    assert np.array_equal(actual.via, expected.via)
    assert actual.output == expected.output
    assert actual.state.registers == expected.state.registers
    assert actual.state.memory == expected.state.memory
    assert actual.instructions == expected.instructions
    assert actual.halted == expected.halted


def _one_block(*fill_ops):
    """``main`` with one block: the given ops, ``out r1``, ``halt``."""
    pb = ProgramBuilder()
    b = pb.function("main").block("entry")
    for op in fill_ops:
        op(b)
    b.out("r1")
    b.halt()
    return pb.build()


def region_heads(program) -> dict:
    """``{head bid: region code}`` of the regions ``program``'s runs have
    emitted so far."""
    regions = interp_module._PROGRAMS[program].regions
    return regions.codes if regions is not None else {}


def warmed(program, inputs=()) -> Interpreter:
    """An interpreter of ``program`` whose regions are formed: the first
    run profiles, the second forms them and runs them."""
    interpreter = Interpreter(program)
    for _ in range(2):
        interpreter.run(list(inputs))
    assert region_heads(program)
    return interpreter


def bid_of(program, function: str, label: str) -> int:
    return program.function(function).block(label).bid


def counted_loops() -> Program:
    """``main``: an outer loop of ``in`` iterations around an inner loop
    of ``in`` iterations, summing the inner counter."""
    pb = ProgramBuilder()
    f = pb.function("main")
    f.block("entry").in_("r1").in_("r4").li("r3", 0).jmp("outer")
    f.block("outer").mov("r2", "r4").jmp("inner")
    b = f.block("inner")
    b.add("r3", "r3", "r2").sub("r2", "r2", 1)
    b.bgt("r2", 0, taken="inner", fall="next")
    b = f.block("next")
    b.sub("r1", "r1", 1)
    b.bgt("r1", 0, taken="outer", fall="done")
    f.block("done").out("r3").halt()
    return pb.build()


def diamond_chain(diamonds: int = 8) -> Program:
    """A CRC-style loop: per input, ``diamonds`` shift-and-conditional-xor
    steps, each an if/else diamond whose arm jumps to the next step."""
    pb = ProgramBuilder()
    f = pb.function("main")
    f.block("entry").li("r1", -1).jmp("loop")
    b = f.block("loop")
    b.in_("r2")
    b.blt("r2", 0, taken="done", fall="step0")
    for k in range(diamonds):
        b = f.block(f"step{k}")
        b.and_("r3", "r1", 1).shr("r1", "r1", 1)
        b.beq("r3", 0, taken=f"step{k + 1}", fall=f"arm{k}")
        f.block(f"arm{k}").xor("r1", "r1", 0xEDB88320).jmp(f"step{k + 1}")
    f.block(f"step{diamonds}").xor("r1", "r1", "r2").jmp("loop")
    f.block("done").out("r1").halt()
    return pb.build()


def calls_in_a_loop() -> Program:
    """``main`` calls ``spin`` (itself a loop) once per input; the code
    after the call, with a same-successor branch, runs from a return
    point."""
    pb = ProgramBuilder()
    f = pb.function("spin")
    f.block("entry").li("r5", 3).jmp("loop")
    b = f.block("loop")
    b.add("r6", "r6", "r5").sub("r5", "r5", 1)
    b.bgt("r5", 0, taken="loop", fall="leave")
    f.block("leave").ret()
    f = pb.function("main")
    f.block("entry").li("r2", 0).jmp("loop")
    b = f.block("loop")
    b.in_("r1")
    b.blt("r1", 0, taken="done", fall="work")
    f.block("work").call("spin", cont="after")
    b = f.block("after")
    b.add("r2", "r2", "r6")
    b.beq("r1", 7, taken="tail", fall="tail")
    b = f.block("tail")
    b.bgt("r1", 5, taken="big", fall="loop")
    f.block("big").out("r1").jmp("loop")
    f.block("done").out("r2").halt()
    return pb.build()


def nested_calls() -> Program:
    """``main`` calls ``f`` per input and ``f`` calls ``g``; inputs over
    100 take ``g``'s cold side exit, whose block returns on its own."""
    pb = ProgramBuilder()
    f = pb.function("g")
    b = f.block("entry")
    b.add("r6", "r6", "r1")
    b.bgt("r1", 100, taken="big", fall="done")
    f.block("big").add("r6", "r6", 1000).ret()
    f.block("done").ret()
    f = pb.function("f")
    f.block("entry").add("r7", "r7", 1).call("g", cont="back")
    f.block("back").add("r7", "r7", "r6").ret()
    f = pb.function("main")
    f.block("entry").li("r2", 0).jmp("loop")
    b = f.block("loop")
    b.in_("r1")
    b.blt("r1", 0, taken="done", fall="work")
    f.block("work").call("f", cont="after")
    f.block("after").add("r2", "r2", "r7").jmp("loop")
    f.block("done").out("r2").out("r6").out("r7").halt()
    return pb.build()


def counted_then(ending: str) -> Program:
    """``in`` iterations of a loop that reads an input each time, then
    HALT when the next input is 0, else ``ending`` (``ret`` or ``loop``:
    spin forever)."""
    pb = ProgramBuilder()
    f = pb.function("main")
    f.block("entry").in_("r1").jmp("loop")
    b = f.block("loop")
    b.in_("r3").add("r2", "r2", "r3").sub("r1", "r1", 1)
    b.bgt("r1", 0, taken="loop", fall="end")
    f.block("end").in_("r4").beq("r4", 0, taken="stop", fall="other")
    f.block("stop").out("r2").halt()
    if ending == "ret":
        f.block("other").ret()
    else:
        f.block("other").add("r2", "r2", 1).jmp("other")
    return pb.build()


def looping_program(seed: int) -> Program:
    """A seeded program of counter-bounded loops in ``main`` and two
    helpers (``f1`` may call ``f2``), each body a chain of segments that
    end in a jump, a diamond, a side path, a call or a branch whose two
    successors are one block."""
    rng = random.Random(seed)
    pb = ProgramBuilder()
    values = [f"r{k}" for k in range(1, 9)]

    def operations(block) -> None:
        for _ in range(rng.randint(0, 3)):
            rd, rs = rng.choice(values), rng.choice(values)
            kind = rng.choice(("add", "sub", "xor", "and_", "or_", "shr",
                               "slt", "div", "rem", "li", "ld", "st", "in"))
            if kind == "li":
                block.li(rd, rng.randint(-50, 50))
            elif kind == "ld":
                block.ld(rd, "r0", rng.randint(0, 7))
            elif kind == "st":
                block.st(rs, "r0", rng.randint(0, 7))
            elif kind == "in":
                block.in_(rd)
            elif kind == "shr":
                block.shr(rd, rs, rng.randint(0, 3))
            else:
                operand = rng.choice((rng.choice(values), rng.randint(-9, 9)))
                getattr(block, kind)(rd, rs, operand)

    for index, name in enumerate(("f2", "f1", "main")):
        f = pb.function(name)
        counter = f"r{20 + index}"
        f.block("entry").li(counter, rng.randint(16, 24)).jmp("seg0")
        segments = rng.randint(2, 6)
        for k in range(segments):
            b = f.block(f"seg{k}")
            operations(b)
            nxt = f"seg{k + 1}"
            kind = rng.choice(("jmp", "diamond", "side", "call", "same"))
            if kind == "call" and name != "f2":
                b.call(rng.choice(("f2", "f1")[:1 + (name == "main")]),
                       cont=nxt)
            elif kind == "diamond":
                b.and_("r9", rng.choice(values), 1)
                b.beq("r9", 0, taken=nxt, fall=f"arm{k}")
                arm = f.block(f"arm{k}")
                operations(arm)
                arm.jmp(nxt)
            elif kind == "side":
                b.bgt(rng.choice(values), rng.randint(-5, 5),
                      taken=f"side{k}", fall=nxt)
                side = f.block(f"side{k}")
                operations(side)
                side.out(rng.choice(values)).jmp("tail")
            elif kind == "same":
                b.blt(rng.choice(values), rng.choice(values),
                      taken=nxt, fall=nxt)
            else:
                b.jmp(nxt)
        b = f.block(f"seg{segments}")
        b.jmp("tail")
        b = f.block("tail")
        b.sub(counter, counter, 1)
        b.bgt(counter, 0, taken="seg0", fall="done")
        done = f.block("done")
        if name == "main":
            for register in values:
                done.out(register)
            done.halt()
        else:
            done.ret()
    return pb.build()


class TestWorkloads:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_profiling_and_trace_inputs(self, name):
        # One interpreter, as the pipeline runs them: every run after the
        # first also runs regions.
        workload = get_workload(name)
        program = workload.build()
        interpreter = Interpreter(program)
        streams = workload.profiling_inputs("small")
        streams.append(workload.trace_input("small"))
        for stream in streams:
            assert_same_execution(program, stream, interpreter)
        assert region_heads(program)

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_post_opt_program(self, name):
        workload = get_workload(name)
        program = workload.build()
        optimized, _, _ = run_opt(
            program, OptOptions.parse("lvn,simplify,dce")
        )
        assert optimized is not program
        assert_same_execution(optimized, workload.trace_input("small"))


class TestGeneratedBlocks:
    @pytest.mark.parametrize("op", ALU_OPS)
    @pytest.mark.parametrize("a", VALUES)
    @pytest.mark.parametrize("b", VALUES)
    def test_alu_register_and_immediate_forms(self, op, a, b):
        # Register form, immediate form, and every aliasing of rd with
        # the sources.  Negative shift counts raise in both.
        for program in (
            _one_block(lambda blk: blk.li("r2", a), lambda blk: blk.li("r3", b),
                       lambda blk: getattr(blk, op)("r1", "r2", "r3")),
            _one_block(lambda blk: blk.li("r2", a),
                       lambda blk: getattr(blk, op)("r1", "r2", b)),
            _one_block(lambda blk: blk.li("r1", a), lambda blk: blk.li("r3", b),
                       lambda blk: getattr(blk, op)("r1", "r1", "r3")),
            _one_block(lambda blk: blk.li("r2", a), lambda blk: blk.li("r1", b),
                       lambda blk: getattr(blk, op)("r1", "r2", "r1")),
            _one_block(lambda blk: blk.li("r1", a),
                       lambda blk: getattr(blk, op)("r1", "r1", "r1")),
        ):
            assert_same_execution(program)

    @pytest.mark.parametrize("op", ["div", "rem"])
    def test_division_by_zero_in_both_forms(self, op):
        for divisor in ("r0", 0):
            program = _one_block(
                lambda blk: blk.li("r2", -9),
                lambda blk: getattr(blk, op)("r1", "r2", divisor),
            )
            assert_same_execution(program)
            assert Interpreter(program).run().output == [0]

    def test_shr_of_negative_value(self):
        program = _one_block(
            lambda blk: blk.li("r2", -9),
            lambda blk: blk.shr("r1", "r2", 1),
        )
        assert_same_execution(program)
        assert Interpreter(program).run().output == [-5]

    def test_data_movement_and_memory(self):
        program = _one_block(
            lambda blk: blk.li("r2", -42),
            lambda blk: blk.mov("r4", "r2"),
            lambda blk: blk.li("r3", -4),
            lambda blk: blk.st("r4", "r3", -8),
            lambda blk: blk.st("r3", "r3", 0),
            lambda blk: blk.ld("r1", "r3", -8),
            lambda blk: blk.ld("r5", "r3", 1000),
            lambda blk: blk.nop(3),
        )
        assert_same_execution(program)
        result = Interpreter(program).run()
        assert result.output == [-42]
        assert result.state.memory == {-12: -42, -4: -4}

    def test_input_past_eof(self):
        pb = ProgramBuilder()
        b = pb.function("main").block("entry")
        for _ in range(3):
            b.in_("r1").out("r1")
        b.halt()
        program = pb.build()
        for stream in ([], [5], [5, -3, 8, 9]):
            assert_same_execution(program, stream)
        assert Interpreter(program).run([5]).output == [5, -1, -1]

    @pytest.mark.parametrize("op", BRANCH_OPS)
    @pytest.mark.parametrize("a", (-2, 0, 2))
    @pytest.mark.parametrize("form", ("register", "immediate"))
    def test_branches(self, op, a, form):
        pb = ProgramBuilder()
        f = pb.function("main")
        b = f.block("entry")
        b.li("r2", a)
        b.li("r3", 0)
        getattr(b, op)("r2", "r3" if form == "register" else 0,
                       taken="yes", fall="no")
        f.block("yes").li("r1", 1).jmp("done")
        f.block("no").li("r1", 2).jmp("done")
        f.block("done").out("r1").halt()
        assert_same_execution(pb.build())

    def test_identical_blocks_share_source(self):
        pb = ProgramBuilder()
        f = pb.function("main")
        f.block("entry").add("r1", "r1", 1).jmp("done")
        f.block("twin").add("r1", "r1", 1).jmp("done")
        f.block("done").out("r1").halt()
        program = pb.build()
        sources = [
            block_source(
                block, program.block_taken[block.bid],
                program.block_fall[block.bid],
                program.block_callee_entry[block.bid],
            )
            for block in program.blocks[:2]
        ]
        assert sources[0] == sources[1]


class TestRegions:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_looping_programs(self, seed):
        program = looping_program(seed)
        rng = random.Random(seed)
        streams = [[rng.randint(-20, 20) for _ in range(rng.randint(0, 60))]
                   for _ in range(4)]
        interpreter = Interpreter(program)
        for stream in streams:
            assert_same_execution(program, stream, interpreter)
        assert region_heads(program)
        total = ReferenceInterpreter(program).run(streams[-1]).instructions
        for budget in (total, total - 1, total // 2):
            assert_same_execution(
                program, streams[-1], interpreter, max_instructions=budget
            )

    def test_counted_and_nested_loops(self):
        program = counted_loops()
        interpreter = warmed(program, [20, 20])
        heads = region_heads(program)
        assert bid_of(program, "main", "inner") in heads
        for inputs in ([20, 20], [1, 1], [3, 40], [40, 3], [25, 0]):
            assert_same_execution(program, inputs, interpreter)

    def test_a_back_edge_to_the_head_is_a_while_loop(self):
        program = counted_loops()
        inner = bid_of(program, "main", "inner")
        assert regions_module.region_source(program, inner, {}, {}) == (
            "def region(r, m, M, I, O, D, K, S, P, E, T, L, B, G):\n"
            "    while True:\n"
            "        r[3] = r[3] + r[2]\n"
            "        r[2] = r[2] - (1)\n"
            "        if r[2] > (0):\n"
            f"            if L(B) > G:\n"
            f"                return {inner}\n"
            f"            T({array.array('i', [inner]).tobytes()!r})\n"
            "            continue\n"
            f"        return {inner + 1}\n"
        )

    def test_chain_of_diamonds(self):
        program = diamond_chain()
        stream = [(k * 2654435761) % 1000 for k in range(40)] + [-1]
        interpreter = warmed(program, stream)
        loop = bid_of(program, "main", "loop")
        source = regions_module.region_source(
            program, loop, {loop: bid_of(program, "main", "step0")}, {}
        )
        # Every step and arm of the chain is absorbed into one loop.
        assert source.count("else:") == 8
        assert "continue" in source
        for inputs in (stream, stream[::-1], [0, 1, 2, -1], [-1]):
            assert_same_execution(program, inputs, interpreter)

    def test_calls_in_a_loop_and_a_return_point_head(self):
        program = calls_in_a_loop()
        stream = [k % 11 for k in range(30)] + [-1]
        interpreter = warmed(program, stream)
        heads = region_heads(program)
        assert bid_of(program, "main", "after") in heads
        assert bid_of(program, "spin", "loop") in heads
        for inputs in (stream, [7] * 20 + [-1], [6, 7, 8, -1], [-1]):
            assert_same_execution(program, inputs, interpreter)

    def test_side_exit_inside_inlined_calls(self):
        # A region runs main's loop with f and g inline; leaving it from
        # g must leave both return points on the call stack, f's on top.
        program = nested_calls()
        interpreter = warmed(program, list(range(30)) + [-1])
        for inputs in ([5, 200, 7, 300, 300, -1], [101] * 20 + [-1]):
            assert_same_execution(program, inputs, interpreter)

    def test_branch_with_one_successor(self):
        program = calls_in_a_loop()
        after = bid_of(program, "main", "after")
        assert program.block_taken[after] == program.block_fall[after]
        interpreter = warmed(program, [7, 1] * 10 + [-1])
        for inputs in ([7, 1] * 10 + [-1], [1, 7, 7, -1]):
            result = interpreter.run(inputs)
            assert_same_execution(program, inputs, interpreter)
            taken = result.via[result.block_ids == after]
            assert set(taken.tolist()) == {1, 2}

    def test_budget_exact_and_one_below_inside_a_loop_region(self):
        program = counted_then("ret")
        inputs = [200] + list(range(200)) + [0]
        interpreter = warmed(program, inputs)
        total = ReferenceInterpreter(program).run(inputs).instructions
        for budget in (total, total - 1, total - 5, total // 2, 37, 1, 0):
            assert_same_execution(
                program, inputs, interpreter, max_instructions=budget
            )

    def test_no_block_past_the_budget_reads_input(self):
        program = counted_then("ret")
        values = [500] + list(range(500)) + [0]
        interpreter = warmed(program, values)
        total = ReferenceInterpreter(program).run(values).instructions
        for budget in (total - 1, total - 4, total // 3, 9):
            left = []
            for runner in (ReferenceInterpreter(program), interpreter):
                stream = iter(values)
                with pytest.raises(ExecutionLimitExceeded):
                    runner.run(stream, max_instructions=budget)
                left.append(list(stream))
            assert left[0] == left[1]

    def test_non_terminating_loop_region(self):
        program = counted_then("loop")
        interpreter = warmed(program, [30] + [1] * 30 + [0])
        assert bid_of(program, "main", "loop") in region_heads(program)
        assert_same_execution(
            program, [30] + [1] * 30 + [5], interpreter,
            max_instructions=10_000,
        )
        with pytest.raises(
            ExecutionLimitExceeded,
            match=r"exceeded 10000 dynamic instructions",
        ):
            interpreter.run([3, 1, 1, 1, 5], max_instructions=10_000)

    def test_budget_out_before_ret_on_empty_stack(self):
        program = counted_then("ret")
        interpreter = warmed(program, [30] + [1] * 30 + [0])
        inputs = [30] + [1] * 30 + [9]
        with pytest.raises(ExecutionError) as raised:
            ReferenceInterpreter(program).run(inputs)
        assert "RET with empty call stack" in str(raised.value)
        total = sum(
            program.block_num_instructions[bid]
            for bid in [0] + [1] * 30 + [2, 4]
        )
        for budget in (total, total - 1):
            assert_same_execution(
                program, inputs, interpreter, max_instructions=budget
            )
        with pytest.raises(ExecutionLimitExceeded):
            interpreter.run(inputs, max_instructions=total - 1)

    def test_program_runs_after_finalize_use_new_code(self):
        program = counted_loops()
        interpreter = warmed(program, [20, 20])
        assert interpreter.run([20, 20]).output == [4200]
        program.function("main").block("done").instructions[0] = (
            program.function("main").block("outer").instructions[0]
        )
        program.finalize()
        assert interpreter.run([20, 20]).output == []
        assert_same_execution(program, [20, 20], interpreter)

    def test_compile_cost_is_counted_on_a_cache_miss_only(self):
        # A constant no other test uses makes every source new.
        pb = ProgramBuilder()
        f = pb.function("main")
        f.block("entry").li("r2", 0).li("r1", 424_242_427).jmp("loop")
        b = f.block("loop")
        b.add("r2", "r2", 1).xor("r1", "r1", 424_242_429)
        b.blt("r2", 40, taken="loop", fall="done")
        f.block("done").xor("r1", "r1", 424_242_431).out("r1").halt()
        program = pb.build()
        recorder = obs.Recorder()
        with obs.use(recorder):
            warmed(program)
        counters = recorder.metrics.counter_values()
        assert counters["interp_compiled_blocks"] == 3
        assert counters["interp_compiled_regions"] == 1
        assert counters["interp_compile_s"] > 0
        recorder = obs.Recorder()
        with obs.use(recorder):
            interpreter = Interpreter(pb.build())
            for _ in range(3):
                interpreter.run()
        counters = recorder.metrics.counter_values()
        assert counters["interp_runs"] == 3
        assert "interp_compiled_blocks" not in counters
        assert "interp_compiled_regions" not in counters


class TestEdges:
    def test_budget_boundary(self, call_program):
        inputs = [1, 2, 3]
        total = ReferenceInterpreter(call_program).run(inputs).instructions
        for interpreter in (
            ReferenceInterpreter(call_program), Interpreter(call_program)
        ):
            assert interpreter.run(
                inputs, max_instructions=total
            ).instructions == total
            with pytest.raises(ExecutionLimitExceeded):
                interpreter.run(inputs, max_instructions=total - 1)

    def test_ret_on_empty_stack(self):
        pb = ProgramBuilder()
        pb.function("main").block("entry").li("r1", 1).ret()
        program = pb.build()
        assert_same_execution(program)
        with pytest.raises(ExecutionError, match="RET with empty call stack"):
            Interpreter(program).run()

    def test_initial_state_is_not_mutated(self):
        program = _one_block(
            lambda blk: blk.ld("r1", "r0", 7),
            lambda blk: blk.add("r1", "r1", "r2"),
            lambda blk: blk.st("r1", "r0", 7),
            lambda blk: blk.li("r2", 0),
        )
        registers = [0] * 32
        registers[2] = 100
        initial = MachineState(list(registers), {7: 70, -1: 3})
        expected = ReferenceInterpreter(program).run(initial_state=initial)
        actual = Interpreter(program).run(initial_state=initial)
        assert initial.registers == registers
        assert initial.memory == {7: 70, -1: 3}
        assert actual.output == expected.output == [170]
        assert actual.state.registers == expected.state.registers
        assert actual.state.memory == expected.state.memory == {7: 170, -1: 3}

    def test_one_interpreter_run_from_several_threads(self):
        # More threads than cores, switching often, on a fresh interpreter
        # whose blocks every thread compiles on first use at once, and
        # whose regions form while the other threads still run.
        workload = get_workload("wc")
        interpreter = Interpreter(workload.build())
        stream = workload.trace_input("small")
        expected = ReferenceInterpreter(interpreter.program).run(stream)
        barrier = threading.Barrier(4, timeout=60)
        results = [None] * 12

        def run(slot: int) -> None:
            barrier.wait()
            for turn in range(3):
                results[3 * slot + turn] = interpreter.run(stream)

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert region_heads(interpreter.program)
        for result in results:
            assert np.array_equal(result.block_ids, expected.block_ids)
            assert np.array_equal(result.via, expected.via)
            assert result.output == expected.output
            assert result.state.registers == expected.state.registers
            assert result.state.memory == expected.state.memory
            assert result.instructions == expected.instructions
