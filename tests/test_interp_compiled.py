"""Differential tests: the block-compiled interpreter against the old loop.

:class:`~repro.interp.interpreter.Interpreter` runs each basic block as
generated Python; :class:`tests.interp_reference.ReferenceInterpreter` is the
opcode-dispatch loop it replaced.  Every observable of an execution must
agree: the block sequence, the exit kinds, the output, the final
registers and memory, the instruction count, and the errors raised.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.interp.interpreter import (
    ExecutionError,
    ExecutionLimitExceeded,
    Interpreter,
    block_source,
)
from repro.interp.machine import MachineState
from repro.ir.builder import ProgramBuilder
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


def assert_same_execution(program, inputs=(), **kwargs) -> None:
    """Run both interpreters; assert identical results or errors."""
    try:
        expected = ReferenceInterpreter(program).run(list(inputs), **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            Interpreter(program).run(list(inputs), **kwargs)
        assert str(raised.value) == str(exc)
        return
    actual = Interpreter(program).run(list(inputs), **kwargs)
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


class TestWorkloads:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_profiling_and_trace_inputs(self, name):
        workload = get_workload(name)
        program = workload.build()
        streams = workload.profiling_inputs("small")
        streams.append(workload.trace_input("small"))
        for stream in streams:
            assert_same_execution(program, stream)

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
        # whose blocks every thread compiles on first use at once.
        workload = get_workload("wc")
        interpreter = Interpreter(workload.build())
        stream = workload.trace_input("small")
        expected = ReferenceInterpreter(interpreter.program).run(stream)
        barrier = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def run(slot: int) -> None:
            barrier.wait()
            results[slot] = interpreter.run(stream)

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
        for result in results:
            assert np.array_equal(result.block_ids, expected.block_ids)
            assert np.array_equal(result.via, expected.via)
            assert result.output == expected.output
            assert result.state.registers == expected.state.registers
            assert result.state.memory == expected.state.memory
            assert result.instructions == expected.instructions
