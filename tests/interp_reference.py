"""Reference interpreter: the differential oracle for the block compiler.

:class:`repro.interp.interpreter.Interpreter` runs each basic block as
generated Python.  This module keeps the opcode-dispatch loop it replaced,
unchanged, so ``tests/test_interp_compiled.py`` can assert that both agree
on every observable of an execution: block sequence, exit kinds, output,
final registers and memory, and instruction count.  It records no
observability counters and is not part of the package.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.interp.interpreter import (
    DEFAULT_MAX_INSTRUCTIONS,
    VIA_FALL,
    VIA_TAKEN,
    VIA_TERM,
    ExecutionError,
    ExecutionLimitExceeded,
    ExecutionResult,
)
from repro.interp.machine import MachineState
from repro.ir.instructions import EOF_SENTINEL, Opcode
from repro.ir.program import Program


class ReferenceInterpreter:
    """The opcode-dispatch loop the block compiler replaced, kept verbatim.

    Every block's body is decoded into flat operand tuples once; ``run``
    walks them with an ``if/elif`` chain on the opcode.  Slow but obvious,
    which is what an oracle should be.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._bodies: list[list[tuple]] = []
        self._terminators: list[tuple] = []
        self._compile()

    def _compile(self) -> None:
        program = self.program
        for block in program.blocks:
            bid = block.bid
            assert bid is not None
            body = [
                (int(instr.op), instr.rd, instr.rs1, instr.rs2, instr.imm)
                for instr in block.instructions[:-1]
            ]
            self._bodies.append(body)
            term = block.terminator
            self._terminators.append(
                (
                    int(term.op),
                    term.rs1,
                    term.rs2,
                    term.imm,
                    program.block_taken[bid],
                    program.block_fall[bid],
                    program.block_callee_entry[bid],
                )
            )

    def run(
        self,
        input_values: Iterable[int] = (),
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        initial_state: MachineState | None = None,
    ) -> ExecutionResult:
        """Execute from the program entry until HALT.

        Raises :class:`ExecutionLimitExceeded` if ``max_instructions`` is
        reached first — a non-terminating workload is a workload bug, and
        silently truncating its trace would corrupt every experiment
        downstream.
        """
        state = initial_state.copy() if initial_state else MachineState()
        regs = state.registers
        memory = state.memory
        inputs = iter(input_values)
        output: list[int] = []
        call_stack: list[int] = []
        block_trace: list[int] = []
        via_trace: list[int] = []
        sizes = self.program.block_num_instructions
        bodies = self._bodies
        terminators = self._terminators
        executed = 0
        halted = False

        # Opcode constants hoisted to locals for loop speed.
        op_add, op_sub, op_mul, op_div, op_rem = (
            int(Opcode.ADD), int(Opcode.SUB), int(Opcode.MUL),
            int(Opcode.DIV), int(Opcode.REM),
        )
        op_and, op_or, op_xor, op_shl, op_shr, op_slt = (
            int(Opcode.AND), int(Opcode.OR), int(Opcode.XOR),
            int(Opcode.SHL), int(Opcode.SHR), int(Opcode.SLT),
        )
        op_li, op_mov, op_ld, op_st = (
            int(Opcode.LI), int(Opcode.MOV), int(Opcode.LD), int(Opcode.ST),
        )
        op_in, op_out, op_nop = (
            int(Opcode.IN), int(Opcode.OUT), int(Opcode.NOP),
        )
        op_jmp, op_call, op_ret, op_halt = (
            int(Opcode.JMP), int(Opcode.CALL), int(Opcode.RET),
            int(Opcode.HALT),
        )
        op_beq, op_bne, op_blt, op_bge, op_ble, op_bgt = (
            int(Opcode.BEQ), int(Opcode.BNE), int(Opcode.BLT),
            int(Opcode.BGE), int(Opcode.BLE), int(Opcode.BGT),
        )

        bid = self.program.function_entry_bid[self.program.entry]
        while True:
            executed += sizes[bid]
            if executed > max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} dynamic instructions "
                    f"(workload does not terminate?)"
                )
            block_trace.append(bid)

            for op, rd, rs1, rs2, imm in bodies[bid]:
                if op == op_add:
                    regs[rd] = regs[rs1] + (regs[rs2] if rs2 is not None else imm)
                elif op == op_sub:
                    regs[rd] = regs[rs1] - (regs[rs2] if rs2 is not None else imm)
                elif op == op_li:
                    regs[rd] = imm
                elif op == op_ld:
                    regs[rd] = memory.get(regs[rs1] + imm, 0)
                elif op == op_st:
                    memory[regs[rs1] + imm] = regs[rs2]
                elif op == op_mov:
                    regs[rd] = regs[rs1]
                elif op == op_slt:
                    regs[rd] = 1 if regs[rs1] < (
                        regs[rs2] if rs2 is not None else imm) else 0
                elif op == op_and:
                    regs[rd] = regs[rs1] & (regs[rs2] if rs2 is not None else imm)
                elif op == op_or:
                    regs[rd] = regs[rs1] | (regs[rs2] if rs2 is not None else imm)
                elif op == op_xor:
                    regs[rd] = regs[rs1] ^ (regs[rs2] if rs2 is not None else imm)
                elif op == op_shl:
                    regs[rd] = regs[rs1] << (regs[rs2] if rs2 is not None else imm)
                elif op == op_shr:
                    regs[rd] = regs[rs1] >> (regs[rs2] if rs2 is not None else imm)
                elif op == op_mul:
                    regs[rd] = regs[rs1] * (regs[rs2] if rs2 is not None else imm)
                elif op == op_div:
                    b = regs[rs2] if rs2 is not None else imm
                    regs[rd] = regs[rs1] // b if b else 0
                elif op == op_rem:
                    b = regs[rs2] if rs2 is not None else imm
                    regs[rd] = regs[rs1] % b if b else 0
                elif op == op_in:
                    regs[rd] = next(inputs, EOF_SENTINEL)
                elif op == op_out:
                    output.append(regs[rs1])
                elif op == op_nop:
                    pass
                else:  # pragma: no cover - opcode set is closed
                    raise ExecutionError(f"unhandled opcode {op}")

            op, rs1, rs2, imm, taken, fall, callee = terminators[bid]
            if op == op_jmp:
                via_trace.append(VIA_TERM)
                bid = taken
            elif op == op_call:
                via_trace.append(VIA_TERM)
                call_stack.append(fall)
                bid = callee
            elif op == op_ret:
                via_trace.append(VIA_TERM)
                if not call_stack:
                    raise ExecutionError("RET with empty call stack")
                bid = call_stack.pop()
            elif op == op_halt:
                via_trace.append(VIA_TERM)
                halted = True
                break
            else:
                a = regs[rs1]
                b = regs[rs2] if rs2 is not None else imm
                if op == op_beq:
                    cond = a == b
                elif op == op_bne:
                    cond = a != b
                elif op == op_blt:
                    cond = a < b
                elif op == op_bge:
                    cond = a >= b
                elif op == op_ble:
                    cond = a <= b
                elif op == op_bgt:
                    cond = a > b
                else:  # pragma: no cover - opcode set is closed
                    raise ExecutionError(f"unhandled terminator {op}")
                if cond:
                    via_trace.append(VIA_TAKEN)
                    bid = taken
                else:
                    via_trace.append(VIA_FALL)
                    bid = fall

        return ExecutionResult(
            block_ids=np.asarray(block_trace, dtype=np.int32),
            via=np.asarray(via_trace, dtype=np.uint8),
            output=output,
            state=state,
            instructions=executed,
            halted=halted,
        )
