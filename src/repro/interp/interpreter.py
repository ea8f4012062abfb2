"""The IR interpreter: executes a program and records its block trace.

This is the reproduction's stand-in for running the compiled benchmark on
real hardware (the paper's Section 3 Step 1 runs each program over many
inputs).  One execution produces:

* the dynamic *basic-block sequence* (dense global block ids), and
* for each executed block, *how control left it* (``VIA_TERM`` for
  jump/call/return/halt, ``VIA_TAKEN``/``VIA_FALL`` for conditional
  branches).

Everything downstream — profiling (Section 3 Step 1 of the paper), the
Table 2/3/5 statistics, and trace-driven cache simulation — derives from
these two arrays.  Recording at block rather than instruction granularity
is what lets a single execution be replayed under every code layout, cache
configuration, and code-scaling factor (see DESIGN.md, key choice #1):
fetch addresses are expanded per layout by :mod:`repro.interp.trace`.

Execution is block-compiled.  The first time a run reaches a basic block,
:func:`block_source` emits it as one Python function of straight-line
statements (``r[3] = r[1] + (4)``, ``m[r[2] + (8)] = r[5]``) whose
terminator records the exit kind and returns the next bid.  Its code
object comes from a bounded process-wide cache keyed by that source
text, which is the block's whole behaviour, so nothing else has to be
fingerprinted.  :meth:`Interpreter.run` is then a small loop that
charges each block against the instruction budget, appends its bid and
calls it.  ``tests/interp_reference.py`` keeps the opcode-dispatch loop
this replaced, as the differential oracle (DESIGN.md, block compilation).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass
from types import CodeType, FunctionType

import numpy as np

from repro import obs
from repro.interp.machine import MachineState
from repro.ir.block import BasicBlock
from repro.ir.instructions import EOF_SENTINEL, Instruction, Opcode
from repro.ir.program import Program

__all__ = [
    "ExecutionError",
    "ExecutionLimitExceeded",
    "ExecutionResult",
    "Interpreter",
    "run_program",
    "VIA_TERM",
    "VIA_TAKEN",
    "VIA_FALL",
]

#: Control left the block through its terminator (jmp/call/ret/halt).
VIA_TERM = 0
#: A conditional branch was taken.
VIA_TAKEN = 1
#: A conditional branch fell through.
VIA_FALL = 2

#: Default dynamic-instruction budget; generous for the bundled workloads.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


class ExecutionError(Exception):
    """The program reached an undefined state (e.g. RET with empty stack)."""


class ExecutionLimitExceeded(ExecutionError):
    """The dynamic-instruction budget was exhausted before HALT."""


@dataclass
class ExecutionResult:
    """Everything observable about one program execution.

    Attributes
    ----------
    block_ids:
        ``int32`` array: global bid of each executed basic block, in order.
    via:
        ``uint8`` array parallel to ``block_ids`` with the exit kind
        (``VIA_TERM``/``VIA_TAKEN``/``VIA_FALL``).
    output:
        Values emitted by ``OUT``, in order.
    state:
        Final registers and data memory.
    instructions:
        Dynamic instruction count (every block executes fully, so this is
        the sum of executed blocks' sizes).
    halted:
        Always True: an execution ends only at ``HALT``, and one that
        exhausts the instruction budget raises
        :class:`ExecutionLimitExceeded` instead of returning a result.
    """

    block_ids: np.ndarray
    via: np.ndarray
    output: list[int]
    state: MachineState
    instructions: int
    halted: bool

    @property
    def num_blocks_executed(self) -> int:
        """Length of the dynamic block sequence."""
        return len(self.block_ids)


#: Bound on the process-wide block code cache (about 1 KB per entry).  The
#: 14 bundled workloads execute 1,331 distinct blocks on their
#: ``scale=small`` inputs, and 2,204 with their ``lvn,simplify,dce``
#: variants; placed programs add more.
BLOCK_CODE_CACHE_SIZE = 4096

#: Parameters of every block function; ``Interpreter.run`` binds them
#: per run as the defaults, so a block reads its run state as locals.
_RUN_NAMES = "r, m, M, I, O, V, K, S, P, E"

#: Globals of every block function: nothing, not even builtins.
_GLOBALS: dict = {"__builtins__": {}}

#: ``rd = rs1 <op> operand`` opcodes and their Python operators.
_BINARY_OPERATORS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*",
    Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^",
    Opcode.SHL: "<<", Opcode.SHR: ">>",
}

#: Conditional branch opcodes and their Python comparisons.
_BRANCH_COMPARISONS = {
    Opcode.BEQ: "==", Opcode.BNE: "!=", Opcode.BLT: "<",
    Opcode.BGE: ">=", Opcode.BLE: "<=", Opcode.BGT: ">",
}


def _operand(instr: Instruction) -> str:
    """The second source of an ALU op or branch: ``rs2`` or ``imm``."""
    if instr.rs2 is not None:
        return f"r[{instr.rs2}]"
    return f"({instr.imm!r})"


def _address(instr: Instruction) -> str:
    """The data address of a load or store: ``rs1 + imm``."""
    if instr.imm == 0:
        return f"r[{instr.rs1}]"
    return f"r[{instr.rs1}] + ({instr.imm!r})"


def _statements(instr: Instruction) -> list[str]:
    """Python statements for one non-terminator instruction.

    Names bound per run: ``r`` registers, ``m`` memory, ``M`` its
    ``get``, ``I`` the next input (``EOF_SENTINEL`` once exhausted) and
    ``O`` the output's ``append``.
    """
    op = instr.op
    rd, rs1 = instr.rd, instr.rs1
    if op in _BINARY_OPERATORS:
        return [f"r[{rd}] = r[{rs1}] {_BINARY_OPERATORS[op]} {_operand(instr)}"]
    if op is Opcode.SLT:
        return [f"r[{rd}] = 1 if r[{rs1}] < {_operand(instr)} else 0"]
    if op is Opcode.DIV or op is Opcode.REM:
        # Division or modulo by zero yields 0.
        symbol = "//" if op is Opcode.DIV else "%"
        if instr.rs2 is None:
            if not instr.imm:
                return [f"r[{rd}] = 0"]
            return [f"r[{rd}] = r[{rs1}] {symbol} ({instr.imm!r})"]
        return [
            f"t = r[{instr.rs2}]",
            f"r[{rd}] = r[{rs1}] {symbol} t if t else 0",
        ]
    if op is Opcode.LI:
        return [f"r[{rd}] = {instr.imm!r}"]
    if op is Opcode.MOV:
        return [f"r[{rd}] = r[{rs1}]"]
    if op is Opcode.LD:
        return [f"r[{rd}] = M({_address(instr)}, 0)"]
    if op is Opcode.ST:
        return [f"m[{_address(instr)}] = r[{instr.rs2}]"]
    if op is Opcode.IN:
        return [f"r[{rd}] = I()"]
    if op is Opcode.OUT:
        return [f"O(r[{rs1}])"]
    if op is Opcode.NOP:
        return []
    raise ExecutionError(f"unhandled opcode {op!r}")


def _exit(instr: Instruction, taken: int, fall: int, callee: int) -> list[str]:
    """Python statements for a block's terminator.

    Each appends the exit kind through ``V`` and returns the next bid
    (``-1`` after HALT).  ``K`` is the call stack, ``S``/``P`` its
    ``append``/``pop``, and ``E`` is :class:`ExecutionError`.
    """
    op = instr.op
    if op is Opcode.JMP:
        return [f"V({VIA_TERM})", f"return {taken}"]
    if op is Opcode.CALL:
        return [f"V({VIA_TERM})", f"S({fall})", f"return {callee}"]
    if op is Opcode.RET:
        return [
            f"V({VIA_TERM})",
            "if K:",
            "    return P()",
            "raise E('RET with empty call stack')",
        ]
    if op is Opcode.HALT:
        return [f"V({VIA_TERM})", "return -1"]
    if op in _BRANCH_COMPARISONS:
        return [
            f"if r[{instr.rs1}] {_BRANCH_COMPARISONS[op]} {_operand(instr)}:",
            f"    V({VIA_TAKEN})",
            f"    return {taken}",
            f"V({VIA_FALL})",
            f"return {fall}",
        ]
    raise ExecutionError(f"unhandled terminator {op!r}")


def block_source(
    block: BasicBlock, taken: int, fall: int, callee: int
) -> str:
    """The Python source of one basic block, given its successor bids.

    The text is the block's whole behaviour: no bid of its own appears in
    it, so identical blocks share one compiled code object.
    """
    lines = [f"def block({_RUN_NAMES}):"]
    for instr in block.instructions[:-1]:
        lines.extend(_statements(instr))
    lines.extend(_exit(block.terminator, taken, fall, callee))
    return "\n    ".join(lines) + "\n"


@functools.lru_cache(maxsize=BLOCK_CODE_CACHE_SIZE)
def _block_code(source: str) -> CodeType:
    """Compile one block's source to the code object of its function."""
    module = compile(source, "<block>", "exec")
    return next(
        const for const in module.co_consts if isinstance(const, CodeType)
    )


class Interpreter:
    """Executes one :class:`~repro.ir.program.Program` by compiled blocks.

    Each basic block runs as one generated Python function (see
    :func:`block_source`): its body is straight-line register and memory
    statements, and its terminator records the exit kind and returns the
    next bid.  A block is emitted and compiled the first time any run
    executes it, so blocks no input reaches cost nothing.  Code objects
    come from a process-wide cache keyed by the emitted source, which
    fully defines a block's behaviour; runs over the same program, later
    ``Interpreter`` objects built from it, and forked workers all reuse
    them.

    Run state (registers, memory, streams, call stack) is bound per run,
    so one ``Interpreter`` may be run from several threads at once.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        # Filled lazily by _code(); a racing fill writes the same object.
        self._codes: list[CodeType | None] = [None] * program.num_blocks

    def _code(self, bid: int) -> CodeType:
        """The compiled code of block ``bid`` (emitted on first use)."""
        program = self.program
        code = _block_code(block_source(
            program.blocks[bid],
            program.block_taken[bid],
            program.block_fall[bid],
            program.block_callee_entry[bid],
        ))
        self._codes[bid] = code
        return code

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
        output: list[int] = []
        call_stack: list[int] = []
        block_trace: list[int] = []
        via_trace: list[int] = []
        # Parameter defaults of every block function, in _RUN_NAMES order:
        # bound per run, read as fast locals.
        bound = (
            state.registers,
            state.memory,
            state.memory.get,
            functools.partial(next, iter(input_values), EOF_SENTINEL),
            output.append,
            via_trace.append,
            call_stack,
            call_stack.append,
            call_stack.pop,
            ExecutionError,
        )
        functions: list[FunctionType | None] = [None] * len(self._codes)
        codes = self._codes
        sizes = self.program.block_num_instructions
        trace = block_trace.append
        executed = 0

        bid = self.program.function_entry_bid[self.program.entry]
        while bid >= 0:
            executed += sizes[bid]
            if executed > max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} dynamic instructions "
                    f"(workload does not terminate?)"
                )
            trace(bid)
            function = functions[bid]
            if function is None:
                function = functions[bid] = FunctionType(
                    codes[bid] or self._code(bid), _GLOBALS, None, bound
                )
            bid = function()

        recorder = obs.current()
        if recorder.enabled:
            # One event per execution, stamped with the enclosing span
            # context (profiling vs. trace generation), so per-phase
            # instruction counts fall out of the run file for free.
            recorder.count("interp_instructions", executed)
            recorder.count("interp_runs", 1)
            recorder.observe("interp_run_instructions", executed)
            recorder.event(
                "interp_run",
                instructions=executed,
                blocks=len(block_trace),
                halted=True,
            )

        return ExecutionResult(
            block_ids=np.asarray(block_trace, dtype=np.int32),
            via=np.asarray(via_trace, dtype=np.uint8),
            output=output,
            state=state,
            instructions=executed,
            halted=True,
        )


def run_program(
    program: Program,
    input_values: Iterable[int] = (),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(program).run(
        input_values, max_instructions=max_instructions
    )
