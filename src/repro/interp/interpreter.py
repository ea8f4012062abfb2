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

Execution is compiled, at two grains.  The first time a run reaches a
basic block, :func:`block_source` emits it as one Python function of
straight-line statements (``r[3] = r[1] + (4)``, ``m[r[2] + (8)] = r[5]``)
whose terminator returns the next bid.  From a program's second run on,
its hot paths also run as *regions*: the paper's own Step 3 selector
(:func:`~repro.placement.trace_selection.select_traces`) picks traces on
the first run's profile, and :mod:`repro.interp.regions` emits one
function per trace head and per return point after a hot call.  A region
runs its blocks inline and stays on its trace through guarded branches;
an if/else diamond becomes a Python ``if``/``else``, a call runs inline
up to its RET, and a back edge to the head becomes a ``while`` loop.
Every exit
appends the bids it ran to the block trace as one constant ``bytes`` and
returns the next bid.  Code objects come from bounded process-wide
caches keyed by the emitted source, which is the whole behaviour, so
nothing else has to be fingerprinted.  A program's compiled blocks,
first-run counts and regions are kept per ``Program`` object for as long
as it lives; the experiment runner builds each workload's program once
per process, so they serve every request for that program, not one.

:meth:`Interpreter.run` is then a small loop over block ids.  While the
trace is short enough that one more pass through any function surely
fits the instruction budget, it only appends and calls; near the limit it
finishes block by block with exact accounting, so no block past
``max_instructions`` ever executes.  The instruction count and the exit
kinds are derived from the block trace afterwards with numpy.
``tests/interp_reference.py`` keeps the opcode-dispatch loop all this
replaced, as the differential oracle (DESIGN.md, key choice 8).
"""

from __future__ import annotations

import array
import functools
import time
import weakref
from collections.abc import Iterable
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.interp.machine import MachineState
from repro.ir.block import BasicBlock
from repro.ir.instructions import EOF_SENTINEL, Instruction, Opcode
from repro.ir.program import Program

if TYPE_CHECKING:
    from repro.interp.regions import Regions

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

#: Most blocks one region (:mod:`repro.interp.regions`) emits.  This
#: bounds a region's compile time, and so the blocks one pass through it
#: executes: from its head to an exit, or to the back edge that starts
#: the next iteration.  The budget check here relies on that bound.
REGION_MAX_BLOCKS = 32

#: Parameters of every block and region function; ``Interpreter.run``
#: binds them per run as the defaults, so a function reads its run state
#: as locals.
_RUN_NAMES = "r, m, M, I, O, D, K, S, P, E, T, L, B, G"

#: One level of indentation in emitted source.
_PAD = "    "

#: ``array`` type code of the block trace: native ``int32``, so a region
#: records a path by appending one constant ``bytes`` and the finished
#: trace is the ``block_ids`` array without a conversion.
_BID_TYPECODE = "i"
assert array.array(_BID_TYPECODE).itemsize == np.dtype(np.int32).itemsize

#: Globals of every block and region function: nothing, not even builtins.
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

#: Each comparison's negation, for a guard on a branch's fall direction.
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


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


def _condition(instr: Instruction, taken: bool = True) -> str:
    """A conditional branch's test, or its negation for ``taken=False``."""
    symbol = _BRANCH_COMPARISONS[instr.op]
    if not taken:
        symbol = _NEGATED[symbol]
    return f"r[{instr.rs1}] {symbol} {_operand(instr)}"


def _direction(instr: Instruction) -> str:
    """Record which way a branch whose successors are one block went."""
    return f"D({VIA_TAKEN} if {_condition(instr)} else {VIA_FALL})"


def _exit(instr: Instruction, taken: int, fall: int, callee: int) -> list[str]:
    """Python statements for a block's terminator.

    Each returns the next bid (``-1`` after HALT).  ``K`` is the call
    stack, ``S``/``P`` its ``append``/``pop``, and ``E`` is
    :class:`ExecutionError`.  A run derives every exit kind from its block
    trace, except at a branch whose successors are one block: that
    records its direction through ``D``.
    """
    op = instr.op
    if op is Opcode.JMP:
        return [f"return {taken}"]
    if op is Opcode.CALL:
        return [f"S({fall})", f"return {callee}"]
    if op is Opcode.RET:
        return [
            "if K:",
            "    return P()",
            "raise E('RET with empty call stack')",
        ]
    if op is Opcode.HALT:
        return ["return -1"]
    if op in _BRANCH_COMPARISONS:
        if taken == fall:
            return [_direction(instr), f"return {taken}"]
        return [
            f"if {_condition(instr)}:",
            f"    return {taken}",
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


def _compile(source: str, kind: str) -> CodeType:
    """Compile one function's source to its code object.

    Runs only on a miss in the code cache, so it counts what compiling
    costs on the ambient recorder.
    """
    start = time.perf_counter()
    module = compile(source, f"<{kind}>", "exec")
    code = next(
        const for const in module.co_consts if isinstance(const, CodeType)
    )
    recorder = obs.current()
    if recorder.enabled:
        recorder.count(f"interp_compiled_{kind}s", 1)
        recorder.count("interp_compile_s", time.perf_counter() - start)
    return code


@functools.lru_cache(maxsize=BLOCK_CODE_CACHE_SIZE)
def _block_code(source: str) -> CodeType:
    """The code object of one block's function."""
    return _compile(source, "block")


class _ProgramCode:
    """The compiled code of one program, shared by all its runs.

    Block code objects fill in on first use; a racing fill writes the same
    object.  After the program's first run, ``counts`` holds that run's
    executions, taken and fall exits of each block, and the next run
    forms the :class:`~repro.interp.regions.Regions` from them, so a
    program that runs once
    pays for none.  The numpy tables derive a run's instruction count and
    exit kinds from its block trace.
    """

    def __init__(self, program: Program) -> None:
        #: ``Program.finalize`` replaces this list, retiring this object.
        self.blocks = program.blocks
        self.codes: list[CodeType | None] = [None] * program.num_blocks
        self.counts: np.ndarray | None = None
        self.regions: Regions | None = None
        self.largest = max(program.block_num_instructions)
        self.sizes = np.asarray(program.block_num_instructions, np.int32)
        taken = np.asarray(program.block_taken, np.int32)
        branches = np.array(
            [block.terminator.is_branch for block in program.blocks], bool
        )
        one_way = taken == np.asarray(program.block_fall, np.int32)
        two_way = branches & ~one_way
        #: ``VIA_FALL`` at a branch whose exit kind the block trace shows,
        #: else ``VIA_TERM``.
        self.fall_via = np.where(two_way, VIA_FALL, VIA_TERM).astype(np.uint8)
        #: The taken successor of such a branch, else -1 (no bid).
        self.taken_of = np.where(two_way, taken, -1).astype(np.int32)
        #: Branches with one successor, which record their direction.
        self.one_way = branches & one_way

    def block(self, program: Program, bid: int) -> CodeType:
        """The code of block ``bid`` (emitted on first use)."""
        code = self.codes[bid]
        if code is None:
            code = self.codes[bid] = _block_code(block_source(
                program.blocks[bid],
                program.block_taken[bid],
                program.block_fall[bid],
                program.block_callee_entry[bid],
            ))
        return code


#: The compiled code of each program that has run, for as long as the
#: program lives: every run of it shares it, whichever ``Interpreter``
#: runs it.  The experiment runner keeps one program per workload
#: builder, so all requests for a workload share it.
_PROGRAMS: weakref.WeakKeyDictionary[Program, _ProgramCode] = (
    weakref.WeakKeyDictionary()
)


def _program_code(program: Program) -> _ProgramCode:
    """The current :class:`_ProgramCode` of ``program``."""
    code = _PROGRAMS.get(program)
    if code is None or code.blocks is not program.blocks:
        code = _PROGRAMS[program] = _ProgramCode(program)
    return code


class Interpreter:
    """Executes one :class:`~repro.ir.program.Program` by compiled code.

    Each basic block runs as one generated Python function (see
    :func:`block_source`), emitted and compiled the first time any run
    executes it, so blocks no input reaches cost nothing.  From the
    program's second run on, hot paths run as regions (see
    :mod:`repro.interp.regions`): each trace head the paper's selector picks on
    the first run's profile, and each return point after a call that run
    executed, starts one function that runs many blocks per call.  All of
    this is kept per ``Program`` object for as long as it lives, so every
    ``Interpreter`` of one program shares it: with the experiment runner's
    one program per workload builder, every request for a workload after
    the first runs its regions from its first run.  Code objects come from
    process-wide caches keyed by the emitted source, so other programs
    with the same blocks and forked workers reuse them.

    Run state (registers, memory, streams, call stack, block trace) is
    bound per run, so one ``Interpreter`` may be run from several threads
    at once.
    """

    def __init__(self, program: Program) -> None:
        self.program = program

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
        program = self.program
        compiled = _program_code(program)
        regions = compiled.regions
        if regions is None and compiled.counts is not None:
            # Racing runs may each form the same regions; the last stays.
            # Imported here: a process whose programs each run once never
            # needs it, and it imports the placement package.
            from repro.interp.regions import Regions

            regions = compiled.regions = Regions(program, compiled.counts)
        state = initial_state.copy() if initial_state else MachineState()
        output: list[int] = []
        call_stack: list[int] = []
        block_trace = array.array(_BID_TYPECODE)
        directions: list[int] = []
        # While the trace holds at most ``limit`` blocks, one more pass
        # through any block or region (at most REGION_MAX_BLOCKS blocks,
        # none longer than the largest) surely fits the budget.
        limit = max_instructions // compiled.largest - REGION_MAX_BLOCKS
        # Parameter defaults of every function, in _RUN_NAMES order:
        # bound per run, read as fast locals.
        bound = (
            state.registers,
            state.memory,
            state.memory.get,
            functools.partial(next, iter(input_values), EOF_SENTINEL),
            output.append,
            directions.append,
            call_stack,
            call_stack.append,
            call_stack.pop,
            ExecutionError,
            block_trace.frombytes,
            len,
            block_trace,
            limit,
        )
        functions: list[FunctionType | None] = [None] * len(compiled.codes)
        trace = block_trace.append

        bid = program.function_entry_bid[program.entry]
        while bid >= 0 and len(block_trace) <= limit:
            trace(bid)
            function = functions[bid]
            if function is None:
                code = regions and regions.code(program, bid)
                function = functions[bid] = FunctionType(
                    code or compiled.block(program, bid),
                    _GLOBALS, None, bound,
                )
            bid = function()

        if bid >= 0:
            # Near the limit: block by block, charging each before it runs.
            sizes = program.block_num_instructions
            executed = sum(map(sizes.__getitem__, block_trace))
            blocks: list[FunctionType | None] = [None] * len(functions)
            while bid >= 0:
                executed += sizes[bid]
                if executed > max_instructions:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_instructions} dynamic instructions "
                        f"(workload does not terminate?)"
                    )
                trace(bid)
                function = blocks[bid]
                if function is None:
                    function = blocks[bid] = FunctionType(
                        compiled.block(program, bid), _GLOBALS, None, bound
                    )
                bid = function()

        block_ids = np.frombuffer(block_trace, dtype=np.int32)
        executed = int(compiled.sizes.take(block_ids).sum(dtype=np.int64))
        # A two-way branch was taken iff the next block is its taken
        # successor (VIA_FALL - 1 is VIA_TAKEN); the last block is the
        # HALT.  ``take`` gathers about twice as fast as indexing.
        via = compiled.fall_via.take(block_ids)
        via[:-1] -= compiled.taken_of.take(block_ids[:-1]) == block_ids[1:]
        if directions:
            via[np.flatnonzero(compiled.one_way.take(block_ids))] = directions
        if compiled.counts is None:
            compiled.counts = np.bincount(
                block_ids * 3 + via, minlength=3 * len(functions)
            ).reshape(-1, 3)

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
            block_ids=block_ids,
            via=via,
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
