"""Instruction set of the mini RISC-like target machine.

The paper's IMPACT-I compiler emits code that "very closely match[es] the
physical code of a fixed instruction format (32 bits/instruction) RISC type
processor" (Section 4.2.3).  We model exactly that: every instruction is
4 bytes, and the instruction stream is the unit the instruction cache sees.

The opcode set is deliberately small but complete enough to write real
programs (the ten synthetic workloads in :mod:`repro.workloads` are ordinary
imperative programs: loops, hash tables, state machines, recursion).

Register convention (not enforced by hardware, only by ``r0``):

========  =======================================================
register  role
========  =======================================================
r0        hardwired zero (writes are rejected by validation)
r1-r7     argument / return-value registers
r8-r25    caller-managed temporaries
r26-r31   workload-global state registers
========  =======================================================

Control-transfer instructions terminate basic blocks; their successor labels
live on the :class:`~repro.ir.block.BasicBlock`, not on the instruction, so
that layout passes can rewire fall-through edges without touching operands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Size of every encoded instruction in bytes (fixed-format RISC).
INSTRUCTION_BYTES = 4

#: Number of architected registers.
NUM_REGISTERS = 32

#: Value produced by ``IN`` once the input stream is exhausted.
EOF_SENTINEL = -1


class Opcode(enum.IntEnum):
    """Opcodes of the mini ISA.

    Serialisation uses the names and the interpreter emits Python per
    opcode (:func:`repro.interp.interpreter.block_source`), so the integer
    values only need to be distinct.
    """

    # Arithmetic / logic (rd, rs1, rs2-or-imm).
    ADD = 0
    SUB = 1
    MUL = 2
    DIV = 3          # integer division; division by zero yields 0
    REM = 4          # remainder; modulo by zero yields 0
    AND = 5
    OR = 6
    XOR = 7
    SHL = 8
    SHR = 9
    SLT = 10         # rd = 1 if rs1 < op2 else 0

    # Data movement.
    LI = 11          # rd = imm
    MOV = 12         # rd = rs1
    LD = 13          # rd = memory[rs1 + imm]
    ST = 14          # memory[rs1 + imm] = rs2

    # Input / output ("system" semantics; never inlinable work).
    IN = 15          # rd = next input value, EOF_SENTINEL when exhausted
    OUT = 16         # emit rs1 to the output stream

    # No-op (used for padding and by the code-scaling transform).
    NOP = 17

    # Control transfers (always the last instruction of a basic block).
    JMP = 18         # unconditional; target is the block's taken successor
    BEQ = 19
    BNE = 20
    BLT = 21
    BGE = 22
    BLE = 23
    BGT = 24
    CALL = 25        # call the block's callee; resumes at the fall successor
    RET = 26
    HALT = 27


#: Conditional branch opcodes (two successors: taken and fall-through).
BRANCH_OPCODES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT}
)

#: All opcodes that terminate a basic block.
TERMINATOR_OPCODES = frozenset(
    BRANCH_OPCODES | {Opcode.JMP, Opcode.CALL, Opcode.RET, Opcode.HALT}
)

#: Opcodes that read ``rs2`` when ``imm`` is None.
_TWO_SOURCE_OPCODES = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
        Opcode.SLT,
    }
    | BRANCH_OPCODES
)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One 4-byte machine instruction.

    Exactly which fields are meaningful depends on the opcode:

    * ALU ops use ``rd``, ``rs1`` and either ``rs2`` (register form) or
      ``imm`` (immediate form); at most one of ``rs2``/``imm`` is set.
    * ``LD`` uses ``rd``, ``rs1`` (base) and ``imm`` (offset).
    * ``ST`` uses ``rs1`` (base), ``rs2`` (source) and ``imm`` (offset).
    * Branches compare ``rs1`` against ``rs2`` or ``imm``; the branch target
      is the enclosing block's *taken* successor.
    * ``CALL``/``JMP``/``RET``/``HALT`` carry no operands here; call targets
      live on the block.
    """

    op: Opcode
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int | None = None

    def __post_init__(self) -> None:
        if self.rs2 is not None and self.imm is not None:
            if self.op is not Opcode.ST and self.op is not Opcode.LD:
                raise ValueError(
                    f"{self.op.name}: rs2 and imm are mutually exclusive"
                )
        if self.op in _TWO_SOURCE_OPCODES:
            if self.rs2 is None and self.imm is None:
                raise ValueError(f"{self.op.name}: needs rs2 or imm")

    @property
    def is_terminator(self) -> bool:
        """Whether this instruction ends a basic block."""
        return self.op in TERMINATOR_OPCODES

    @property
    def is_branch(self) -> bool:
        """Whether this instruction is a conditional branch."""
        return self.op in BRANCH_OPCODES

    @property
    def size(self) -> int:
        """Encoded size in bytes (always 4 on this machine)."""
        return INSTRUCTION_BYTES

    def __str__(self) -> str:
        parts = [self.op.name.lower()]
        if self.rd is not None:
            parts.append(f"r{self.rd}")
        if self.rs1 is not None:
            parts.append(f"r{self.rs1}")
        if self.rs2 is not None:
            parts.append(f"r{self.rs2}")
        if self.imm is not None:
            parts.append(str(self.imm))
        return " ".join(parts)


#: Index of each canonical register name, ``"r0"``..``"r31"``.
_REGISTER_INDEX = {f"r{index}": index for index in range(NUM_REGISTERS)}


def parse_register(name: int | str) -> int:
    """Translate a register name like ``"r7"`` (or a bare int) to its index.

    Raises ``ValueError`` for anything outside ``r0``..``r31``.
    """
    if isinstance(name, str):
        index = _REGISTER_INDEX.get(name)
        if index is not None:
            return index
        if not name.startswith("r"):
            raise ValueError(f"bad register name: {name!r}")
        try:
            index = int(name[1:])
        except ValueError:
            raise ValueError(f"bad register name: {name!r}") from None
    else:
        index = int(name)
    if not 0 <= index < NUM_REGISTERS:
        raise ValueError(f"register out of range: {name!r}")
    return index
