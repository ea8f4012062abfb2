"""Function inline expansion (paper Section 3, Step 2).

"The function calls (arcs in the weighted call graph) with high execution
count are replaced with the function body if possible."  The goal is to
turn the important inter-function control transfers into intra-function
ones: larger function bodies give trace selection more to work with, and
removing calls removes potential cache mapping conflicts between
interacting functions.

"If possible" excludes, as in the paper:

* system calls (the paper's ``tee`` copies data through ``read``/``write``
  and keeps its high call frequency);
* recursive functions (any function on a static call-graph cycle);
* sites whose expansion would blow the static code-growth budget.

Mechanically, inlining a call site splices a fresh clone of the callee's
blocks into the caller: the ``CALL`` terminator becomes a ``JMP`` to the
cloned entry and every cloned ``RET`` becomes a ``JMP`` to the call's
continuation block.  Because the machine has a global register file and no
architected frames (DESIGN.md choice #3), the splice is semantics
preserving by construction — a property the test suite checks by
differential interpretation.

The splice is also *trace preserving*: every CALL→JMP and RET→JMP rewrite
keeps one dynamic block per executed block.  The inliner records where
each block of the result came from (:attr:`InlineReport.origins`), and
:mod:`repro.placement.contexts` projects a calling-context profile of the
pre-inline runs through those origins — the post-inline profile and the
placed-program trace then follow without interpreting again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.placement.profile_data import ProfileData

__all__ = [
    "InlinePolicy",
    "InlineReport",
    "InlinedSite",
    "inline_expand",
]

#: Where a block of the inlined program came from: the chain of pre-inline
#: call-site bids it was cloned through (``()`` if never cloned) and its
#: pre-inline bid.
Origin = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class InlinePolicy:
    """Tunable knobs of the inliner.

    Attributes
    ----------
    min_call_fraction:
        A call site is a candidate only if its dynamic count is at least
        this fraction of all dynamic calls.
    min_call_count:
        ...and at least this many dynamic calls in absolute terms.  This is
        what keeps once-per-run calls (wc's setup/report) out: the paper's
        wc and tee show 0% code increase because nothing in them is called
        frequently.
    max_code_growth:
        Stop inlining once total static instructions would exceed this
        multiple of the original program's.
    min_growth_instructions:
        Absolute growth floor: small programs may always grow by at least
        this many instructions even when the multiplicative budget is
        tighter (a 150-instruction utility would otherwise never be able
        to inline its one hot helper).
    max_callee_instructions:
        Never inline a callee bigger than this (static instructions).
    """

    min_call_fraction: float = 0.001
    min_call_count: int = 500
    max_code_growth: float = 1.3
    min_growth_instructions: int = 250
    max_callee_instructions: int = 2000


@dataclass(frozen=True)
class InlinedSite:
    """One call site that was expanded."""

    caller: str
    block: str
    callee: str
    weight: int


@dataclass(eq=False)
class InlineReport:
    """What the inliner did — the raw material of the paper's Table 3.

    Compared by identity, so projections can key tables by report.
    """

    original_instructions: int
    final_instructions: int
    total_dynamic_calls: int
    eliminated_dynamic_calls: int
    inlined_sites: list[InlinedSite] = field(default_factory=list)
    skipped_recursive: int = 0
    skipped_syscall: int = 0
    skipped_budget: int = 0
    skipped_cold: int = 0
    #: Per block of the inlined program (indexed by its bid): its
    #: :data:`Origin` in the pre-inline program.
    origins: list[Origin] = field(default_factory=list, repr=False)

    @property
    def code_increase_pct(self) -> float:
        """Static code growth ("code inc" column of Table 3)."""
        if self.original_instructions == 0:
            return 0.0
        return 100.0 * (
            self.final_instructions - self.original_instructions
        ) / self.original_instructions

    @property
    def call_decrease_pct(self) -> float:
        """Dynamic calls eliminated ("call dec" column of Table 3)."""
        if self.total_dynamic_calls == 0:
            return 0.0
        return 100.0 * self.eliminated_dynamic_calls / self.total_dynamic_calls


def inline_expand(
    program: Program,
    profile: ProfileData,
    policy: InlinePolicy = InlinePolicy(),
) -> tuple[Program, InlineReport]:
    """Inline hot call sites; returns a fresh program and a report.

    The input program is not mutated.  Call sites are processed in
    decreasing dynamic weight so the budget is spent on the calls that
    matter; sites created *by* inlining (calls inside cloned bodies) are
    not re-expanded — this is the paper's single-pass expansion over the
    profiled call graph.
    """
    recursive = program.recursive_functions()
    total_calls = profile.dynamic_calls

    # Mutable working copy: function name -> list of blocks.
    working: dict[str, list[BasicBlock]] = {
        function.name: [block.clone({}) for block in function.blocks]
        for function in program
    }
    # Parallel to ``working``: each block's origin in ``program``.
    origins: dict[str, list[Origin]] = {
        function.name: [((), block.bid) for block in function.blocks]
        for function in program
    }
    syscalls = {f.name for f in program if f.is_syscall}

    sites = sorted(
        (arc for arc in profile.call_arcs() if arc.weight > 0),
        key=lambda arc: (-arc.weight, arc.caller, arc.site),
    )

    report = InlineReport(
        original_instructions=program.num_instructions,
        final_instructions=program.num_instructions,
        total_dynamic_calls=total_calls,
        eliminated_dynamic_calls=0,
    )

    current_instructions = program.num_instructions
    budget = program.num_instructions + max(
        int((policy.max_code_growth - 1.0) * program.num_instructions),
        policy.min_growth_instructions,
    )
    clone_counter = 0

    for arc in sites:
        if arc.weight < policy.min_call_count or (
            total_calls
            and arc.weight / total_calls < policy.min_call_fraction
        ):
            report.skipped_cold += 1
            continue
        if arc.callee in syscalls:
            report.skipped_syscall += 1
            continue
        if arc.callee in recursive or arc.caller == arc.callee:
            report.skipped_recursive += 1
            continue

        callee_blocks = working[arc.callee]
        callee_size = sum(b.num_instructions for b in callee_blocks)
        if callee_size > policy.max_callee_instructions:
            report.skipped_budget += 1
            continue
        # Expansion cost: the callee body, minus the call that becomes a
        # jump (net zero), with each RET also becoming a JMP (net zero).
        if current_instructions + callee_size > budget:
            report.skipped_budget += 1
            continue

        caller_blocks = working[arc.caller]
        site_name = program.blocks[arc.site].name
        site_block = next(
            (b for b in caller_blocks
             if b.name == site_name and b.callee == arc.callee),
            None,
        )
        if site_block is None:
            # The site disappeared (defensive: a block has exactly one
            # call, so each site is expanded at most once).
            continue

        clone_counter += 1
        prefix = f"__inl{clone_counter}__"
        rename = {b.name: prefix + b.name for b in callee_blocks}
        continuation = site_block.fall
        assert continuation is not None

        cloned: list[BasicBlock] = []
        for block in callee_blocks:
            copy = block.clone(rename)
            if copy.kind is Opcode.RET:
                copy = BasicBlock(
                    name=copy.name,
                    instructions=copy.instructions[:-1]
                    + [Instruction(Opcode.JMP)],
                    taken=continuation,
                    fall=None,
                    callee=None,
                )
            cloned.append(copy)

        entry_label = rename[callee_blocks[0].name]
        new_site = BasicBlock(
            name=site_block.name,
            instructions=site_block.instructions[:-1]
            + [Instruction(Opcode.JMP)],
            taken=entry_label,
            fall=None,
            callee=None,
        )
        index = caller_blocks.index(site_block)
        caller_blocks[index] = new_site
        # Splice the clone right after the call site, mimicking
        # source-level expansion in the natural layout.
        caller_blocks[index + 1: index + 1] = cloned
        # A clone's chain is the site's own chain, the site, then the
        # chain the callee block already carried (nested expansion).
        site_chain, site_bid = origins[arc.caller][index]
        chain = site_chain + (site_bid,)
        origins[arc.caller][index + 1: index + 1] = [
            (chain + callee_chain, bid)
            for callee_chain, bid in origins[arc.callee]
        ]

        current_instructions += callee_size
        report.eliminated_dynamic_calls += arc.weight
        report.inlined_sites.append(
            InlinedSite(arc.caller, site_block.name, arc.callee, arc.weight)
        )

    report.final_instructions = current_instructions
    report.origins = [
        origin for function in program for origin in origins[function.name]
    ]

    functions = [
        Function(
            name=function.name,
            blocks=working[function.name],
            is_syscall=function.is_syscall,
        )
        for function in program
    ]
    inlined = Program(functions, entry=program.entry)
    validate_program(inlined)
    return inlined, report

