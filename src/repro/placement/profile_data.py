"""Profile data: the weighted call graph and weighted control graphs.

This is the information Section 3 Step 1 of the paper gathers with probe
function calls: "a weighted call graph [in which] all the nodes and arcs
are marked with their execution frequencies", each node of which "is
represented by a weighted control graph".

We store weights in dense per-block arrays (indexed by global bid) and
derive arc weights from them: because every arc's source block and exit
kind determine the destination statically, a taken/fall execution count per
block *is* the arc weight.  The approximation documented in DESIGN.md: the
call-continuation arc weight equals the call block's execution count
(exact unless a callee halts the machine instead of returning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from repro.ir.function import Function
from repro.ir.program import Program

__all__ = ["ProfileData", "ControlArc", "CallArc"]


class ControlArc(NamedTuple):
    """One weighted intra-function control-graph arc."""

    src: int          # source bid
    dst: int          # destination bid
    kind: str         # "taken", "fall", or "call_fall"
    weight: int


@dataclass(frozen=True)
class CallArc:
    """One weighted call-graph arc (a specific call site)."""

    caller: str
    callee: str
    site: int         # bid of the CALL-terminated block
    weight: int


@dataclass
class ProfileData:
    """Aggregated execution frequencies over one or more profiling runs.

    Attributes
    ----------
    program:
        The program these weights index into (bids must match).
    num_runs:
        Number of profiling inputs merged in.
    block_weights:
        ``int64[num_blocks]`` — executions of each block.
    taken_weights / fall_weights:
        ``int64[num_blocks]`` — conditional-branch exits per direction.
    dynamic_instructions:
        Total instructions executed across all runs.
    control_transfers:
        Dynamic count of control transfers other than call/return
        (executed conditional branches, taken or not, plus unconditional
        jumps) — the paper's Table 2 "control" column.
    dynamic_calls:
        Dynamic count of executed CALL instructions.
    run_instructions:
        Per-run dynamic instruction counts, in run order.
    """

    program: Program
    num_runs: int = 0
    block_weights: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    taken_weights: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    fall_weights: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    dynamic_instructions: int = 0
    control_transfers: int = 0
    dynamic_calls: int = 0
    run_instructions: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.program.num_blocks
        if len(self.block_weights) == 0:
            self.block_weights = np.zeros(n, np.int64)
            self.taken_weights = np.zeros(n, np.int64)
            self.fall_weights = np.zeros(n, np.int64)
        elif len(self.block_weights) != n:
            raise ValueError("profile arrays do not match program size")

    # -- node weights ----------------------------------------------------

    def block_weight(self, bid: int) -> int:
        """Execution count of one block."""
        return int(self.block_weights[bid])

    def function_weight(self, name: str) -> int:
        """Invocation count of a function (executions of its entry block)."""
        return int(self.block_weights[self.program.function_entry_bid[name]])

    # -- arc weights -----------------------------------------------------

    def control_arcs(self, function: Function) -> Iterator[ControlArc]:
        """Weighted intra-function arcs of ``function``'s control graph.

        A valid program gives a JMP only a taken successor, a conditional
        branch both, a CALL only its continuation and a RET or HALT none,
        so the program's successor tables tell the kinds apart.
        """
        program = self.program
        bids = [block.bid for block in function.blocks]
        # One conversion per weight array, not one per arc.
        for bid, weight, taken, fall in zip(
            bids, self.block_weights[bids].tolist(),
            self.taken_weights[bids].tolist(),
            self.fall_weights[bids].tolist(),
        ):
            dst, cont = program.block_taken[bid], program.block_fall[bid]
            if program.block_callee_entry[bid] >= 0:
                yield ControlArc(bid, cont, "call_fall", weight)
            elif cont >= 0:
                yield ControlArc(bid, dst, "taken", taken)
                yield ControlArc(bid, cont, "fall", fall)
            elif dst >= 0:
                yield ControlArc(bid, dst, "taken", weight)

    def call_arcs(self) -> Iterator[CallArc]:
        """Weighted call-graph arcs (one per static call site)."""
        for function in self.program:
            for block in function.blocks:
                if block.callee is None:
                    continue
                bid = block.bid
                assert bid is not None
                yield CallArc(
                    caller=function.name,
                    callee=block.callee,
                    site=bid,
                    weight=int(self.block_weights[bid]),
                )

    def call_graph_weights(self) -> dict[tuple[str, str], int]:
        """Caller/callee pair weights, summed over call sites.

        Self-arcs are zeroed, matching the appendix GlobalLayout pseudo-code
        (``weight(X, X) = 0``).
        """
        weights: dict[tuple[str, str], int] = {}
        for arc in self.call_arcs():
            if arc.caller == arc.callee:
                continue
            key = (arc.caller, arc.callee)
            weights[key] = weights.get(key, 0) + arc.weight
        return weights

    # -- derived scalars ---------------------------------------------------

    @property
    def instructions_per_call(self) -> float:
        """Average dynamic instructions between dynamic function calls."""
        if self.dynamic_calls == 0:
            return float(self.dynamic_instructions)
        return self.dynamic_instructions / self.dynamic_calls

    @property
    def control_transfers_per_call(self) -> float:
        """Average non-call control transfers between dynamic calls."""
        if self.dynamic_calls == 0:
            return float(self.control_transfers)
        return self.control_transfers / self.dynamic_calls

    def effective_blocks(self) -> np.ndarray:
        """Boolean mask over bids: blocks with non-zero execution count.

        These form each function's "effective" region in the paper's
        terminology; zero-weight blocks form the "non-executed" region.
        """
        return self.block_weights > 0
