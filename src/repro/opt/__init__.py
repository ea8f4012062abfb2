"""The optimizing middle-end: IR-to-IR passes ahead of placement.

The source paper's pipeline is an *optimizing* compiler first and a code
placer second — IMPACT-I runs classical optimizations before profiles
drive layout.  This package supplies that missing half: a pass driver
(:func:`~repro.opt.passes.run_opt`, configured by the pass list in
:class:`~repro.opt.passes.OptOptions`) and five classical passes over
the mini RISC IR:

``dce``         dead code elimination (global register liveness)
``lvn``         local value numbering + constant folding
``simplify``    branch folding, jump threading, block dedup/merging,
                unreachable-block removal
``licm``        loop-invariant code motion (dominator/natural-loop based)
``superblock``  tail duplication along the paper's selected traces
                (guard / commit / abort semantics)

Every pass consumes and produces a whole :class:`~repro.ir.program
.Program` (blocks are cloned, never shared with the input) and must
preserve observable semantics: the interpreter's OUT stream is the
correctness contract, enforced by the test matrix over every registered
workload.  :func:`~repro.opt.passes.run_opt` is the pipeline entry the
placement stage calls; with no passes configured it returns its input
untouched, which is what keeps the default tables byte-identical.
"""

from repro.opt.passes import (
    ALL_PASSES,
    PASS_NAMES,
    OptOptions,
    PassContext,
    PassReport,
    PipelineReport,
    run_opt,
)

__all__ = [
    "ALL_PASSES",
    "PASS_NAMES",
    "OptOptions",
    "PassContext",
    "PassReport",
    "PipelineReport",
    "run_opt",
]
