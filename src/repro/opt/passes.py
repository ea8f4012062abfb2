"""The pass pipeline: configuration, reports, and the driver.

:class:`OptOptions` is the frozen pass list the placement options embed
(and the part of them that keys an artifact-store entry), and
:func:`run_opt` is the driver the placement pipeline calls: it threads a
program through the configured passes in order, wraps each in an obs
span, records before/after IR stats per pass, and re-validates the IR
(structure + no orphan blocks) after every pass so a transform bug
surfaces at its source.

With no passes configured, :func:`run_opt` returns the *same* program
object it was given — identity, not a copy — which is what keeps the
no-opt pipeline byte-identical to a build without this subsystem.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import obs
from repro.ir.program import Program
from repro.ir.validate import validate_optimized
from repro.opt.dce import run_dce
from repro.opt.licm import run_licm
from repro.opt.lvn import run_lvn
from repro.opt.simplify import run_simplify
from repro.opt.superblock import run_superblock

__all__ = [
    "ALL_PASSES",
    "PASS_NAMES",
    "PASS_REGISTRY",
    "OptOptions",
    "PassContext",
    "PassReport",
    "PipelineReport",
    "run_opt",
]

#: Every registered pass, keyed by the name used on the CLI / in options.
PASS_REGISTRY: dict[str, Callable] = {
    "dce": run_dce,
    "lvn": run_lvn,
    "simplify": run_simplify,
    "licm": run_licm,
    "superblock": run_superblock,
}

#: Registered pass names, in alphabetical (documentation) order.
PASS_NAMES = tuple(sorted(PASS_REGISTRY))

#: What ``--opt all`` expands to: every pass, in the order that
#: compounds best — LVN folds constants and decides branches, simplify
#: threads/dedups/merges the control flow that falls out, DCE sweeps
#: the values LVN orphaned, then LICM and superblock restructure.
ALL_PASSES = ("lvn", "simplify", "dce", "licm", "superblock")


@dataclass(frozen=True)
class OptOptions:
    """Middle-end configuration embedded in ``PlacementOptions``.

    Attributes
    ----------
    passes:
        Pass names to run, in order.  Empty (the default) disables the
        middle-end entirely.
    """

    passes: tuple[str, ...] = ()

    @classmethod
    def parse(cls, spec: object) -> "OptOptions":
        """Build options from a CLI/service pass spec.

        ``None``/``""``/``"none"`` -> no passes; ``"all"`` -> the full
        :data:`ALL_PASSES` order; otherwise a comma-separated list of
        registered pass names.  Raises ``ValueError`` on unknown names.
        """
        if spec is None:
            names: tuple[str, ...] = ()
        elif isinstance(spec, (tuple, list)):
            names = tuple(spec)
        elif isinstance(spec, str):
            text = spec.strip().lower()
            if text in ("", "none"):
                names = ()
            elif text == "all":
                names = ALL_PASSES
            else:
                names = tuple(
                    part.strip() for part in text.split(",") if part.strip()
                )
        else:
            raise ValueError(f"bad pass spec: {spec!r}")
        unknown = [name for name in names if name not in PASS_REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown pass(es) {', '.join(unknown)}; "
                f"choose from {', '.join(PASS_NAMES)} (or 'all'/'none')"
            )
        return cls(passes=names)

    @property
    def spec(self) -> str:
        """Canonical spec string (``"none"`` when disabled)."""
        return ",".join(self.passes) or "none"


@dataclass
class PassContext:
    """Shared state passes can reach while the pipeline runs."""

    profile_source: Callable[[Program], object] | None = None
    #: Profiles gathered via :meth:`profile`, in request order — the
    #: pipeline persists these so cached runs can replay them.
    profiles: list = field(default_factory=list)

    def profile(self, program: Program):
        """Profile ``program`` via the pipeline-supplied source."""
        if self.profile_source is None:
            raise RuntimeError(
                "this pass needs a profile source (profile-driven passes "
                "cannot run without profiling inputs)"
            )
        profile = self.profile_source(program)
        self.profiles.append(profile)
        return profile


@dataclass(frozen=True)
class PassReport:
    """Before/after IR stats for one executed pass."""

    name: str
    before_blocks: int
    before_instructions: int
    after_blocks: int
    after_instructions: int
    wall_s: float

    @property
    def instructions_removed(self) -> int:
        """Net instructions removed (negative when the pass grew code)."""
        return self.before_instructions - self.after_instructions


@dataclass(frozen=True)
class PipelineReport:
    """Stats for one full pipeline run."""

    passes: tuple[PassReport, ...] = ()

    @property
    def before_instructions(self) -> int:
        return self.passes[0].before_instructions if self.passes else 0

    @property
    def after_instructions(self) -> int:
        return self.passes[-1].after_instructions if self.passes else 0

    @property
    def instructions_removed(self) -> int:
        return self.before_instructions - self.after_instructions


def run_opt(
    program: Program,
    options: OptOptions,
    profile_source: Callable[[Program], object] | None = None,
) -> tuple[Program, PipelineReport, list]:
    """Run the configured passes over ``program``.

    Returns ``(program, report, profiles)`` where ``profiles`` lists any
    profiles the passes requested (in order), so callers can persist and
    later replay them deterministically.  With no passes configured the
    input program is returned unchanged (the identical object).
    """
    if not options.passes:
        return program, PipelineReport(), []
    recorder = obs.current()
    ctx = PassContext(profile_source=profile_source)
    reports: list[PassReport] = []
    current = program
    with recorder.span("opt", cat="opt", passes=options.spec):
        for name in options.passes:
            before_blocks = current.num_blocks
            before_instructions = current.num_instructions
            start = time.perf_counter()
            with recorder.span(f"opt.{name}", cat="opt", pass_name=name):
                current = PASS_REGISTRY[name](current, ctx)
                validate_optimized(current)
            reports.append(
                PassReport(
                    name=name,
                    before_blocks=before_blocks,
                    before_instructions=before_instructions,
                    after_blocks=current.num_blocks,
                    after_instructions=current.num_instructions,
                    wall_s=time.perf_counter() - start,
                )
            )
            recorder.event(
                "opt.pass",
                pass_name=name,
                instructions_removed=reports[-1].instructions_removed,
            )
    return current, PipelineReport(tuple(reports)), ctx.profiles
