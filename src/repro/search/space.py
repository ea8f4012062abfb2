"""Declarative model of the placement/cache design space.

The paper fixes its knobs by hand: ``MIN_PROB = 0.7`` (appendix), a 30%
inline code-growth budget with a 500-call hotness floor (Section 3,
Table 3), one layout algorithm, and a handful of cache geometries per
table.  This module turns those choices into first-class *axes* so the
autotuner (``repro tune``) can ask whether they are actually optimal:

* an :class:`Axis` is a named, finite set of values (categorical, int,
  or float) with the paper's choice as its default;
* a :class:`SearchSpace` is an ordered tuple of axes with deterministic
  sampling, full-grid enumeration, and content fingerprints;
* :func:`placement_options` lowers the placement-affecting subset of a
  candidate into a :class:`~repro.placement.pipeline.PlacementOptions`,
  such that the default candidate maps to ``PlacementOptions()``
  **exactly** — the default trial therefore places exactly as ordinary
  table runs do.  Store entries hold executions, keyed by the ``opt``
  axis alone, so candidates with the same passes share one.

A *candidate* is a plain ``{axis name: value}`` dict, JSON-roundtrippable
so trial logs can be reloaded and re-analysed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from collections.abc import Iterator, Mapping

from repro.placement.inline import InlinePolicy
from repro.placement.pipeline import PlacementOptions
from repro.placement.trace_selection import MIN_PROB

__all__ = [
    "Axis",
    "SearchSpace",
    "categorical",
    "default_space",
    "integer",
    "placement_options",
    "real",
    "OPT_CHOICES",
    "LAYOUT_CHOICES",
]

#: Middle-end pass configurations the ``opt`` axis can select: nothing
#: (the paper default), pure clean-up, progressively larger scalar pass
#: stacks, and the full stack including superblock speculation.
OPT_CHOICES = (
    "none",
    "dce",
    "lvn,simplify,dce",
    "lvn,simplify,dce,licm",
    "all",
)

#: Layout algorithms the evaluator can replay a trace under:
#: the paper's five-step pipeline, the Pettis-Hansen follow-on, the
#: conflict-aware refinement, and the unoptimized baseline.
LAYOUT_CHOICES = ("optimized", "pettis_hansen", "conflict_aware", "natural")

_AXIS_KINDS = ("categorical", "int", "float")

#: The paper's inline knobs, used as axis defaults.
_PAPER_INLINE = InlinePolicy()


@dataclass(frozen=True)
class Axis:
    """One tunable dimension: a finite value set plus the paper's default."""

    name: str
    kind: str                 # "categorical" | "int" | "float"
    values: tuple
    default: object

    def __post_init__(self) -> None:
        if self.kind not in _AXIS_KINDS:
            raise ValueError(
                f"axis {self.name!r}: kind must be one of {_AXIS_KINDS}, "
                f"got {self.kind!r}"
            )
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate values")
        if self.default not in self.values:
            raise ValueError(
                f"axis {self.name!r}: default {self.default!r} is not "
                f"among its values"
            )

    def validate(self, value) -> None:
        if value not in self.values:
            raise ValueError(
                f"axis {self.name!r}: {value!r} is not one of {self.values}"
            )


def categorical(name: str, values, default) -> Axis:
    """A categorical axis (e.g. the layout algorithm)."""
    return Axis(name=name, kind="categorical",
                values=tuple(values), default=default)


def integer(name: str, values, default) -> Axis:
    """An integer axis (e.g. cache size in bytes)."""
    return Axis(name=name, kind="int",
                values=tuple(int(v) for v in values), default=int(default))


def real(name: str, values, default) -> Axis:
    """A float axis (e.g. MIN_PROB)."""
    return Axis(name=name, kind="float",
                values=tuple(float(v) for v in values), default=float(default))


@dataclass(frozen=True)
class SearchSpace:
    """An ordered collection of axes over which strategies search."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    @property
    def size(self) -> int:
        """Number of points in the full grid."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"unknown axis {name!r}; known: {list(self.names)}")

    def default_candidate(self) -> dict:
        """The paper's configuration, as a candidate."""
        return {axis.name: axis.default for axis in self.axes}

    def sample(self, rng) -> dict:
        """One uniform draw per axis, in axis order (deterministic given
        the RNG state)."""
        return {axis.name: rng.choice(axis.values) for axis in self.axes}

    def grid(self) -> Iterator[dict]:
        """Every candidate, last axis varying fastest."""
        for values in itertools.product(*(axis.values for axis in self.axes)):
            yield dict(zip(self.names, values))

    def restrict(self, names) -> SearchSpace:
        """Pin every axis *not* named to its default (single value).

        This is what ``repro tune --axes min_prob,cache_bytes`` uses to
        make small, interpretable grids.
        """
        names = tuple(names)
        for name in names:
            self.axis(name)       # raise on unknown names
        return SearchSpace(axes=tuple(
            axis if axis.name in names
            else Axis(name=axis.name, kind=axis.kind,
                      values=(axis.default,), default=axis.default)
            for axis in self.axes
        ))

    def validate(self, candidate: Mapping) -> None:
        """Check a candidate assigns a legal value to every axis."""
        for axis in self.axes:
            if axis.name not in candidate:
                raise ValueError(f"candidate is missing axis {axis.name!r}")
            axis.validate(candidate[axis.name])
        unknown = set(candidate) - set(self.names)
        if unknown:
            raise ValueError(f"candidate has unknown axes {sorted(unknown)}")

    def fingerprint(self, candidate: Mapping) -> str:
        """A stable content address of one candidate."""
        payload = json.dumps(dict(candidate), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def describe(self) -> list[dict]:
        """JSON-able description, embedded in trial-log metadata."""
        return [
            {"name": axis.name, "kind": axis.kind,
             "values": list(axis.values), "default": axis.default}
            for axis in self.axes
        ]


def default_space() -> SearchSpace:
    """The full design space ``repro tune`` searches by default.

    Placement axes (each trial re-places under these; only ``opt``
    keys an artifact-store entry, so only it costs an interpretation):

    * ``min_prob`` — the appendix's trace-growth threshold (paper: 0.7);
    * ``inline_min_count`` — dynamic-call floor for inlining a site
      (paper: 500);
    * ``inline_budget`` — static code-growth ceiling as a multiple of
      the original size (paper: 1.3, i.e. +30%);
    * ``opt`` — which middle-end pass stack runs ahead of the pipeline
      (paper default here: none, matching the unoptimized seed IR).

    Evaluation axes (cheap to vary — artifacts are reused):

    * ``layout`` — which layout the trace is replayed under;
    * ``cache_bytes`` / ``block_bytes`` / ``associativity`` — the
      simulated cache geometry (paper's flagship: 2K, 64B, direct).
    """
    return SearchSpace(axes=(
        real("min_prob", (0.5, 0.6, MIN_PROB, 0.8, 0.9), MIN_PROB),
        integer("inline_min_count", (125, 250, 500, 1000, 2000),
                _PAPER_INLINE.min_call_count),
        real("inline_budget", (1.0, 1.15, 1.3, 1.5, 2.0),
             _PAPER_INLINE.max_code_growth),
        categorical("opt", OPT_CHOICES, "none"),
        categorical("layout", LAYOUT_CHOICES, "optimized"),
        integer("cache_bytes", (512, 1024, 2048, 4096, 8192), 2048),
        integer("block_bytes", (16, 32, 64, 128), 64),
        integer("associativity", (1, 2, 4), 1),
    ))


def placement_options(candidate: Mapping) -> PlacementOptions:
    """Lower a candidate's placement axes into pipeline options.

    Axes the candidate omits fall back to the paper's values, so the
    default candidate maps to ``PlacementOptions()`` exactly — equal as
    a dataclass and byte-identical under
    :func:`repro.engine.store.options_fingerprint`.
    """
    opt = candidate.get("opt")
    return PlacementOptions.tuned(
        min_prob=candidate.get("min_prob"),
        inline_min_call_count=candidate.get("inline_min_count"),
        inline_max_code_growth=candidate.get("inline_budget"),
        opt_passes=None if opt in (None, "none") else opt,
    )
