"""Seeded inputs of the explain-request benchmark, and its statistics.

Every op is one ``explain`` request.  The seed decides everything an op
sees: the cold workload's profiling and trace inputs, and the order of
the warm/serve request stream.  Ops run in rounds; each round is a
seeded shuffle of one full set (ten programs for ``cold_explain``, ten
programs x the geometry grid for ``warm_explain``/``serve_explain``), so
every run sees the same mix and a slow window on the host spreads over
programs and geometries instead of landing on one of them.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

#: The seed the benchmark is tuned on, and one it never was.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

SCALE = "small"

#: The 2 KB / 64 B direct-mapped geometry ``miss_ratio_2k`` reports.
BASE_GEOMETRY = (2048, 64, 1)


def geometry_grid() -> list[tuple[int, int, int]]:
    """``(cache_bytes, block_bytes, assoc)``: Table 6 sizes at 64 B,
    Table 7 block sizes at 2 KB, then 2-way, 4-way and fully
    associative at 2 KB / 64 B."""
    from repro.experiments.table6 import CACHE_SIZES
    from repro.experiments.table7 import BLOCK_SIZES

    grid = [(size, 64, 1) for size in CACHE_SIZES]
    grid += [(2048, block, 1) for block in BLOCK_SIZES if block != 64]
    grid += [(2048, 64, ways) for ways in (2, 4, 2048 // 64)]
    return grid


def explain_request(workload: str, geometry=BASE_GEOMETRY) -> dict:
    cache_bytes, block_bytes, assoc = geometry
    return {
        "kind": "explain", "workload": workload, "scale": SCALE,
        "cache_bytes": cache_bytes, "block_bytes": block_bytes,
        "assoc": assoc,
    }


def warm_rounds(seed: int):
    """Endless warm/serve stream: each round shuffles programs x grid."""
    from repro.workloads.registry import workload_names

    grid = geometry_grid()
    cells = [(name, geometry) for name in workload_names()
             for geometry in grid]
    rng = random.Random(f"explainbench-warm:{seed}")
    for round_index in itertools.count():
        order = list(cells)
        rng.shuffle(order)
        for name, geometry in order:
            yield round_index, explain_request(name, geometry)


class ColdPrograms:
    """The ten paper programs with profiling and trace inputs from the seed.

    :meth:`fresh` registers one of them under a name the artifact store
    has never seen (``tag`` tells apart two streams of one seed), so the
    op that explains it runs the whole cold pipeline.  Inputs are drawn per ``(seed, round, program)``: a run
    covers many input sets, so its op-time distribution and its
    placement-quality means depend little on which seed it drew.
    """

    def __init__(self, seed: int, tag: str = "") -> None:
        from repro.workloads.registry import all_workloads

        self.seed = seed
        self.tag = tag
        self.bases = {workload.name: workload for workload in all_workloads()}

    def fresh(self, program: str, round_index: int) -> str:
        from repro.workloads.registry import register

        base = self.bases[program]
        rng = random.Random(
            f"explainbench-cold:{self.seed}:{round_index}:{program}")
        name = f"{program}.s{self.seed}{self.tag}.r{round_index}"
        register(dataclasses.replace(
            base,
            name=name,
            profile_seeds=tuple(
                rng.randrange(1 << 30) for _ in base.profile_seeds),
            trace_seed=rng.randrange(1 << 30),
        ))
        return name

    def rounds(self):
        """Endless ``(round, program)`` stream, each round a shuffle."""
        rng = random.Random(f"explainbench-cold-order:{self.seed}")
        programs = sorted(self.bases)
        for round_index in itertools.count():
            order = list(programs)
            rng.shuffle(order)
            for program in order:
                yield round_index, program


def base_program(workload: str) -> str:
    """``compress.s1.r17`` -> ``compress``; paper names map to themselves."""
    return workload.split(".", 1)[0]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    middle = n // 2
    return (ordered[middle] if n % 2
            else (ordered[middle - 1] + ordered[middle]) / 2)


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten values beyond it.

    Returns ``(value, percentile, rank)``: the value at 0-based sorted
    ``rank`` has exactly ten values above it.  Needs at least 11 values.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"need at least 11 ops for a tail, got {n}")
    rank = n - 11
    return ordered[rank], 100.0 * (n - 10) / n, rank


def tail_cluster(durations, labels) -> tuple[str, int, int]:
    """Which label the tail op carries, and how many ops with that label
    sit below and above the tail rank (a rank on the edge between two
    cost clusters has 0 on one side)."""
    order = sorted(range(len(durations)), key=durations.__getitem__)
    _value, _pct, rank = tail(durations)
    label = labels[order[rank]]
    below = sum(1 for i in order[:rank] if labels[i] == label)
    above = sum(1 for i in order[rank + 1:] if labels[i] == label)
    return label, below, above
