"""Benchmark of the autotuner: cold search vs. warm store-served rerun.

Runs the CI smoke configuration (random strategy, budget 6, two
workloads, ``--jobs 2``) twice against one cache directory: the first
search builds every trial's artifacts, the rerun must satisfy all of
them from the content-addressed store with zero interpreter steps.  The
rendered comparison lands in ``results/tune.txt`` and the raw numbers in
``BENCH_search.json`` at the repo root, which the benchmark trajectory
graphs across commits.
"""

from __future__ import annotations

import os
import tempfile
import time

from benchmarks.conftest import emit_bench, harvest_totals
from repro.engine.telemetry import Telemetry
from repro.experiments.report import render_table
from repro.search import default_space, make_strategy, run_search

SCALE = "small"
WORKLOADS = ["cmp", "wc"]
BUDGET = 6
SEED = 7
JOBS = 2


def _search(cache_dir: str):
    telemetry = Telemetry()
    started = time.perf_counter()
    result = run_search(
        default_space(),
        make_strategy("random", SEED),
        WORKLOADS,
        budget=BUDGET,
        scale=SCALE,
        jobs=JOBS,
        cache_dir=cache_dir,
        telemetry=telemetry,
        seed=SEED,
    )
    wall = time.perf_counter() - started
    return wall, harvest_totals(telemetry.totals()), result


def test_tune_cold_warm(benchmark):
    with tempfile.TemporaryDirectory(prefix="repro-bench-tune-") as root:
        cold_wall, cold_totals, cold = benchmark.pedantic(
            _search, args=(root,), rounds=1, iterations=1,
        )
        warm_wall, warm_totals, warm = _search(root)

    rows = [
        [
            label,
            f"{wall:.1f}s",
            f"{totals['interp_instructions'] / 1e6:.1f}M",
            totals["store_hits"],
            totals["store_misses"],
            len(result.front),
        ]
        for label, wall, totals, result in (
            ("cold", cold_wall, cold_totals, cold),
            ("warm", warm_wall, warm_totals, warm),
        )
    ]
    best = cold.front[0] if cold.front else None
    text = render_table(
        f"Autotuner: random search, budget {BUDGET}, "
        f"workloads {','.join(WORKLOADS)} ({SCALE} scale, --jobs {JOBS})",
        ["run", "wall", "interp instrs", "store hits", "store misses",
         "front size"],
        rows,
        note=(
            "the warm rerun satisfies every trial from the "
            "content-addressed store and executes zero interpreter steps."
        ),
    )
    document = {
        "strategy": "random",
        "budget": BUDGET,
        "seed": SEED,
        "jobs": JOBS,
        "scale": SCALE,
        "workloads": WORKLOADS,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "cold_totals": cold_totals,
        "warm_totals": warm_totals,
        "trials": len(cold.trials),
        "pruned": cold.pruned,
        "front_size": len(cold.front),
        "best": None if best is None else {
            "trial": best["trial"],
            "candidate": best["candidate"],
            "objectives": best["objectives"],
        },
    }
    emit_bench("tune", text=text, snapshot=document, snapshot_name="search")

    # The search is only useful if it produced a non-empty front, and the
    # rerun must be entirely store-served.
    assert cold.front
    assert warm_totals["interp_instructions"] == 0
    assert warm_totals["store_misses"] == 0
