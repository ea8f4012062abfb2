"""Lower candidates into engine jobs and drive a search to completion.

One *trial* = one candidate evaluated on one rung's workload list.  A
trial becomes two layers of engine work:

* ``artifacts:{workload}@{scale}#{opt}`` — interpret the workload under
  the candidate's middle-end passes (``opt``) and persist that execution.
  A store entry is keyed by (workload, passes) alone, so candidates that
  share passes share one job and one interpretation, with each other
  and with ordinary table runs; each trial places from it under its own
  placement axes.
* ``trial:tNNNrR`` — rehydrate those artifacts and replay the trace
  against the candidate's layout and cache geometry.  Pure simulation:
  a trial job executes zero interpreter steps when its artifact
  dependencies were satisfied from the store.

Both run through :func:`repro.engine.scheduler.run_jobs`, so trials
inherit the engine's parallelism, retry/backoff, timeout, and
partial-failure semantics for free.

:func:`run_search` is the driver: propose candidates, evaluate rung by
rung (successive halving prunes between rungs), then compute the Pareto
front, per-workload winners, and axis sensitivities.  Everything is
deterministic for a fixed (strategy, seed, budget) — the job values come
back keyed by id, so ``--jobs 1`` and ``--jobs 4`` produce identical
trial records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.engine.jobs import JobSpec
from repro.engine.scheduler import run_jobs
from repro.search.pareto import pareto_front, per_workload_winners, sensitivity
from repro.search.space import SearchSpace
from repro.search.strategies import Strategy

__all__ = [
    "SearchResult",
    "run_search",
    "run_trial",
    "trial_job_id",
    "tune_plan",
    "write_trials",
]


def trial_job_id(trial: int, rung: int) -> str:
    return f"trial:t{trial:03d}r{rung}"


def tune_plan(
    trials: list[dict],
    rung: int,
    workloads: list[str],
    scale: str,
) -> list[JobSpec]:
    """The job DAG for one rung: artifact fan-out, then trial jobs.

    ``trials`` rows are ``{"trial", "candidate", "fingerprint"}``.
    Artifact jobs are deduplicated by (workload, ``opt``), the store key:
    candidates that differ only in placement or cache axes share one
    execution per workload.  Their ``placement`` params name the passes
    only, the shape :func:`repro.engine.jobs.table_plan` emits.
    """
    artifact_specs: dict[str, JobSpec] = {}
    trial_specs: list[JobSpec] = []
    for row in trials:
        candidate = row["candidate"]
        opt = candidate.get("opt", "none")
        deps = []
        for workload in workloads:
            job_id = f"artifacts:{workload}@{scale}#{opt}"
            if job_id not in artifact_specs:
                artifact_specs[job_id] = JobSpec(
                    job_id=job_id,
                    kind="artifacts",
                    params={
                        "workload": workload,
                        "scale": scale,
                        "placement": {"opt": opt},
                    },
                )
            deps.append(job_id)
        trial_specs.append(JobSpec(
            job_id=trial_job_id(row["trial"], rung),
            kind="trial",
            params={
                "trial": row["trial"],
                "rung": rung,
                "fingerprint": row["fingerprint"],
                "candidate": dict(candidate),
                "workloads": list(workloads),
                "scale": scale,
            },
            deps=tuple(deps),
        ))
    return list(artifact_specs.values()) + trial_specs


def run_trial(params: dict, runner) -> dict:
    """Evaluate one candidate on one rung's workloads (one engine job).

    ``runner`` is an :class:`~repro.experiments.runner.ExperimentRunner`
    already configured with the candidate's placement options (see
    :func:`repro.engine.jobs.execute_job`); its artifacts rehydrate from
    the store entries the dependency jobs just guaranteed.
    """
    from repro.cache.set_assoc import simulate_set_associative
    from repro.cache.vectorized import simulate_direct_vectorized

    candidate = params["candidate"]
    layout = candidate.get("layout", "optimized")
    cache_bytes = int(candidate.get("cache_bytes", 2048))
    block_bytes = int(candidate.get("block_bytes", 64))
    associativity = int(candidate.get("associativity", 1))

    recorder = obs.current()
    per_workload: dict[str, dict] = {}
    started = time.perf_counter()
    with recorder.span(
        "trial", cat="search",
        trial=params["trial"], rung=params["rung"],
        fingerprint=params["fingerprint"],
    ):
        for name in params["workloads"]:
            art = runner.artifacts(name)
            image = runner.image_for(name, layout)
            trace = (
                art.trace if layout in ("optimized", "conflict_aware")
                else art.original_trace
            )
            addresses = trace.addresses(image)
            if associativity == 1:
                stats = simulate_direct_vectorized(
                    addresses, cache_bytes, block_bytes
                )
            else:
                stats = simulate_set_associative(
                    addresses, cache_bytes, block_bytes, associativity
                )
            per_workload[name] = {
                "miss_ratio": stats.miss_ratio,
                "traffic_ratio": stats.traffic_ratio,
                "accesses": int(stats.accesses),
                "code_bytes": int(image.total_bytes),
            }

    count = len(per_workload)
    objectives = {
        "miss_ratio": sum(
            w["miss_ratio"] for w in per_workload.values()
        ) / count,
        "traffic_ratio": sum(
            w["traffic_ratio"] for w in per_workload.values()
        ) / count,
        "code_bytes": sum(w["code_bytes"] for w in per_workload.values()),
    }
    totals = (
        runner.telemetry.totals() if runner.telemetry is not None else {}
    )
    if recorder.enabled:
        recorder.count("search.trials")
        recorder.observe("search.trial_miss_ratio", objectives["miss_ratio"])
    return {
        "type": "trial",
        "trial": params["trial"],
        "rung": params["rung"],
        "fingerprint": params["fingerprint"],
        "candidate": dict(candidate),
        "workloads": per_workload,
        "objectives": objectives,
        "interp_instructions": totals.get("interp_instructions", 0),
        "store_hits": totals.get("store_hits", 0),
        "store_misses": totals.get("store_misses", 0),
        "wall_s": time.perf_counter() - started,
        "status": "ok",              # the driver demotes pruned trials
    }


@dataclass
class SearchResult:
    """Everything one completed search produced."""

    strategy: str
    budget: int
    seed: int
    scale: str
    workloads: list[str]
    space: SearchSpace
    trials: list[dict]               # final record per trial, with status
    records: list[dict]              # every rung record, trial-major order
    front: list[dict] = field(default_factory=list)
    winners: dict = field(default_factory=dict)
    sensitivity: list[dict] = field(default_factory=list)
    pruned: int = 0
    elapsed_s: float = 0.0

    def default_trial(self) -> dict | None:
        """The paper-default candidate's final record (always trial 0)."""
        for record in self.trials:
            if record["trial"] == 0:
                return record
        return None


def run_search(
    space: SearchSpace,
    strategy: Strategy,
    workloads: list[str],
    budget: int,
    scale: str = "small",
    jobs: int = 1,
    cache_dir: str | None = None,
    use_cache: bool = True,
    telemetry=None,
    retries: int = 0,
    job_timeout: float | None = None,
    seed: int = 0,
) -> SearchResult:
    """Run one complete search and analyse the results.

    The paper-default candidate is always trial 0, so every run — even a
    random one — contains the baseline to diff against.  Raises
    :class:`~repro.engine.scheduler.ExperimentFailure` if any trial
    exhausts its retries (the exception carries completed values).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    workloads = list(workloads)
    if not workloads:
        raise ValueError("at least one workload is required")

    started = time.perf_counter()
    candidates: list[dict] = []
    seen: set[str] = set()
    for candidate in [space.default_candidate()] + strategy.propose(
        space, budget
    ):
        space.validate(candidate)
        fingerprint = space.fingerprint(candidate)
        if fingerprint in seen or len(candidates) >= budget:
            continue
        seen.add(fingerprint)
        candidates.append(candidate)
    trials = [
        {
            "trial": index,
            "candidate": candidate,
            "fingerprint": space.fingerprint(candidate),
        }
        for index, candidate in enumerate(candidates)
    ]

    recorder = obs.current()
    records: list[dict] = []
    latest: dict[int, dict] = {}      # trial -> its highest-rung record
    status: dict[int, str] = {}
    pruned_total = 0
    active = list(trials)
    rung = 0
    with recorder.span("search", cat="search", strategy=strategy.name,
                       budget=budget, candidates=len(trials)):
        while active:
            rung_workloads = strategy.rung_workloads(rung, workloads)
            if not rung_workloads:
                break
            specs = tune_plan(active, rung, rung_workloads, scale)
            values = run_jobs(
                specs,
                jobs=jobs,
                cache_dir=cache_dir,
                use_cache=use_cache,
                telemetry=telemetry,
                retries=retries,
                job_timeout=job_timeout,
            )
            rung_records = [
                values[trial_job_id(row["trial"], rung)] for row in active
            ]
            for record in rung_records:
                records.append(record)
                latest[record["trial"]] = record

            if not strategy.rung_workloads(rung + 1, workloads):
                # This was the final rung: everything still active is done.
                for row in active:
                    status[row["trial"]] = "ok"
                break
            promoted = set(strategy.promote(rung, rung_records))
            dropped = [
                row for row in active if row["trial"] not in promoted
            ]
            for row in dropped:
                status[row["trial"]] = "pruned"
            pruned_total += len(dropped)
            if dropped and recorder.enabled:
                recorder.count("search.pruned", len(dropped))
            active = sorted(
                (row for row in active if row["trial"] in promoted),
                key=lambda row: row["trial"],
            )
            rung += 1

    final: list[dict] = []
    for row in trials:
        record = dict(latest[row["trial"]])
        record["status"] = status.get(row["trial"], "pruned")
        final.append(record)
    for record in records:
        record["status"] = status.get(record["trial"], "pruned")

    # Pareto front and winners over fully-evaluated trials only (pruned
    # trials saw a workload subset; their objectives are not comparable).
    complete = [record for record in final if record["status"] == "ok"]
    # Sensitivity over the rung-0 cohort: every trial, uniform workloads.
    cohort = [record for record in records if record["rung"] == 0]
    return SearchResult(
        strategy=strategy.name,
        budget=budget,
        seed=seed,
        scale=scale,
        workloads=workloads,
        space=space,
        trials=final,
        records=records,
        front=pareto_front(complete),
        winners=per_workload_winners(complete),
        sensitivity=sensitivity(cohort),
        pruned=pruned_total,
        elapsed_s=time.perf_counter() - started,
    )


def write_trials(result: SearchResult, path: str) -> None:
    """Dump a search as JSONL, compatible with ``repro report``.

    Same self-describing shape as an observability run file: a ``meta``
    line (``kind: "tune"``), one line per trial record, a ``pareto``
    analysis line, and a final ``metrics`` snapshot —
    :meth:`repro.obs.recorder.Recorder.load_jsonl` reads it back intact.
    """
    import json

    from repro.obs.trace import _json_default

    with open(path, "w") as handle:
        handle.write(json.dumps({
            "type": "meta",
            "kind": "tune",
            "strategy": result.strategy,
            "budget": result.budget,
            "seed": result.seed,
            "scale": result.scale,
            "workloads": result.workloads,
            "space": result.space.describe(),
            "elapsed_s": result.elapsed_s,
        }, default=_json_default) + "\n")
        for record in result.records:
            handle.write(json.dumps(record, default=_json_default) + "\n")
        handle.write(json.dumps({
            "type": "pareto",
            "front": [
                {
                    "trial": record["trial"],
                    "fingerprint": record["fingerprint"],
                    "candidate": record["candidate"],
                    "objectives": record["objectives"],
                }
                for record in result.front
            ],
            "winners": result.winners,
            "sensitivity": result.sensitivity,
        }, default=_json_default) + "\n")
        handle.write(json.dumps({
            "type": "metrics",
            "counters": {
                "search.trials": len(result.records),
                "search.pruned": result.pruned,
            },
        }, default=_json_default) + "\n")
