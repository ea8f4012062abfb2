"""Experiment work expressed as a DAG of picklable job specs.

Four job kinds cover the whole evaluation:

* ``artifacts`` — build+profile+place+trace one workload at one scale and
  persist its execution in the artifact store.  A ``placement`` entry
  in its params (``{"opt": passes}``, from :func:`table_plan` or the
  autotuner) names the middle-end passes, which key the store entry;
* ``table`` — regenerate one experiment table, rehydrating every workload
  it replays from the store (its dependencies guarantee the entries
  exist, so a table job never interprets anything itself);
* ``trial`` — score one autotuner candidate: rehydrate its artifacts and
  replay the trace under the candidate's layout and cache geometry (see
  :mod:`repro.search.evaluate`);
* ``explain`` — classify one workload's misses at one cache geometry
  (3C + conflict attribution, :func:`repro.diagnose.explain
  .explain_with_runner`), rehydrating its artifacts like a table job.

:func:`table_plan` builds the DAG for any set of tables: one artifact job
per distinct (workload, scale), then one table job depending on exactly
the workloads that table sweeps.  :func:`request_plan` lowers one
normalized experiment-service request (``repro serve``) onto these same
kinds.  :func:`execute_job` is the single entry point both the
sequential path and the process-pool workers run; it seeds the PRNGs
deterministically from the job id so a parallel run is as reproducible
as a serial one.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

# diagnose is imported for its ambient-kind registration: a spawned
# worker must know every kind a job's ``sinks`` can name.
from repro import ambient, diagnose, obs  # noqa: F401
from repro.engine import faults
from repro.perf import profiler as perf_profiler
from repro.engine.store import ArtifactStore
from repro.engine.telemetry import JobRecord, Telemetry

__all__ = [
    "ALL_TABLE_NAMES",
    "JobOutcome",
    "JobSpec",
    "execute_job",
    "request_plan",
    "table_plan",
    "workloads_for_table",
]

#: Every table the CLI can regenerate, in ``run_all`` presentation order.
ALL_TABLE_NAMES = (
    "table1", "table2", "table3", "table4", "table5",
    "table6", "table7", "table8", "table9", "comparison", "ablation",
    "associativity", "estimator", "paging", "extended", "prefetch_study",
)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit: a kind, its parameters, and its dependencies."""

    job_id: str
    kind: str                     # "artifacts" | "table" | "trial"
    params: dict = field(default_factory=dict)
    deps: tuple[str, ...] = ()


@dataclass
class JobOutcome:
    """What a worker sends back: the value plus its telemetry records.

    ``counters`` carries store-side robustness counts (today just
    ``quarantined``) for the scheduler to fold into the run telemetry.
    ``sidecars`` maps an :mod:`repro.ambient` kind name to what the
    worker's own sink of that kind shipped: ``"obs"`` spans, events and
    a metric snapshot, ``"diagnose"`` the serialized 3C miss
    attribution, ``"profile"`` collapsed hot-path stacks.  It is empty
    when the job wrote into its caller's sinks, or into none — an
    unobserved run ships no extra bytes.
    """

    job_id: str
    value: object
    records: list[JobRecord] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    sidecars: dict = field(default_factory=dict)


def workloads_for_table(table: str) -> tuple[str, ...]:
    """The workloads one table replays (== its artifact dependencies)."""
    from repro.workloads.registry import extended_workload_names, workload_names

    if table == "table1":
        return ()          # Smith's published design targets; no simulation
    if table == "extended":
        return tuple(extended_workload_names())
    return tuple(workload_names())


def table_plan(
    tables: list[str], scale: str = "default", opt: str | None = None
) -> list[JobSpec]:
    """The DAG regenerating ``tables``: artifact fan-out, then table jobs.

    ``opt`` (a middle-end pass spec like ``"all"``) makes every job in
    the plan run under tuned placement options with those passes enabled
    — artifact builds and table regenerations alike, so the tables
    measure the optimized programs and the executions land under distinct
    store keys.  ``None``/``"none"`` is the byte-identical default path.
    """
    unknown = [t for t in tables if t not in ALL_TABLE_NAMES]
    if unknown:
        raise ValueError(f"unknown tables {unknown!r}")
    extra: dict = {}
    if opt is not None and opt != "none":
        extra["placement"] = {"opt": opt}
    needed: list[str] = []
    for table in tables:
        for workload in workloads_for_table(table):
            if workload not in needed:
                needed.append(workload)
    specs = [
        JobSpec(
            job_id=f"artifacts:{name}",
            kind="artifacts",
            params={"workload": name, "scale": scale, **extra},
        )
        for name in needed
    ]
    specs.extend(
        JobSpec(
            job_id=f"table:{table}",
            kind="table",
            params={"table": table, "scale": scale, **extra},
            deps=tuple(
                f"artifacts:{name}" for name in workloads_for_table(table)
            ),
        )
        for table in tables
    )
    return specs


#: Request fields an ``explain`` job forwards to the diagnose layer.
_EXPLAIN_FIELDS = (
    "cache_bytes", "block_bytes", "assoc", "layout", "baseline", "top",
    "opt",
)


def request_plan(request: dict) -> list[JobSpec]:
    """Lower one normalized service request into an engine job DAG.

    ``table`` and ``explain`` requests lower directly: an artifact
    fan-out plus the job that consumes it.  ``tune`` requests are not
    lowered here — :func:`repro.search.evaluate.run_search` already
    drives the scheduler rung by rung, so the service worker calls it
    whole.
    """
    kind = request.get("kind")
    scale = request.get("scale", "default")
    if kind == "table":
        return table_plan([request["table"]], scale, opt=request.get("opt"))
    if kind == "explain":
        workload = request["workload"]
        artifacts = JobSpec(
            job_id=f"artifacts:{workload}",
            kind="artifacts",
            params={"workload": workload, "scale": scale},
        )
        params = {"workload": workload, "scale": scale}
        params.update(
            (field_, request[field_])
            for field_ in _EXPLAIN_FIELDS if field_ in request
        )
        return [
            artifacts,
            JobSpec(
                job_id=f"explain:{workload}",
                kind="explain",
                params=params,
                deps=(artifacts.job_id,),
            ),
        ]
    raise ValueError(f"request kind {kind!r} has no engine lowering")


def _seed_for(job_id: str) -> int:
    """A stable per-job PRNG seed (independent of worker identity)."""
    return int.from_bytes(
        hashlib.sha256(job_id.encode()).digest()[:4], "big"
    )


def execute_job(
    spec: JobSpec,
    cache_dir: str | None = None,
    use_cache: bool = True,
    runner=None,
    attempt: int = 0,
    sinks: dict | None = None,
) -> JobOutcome:
    """Run one job; the sequential scheduler and pool workers both use this.

    ``runner`` lets the sequential path share one in-process
    :class:`ExperimentRunner` across jobs; workers leave it ``None`` and
    communicate exclusively through the artifact store.  ``attempt`` is
    the retry index — it feeds fault injection (so a retried job re-rolls
    its injected failures) but **not** the PRNG seed, which depends only
    on the job id so retried work stays byte-identical.

    ``sinks`` (:func:`repro.ambient.active` in the parent) names the
    ambient sinks the caller collects into.  For each one this process
    cannot write to — none is installed (a spawned worker) or the
    current one was inherited across a fork — the job collects into a
    fresh sink and ships it back in ``JobOutcome.sidecars``.
    In-process callers write straight into their own sinks.  The obs
    kind's entry is the service request's trace id, so a worker's spans
    still join the request that caused them.  Sinks never touch seeding
    or outputs — observed, attributed and profiled runs are
    byte-identical to plain ones.
    """
    from repro.experiments.runner import ExperimentRunner

    faults.maybe_fail_job(spec.job_id, attempt)

    seed = _seed_for(spec.job_id)
    random.seed(seed)
    np.random.seed(seed)

    own = {}
    for name, argument in (sinks or {}).items():
        kind = ambient.KINDS[name]
        sink = kind.current()
        if not sink.enabled or getattr(sink, "_pid", None) != os.getpid():
            # No sink here (a spawned worker) or one inherited across a
            # fork, whose memory never reaches the parent: collect into
            # a fresh sink and ship it home through the outcome.
            own[name] = kind.install(kind.fresh(argument))

    telemetry = Telemetry()
    try:
        tuned = spec.params.get("placement")
        if spec.kind == "trial" or tuned is not None:
            # Autotuner work runs under the candidate's placement options
            # — never the (default-options) shared runner, whose memoized
            # artifacts would be wrong for tuned hyperparameters.  Only
            # the store is shared: its executions serve every placement.
            from repro.search.space import placement_options

            store = (
                runner.store if runner is not None
                else ArtifactStore(cache_dir) if use_cache else None
            )
            runner = ExperimentRunner(
                scale=spec.params.get("scale", "default"),
                options=placement_options(
                    tuned if tuned is not None
                    else spec.params.get("candidate", {})
                ),
                store=store,
                telemetry=telemetry,
            )
        elif runner is None:
            store = ArtifactStore(cache_dir) if use_cache else None
            runner = ExperimentRunner(
                scale=spec.params.get("scale", "default"),
                store=store,
                telemetry=telemetry,
            )
        else:
            runner.telemetry = telemetry
        store = runner.store
        quarantined_before = store.quarantined if store is not None else 0

        span_attrs = {
            key: value
            for key, value in (
                ("workload", spec.params.get("workload")),
                ("table", spec.params.get("table")),
                ("trial", spec.params.get("trial")),
            )
            if value is not None
        }
        started = time.perf_counter()
        with obs.current().span("job", cat="engine", job_id=spec.job_id,
                                kind=spec.kind, **span_attrs), \
                perf_profiler.current().capture():
            if spec.kind == "artifacts":
                runner.artifacts(spec.params["workload"])
                value = None
            elif spec.kind == "table":
                value = _run_table(spec.params["table"], runner)
                telemetry.record(
                    job_id=spec.job_id,
                    kind="table",
                    wall_s=time.perf_counter() - started,
                )
            elif spec.kind == "trial":
                from repro.search.evaluate import run_trial

                value = run_trial(spec.params, runner)
            elif spec.kind == "explain":
                from repro.diagnose.explain import explain_with_runner

                value = explain_with_runner(
                    runner,
                    spec.params["workload"],
                    **{
                        key: spec.params[key]
                        for key in _EXPLAIN_FIELDS if key in spec.params
                    },
                )
                telemetry.record(
                    job_id=spec.job_id,
                    kind="explain",
                    wall_s=time.perf_counter() - started,
                )
            else:
                raise ValueError(f"unknown job kind {spec.kind!r}")
        counters = {}
        if store is not None and store.quarantined > quarantined_before:
            counters["quarantined"] = store.quarantined - quarantined_before
    finally:
        for name in own:
            ambient.KINDS[name].install(ambient.KINDS[name].null)
    return JobOutcome(
        job_id=spec.job_id, value=value, records=telemetry.records,
        counters=counters,
        sidecars={
            name: ambient.KINDS[name].ship(sink) for name, sink in own.items()
        },
    )


def _run_table(table: str, runner) -> str:
    """Regenerate one table's text through the shared runner."""
    from repro import experiments

    if table == "table1":
        return experiments.table1.run()
    return getattr(experiments, table).run(runner)
