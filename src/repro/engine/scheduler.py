"""Deterministic, fault-tolerant DAG scheduler over a process pool.

Jobs are validated (unique ids, known dependencies, no cycles) and then
executed either in-process (``jobs=1`` — one shared runner, the
reference path whose output every parallel run must match bit-for-bit)
or fanned out over a ``ProcessPoolExecutor`` (``jobs=N``).  Workers share
results exclusively through the artifact store, so a table job scheduled
after its workloads' artifact jobs rehydrates everything without
interpreting; ready jobs are always submitted in plan order, keeping the
schedule deterministic up to completion timing.

Failure semantics (both execution paths):

* a job that raises is retried up to ``retries`` times with exponential
  backoff, jittered deterministically from the per-job seed;
* a job exceeding ``job_timeout`` seconds (parallel only — a hung job
  cannot be preempted in-process) has its worker pool torn down and
  counts the attempt as a timeout;
* a broken pool (worker killed by the OS, or torn down after a timeout)
  is respawned; after :data:`MAX_POOL_RESTARTS` breakages the scheduler
  degrades to sequential in-process execution for the remaining jobs;
* a job whose retries are exhausted is *failed*; jobs depending on it
  (transitively) are *skipped*; every other job still runs.  The run
  then raises :class:`ExperimentFailure` carrying the failed/skipped
  sets and every value that was produced — a partial result, not a
  traceback.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro import ambient, obs
from repro.engine.jobs import JobOutcome, JobSpec, execute_job
from repro.engine.store import ArtifactStore
from repro.engine.telemetry import Telemetry

__all__ = [
    "ExperimentFailure",
    "JobError",
    "run_jobs",
    "toposort",
]

#: Pool breakages tolerated before degrading to sequential execution.
MAX_POOL_RESTARTS = 3

#: Retry backoff: ``min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**(attempt-1))``,
#: scaled by a deterministic jitter in [0.5, 1.5).
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


class JobError(RuntimeError):
    """One job's terminal failure: id, attempts, cause, worker traceback."""

    def __init__(
        self,
        job_id: str,
        attempts: int,
        cause: BaseException | str,
        traceback_text: str = "",
    ) -> None:
        self.job_id = job_id
        self.attempts = attempts
        self.cause = str(cause)
        self.cause_type = (
            type(cause).__name__
            if isinstance(cause, BaseException) else "error"
        )
        self.traceback_text = traceback_text
        super().__init__(
            f"job {job_id!r} failed after {attempts} attempt(s): "
            f"{self.cause_type}: {self.cause}"
        )


class ExperimentFailure(RuntimeError):
    """A run that finished with failed (and therefore skipped) jobs.

    Carries everything a caller needs for a structured partial-failure
    report: ``failed`` maps job ids to their :class:`JobError`,
    ``skipped`` lists jobs abandoned because a (transitive) dependency
    failed, and ``values`` holds the results of every job that *did*
    complete.
    """

    def __init__(
        self,
        failed: dict[str, JobError],
        skipped: list[str],
        values: dict[str, object],
    ) -> None:
        self.failed = failed
        self.skipped = skipped
        self.values = values
        total = len(failed) + len(skipped) + len(values)
        super().__init__(
            f"{len(failed)} of {total} jobs failed, {len(skipped)} skipped"
        )

    def summary(self) -> str:
        """A human-readable multi-line partial-failure report."""
        lines = [str(self)]
        lines.append("failed:")
        for job_id in sorted(self.failed):
            error = self.failed[job_id]
            lines.append(
                f"  {job_id} — {error.cause_type}: {error.cause} "
                f"({error.attempts} attempt"
                f"{'s' if error.attempts != 1 else ''})"
            )
        if self.skipped:
            lines.append("skipped (failed dependencies):")
            for job_id in sorted(self.skipped):
                lines.append(f"  {job_id}")
        return "\n".join(lines)


def toposort(specs: list[JobSpec]) -> list[JobSpec]:
    """Validate the DAG and return it in a stable topological order.

    Kahn's algorithm, always releasing ready jobs in plan order, so the
    result (and therefore the sequential execution order) is a pure
    function of the plan.
    """
    by_id = {}
    for spec in specs:
        if spec.job_id in by_id:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        by_id[spec.job_id] = spec
    for spec in specs:
        for dep in spec.deps:
            if dep not in by_id:
                raise ValueError(
                    f"job {spec.job_id!r} depends on unknown job {dep!r}"
                )
    remaining = {spec.job_id: set(spec.deps) for spec in specs}
    ordered: list[JobSpec] = []
    while remaining:
        ready = [
            spec for spec in specs
            if spec.job_id in remaining and not remaining[spec.job_id]
        ]
        if not ready:
            raise ValueError(
                f"dependency cycle among jobs {sorted(remaining)!r}"
            )
        for spec in ready:
            ordered.append(spec)
            del remaining[spec.job_id]
        for deps in remaining.values():
            deps.difference_update(s.job_id for s in ready)
    return ordered


def _backoff_delay(job_id: str, attempt: int) -> float:
    """Exponential backoff with jitter derived from the per-job seed.

    Deterministic — no live PRNG — so a retried run's timing profile is
    reproducible, while distinct jobs (and distinct attempts) still
    de-synchronise instead of thundering back in lockstep.
    """
    import hashlib

    digest = hashlib.sha256(f"backoff|{job_id}|{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:4], "big") / 2**32
    return min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1)) * jitter


def run_jobs(
    specs: list[JobSpec],
    jobs: int = 1,
    cache_dir: str | None = None,
    use_cache: bool = True,
    telemetry: Telemetry | None = None,
    retries: int = 0,
    job_timeout: float | None = None,
) -> dict[str, object]:
    """Execute a job DAG; returns ``{job_id: value}``.

    With ``jobs=1`` everything runs in this process against one shared
    runner (no pickling, no respawn).  With ``jobs>1`` a process pool
    executes up to ``jobs`` ready jobs at a time; the artifact store is
    then mandatory, because it is the only channel between workers.

    Raises :class:`ExperimentFailure` when any job exhausts its retries
    (after running everything that does not depend on a failed job).
    """
    ordered = toposort(specs)
    started = time.perf_counter()
    try:
        with obs.current().span("run_jobs", cat="engine",
                                n_jobs=len(ordered), workers=max(1, jobs)):
            if jobs <= 1:
                values = _run_sequential(
                    ordered, cache_dir, use_cache, telemetry, retries
                )
            else:
                if not use_cache:
                    raise ValueError(
                        "parallel execution requires the artifact store; "
                        "combine --jobs with a (temporary) cache directory"
                    )
                values = _run_parallel(
                    ordered, jobs, cache_dir, telemetry, retries, job_timeout
                )
    finally:
        if telemetry is not None:
            telemetry.meta.update(
                n_jobs=len(ordered),
                workers=max(1, jobs),
                elapsed_s=time.perf_counter() - started,
                cache_dir=(
                    os.path.abspath(cache_dir) if cache_dir else
                    ("default" if use_cache else None)
                ),
            )
    return values


def _consume(
    outcome: JobOutcome,
    values: dict[str, object],
    telemetry: Telemetry | None,
) -> None:
    values[outcome.job_id] = outcome.value
    if telemetry is not None:
        telemetry.extend(outcome.records)
        for name, count in outcome.counters.items():
            telemetry.bump(name, count)
    for name, payload in outcome.sidecars.items():
        # Worker-side spans, attributions and stacks fold into the run's
        # sinks.  Attribution entries replace (never sum), which keeps
        # --jobs N identical to --jobs 1 even when two tables replay
        # the same configuration.
        kind = ambient.KINDS[name]
        sink = kind.current()
        if sink.enabled:
            kind.absorb(sink, payload)


def _blocked_by(
    spec: JobSpec, failed: dict[str, JobError], skipped: list[str]
) -> bool:
    return any(dep in failed or dep in skipped for dep in spec.deps)


def _run_sequential(
    ordered: list[JobSpec],
    cache_dir: str | None,
    use_cache: bool,
    telemetry: Telemetry | None,
    retries: int = 0,
    values: dict[str, object] | None = None,
    failed: dict[str, JobError] | None = None,
    skipped: list[str] | None = None,
    raise_on_failure: bool = True,
) -> dict[str, object]:
    """In-process execution (also the degraded mode after pool breakage).

    ``values``/``failed``/``skipped`` let the parallel scheduler hand
    over a partially-completed run.
    """
    from repro.experiments.runner import ExperimentRunner

    store = ArtifactStore(cache_dir) if use_cache else None
    runners: dict[str, ExperimentRunner] = {}
    values = {} if values is None else values
    failed = {} if failed is None else failed
    skipped = [] if skipped is None else skipped
    for spec in ordered:
        if spec.job_id in values or spec.job_id in failed:
            continue
        if spec.job_id in skipped or _blocked_by(spec, failed, skipped):
            if spec.job_id not in skipped:
                skipped.append(spec.job_id)
            continue
        scale = spec.params.get("scale", "default")
        runner = runners.get(scale)
        if runner is None:
            runner = runners[scale] = ExperimentRunner(
                scale=scale, store=store
            )
        attempt = 0
        while True:
            try:
                outcome = execute_job(spec, runner=runner, attempt=attempt)
            except Exception as exc:
                attempt += 1
                if attempt > retries:
                    failed[spec.job_id] = JobError(
                        spec.job_id, attempt, exc, traceback.format_exc()
                    )
                    break
                if telemetry is not None:
                    telemetry.bump("retries")
                time.sleep(_backoff_delay(spec.job_id, attempt))
            else:
                _consume(outcome, values, telemetry)
                break
    if failed and raise_on_failure:
        raise ExperimentFailure(failed, skipped, values)
    return values


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's workers (hung or broken) without waiting on them."""
    for process in getattr(pool, "_processes", {}).values():
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_parallel(
    ordered: list[JobSpec],
    jobs: int,
    cache_dir: str | None,
    telemetry: Telemetry | None,
    retries: int = 0,
    job_timeout: float | None = None,
) -> dict[str, object]:
    specs_by_id = {spec.job_id: spec for spec in ordered}
    pending = {spec.job_id: set(spec.deps) for spec in ordered}
    values: dict[str, object] = {}
    failed: dict[str, JobError] = {}
    skipped: list[str] = []
    attempts: dict[str, int] = {}
    ready_after: dict[str, float] = {}     # backoff: not submittable before
    in_flight: dict[str, object] = {}      # job id -> Future
    deadlines: dict[str, float] = {}       # job id -> monotonic timeout
    pool_restarts = 0
    pool: ProcessPoolExecutor | None = ProcessPoolExecutor(max_workers=jobs)

    def propagate_skips() -> None:
        # A failed or skipped dependency abandons its dependents; loop so
        # the skip travels the whole downstream cone.
        changed = True
        while changed:
            changed = False
            for job_id in list(pending):
                if _blocked_by(specs_by_id[job_id], failed, skipped):
                    skipped.append(job_id)
                    del pending[job_id]
                    changed = True

    def resolve_failure(job_id: str, cause: str, exc=None, tb="") -> None:
        del pending[job_id]
        failed[job_id] = JobError(
            job_id, attempts.get(job_id, 0), exc if exc is not None else cause,
            tb,
        )

    def schedule_retry(job_id: str) -> None:
        ready_after[job_id] = (
            time.monotonic() + _backoff_delay(job_id, attempts[job_id])
        )
        if telemetry is not None:
            telemetry.bump("retries")

    def submit_ready() -> None:
        now = time.monotonic()
        for spec in ordered:
            if (
                spec.job_id in pending
                and spec.job_id not in in_flight
                and not pending[spec.job_id]
                and ready_after.get(spec.job_id, 0.0) <= now
                and len(in_flight) < jobs
            ):
                future = pool.submit(
                    execute_job, spec, cache_dir, True, None,
                    attempts.get(spec.job_id, 0), ambient.active(),
                )
                in_flight[spec.job_id] = future
                if job_timeout is not None:
                    deadlines[spec.job_id] = time.monotonic() + job_timeout

    def restart_pool() -> bool:
        """Tear down and respawn the pool; False once the cap is hit."""
        nonlocal pool, pool_restarts
        _terminate_pool(pool)
        in_flight.clear()
        deadlines.clear()
        pool_restarts += 1
        if telemetry is not None:
            telemetry.bump("pool_restarts")
        if pool_restarts >= MAX_POOL_RESTARTS:
            pool = None
            return False
        pool = ProcessPoolExecutor(max_workers=jobs)
        return True

    try:
        while pending:
            propagate_skips()
            if not pending:
                break
            try:
                submit_ready()
            except BrokenProcessPool:
                if not restart_pool():
                    break
                continue
            if not in_flight:
                now = time.monotonic()
                waiting = [
                    job_id for job_id in pending
                    if not pending[job_id]
                    and ready_after.get(job_id, 0.0) > now
                ]
                if waiting:
                    # Everything runnable is in a backoff window.
                    time.sleep(
                        max(0.0, min(ready_after[j] for j in waiting) - now)
                    )
                    continue
                # Nothing in flight, nothing submittable, nothing waiting:
                # without this guard wait() would block forever on an
                # empty future set.
                stuck = {
                    job_id: sorted(deps)
                    for job_id, deps in sorted(pending.items())
                }
                raise RuntimeError(
                    "scheduler deadlock: jobs are pending but none can be "
                    f"submitted or completed: {stuck!r}"
                )

            wait_timeout = None
            if deadlines:
                wait_timeout = max(
                    0.0, min(deadlines.values()) - time.monotonic()
                )
            done, _ = wait(
                in_flight.values(),
                timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )

            pool_broken = False
            for job_id in [j for j, f in in_flight.items() if f in done]:
                future = in_flight.pop(job_id)
                deadlines.pop(job_id, None)
                try:
                    outcome: JobOutcome = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    # The breakage took every in-flight job down with it;
                    # handled collectively below.
                    in_flight[job_id] = future
                    break
                except Exception as exc:
                    attempts[job_id] = attempts.get(job_id, 0) + 1
                    if attempts[job_id] > retries:
                        resolve_failure(
                            job_id, str(exc), exc,
                            _worker_traceback(exc),
                        )
                    else:
                        schedule_retry(job_id)
                else:
                    _consume(outcome, values, telemetry)
                    del pending[job_id]
                    for deps in pending.values():
                        deps.discard(job_id)

            if pool_broken:
                # Every in-flight job lost its worker; the culprit is not
                # attributable, so each one spends an attempt (bounded by
                # ``retries``) and the survivors are resubmitted.
                for job_id in list(in_flight):
                    attempts[job_id] = attempts.get(job_id, 0) + 1
                    if attempts[job_id] > retries:
                        resolve_failure(
                            job_id, "worker process died (pool broken)"
                        )
                    elif telemetry is not None:
                        telemetry.bump("retries")
                if not restart_pool():
                    break
                continue

            if deadlines:
                now = time.monotonic()
                expired = [
                    job_id for job_id, deadline in deadlines.items()
                    if now >= deadline and job_id in in_flight
                ]
                if expired:
                    # A hung worker cannot be preempted; tear the pool
                    # down.  Only the expired jobs are charged an attempt
                    # — innocent bystanders are resubmitted for free.
                    for job_id in expired:
                        in_flight.pop(job_id, None)
                        deadlines.pop(job_id, None)
                        attempts[job_id] = attempts.get(job_id, 0) + 1
                        if telemetry is not None:
                            telemetry.bump("timeouts")
                        if attempts[job_id] > retries:
                            resolve_failure(
                                job_id,
                                f"timed out after {job_timeout:g}s",
                            )
                        else:
                            schedule_retry(job_id)
                    if not restart_pool():
                        break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    if pending:
        # The pool broke MAX_POOL_RESTARTS times: degrade to in-process
        # execution for whatever is left rather than giving up on it.
        remaining = [
            spec for spec in ordered
            if spec.job_id in pending or spec.job_id in skipped
        ]
        skipped[:] = []
        _run_sequential(
            remaining, cache_dir, True, telemetry, retries,
            values=values, failed=failed, skipped=skipped,
            raise_on_failure=False,
        )
    if failed:
        raise ExperimentFailure(failed, skipped, values)
    return values


def _worker_traceback(exc: BaseException) -> str:
    """The remote traceback text a pool future attaches to its exception."""
    cause = getattr(exc, "__cause__", None)
    if cause is not None and cause.args:
        return str(cause.args[0])
    return "".join(traceback.format_exception_only(type(exc), exc))
