"""Shared state for the benchmark suite.

The session-scoped ``runner`` fixture builds, profiles, places, and traces
all ten workloads once (the expensive part); each benchmark then measures
its own table's computation and persists the rendered table under
``results/`` so EXPERIMENTS.md can cite the regenerated numbers.

The runner is backed by the engine's content-addressed artifact store
(``~/.cache/repro``, override with ``REPRO_CACHE_DIR``, disable with
``REPRO_NO_CACHE=1``), so every benchmark session after the first skips
interpretation and re-measures only the table computations themselves.

Observability: every session also writes ``BENCH_observability.json`` at
the repo root — per-table wall time (the ``call`` phase of each bench
test), whatever metrics the bench registered via :func:`emit_bench`
(miss ratios, mostly), and the shared runner's telemetry totals
(interpreter instruction counts, store hits/misses).  The benchmark
trajectory graphs these numbers across commits.
"""

from __future__ import annotations

import json
import os

import pytest

#: Accumulates one session's observability document; written at exit.
_BENCH_OBS: dict = {"tables": {}, "runner_totals": {}, "runner_counters": {}}

#: Where ``BENCH_observability.json`` lands: the repo root.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: The session's shared runner, kept so sessionfinish can read its totals.
_SHARED_RUNNER = None
#: The session's observability recorder (installed by the runner fixture).
_SHARED_RECORDER = None


@pytest.fixture(scope="session")
def runner():
    global _SHARED_RUNNER, _SHARED_RECORDER
    from repro import obs
    from repro.engine.telemetry import Telemetry
    from repro.experiments.runner import default_runner

    # Benchmarks run observed: spans/events/metrics from the pipeline and
    # the simulators accumulate here and land in BENCH_observability.json.
    _SHARED_RECORDER = obs.install(obs.Recorder(meta={"suite": "benchmarks"}))
    shared = default_runner()
    shared.telemetry = Telemetry(registry=_SHARED_RECORDER.metrics)
    for name in shared.names():
        shared.artifacts(name)
        shared.addresses(name, "optimized")
    _SHARED_RUNNER = shared
    return shared


def emit_bench(
    name: str,
    text: str | None = None,
    snapshot: dict | None = None,
    snapshot_name: str | None = None,
    **metrics,
) -> None:
    """The one way a bench publishes results.

    ``text`` (a rendered table) is printed and persisted under
    ``results/<name>.txt``.  Scalar keyword ``metrics`` land under
    ``tables.<name>`` in ``BENCH_observability.json`` alongside the
    measured wall time.  ``snapshot`` is merged into
    ``BENCH_<snapshot_name or name>.json`` at the repo root via a
    staged-tmp/fsync write — and, when ``REPRO_PERF_LEDGER`` names a
    ledger file, the merged document is flattened and appended there
    too, so one bench run leaves both the point-in-time snapshot and a
    durable history record.  Benches used to hand-roll the JSON writes
    (four different open/json.dump idioms, one of which clobbered
    populated sections with empty ones); this helper is the single
    shared path.
    """
    if text is not None:
        from repro.experiments.report import save_result

        save_result(name, text)
        print("\n" + text)
    if metrics:
        _BENCH_OBS["tables"].setdefault(name, {}).update(metrics)
    if snapshot is not None:
        _write_snapshot(snapshot_name or name, snapshot)


def harvest_totals(totals: dict) -> dict:
    """Engine telemetry totals as a BENCH file records them.

    ``wall_s_sum`` sums table jobs only; the tune search and the shared
    runner run none, so it is structurally 0 for them.  Their wall time
    is ``jobs_wall_s_sum``, the sum over every job.
    """
    return {name: value for name, value in totals.items()
            if name != "wall_s_sum"}


def _write_snapshot(stem: str, fields: dict) -> None:
    """Merge ``fields`` into ``BENCH_<stem>.json`` (staged tmp, fsync).

    Dict-valued fields merge key-by-key with what is on disk instead of
    replacing it, so a partial bench selection updates its own entries
    without clobbering sections another selection populated — the bug
    that left ``BENCH_observability.json`` with empty runner sections.
    The write is staged-tmp → fsync → ``os.replace`` (the journal
    discipline): readers never see a torn snapshot.
    """
    path = os.path.join(_REPO_ROOT, f"BENCH_{stem}.json")
    document: dict = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (json.JSONDecodeError, OSError):
            document = {}
    for key, value in fields.items():
        if isinstance(value, dict) and isinstance(document.get(key), dict):
            merged = dict(document[key])
            merged.update(value)
            document[key] = merged
        else:
            document[key] = value
    stage = f"{path}.tmp-{os.getpid()}"
    with open(stage, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(stage, path)
    _ledger_append(stem, document)


def _ledger_append(stem: str, document: dict) -> None:
    """Append the flattened snapshot to ``$REPRO_PERF_LEDGER`` if set."""
    ledger_path = os.environ.get("REPRO_PERF_LEDGER")
    if not ledger_path:
        return
    from repro.perf.ledger import LedgerError, PerfLedger, flatten_snapshot

    metrics = flatten_snapshot(stem, document)
    if not metrics:
        return
    try:
        PerfLedger(ledger_path).append(
            sha=os.environ.get("REPRO_PERF_SHA", "unknown"),
            label=os.environ.get("REPRO_PERF_LABEL", "bench"),
            metrics=metrics,
            meta={"source": f"BENCH_{stem}.json"},
        )
    except LedgerError:
        # A broken ledger must never fail the bench that feeds it.
        pass


def record_runner(counters: dict | None = None,
                  totals: dict | None = None) -> None:
    """Merge runner-level counters/totals into ``BENCH_observability.json``.

    The shared ``runner`` fixture feeds here at session finish, but
    benches that drive their *own* execution engine — ``bench_service``
    runs a whole daemon, never the fixture — must feed their counters
    in explicitly.  Before this hook existed, a bench selection that
    skipped the fixture (``pytest benchmarks/bench_service.py``) wrote
    ``BENCH_observability.json`` with empty ``runner_counters``/
    ``runner_totals``, and the trajectory graphs silently flatlined.
    Numeric values accumulate across calls so multiple sources merge
    instead of clobbering each other.
    """
    for name, value in (counters or {}).items():
        entry = _BENCH_OBS["runner_counters"]
        entry[name] = entry.get(name, 0) + value
    for name, value in (totals or {}).items():
        entry = _BENCH_OBS["runner_totals"]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            entry[name] = entry.get(name, 0) + value
        else:
            entry[name] = value


def _table_for_nodeid(nodeid: str) -> str | None:
    """``benchmarks/bench_table6_cache_size.py::test_x`` -> ``table6``-ish."""
    filename = nodeid.split("::")[0].rsplit("/", 1)[-1]
    if not filename.startswith("bench_"):
        return None
    stem = filename[len("bench_"):].removesuffix(".py")
    return stem


def pytest_runtest_logreport(report):
    """Capture each bench test's call-phase wall time."""
    if report.when != "call":
        return
    name = _table_for_nodeid(report.nodeid)
    if name is None:
        return
    entry = _BENCH_OBS["tables"].setdefault(name, {})
    entry["wall_s"] = entry.get("wall_s", 0.0) + report.duration
    entry["outcome"] = report.outcome


def pytest_sessionfinish(session, exitstatus):
    """Write ``BENCH_observability.json`` at the repo root."""
    if not _BENCH_OBS["tables"]:
        return
    if _SHARED_RUNNER is not None and _SHARED_RUNNER.telemetry is not None:
        # Merge, don't overwrite: benches may have fed their own engine's
        # numbers through record_runner already.
        record_runner(
            counters=dict(_SHARED_RUNNER.telemetry.counters),
            totals=harvest_totals(_SHARED_RUNNER.telemetry.totals()),
        )
    if _SHARED_RECORDER is not None:
        from repro import obs

        _BENCH_OBS["obs_metrics"] = _SHARED_RECORDER.metrics.to_dict()
        obs.install(obs.NULL)
    # Through the shared merge path: a bench selection that populated
    # only some sections updates those without emptying the rest, and
    # the document is ledgered when REPRO_PERF_LEDGER is set.
    fields = {
        key: value for key, value in _BENCH_OBS.items()
        if not (isinstance(value, dict) and not value)
    }
    _write_snapshot("observability", fields)
