"""Progress and metrics for engine runs.

Every unit of work — an artifact build (or rehydration) and a table job —
appends one :class:`JobRecord`: wall time, how many interpreter steps it
actually executed, whether the artifact store hit, and how long the traces
involved were.  A warm-cache run is therefore *assertable*: its telemetry
must show ``totals()["interp_instructions"] == 0``.

Counters live in a :class:`repro.obs.metrics.MetricsRegistry` (which
superseded the ad-hoc counter dict this module used to carry); pass the
registry of an active :class:`repro.obs.Recorder` to share one metric
namespace between the telemetry JSON and the observability run file.

The JSON dump (``--telemetry PATH`` on the CLI) is what the benchmark
trajectory records.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.obs.metrics import MetricsRegistry

__all__ = ["COUNTER_NAMES", "JobRecord", "Telemetry"]

#: Robustness counters every telemetry document reports (zero on a clean
#: run): scheduler retries, job timeouts, store quarantines, and process
#: pool restarts.  Kept as the *guaranteed* subset of the registry — the
#: registry itself is open-ended.
COUNTER_NAMES = ("retries", "timeouts", "quarantined", "pool_restarts")


@dataclass
class JobRecord:
    """One unit of engine work.

    ``store`` is ``"hit"`` (rehydrated from the artifact store),
    ``"miss"`` (computed and persisted), or ``"off"`` (no store attached).
    ``memo_hits`` is 1 on a hit whose hydration an earlier request in
    this process already did (the runner's process-wide memo).
    ``wall_s`` of a table record includes its artifact rehydrations, so
    walls are reported per record rather than summed in totals.
    ``key`` is the artifact-store entry an ``artifacts`` record read or
    created (``None`` without a store), so a run's records name the
    entries it touched.
    """

    job_id: str
    kind: str                       # "artifacts" | "table" | ...
    wall_s: float
    interp_instructions: int = 0
    store: str = "off"
    memo_hits: int = 0
    trace_blocks: int = 0
    key: str | None = None


class Telemetry:
    """An append-only log of job records plus run-level metadata."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.records: list[JobRecord] = []
        self.meta: dict = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in COUNTER_NAMES:
            self.registry.counter(name)

    @property
    def counters(self) -> dict[str, int]:
        """Current counter values (a snapshot — mutate via :meth:`bump`)."""
        return self.registry.counter_values()

    def bump(self, name: str, count: int = 1) -> None:
        """Increment a robustness counter (``retries``, ``timeouts``, ...)."""
        self.registry.counter(name).inc(count)

    def record(self, **kwargs) -> JobRecord:
        """Append one record (keyword form of :class:`JobRecord`)."""
        record = JobRecord(**kwargs)
        self.records.append(record)
        return record

    def extend(self, records: list[JobRecord]) -> None:
        self.records.extend(records)

    def totals(self) -> dict:
        """Aggregates the acceptance checks and benchmarks key off.

        ``wall_s_sum`` sums ``wall_s`` over **table records only**.  A
        table record's wall already includes the artifact rehydrations it
        performed (see :class:`JobRecord`), so summing every record would
        double-count rehydration time; the table-only sum is the run's
        end-to-end table regeneration time.  It leaves out
        artifact builds and ``explain`` jobs, which dominate many runs, so
        ``jobs_wall_s_sum`` sums ``wall_s`` over **every** record (a
        rehydration counts both alone and inside its table).
        """
        return {
            "jobs": len(self.records),
            "interp_instructions": sum(
                record.interp_instructions for record in self.records
            ),
            "store_hits": sum(
                1 for record in self.records if record.store == "hit"
            ),
            "store_misses": sum(
                1 for record in self.records if record.store == "miss"
            ),
            "memo_hits": sum(record.memo_hits for record in self.records),
            "trace_blocks": sum(
                record.trace_blocks for record in self.records
            ),
            "wall_s_sum": sum(
                record.wall_s for record in self.records
                if record.kind == "table"
            ),
            "jobs_wall_s_sum": sum(record.wall_s for record in self.records),
        }

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "totals": self.totals(),
            "counters": dict(self.counters),
            "jobs": [asdict(record) for record in self.records],
        }

    def dump(self, path: str) -> None:
        """Write the telemetry document as JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @staticmethod
    def load(path: str) -> dict:
        """Read back a dumped telemetry document."""
        with open(path) as handle:
            return json.load(handle)
