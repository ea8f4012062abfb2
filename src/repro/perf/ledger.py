"""The perf ledger: an append-only, checksummed performance history.

Every ``BENCH_*.json`` in this repo is an overwrite-in-place snapshot —
the trajectory across commits is invisible.  The ledger fixes that:
``repro perf record`` appends one record per bench/CI run and nothing
ever rewrites an old one, so ``repro perf history`` can render the
wall-time of table 6 across fifty commits and ``repro perf check`` can
ask whether the newest run regressed against the window before it.

On-disk layout (one JSONL file)::

    {"format": "repro-perf-v1", "seq": 12, "ts": ...,
     "sha": "9442720", "label": "ci",
     "metrics": {"observability.tables.service.wall_s": 1.74, ...},
     "meta": {...}, "checksum": "<sha256[:16]>"}

``checksum`` covers the canonical JSON of every other field — the
``repro-journal-v1`` discipline.  Appends are flushed and ``fsync``'d
before returning; a torn tail (the recording process died mid-write) is
detected by parse/checksum failure on read, skipped, and counted, never
trusted.  Mid-file corruption is handled the same way: the good records
around it still load.

:func:`harvest_metrics` flattens every ``BENCH_*.json`` under a
directory into dotted numeric keys (``search.trial_wall_s_mean``,
``observability.tables.table6.wall_s``) so one ledger record captures
the whole bench surface of a commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

__all__ = [
    "LEDGER_FORMAT",
    "LedgerError",
    "LedgerView",
    "PerfLedger",
    "flatten_snapshot",
    "harvest_metrics",
]

#: Format tag carried by every record; unknown formats are corrupt.
LEDGER_FORMAT = "repro-perf-v1"

_CHECKSUM_BYTES = 16


class LedgerError(RuntimeError):
    """A ledger that cannot be opened, written, or parsed at all."""


def _record_checksum(record: dict) -> str:
    payload = json.dumps(
        {k: v for k, v in record.items() if k != "checksum"},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:_CHECKSUM_BYTES]


class LedgerView:
    """What one read of the ledger file recovered.

    ``records`` holds every intact record in append order;
    ``corrupt`` counts lines that failed to parse or verify (torn
    tails, bit rot) and were skipped rather than trusted.
    """

    def __init__(self, records: list[dict], corrupt: int) -> None:
        self.records = records
        self.corrupt = corrupt

    def __len__(self) -> int:
        return len(self.records)

    def history(self, metric: str) -> list[tuple[dict, float]]:
        """``(record, value)`` rows for one metric, oldest first."""
        rows = []
        for record in self.records:
            value = record.get("metrics", {}).get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rows.append((record, float(value)))
        return rows

    def metric_names(self) -> list[str]:
        names: set[str] = set()
        for record in self.records:
            names.update(record.get("metrics", {}))
        return sorted(names)


class PerfLedger:
    """One append-only ledger file."""

    def __init__(self, path: str) -> None:
        self.path = path

    # -- writing -----------------------------------------------------------

    def append(
        self,
        sha: str,
        label: str,
        metrics: dict,
        meta: dict | None = None,
    ) -> dict:
        """Append one run record; durable (fsync'd) before returning."""
        clean: dict[str, float] = {}
        for key, value in sorted(metrics.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            clean[str(key)] = float(value)
        record = {
            "format": LEDGER_FORMAT,
            "seq": self._next_seq(),
            "ts": time.time(),
            "sha": sha,
            "label": label,
            "metrics": clean,
            "meta": dict(meta or {}),
        }
        record["checksum"] = _record_checksum(record)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        try:
            with open(self.path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:  # pragma: no cover - disk-level failure
            raise LedgerError(f"ledger append failed: {exc}") from exc
        return record

    def _next_seq(self) -> int:
        view = self.read()
        if not view.records:
            return 1
        return max(r.get("seq", 0) for r in view.records) + 1

    # -- reading -----------------------------------------------------------

    def read(self) -> LedgerView:
        """Every intact record, oldest first; corrupt lines counted."""
        records: list[dict] = []
        corrupt = 0
        if not os.path.exists(self.path):
            return LedgerView(records, corrupt)
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise LedgerError(f"ledger unreadable: {exc}") from exc
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            if (
                not isinstance(record, dict)
                or record.get("format") != LEDGER_FORMAT
                or record.get("checksum") != _record_checksum(record)
            ):
                corrupt += 1
                continue
            records.append(record)
        return LedgerView(records, corrupt)

    def rewrite(self, records: list[dict]) -> None:
        """Replace the ledger wholesale (staged tmp → fsync → rename).

        The one legitimate rewrite is compaction/repair: records keep
        their original payloads and get fresh checksums.
        """
        stage = f"{self.path}.tmp-{os.getpid()}"
        with open(stage, "w") as handle:
            for record in records:
                body = {k: v for k, v in record.items() if k != "checksum"}
                body["checksum"] = _record_checksum(body)
                handle.write(json.dumps(body, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(stage, self.path)


# -- harvesting ------------------------------------------------------------


#: What a histogram summary (a dict carrying ``buckets``) contributes:
#: its bucket indices come and go with the data, so only these are kept.
HISTOGRAM_KEYS = ("count", "p50", "p99")


def _flatten(prefix: str, node, out: dict[str, float]) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = float(node)
    elif isinstance(node, dict):
        if isinstance(node.get("buckets"), dict):
            node = {k: node[k] for k in HISTOGRAM_KEYS if k in node}
        for key in sorted(node):
            child = f"{prefix}.{key}" if prefix else str(key)
            _flatten(child, node[key], out)
    # Lists are positional and churn as benches evolve; skip them so
    # metric names stay stable across commits.


def flatten_snapshot(stem: str, document) -> dict[str, float]:
    """One bench snapshot → dotted numeric keys under ``stem.``.

    The single-document sibling of :func:`harvest_metrics`, used by the
    benchmark suite's ``emit_bench`` helper to ledger a snapshot at the
    moment it is written instead of re-reading it from disk later.
    """
    metrics: dict[str, float] = {}
    _flatten(stem, document, metrics)
    return metrics


def harvest_metrics(root: str) -> dict[str, float]:
    """Flatten every ``BENCH_*.json`` under ``root`` into dotted keys.

    ``BENCH_table6_cache_size.json`` contributes keys under
    ``table6_cache_size.``; unreadable files are skipped — a harvest
    never fails because one bench snapshot is torn.
    """
    metrics: dict[str, float] = {}
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return metrics
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        stem = name[len("BENCH_"):-len(".json")]
        try:
            with open(os.path.join(root, name)) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        _flatten(stem, document, metrics)
    return metrics
