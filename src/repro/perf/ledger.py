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

Records use the checksummed JSON-lines format of :mod:`repro.durable`,
shared with the service journal.  Appends are flushed and ``fsync``'d
before returning and always start on a fresh line; a torn tail (the
recording process died mid-write) is detected by parse/checksum failure
on read, skipped, and counted, never trusted.  Mid-file corruption is
handled the same way: the good records around it still load.  An
append takes its ``seq`` from the newest intact record near the end of
the file, so its cost does not grow with the ledger.

:func:`harvest_metrics` flattens every ``BENCH_*.json`` under a
directory into dotted numeric keys (``search.trial_wall_s_mean``,
``observability.tables.table6.wall_s``) so one ledger record captures
the whole bench surface of a commit.
"""

from __future__ import annotations

import json
import os
import time

from repro import durable

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


class LedgerError(RuntimeError):
    """A ledger that cannot be opened, written, or parsed at all."""


def _is_ledger_record(record: dict) -> bool:
    return record.get("format") == LEDGER_FORMAT


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
        line = durable.seal(record)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        try:
            with durable.open_append(self.path) as handle:
                durable.append(handle, line)
        except OSError as exc:  # pragma: no cover - disk-level failure
            raise LedgerError(f"ledger append failed: {exc}") from exc
        return record

    def _next_seq(self) -> int:
        try:
            last = durable.last_record(self.path, _is_ledger_record)
        except OSError as exc:
            raise LedgerError(f"ledger unreadable: {exc}") from exc
        if last is not None:
            return last.get("seq", 0) + 1
        # No intact record near the end: scan the whole file.
        records = self.read().records
        return max((r.get("seq", 0) for r in records), default=0) + 1

    # -- reading -----------------------------------------------------------

    def read(self) -> LedgerView:
        """Every intact record, oldest first; corrupt lines counted."""
        try:
            scan = durable.read(self.path, _is_ledger_record)
        except OSError as exc:
            raise LedgerError(f"ledger unreadable: {exc}") from exc
        return LedgerView(scan.records, scan.corrupt)


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
