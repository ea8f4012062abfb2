"""The shared checksummed JSON-lines format under byte damage, and the
stability of the journal and ledger bytes it reads."""

from __future__ import annotations

import json
import os

import pytest

from repro import durable
from repro.perf.ledger import PerfLedger, _is_ledger_record
from repro.service.journal import JobJournal, _is_journal_record

#: Written (with ``ts`` fixed) by the journal and ledger writers that
#: predate :mod:`repro.durable`; these bytes must keep reading.
JOURNAL_LINE = (
    '{"checksum": "203d004ab1059f37", "data": {"created": 1760000000.0, '
    '"fingerprint": "fp-wc", "id": "job-000007", "request": {"kind": '
    '"explain", "scale": "small", "workload": "wc"}, "submission": '
    '"sub-1", "trace": "t-1"}, "event": "accept", "format": '
    '"repro-journal-v1", "seq": 1, "ts": 1760000000.25}'
)
LEDGER_LINE = (
    '{"checksum": "7721674cf740bec9", "format": "repro-perf-v1", "label": '
    '"ci", "meta": {"bench_dir": "/bench"}, "metrics": '
    '{"service.hit_rate": 0.5, "table6.wall_s": 1.25}, "seq": 1, "sha": '
    '"0123456789ab", "ts": 1760000000.25}'
)


def _journal_segment(tmp_path) -> tuple[str, object]:
    journal = JobJournal(str(tmp_path / "j"))
    for n in range(1, 4):
        journal.append("accept", {
            "id": f"job-{n:06d}", "request": {"kind": "table"},
            "fingerprint": f"fp-{n}", "created": 1000.0 + n,
        })
    journal.close()
    return os.path.join(journal.root, "segment-000001.jsonl"), \
        _is_journal_record


def _ledger(tmp_path) -> tuple[str, object]:
    ledger = PerfLedger(str(tmp_path / "led.jsonl"))
    for n in range(3):
        ledger.append(f"sha{n}", "ci", {"table6.wall_s": 1.0 + n})
    return ledger.path, _is_ledger_record


def _damaged(data: bytes, offsets=None):
    """Every truncation, and every byte flipped (alternately to a
    neighbouring ASCII byte and to one that is not valid UTF-8); or only
    those at ``offsets``."""
    for offset in range(len(data)) if offsets is None else offsets:
        yield data[:offset]
        flipped = bytearray(data)
        flipped[offset] ^= 0x80 if offset % 2 else 0x01
        yield bytes(flipped)


@pytest.mark.parametrize("build", [_journal_segment, _ledger])
def test_reader_survives_every_truncation_and_byte_flip(tmp_path, build):
    path, accept = build(tmp_path)
    with open(path, "rb") as handle:
        pristine = handle.read()
    originals = durable.read(path, accept).records
    assert len(originals) == 3
    damaged_path = str(tmp_path / "damaged.jsonl")
    for data in _damaged(pristine):
        with open(damaged_path, "wb") as handle:
            handle.write(data)
        scan = durable.read(damaged_path, accept)
        for record in scan.records:
            assert record["checksum"] == durable.record_checksum(record)
            assert record in originals
        lines = [line for line in data.split(b"\n") if line.strip()]
        assert len(scan.records) + scan.corrupt == len(lines)
        assert scan.good_end <= len(data)


def test_checked_in_lines_verify():
    for line in (JOURNAL_LINE, LEDGER_LINE):
        record = json.loads(line)
        assert record["checksum"] == durable.record_checksum(record)
        assert durable.seal(dict(record)) == line


def test_checked_in_journal_replays_to_the_same_tickets(tmp_path):
    root = tmp_path / "j"
    root.mkdir()
    (root / "segment-000001.jsonl").write_text(JOURNAL_LINE + "\n")
    replay = JobJournal(str(root)).replay()
    assert (replay.records, replay.corrupt, replay.max_id) == (1, 0, 7)
    assert replay.ticket_states() == [{
        "id": "job-000007",
        "request": {"kind": "explain", "scale": "small", "workload": "wc"},
        "fingerprint": "fp-wc", "submission": "sub-1", "trace": "t-1",
        "state": "queued", "created": 1760000000.0, "started": None,
        "finished": None, "coalesced": 0, "attempt": 0, "requeues": 0,
        "recovered": False, "result": None, "error": None, "failure": None,
    }]


def test_checked_in_ledger_reads_and_extends(tmp_path):
    ledger = PerfLedger(str(tmp_path / "led.jsonl"))
    with open(ledger.path, "w") as handle:
        handle.write(LEDGER_LINE + "\n")
    view = ledger.read()
    assert view.corrupt == 0
    assert view.records == [json.loads(LEDGER_LINE)]
    assert ledger.append("next", "ci", {"table6.wall_s": 1.0})["seq"] == 2
