"""The write-ahead job journal: durability, replay, corruption, compaction."""

from __future__ import annotations

import json
import os

import pytest

from repro.durable import record_checksum
from repro.service.journal import (
    JOURNAL_FORMAT,
    JobJournal,
    JournalLocked,
    ticket_doc,
)
from repro.service.queue import JobQueue, Ticket


def _accept(job_id: str, fingerprint: str = "fp", submission=None) -> dict:
    return {
        "id": job_id,
        "request": {"kind": "table", "table": "table6", "scale": "small"},
        "fingerprint": fingerprint,
        "submission": submission,
        "created": 1000.0,
    }


def _segment_paths(journal: JobJournal) -> list[str]:
    return [
        os.path.join(journal.root, name)
        for name in sorted(os.listdir(journal.root))
        if name.startswith("segment-")
    ]


class TestAppendReplay:
    def test_round_trip_rebuilds_ticket_table(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", _accept("job-000001", submission="sub-1"))
        journal.append("start", {"id": "job-000001", "attempt": 0,
                                 "started": 1001.0})
        journal.append("finish", {"id": "job-000001", "state": "done",
                                  "finished": 1002.0,
                                  "result": {"output": "rendered"},
                                  "error": None, "failure": None})
        journal.append("accept", _accept("job-000002", "fp2"))
        journal.close()

        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.records == 4
        assert replay.corrupt == 0
        states = {doc["id"]: doc for doc in replay.ticket_states()}
        assert states["job-000001"]["state"] == "done"
        assert states["job-000001"]["result"] == {"output": "rendered"}
        assert states["job-000001"]["submission"] == "sub-1"
        assert states["job-000002"]["state"] == "queued"
        assert replay.max_id == 2

    def test_orphaned_running_survives_as_running(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", _accept("job-000001"))
        journal.append("start", {"id": "job-000001", "attempt": 0,
                                 "started": 1001.0})
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        (doc,) = replay.ticket_states()
        assert doc["state"] == "running"     # the restore() re-enqueues it

    def test_records_are_fsyncd_and_checksummed(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", _accept("job-000001"))
        (path,) = _segment_paths(journal)
        with open(path) as handle:
            record = json.loads(handle.readline())
        assert record["format"] == JOURNAL_FORMAT
        assert record["checksum"] == record_checksum(record)
        journal.close()

    def test_unknown_event_rejected(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        with pytest.raises(ValueError):
            journal.append("explode", {})
        journal.close()

    def test_replay_resumes_sequence_numbers(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", _accept("job-000001"))
        journal.append("start", {"id": "job-000001", "attempt": 0})
        journal.close()
        reopened = JobJournal(str(tmp_path / "j"))
        reopened.replay()
        seq = reopened.append("coalesce", {"id": "job-000001",
                                           "coalesced": 1})
        assert seq == 3
        reopened.close()

    def test_aborted_replay_counts_what_it_applied(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        for n in range(1, 4):
            journal.append("accept", _accept(f"job-00000{n}", f"fp{n}"))
        journal.close()
        polls = []

        def abort_on_third_poll():
            polls.append(None)
            return len(polls) > 2

        replay = JobJournal(str(tmp_path / "j")).replay(abort_on_third_poll)
        # One poll before the segment, one before each record: the
        # third poll stops it after one record, which is counted.
        assert replay.records == 1
        assert [d["id"] for d in replay.ticket_states()] == ["job-000001"]


class TestCorruption:
    def test_torn_tail_truncated_and_counted(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", _accept("job-000001"))
        journal.append("accept", _accept("job-000002", "fp2"))
        journal.close()
        (path,) = _segment_paths(journal)
        intact = os.path.getsize(path)
        with open(path, "a") as handle:     # the crash landed mid-write
            handle.write('{"format": "repro-journal-v1", "seq": 3, "ev')

        reopened = JobJournal(str(tmp_path / "j"))
        replay = reopened.replay()
        assert replay.records == 2
        assert replay.truncated_bytes > 0
        assert replay.corrupt == 0          # a torn tail is not corruption
        assert os.path.getsize(path) == intact
        # The next append lands on a clean line boundary.
        reopened.append("accept", _accept("job-000003", "fp3"))
        reopened.close()
        assert JobJournal(str(tmp_path / "j")).replay().records == 3

    def test_bad_checksum_mid_segment_skipped_and_counted(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", _accept("job-000001"))
        journal.append("accept", _accept("job-000002", "fp2"))
        journal.append("accept", _accept("job-000003", "fp3"))
        journal.close()
        (path,) = _segment_paths(journal)
        lines = open(path).read().splitlines()
        record = json.loads(lines[1])
        record["data"]["fingerprint"] = "tampered"   # checksum now wrong
        lines[1] = json.dumps(record, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.records == 2
        assert replay.corrupt == 1
        ids = [doc["id"] for doc in replay.ticket_states()]
        assert ids == ["job-000001", "job-000003"]

    def test_injected_corrupt_append_survives_replay(self, tmp_path,
                                                     monkeypatch):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("accept", _accept("job-000001"))
        monkeypatch.setenv("REPRO_FAULTS", "corrupt:journal-append=coalesce")
        journal.append("coalesce", {"id": "job-000001", "coalesced": 1})
        monkeypatch.setenv("REPRO_FAULTS", "")
        journal.append("start", {"id": "job-000001", "attempt": 0})
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.records == 2          # accept + start
        assert replay.corrupt == 1          # the torn coalesce
        (doc,) = replay.ticket_states()
        assert doc["state"] == "running"

    def test_delta_without_accept_counts_corrupt(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append("start", {"id": "job-000009", "attempt": 0})
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.ticket_states() == []
        assert replay.corrupt == 1


class TestCompaction:
    def _ticket(self, n: int, state: str = "done") -> Ticket:
        ticket = Ticket(id=f"job-{n:06d}",
                        request={"kind": "table", "table": "table6"},
                        fingerprint=f"fp-{n}", state=state)
        if state == "done":
            ticket.result = {"output": f"out-{n}"}
        return ticket

    def test_compact_replaces_segments_preserving_state(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        for n in range(1, 5):
            journal.append("accept", _accept(f"job-{n:06d}", f"fp-{n}"))
            journal.append("start", {"id": f"job-{n:06d}", "attempt": 0})
        before = journal.size_bytes()
        report = journal.compact(
            [ticket_doc(self._ticket(n)) for n in range(1, 5)]
        )
        assert report["bytes_before"] == before
        assert report["segments_removed"] >= 1
        assert len(_segment_paths(journal)) == 1
        journal.close()

        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.records == 4
        assert all(doc["state"] == "done" and doc["result"]
                   for doc in replay.ticket_states())
        assert replay.max_id == 4

    def test_should_compact_tracks_byte_budget(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"), max_bytes=200)
        assert not journal.should_compact()
        journal.append("accept", _accept("job-000001"))
        journal.append("accept", _accept("job-000002", "fp2"))
        assert journal.should_compact()
        journal.compact([])
        assert not journal.should_compact()
        journal.close()

    def test_queue_maybe_compact(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"), max_bytes=100)
        queue = JobQueue(depth=4, journal=journal)
        queue.submit({"kind": "table", "table": "table6"}, "fp-1")
        queue.finish(queue.claim(timeout=1.0), result={"output": "x"})
        assert journal.should_compact()
        assert queue.maybe_compact()
        # One snapshot segment; the finished ticket's result survives.
        assert len(_segment_paths(journal)) == 1
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        (doc,) = replay.ticket_states()
        assert doc["state"] == "done" and doc["result"] == {"output": "x"}


class TestOwnership:
    def test_second_daemon_locked_out(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        with pytest.raises(JournalLocked):
            JobJournal(str(tmp_path / "j"))
        journal.close()
        # Released on close: a restart can take over.
        JobJournal(str(tmp_path / "j")).close()
