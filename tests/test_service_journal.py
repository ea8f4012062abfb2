"""The write-ahead job journal: durability, replay, corruption, compaction."""

from __future__ import annotations

import json
import os
import signal
import time
import warnings
from dataclasses import asdict, replace

import pytest

from repro.durable import record_checksum
from repro.service import journal as journal_module
from repro.service.journal import JOURNAL_FORMAT, JobJournal, JournalLocked
from repro.service.queue import JobQueue, Ticket


def _doc(job_id: str, fingerprint: str = "fp", **fields) -> dict:
    return asdict(Ticket(
        id=job_id,
        request={"kind": "table", "table": "table6", "scale": "small"},
        fingerprint=fingerprint,
        created=1000.0,
        **fields,
    ))


def _journal_file(journal: JobJournal) -> str:
    assert sorted(os.listdir(journal.root)) == [".lock", "journal.jsonl"]
    return journal.path


class TestAppendReplay:
    def test_round_trip_rebuilds_ticket_table(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001", submission="sub-1"))
        journal.append(_doc("job-000001", submission="sub-1",
                            state="running", started=1001.0))
        done = _doc("job-000001", submission="sub-1", state="done",
                    started=1001.0, finished=1002.0,
                    result={"output": "rendered"})
        journal.append(done)
        journal.append(_doc("job-000002", "fp2"))
        journal.close()

        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.records == 4
        assert replay.corrupt == 0
        assert replay.ticket_states() == [done, _doc("job-000002", "fp2")]

    def test_orphaned_running_survives_as_running(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001"))
        journal.append(_doc("job-000001", state="running", started=1001.0))
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        (doc,) = replay.ticket_states()
        assert doc["state"] == "running"     # the restore() re-enqueues it

    def test_newest_doc_wins_in_order_of_first_appearance(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001"))
        journal.append(_doc("job-000002", "fp2"))
        journal.append(_doc("job-000001", coalesced=2))
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        assert [(d["id"], d["coalesced"]) for d in replay.ticket_states()] \
            == [("job-000001", 2), ("job-000002", 0)]

    def test_records_are_fsyncd_and_checksummed(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001"))
        with open(_journal_file(journal)) as handle:
            record = json.loads(handle.readline())
        assert record["format"] == JOURNAL_FORMAT
        assert record["ticket"] == _doc("job-000001")
        assert record["checksum"] == record_checksum(record)
        journal.close()

    def test_replay_resumes_sequence_numbers(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001"))
        journal.append(_doc("job-000001", state="running"))
        journal.close()
        reopened = JobJournal(str(tmp_path / "j"))
        reopened.replay()
        assert reopened.append(_doc("job-000001", coalesced=1)) == 3
        reopened.close()

    def test_aborted_replay_counts_what_it_applied(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        for n in range(1, 4):
            journal.append(_doc(f"job-00000{n}", f"fp{n}"))
        journal.close()
        polls = []

        def abort_on_third_poll():
            polls.append(None)
            return len(polls) > 2

        replay = JobJournal(str(tmp_path / "j")).replay(abort_on_third_poll)
        # One poll before the file, one before each record: the third
        # poll stops it after one record, which is counted.
        assert replay.records == 1
        assert [d["id"] for d in replay.ticket_states()] == ["job-000001"]


class TestCorruption:
    def test_torn_tail_truncated_and_counted(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001"))
        journal.append(_doc("job-000002", "fp2"))
        journal.close()
        path = _journal_file(journal)
        intact = os.path.getsize(path)
        with open(path, "a") as handle:     # the crash landed mid-write
            handle.write('{"format": "repro-journal-v2", "seq": 3, "ti')

        reopened = JobJournal(str(tmp_path / "j"))
        replay = reopened.replay()
        assert replay.records == 2
        assert replay.truncated_bytes > 0
        assert replay.corrupt == 0          # a torn tail is not corruption
        assert os.path.getsize(path) == intact
        # The next append lands on a clean line boundary.
        reopened.append(_doc("job-000003", "fp3"))
        reopened.close()
        assert JobJournal(str(tmp_path / "j")).replay().records == 3

    def test_bad_checksum_mid_segment_skipped_and_counted(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001"))
        journal.append(_doc("job-000002", "fp2"))
        journal.append(_doc("job-000003", "fp3"))
        journal.close()
        path = _journal_file(journal)
        lines = open(path).read().splitlines()
        record = json.loads(lines[1])
        record["ticket"]["fingerprint"] = "tampered"   # checksum now wrong
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
        journal.append(_doc("job-000001"))
        journal.append(_doc("job-000001", state="running"))
        monkeypatch.setenv("REPRO_FAULTS", "corrupt:journal-append=done:*")
        journal.append(_doc("job-000001", state="done", result={}))
        monkeypatch.setenv("REPRO_FAULTS", "")
        journal.append(_doc("job-000002", "fp2"))
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.records == 3
        assert replay.corrupt == 1          # the torn finish
        # Losing a record costs only its transition: the ticket's
        # previous document still restores.
        first, second = replay.ticket_states()
        assert first["state"] == "running"
        assert second["id"] == "job-000002"

    @pytest.mark.parametrize("damage", [
        lambda doc: doc.pop("fingerprint"),             # missing field
        lambda doc: doc.update(colour="blue"),          # unknown field
        lambda doc: doc.update(id=["job-000001"]),      # not a string id
        lambda doc: doc.update(state="exploded"),       # unknown state
    ], ids=["missing", "unknown", "id-type", "state"])
    def test_doc_that_builds_no_ticket_counts_corrupt(self, tmp_path,
                                                      damage):
        journal = JobJournal(str(tmp_path / "j"))
        journal.append(_doc("job-000001"))
        bad = _doc("job-000001", state="running")
        damage(bad)
        journal.append(bad)         # verified by checksum, yet no ticket
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        assert (replay.records, replay.corrupt) == (1, 1)
        (doc,) = replay.ticket_states()
        assert doc == _doc("job-000001")
        # A verified line is not a torn tail: nothing was truncated.
        assert replay.truncated_bytes == 0


class TestCompaction:
    def test_compact_rewrites_one_file_preserving_state(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        for n in range(1, 5):
            journal.append(_doc(f"job-{n:06d}", f"fp-{n}"))
            journal.append(_doc(f"job-{n:06d}", f"fp-{n}", state="running"))
        before = os.path.getsize(journal.path)
        done = [
            _doc(f"job-{n:06d}", f"fp-{n}", state="done",
                 result={"output": f"out-{n}"})
            for n in range(1, 5)
        ]
        journal.compact(done)
        assert os.path.getsize(_journal_file(journal)) < before
        # Appends after a compaction land in the new file.
        journal.append(_doc("job-000005", "fp-5"))
        journal.close()

        replay = JobJournal(str(tmp_path / "j")).replay()
        assert replay.records == 5
        assert replay.ticket_states() == done + [_doc("job-000005", "fp-5")]

    def test_should_compact_tracks_byte_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "MAX_BYTES", 600)
        journal = JobJournal(str(tmp_path / "j"))
        assert not journal.should_compact()
        journal.append(_doc("job-000001"))
        journal.append(_doc("job-000002", "fp2"))
        assert journal.should_compact()
        journal.compact([])
        assert not journal.should_compact()
        journal.close()

    def test_queue_maybe_compact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "MAX_BYTES", 100)
        journal = JobJournal(str(tmp_path / "j"))
        queue = JobQueue(depth=4, journal=journal)
        queue.submit({"kind": "table", "table": "table6"}, "fp-1")
        queue.finish(queue.claim(timeout=1.0), result={"output": "x"})
        assert journal.should_compact()
        assert queue.maybe_compact()
        # One record per live ticket; the finished ticket's result
        # survives.
        with open(_journal_file(journal)) as handle:
            assert len(handle.readlines()) == 1
        journal.close()
        replay = JobJournal(str(tmp_path / "j")).replay()
        (doc,) = replay.ticket_states()
        assert doc["state"] == "done" and doc["result"] == {"output": "x"}


def test_restore_rebuilds_the_live_tickets(tmp_path):
    """Every queue transition journals the whole ticket, so a reopened
    journal restores tickets equal to the live ones."""
    journal = JobJournal(str(tmp_path / "j"))
    queue = JobQueue(depth=8, journal=journal, retries=1)
    done, _ = queue.submit({"kind": "table", "table": "table6"}, "fp-1",
                           submission="sub-1", trace="t-1")
    queue.submit({"kind": "table", "table": "table6"}, "fp-1")  # coalesce
    claimed = queue.claim(timeout=1.0)
    assert queue.requeue(claimed, "crash") == "requeued"
    claimed = queue.claim(timeout=1.0)
    assert queue.finish(claimed, result={"output": "x"},
                        attempt=claimed.attempt)
    failed, _ = queue.submit({"kind": "table", "table": "table7"}, "fp-2")
    claimed = queue.claim(timeout=1.0)
    assert queue.requeue(claimed, "crash") == "requeued"
    claimed = queue.claim(timeout=1.0)
    assert queue.requeue(claimed, "timeout") == "failed"
    running, _ = queue.submit({"kind": "table", "table": "table8"}, "fp-3")
    queue.claim(timeout=1.0)
    queued, _ = queue.submit({"kind": "table", "table": "table9"}, "fp-4")
    live = [asdict(t) for t in (done, failed, running, queued)]
    journal.close()

    reopened = JobJournal(str(tmp_path / "j"))
    replay = reopened.replay()
    assert replay.corrupt == 0
    assert replay.ticket_states() == live
    restored_queue = JobQueue(depth=8)
    summary = restored_queue.restore(replay.ticket_states())
    assert summary["recovered_ids"] == [running.id, queued.id]
    restored = [restored_queue.get(doc["id"]) for doc in live]
    assert restored[:2] == [done, failed]
    # Recovered re-enqueues aside, the interrupted tickets are the same.
    assert restored[2] == replace(running, state="queued", started=None,
                                  recovered=True)
    assert restored[3] == replace(queued, recovered=True)
    assert restored_queue.submit({}, "fp-9")[0].id == "job-000005"
    reopened.close()


def test_coalesced_submission_key_survives_a_restart(tmp_path):
    journal = JobJournal(str(tmp_path / "j"))
    queue = JobQueue(depth=8, journal=journal)
    request = {"kind": "table", "table": "table6"}
    first, outcome = queue.submit(request, "fp-1", submission="k1")
    assert (first.id, outcome) == ("job-000001", "created")
    coalesced, outcome = queue.submit(request, "fp-1", submission="k2")
    assert (coalesced.id, outcome) == ("job-000001", "coalesced")
    claimed = queue.claim(timeout=1.0)
    assert queue.finish(claimed, result={"output": "x"})
    journal.close()

    reopened = JobJournal(str(tmp_path / "j"))
    restored = JobQueue(depth=8, journal=reopened)
    restored.restore(reopened.replay().ticket_states())
    for key in ("k1", "k2"):
        ticket, outcome = restored.submit(request, "fp-1", submission=key)
        assert (ticket.id, outcome) == ("job-000001", "rematched")
        assert ticket.result == {"output": "x"}
    reopened.close()


def test_ticket_doc_without_aliases_restores_its_key():
    """A journaled ticket from before coalesced keys were recorded."""
    doc = _doc("job-000003", submission="k1")
    del doc["aliases"]
    queue = JobQueue(depth=8)
    queue.restore([doc])
    ticket, outcome = queue.submit({}, "fp-other", submission="k1")
    assert (ticket.id, outcome) == ("job-000003", "rematched")
    assert ticket.aliases == []


class TestOwnership:
    def test_second_daemon_locked_out(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j"))
        with pytest.raises(JournalLocked):
            JobJournal(str(tmp_path / "j"))
        journal.close()
        # Released on close: a restart can take over.
        JobJournal(str(tmp_path / "j")).close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_does_not_keep_the_lock(self, tmp_path):
        """A child forked while the journal is open (a process-pool
        worker of ``repro serve --jobs N``) must not keep its ownership
        lock: the child's descriptor copy shares the parent's ``flock``,
        so a daemon that died would otherwise be locked out of its own
        journal on restart for as long as the orphaned worker lives."""
        journal = JobJournal(str(tmp_path / "j"))
        ready, started = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            child = os.fork()
        if child == 0:
            try:
                os.write(started, b"x")     # past the at-fork hooks
                time.sleep(30)
            finally:
                os._exit(0)
        try:
            assert os.read(ready, 1) == b"x"
            journal.close()
            JobJournal(str(tmp_path / "j")).close()
        finally:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            os.close(ready)
            os.close(started)
