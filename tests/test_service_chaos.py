"""Service-level chaos: ``kill -9`` the daemon, restart, byte-identical.

The crash-safety acceptance gate.  Each scenario runs the daemon as a
real subprocess (``python -m repro.cli serve``) with a deterministic
``kill:`` fault armed at one service site, lets the fault hard-exit the
process mid-protocol, restarts a clean daemon on the same journal and
store, and asserts the invariant from ISSUE 7:

* the restart replays the journal (``repro status --recovered`` shows
  what happened),
* the final result is byte-identical to a clean CLI run,
* no request executed twice (a finished job's journaled result is
  served without re-execution; an interrupted one is re-enqueued and
  completes exactly once),
* ``repro cache verify`` exits 0 on the store the dead daemon used.

Kill points: ``accept`` (nothing journaled — the client's idempotent
retry must create the ticket), ``worker-exec`` (accept journaled —
replay must re-enqueue and re-execute), ``response-write`` (result
journaled — replay must serve it with zero re-execution).  The
``worker-exec`` point also runs against a pre-warmed store, covering
the recovery-hits-warm-cache path.

Signal handling rides the same driver: SIGTERM during journal replay
exits cleanly, ``/healthz`` answers 503 for the whole replay window,
and a second SIGTERM forces an immediate nonzero exit.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service.client import RetryPolicy, ServiceClient, ServiceError

#: The request every scenario runs — small scale, ~1s of engine work.
REQUEST = {"kind": "explain", "workload": "wc", "scale": "small", "top": 3}
CLI_ARGS = ["explain", "wc", "--scale", "small", "--top", "3"]

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_daemon(port, cache, journal, faults="", retries=1, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULTS"] = faults
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--cache-dir", cache, "--journal-dir", journal,
         "--retries", str(retries), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _wait_serving(url, timeout=30.0):
    """Block until /healthz answers 200 (recovery finished)."""
    client = ServiceClient(url, timeout=5.0,
                           retry=RetryPolicy(retries=0))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.healthz().get("status") == "ok":
                return client
        except Exception:
            pass
        time.sleep(0.05)
    raise AssertionError(f"daemon at {url} never became healthy")


def _resilient_client(url):
    """A client whose retry budget spans a daemon restart."""
    return ServiceClient(url, timeout=10.0,
                         retry=RetryPolicy(retries=40, base_s=0.05,
                                           cap_s=0.5))


@pytest.fixture(scope="module")
def reference_output(tmp_path_factory):
    """The clean-run output every chaos result must match byte-for-byte."""
    from repro.cli import main

    cache = str(tmp_path_factory.mktemp("reference-cache"))
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main([*CLI_ARGS, "--cache-dir", cache]) == 0
    return buffer.getvalue()


def _verify_store_clean(cache):
    from repro.cli import main

    assert main(["cache", "verify", "--cache-dir", cache]) == 0


def _run_scenario(tmp_path, fault, warm=False):
    """Kill the daemon at ``fault`` mid-run, restart, return the pieces."""
    from repro.cli import main

    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "journal")
    if warm:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*CLI_ARGS, "--cache-dir", cache]) == 0

    first = _spawn_daemon(port, cache, journal, faults=fault)
    outcome = {}
    try:
        _wait_serving(url)
        client = _resilient_client(url)

        def run():
            try:
                outcome["document"] = client.run(REQUEST, timeout=120.0)
            except ServiceError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()

        # The armed kill fires mid-protocol and hard-exits the daemon.
        assert first.wait(timeout=60.0) == 3, first.stderr.read()

        # Restart clean on the same journal + store; the client thread
        # is still retrying into the connection-refused gap.
        second = _spawn_daemon(port, cache, journal, faults="")
        try:
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "client never completed"
            assert "error" not in outcome, str(outcome.get("error"))
            recovered = ServiceClient(url).recovery()
            stats = ServiceClient(url).healthz()["queue"]
            outcome["recovery"] = recovered
            outcome["stats"] = stats
        finally:
            second.send_signal(signal.SIGTERM)
            assert second.wait(timeout=30.0) == 0
    finally:
        if first.poll() is None:
            first.kill()
            first.wait(timeout=10.0)

    _verify_store_clean(cache)
    return outcome


class TestKillPoints:
    def test_kill_at_accept_client_retry_creates_job(self, tmp_path,
                                                     reference_output):
        """Killed before the accept was journaled: the daemon promised
        nothing, so recovery restores nothing and the client's
        idempotent retry creates the job on the restarted daemon."""
        outcome = _run_scenario(tmp_path, fault="kill:accept")
        assert outcome["document"]["output"] + "\n" == reference_output
        assert outcome["recovery"]["records"] == 0
        assert not any(outcome["recovery"]["restored"].values())
        assert outcome["stats"]["states"]["done"] == 1

    @pytest.mark.parametrize("warm", [False, True],
                             ids=["cold-store", "warm-store"])
    def test_kill_mid_execution_replay_reexecutes_once(
            self, tmp_path, reference_output, warm):
        """Killed while the worker ran the job: the journaled accept +
        start survive, replay re-enqueues the orphaned job, and the
        restarted daemon executes it exactly once."""
        outcome = _run_scenario(tmp_path, fault="kill:worker-exec",
                                warm=warm)
        assert outcome["document"]["output"] + "\n" == reference_output
        assert outcome["document"]["receipt"]["recovered"] is True
        recovery = outcome["recovery"]
        assert recovery["restored"]["orphaned_running"] == 1
        assert recovery["restored"]["requeued"] == 1
        assert recovery["restored"]["done"] == 0
        # Exactly one ticket, completed exactly once.
        assert outcome["stats"]["states"]["done"] == 1
        assert outcome["stats"]["states"]["queued"] == 0
        assert outcome["stats"]["states"]["running"] == 0

    def test_kill_at_response_write_result_served_without_rerun(
            self, tmp_path, reference_output):
        """Killed after the finish was journaled but before the result
        response was written: replay restores the done ticket and the
        client's retried poll is answered from the journal — zero
        re-executions."""
        outcome = _run_scenario(tmp_path, fault="kill:response-write=result:*")
        assert outcome["document"]["output"] + "\n" == reference_output
        recovery = outcome["recovery"]
        assert recovery["restored"]["done"] == 1
        assert recovery["restored"]["requeued"] == 0
        assert recovery["restored"]["orphaned_running"] == 0
        # The restarted daemon executed nothing: the result predates it.
        assert outcome["stats"]["states"]["done"] == 1


class TestSignals:
    def _journal_with_backlog(self, root):
        from dataclasses import asdict

        from repro.service.journal import JobJournal
        from repro.service.queue import Ticket
        from repro.service.schemas import normalize_request, \
            request_fingerprint

        journal = JobJournal(root)
        request = normalize_request(REQUEST)
        journal.append(asdict(Ticket(
            id="job-000001", request=request,
            fingerprint=request_fingerprint(request),
        )))
        journal.close()

    def test_healthz_503_for_entire_replay_window_then_sigterm(
            self, tmp_path):
        """With replay artificially stretched to seconds, every probe in
        the window sees 503/recovering and submissions are refused;
        SIGTERM during the window still exits 0 promptly."""
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        journal = str(tmp_path / "journal")
        self._journal_with_backlog(journal)
        daemon = _spawn_daemon(
            port, str(tmp_path / "cache"), journal,
            faults="hang:journal-replay:seconds=4",
        )
        try:
            client = ServiceClient(url, timeout=2.0,
                                   retry=RetryPolicy(retries=0))
            # Wait for the listener (it comes up before recovery).
            deadline = time.monotonic() + 15.0
            probes = []
            while time.monotonic() < deadline and len(probes) < 8:
                doc = client.healthz()
                if "status" not in doc:     # listener not up yet
                    time.sleep(0.05)
                    continue
                probes.append(doc)
                time.sleep(0.2)
            assert probes, "listener never came up"
            assert all(p["status"] == "recovering" for p in probes)
            with pytest.raises(ServiceError) as info:
                client.submit(REQUEST)
            assert info.value.status == 503
            assert "recovering" in str(info.value)

            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=20.0) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)

    def test_double_sigterm_forces_immediate_nonzero_exit(self, tmp_path):
        """A wedged drain must not trap the operator: the second SIGTERM
        hard-exits 1 while a hung job still blocks the drain."""
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        daemon = _spawn_daemon(
            port, str(tmp_path / "cache"), str(tmp_path / "journal"),
            faults="hang:worker-exec:seconds=120",
        )
        try:
            _wait_serving(url)
            accepted = ServiceClient(url).submit(REQUEST)
            assert accepted["id"] == "job-000001"
            time.sleep(0.5)            # let a worker claim it and hang

            daemon.send_signal(signal.SIGTERM)
            time.sleep(1.0)            # drain blocks on the hung ticket
            assert daemon.poll() is None
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=10.0) == 1
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)

    def test_clean_sigterm_drains_and_journal_recovers_nothing(
            self, tmp_path):
        """The non-chaos baseline: a drained daemon leaves a journal
        whose replay re-enqueues nothing."""
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        cache = str(tmp_path / "cache")
        journal = str(tmp_path / "journal")
        daemon = _spawn_daemon(port, cache, journal)
        try:
            client = _wait_serving(url)
            document = ServiceClient(url).run(REQUEST, timeout=120.0)
            assert document["state"] == "done"
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30.0) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10.0)

        second = _spawn_daemon(port, cache, journal)
        try:
            _wait_serving(url)
            recovery = ServiceClient(url).recovery()
            assert recovery["restored"]["done"] == 1
            assert recovery["restored"]["requeued"] == 0
            # The finished result is still served after the restart.
            document = ServiceClient(url).wait("job-000001", timeout=10.0)
            assert document["output"]
            second.send_signal(signal.SIGTERM)
            assert second.wait(timeout=30.0) == 0
        finally:
            if second.poll() is None:
                second.kill()
                second.wait(timeout=10.0)
        # Two serve runs and a replay compaction leave one file.
        assert sorted(os.listdir(journal)) == [".lock", "journal.jsonl"]
