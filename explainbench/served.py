"""The ``serve_explain`` side: a ``repro serve`` daemon and an open loop.

:class:`Daemon` runs ``repro serve`` in its own process (journal on,
one worker thread) against a warm store.  :func:`open_loop` sends a
request stream at a fixed rate from one process with two threads — a
sender and a collector — each holding one connection at a time, and
times every request from when it was due to the ``finished`` timestamp
of its ticket.  Both ends read the same host clock, so latency carries
no client polling quantization; polling only decides when the collector
learns of a finish.

Run as a script, this module is the traced daemon: it installs the
span wrappers, starts ``repro serve`` through the CLI entry point, and
writes the spans out once the daemon has drained::

    python3 explainbench/served.py --spans PATH serve --port 0 ...
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: How long an accepted request may stay unfinished after the send
#: window closes before it counts as timed out.
DRAIN_GRACE_S = 60.0

#: Collector poll period while the oldest ticket is still running.
POLL_S = 0.25

#: The sender takes host-speed samples this long before a due slot:
#: late enough that the daemon has finished the previous request (the
#: samples then measure the host, not the daemon's competing load), and
#: early enough that a few ms of samples never delay the send.
SAMPLE_SLACK_S = 0.03

#: Kernel samples per inter-arrival gap.
SAMPLES_PER_GAP = 3


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, store_dir: str, log_path: str,
                 spans_path: str | None = None) -> None:
        self.store_dir = store_dir
        self.log_path = log_path
        self.spans_path = spans_path
        self.process: subprocess.Popen | None = None
        self.url: str | None = None

    def start(self, timeout: float = 60.0) -> None:
        serve_args = ["serve", "--port", "0", "--cache-dir", self.store_dir]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, os.path.join(HERE, "served.py"),
                       "--spans", self.spans_path, *serve_args]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self._wait_ready(time.monotonic() + timeout)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, deadline: float) -> None:
        from repro.service.client import RetryPolicy, ServiceClient

        while self.url is None:
            self._check_alive(deadline)
            with open(self.log_path, errors="replace") as log:
                for line in log:
                    if "listening on " in line:
                        self.url = line.split("listening on ", 1)[1].split()[0]
            time.sleep(0.01)
        client = ServiceClient(self.url, retry=RetryPolicy(retries=0))
        while client.healthz().get("status") != "ok":
            self._check_alive(deadline)
            time.sleep(0.01)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with {self.process.returncode}; "
                f"see {self.log_path}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"repro serve not ready; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (drain, then exit), and wait until the process ended."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def peak_rss_mb(pid="self") -> float:
    """A process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def open_loop(url: str, requests, rate: float, seconds: float,
              speed) -> dict:
    """Send ``requests`` at ``rate``/s for ``seconds``; collect results.

    Returns ``{"start": wall time of the first due slot, "ops": [...]}``
    with one record per request sent: its request, due/sent times, the
    ticket id and status document (``created``/``started``/
    ``finished``), whether it coalesced, the result document, and an
    ``error`` string for refused, failed or timed-out requests.
    ``speed`` samples the host shortly before each send.
    """
    from repro.service.client import RetryPolicy, ServiceClient, ServiceError

    sender = ServiceClient(url, retry=RetryPolicy(retries=0))
    collector = ServiceClient(url, retry=RetryPolicy(retries=0))
    accepted: queue.Queue = queue.Queue()
    ops: list[dict] = []
    done_tickets: dict[str, tuple[dict, dict]] = {}
    stop_at: list[float] = []

    def collect() -> None:
        while True:
            op = accepted.get()
            if op is None:
                return
            ticket = op["ticket"]
            while ticket not in done_tickets:
                try:
                    status = collector.status(ticket)
                    if status["state"] not in ("queued", "running"):
                        result = (collector.result(ticket)
                                  if status["state"] == "done" else None)
                        done_tickets[ticket] = (status, result)
                        break
                except ServiceError as exc:
                    done_tickets[ticket] = ({"error": str(exc)}, None)
                    break
                if stop_at and time.time() > stop_at[0]:
                    break
                time.sleep(POLL_S)
            status, result = done_tickets.get(ticket, ({}, None))
            op["status"] = status
            op["result"] = result
            if result is None:
                op["error"] = status.get("error") or (
                    f"ticket {status.get('state', 'unfinished')}")

    thread = threading.Thread(target=collect, name="explainbench-collect")
    thread.start()
    start = time.time() + 0.05
    try:
        for index, request in enumerate(requests):
            due = start + index / rate
            if due >= start + seconds:
                break
            delay = due - time.time()
            if delay > SAMPLE_SLACK_S:
                time.sleep(delay - SAMPLE_SLACK_S)
                speed.sample(SAMPLES_PER_GAP)
                delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            op = {"request": request, "due": due, "sent": time.time()}
            ops.append(op)
            try:
                document = sender.submit(request, retries=0)
            except ServiceError as exc:
                op["error"] = f"refused: {exc}"
                continue
            op["ticket"] = document["id"]
            op["coalesced"] = bool(document.get("coalesced"))
            accepted.put(op)
    finally:
        stop_at.append(time.time() + DRAIN_GRACE_S)
        accepted.put(None)
        thread.join()
    return {"start": start, "ops": ops}


def _traced_main(argv: list[str]) -> int:
    """``--spans PATH serve ...``: ``repro serve`` with span wrappers."""
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: served.py --spans PATH serve [ARGS...]",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    sys.path.insert(0, HERE)
    from spans import SpanLog

    from repro import cli
    from repro.service import worker

    log = SpanLog()
    log.install()
    serve_ticket = worker.ServiceWorker._serve

    def serve_with_op(self, ticket):
        # The worker thread serves one ticket at a time: its id is the
        # op id of every span the request opens.
        log.set_op(ticket.id)
        try:
            return serve_ticket(self, ticket)
        finally:
            log.set_op(None)

    worker.ServiceWorker._serve = serve_with_op
    try:
        return cli.main(cli_args)
    finally:
        log.uninstall()
        log.dump(spans_path)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(_traced_main(sys.argv[1:]))
