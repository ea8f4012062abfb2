"""Size-rotated JSONL event log for the experiment service.

Every record is one JSON object per line with a fixed envelope —
``ts`` (epoch seconds), ``level``, ``event`` — plus ``trace``/``job``
ids whenever the record belongs to a request, so the structured log
joins against trace-dir JSONL and journal records on the same ids.

Rotation is size-based: when ``events.jsonl`` would exceed
:data:`MAX_BYTES` the file is shifted to ``events.jsonl.1`` (older
generations shift up, the oldest beyond :data:`KEEP` is dropped) and a
fresh file is started; both constants are read at call time.  Writes
are serialised under a lock so worker threads can share one log.

:data:`NULL_LOG` mirrors the obs recorder contract: a no-op sink with
``enabled = False`` that the daemon uses when no ``--log-dir`` is
given, so an unlogged service pays nothing per request.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = ["EventLog", "NullEventLog", "NULL_LOG", "LEVELS"]

#: The values of each record's ``level`` field; every record is written.
LEVELS = ("debug", "info", "warning", "error")

#: Size at which ``events.jsonl`` rotates.
MAX_BYTES = 4 * 1024 * 1024

#: Rotated generations kept (``events.jsonl.1`` .. ``events.jsonl.KEEP``).
KEEP = 4


class NullEventLog:
    """Swallows every record; the zero-overhead default."""

    enabled = False

    def write(self, level, event, **fields):
        pass

    def debug(self, event, **fields):
        pass

    def info(self, event, **fields):
        pass

    def warning(self, event, **fields):
        pass

    def error(self, event, **fields):
        pass

    def close(self):
        pass


class EventLog:
    """Append-only JSONL log with size rotation."""

    enabled = True

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, "events.jsonl")
        self._lock = threading.Lock()
        self._handle = open(self.path, "a")
        self._size = self._handle.tell()

    # -- writing -----------------------------------------------------------

    def write(
        self,
        level: str,
        event: str,
        trace: str | None = None,
        job: str | None = None,
        **fields,
    ) -> None:
        """Append one record; ids first so every line greps the same way."""
        record: dict = {"ts": time.time(), "level": level, "event": event}
        if trace is not None:
            record["trace"] = trace
        if job is not None:
            record["job"] = job
        if fields:
            record.update(fields)
        line = json.dumps(record) + "\n"
        with self._lock:
            if self._handle.closed:
                return
            if self._size + len(line) > MAX_BYTES and self._size > 0:
                self._rotate()
            self._handle.write(line)
            self._handle.flush()
            self._size += len(line)

    def debug(self, event: str, **fields) -> None:
        self.write("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.write("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.write("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.write("error", event, **fields)

    # -- lifecycle ---------------------------------------------------------

    def _rotate(self) -> None:
        """Shift generations up and start a fresh file (lock held)."""
        self._handle.close()
        oldest = f"{self.path}.{KEEP}"
        if os.path.exists(oldest):
            os.unlink(oldest)
        for generation in range(KEEP - 1, 0, -1):
            source = f"{self.path}.{generation}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{generation + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a")
        self._size = 0

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


#: The zero-overhead default sink.
NULL_LOG = NullEventLog()
