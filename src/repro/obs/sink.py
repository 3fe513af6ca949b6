"""Telemetry sinks: where tracer events go.

The default is *no* sink attached, and the tracer then builds no
event payloads at all.  This module defines two concrete sinks (the
third, :class:`~repro.obs.progress.ProgressSink`, writes the live
``progress.json`` sidecar):

* :class:`MemorySink` -- collects events in a list; behind
  :func:`repro.obs.capture` for tests and the bench harness.
* :class:`JsonlSink` -- buffers events in memory and persists them as
  ``telemetry.jsonl`` with the same tmp + fsync + ``os.replace``
  protocol the checkpoint manifest uses
  (:mod:`repro.records.atomic`).  :meth:`JsonlSink.flush` rewrites the
  whole file atomically, so a crash at any instant leaves either the
  previous flush or the new one -- always a readable JSONL file, never
  a torn line.  The checkpoint runner flushes at every durable
  checkpoint, so telemetry is exactly as crash-safe as the run state
  it describes.

A resumed run re-opens the existing ``telemetry.jsonl``: the old
events are preloaded as the file's prefix and span/event ids from the
new process are offset past the highest id already recorded, so ids
stay unique across crash/resume process boundaries and the report CLI
can treat the whole file as one run history.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "TELEMETRY_NAME",
    "Sink",
    "MemorySink",
    "JsonlSink",
]

#: Telemetry file name inside a checkpoint-runner run directory.
TELEMETRY_NAME = "telemetry.jsonl"


class Sink:
    """Sink interface; subclasses override :meth:`emit`."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        """Persist buffered events (no-op for unbuffered sinks)."""


class MemorySink(Sink):
    """Collects events in a list -- for tests and the bench harness."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)


class JsonlSink(Sink):
    """Durable JSONL sink with atomic whole-file flushes (see module
    docstring for the crash-safety and resume contract)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lines: list[str] = []
        self._dirty = False
        self._id_offset = 0
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                self._lines.append(line)
                try:
                    prior = json.loads(line)
                except json.JSONDecodeError:
                    continue
                span_id = prior.get("id")
                if isinstance(span_id, int):
                    self._id_offset = max(self._id_offset, span_id)

    def emit(self, event: dict) -> None:
        if self._id_offset and event.get("kind") == "span":
            event = dict(event)
            event["id"] = event["id"] + self._id_offset
            if event.get("parent") is not None:
                event["parent"] = event["parent"] + self._id_offset
        self._lines.append(json.dumps(event, separators=(",", ":"), default=str))
        self._dirty = True

    def __len__(self) -> int:
        return len(self._lines)

    def flush(self) -> None:
        """Atomically rewrite the telemetry file with every buffered
        event (old file or new file after a crash -- never a torn
        hybrid)."""
        if not self._dirty:
            return
        # Imported here so the tracer/metrics layer stays importable
        # without the records package (it never is in practice, but the
        # obs core should not *require* it).
        from ..records.atomic import atomic_write_text

        atomic_write_text(self.path, "\n".join(self._lines) + "\n")
        self._dirty = False
