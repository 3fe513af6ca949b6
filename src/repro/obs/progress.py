"""Live progress sidecar: ``progress.json`` in the run directory.

``telemetry.jsonl`` is flushed only when a checkpoint makes the run
state durable, so a long run is a black box *between* checkpoints.  The
:class:`ProgressSink` closes that gap: attached by the checkpoint
runner next to the JSONL sink, it condenses the event stream into one
small JSON object -- current phase, last completed day, throughput,
ETA, counter snapshot, last checkpoint, degradation state -- and
atomically rewrites ``progress.json`` on every heartbeat and checkpoint
event, **independent of the checkpoint-gated telemetry flush**.  The
file is tiny and replaced via the usual tmp + fsync + ``os.replace``
protocol, so a reader (``python -m repro.obs watch``, CI) always sees
a complete JSON object, never a torn one.

Like everything in ``repro.obs``, the sink is a pure observer: it
never draws randomness and only does arithmetic on event payloads, so
a run with the sidecar active is bit-identical to one without it
(``tests/obs/test_determinism.py``).  A persistent write failure
degrades -- the simulation must never die for its progress file -- and
is reported once via the ``repro.obs`` logger.

Sidecar schema (``repro.progress/v1``)::

    {"schema": "repro.progress/v1",
     "status": "running" | "complete" | "interrupted",
     "phase": "phase1" | "phase3" | ..., "day": 311, "days": 728,
     "days_per_sec": 14.2, "eta_s": 29.4, "heartbeats": 12,
     "counters": {...}, "last_checkpoint": {...},
     "degraded": [...], "elapsed_s": 21.9, "updated_unix": 1754640000.0}

``updated_unix`` is the only wall-clock field (readers use it for
staleness warnings); everything else derives from the monotonic event
stream.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .logsetup import get_logger
from .sink import Sink

__all__ = [
    "PROGRESS_NAME",
    "PROGRESS_SCHEMA",
    "ProgressSink",
    "load_progress",
    "render_progress",
]

#: Sidecar file name inside a checkpoint-runner run directory.
PROGRESS_NAME = "progress.json"

PROGRESS_SCHEMA = "repro.progress/v1"

#: Counters surfaced in the sidecar snapshot (kept small on purpose --
#: the full registry still lands in ``telemetry.jsonl``).
SNAPSHOT_COUNTERS: tuple[str, ...] = (
    "auction.rows_emitted",
    "auction.queries_sampled",
    "runner.chunks_written",
    "io.degraded",
    "io.retries",
)

_log = get_logger("obs.progress")


class ProgressSink(Sink):
    """Condense the event stream into an atomically-updated sidecar."""

    def __init__(
        self,
        run_dir: str | Path,
        days: int | None = None,
        registry=None,
        wall_clock=time.time,
    ) -> None:
        self.path = Path(run_dir) / PROGRESS_NAME
        self._wall_clock = wall_clock
        if registry is None:
            from . import metrics

            registry = metrics()
        self._registry = registry
        self._warned = False
        self.state: dict = {
            "schema": PROGRESS_SCHEMA,
            "status": "running",
            "phase": None,
            "day": None,
            "days": days,
            "days_per_sec": None,
            "eta_s": None,
            "heartbeats": 0,
            "counters": {},
            "last_checkpoint": None,
            "degraded": [],
            "elapsed_s": 0.0,
        }

    # -- event stream --------------------------------------------------

    def emit(self, event: dict) -> None:
        kind = event.get("kind")
        if kind != "event":
            return
        name = event.get("name")
        attrs = event.get("attrs") or {}
        state = self.state
        state["elapsed_s"] = round(float(event.get("t", 0.0)), 3)
        if name == "runner.start":
            state["status"] = "running"
            if attrs.get("days") is not None:
                state["days"] = int(attrs["days"])
            self.write()
        elif name == "runner.resume":
            state["status"] = "running"
            state["phase"] = attrs.get("phase")
            if attrs.get("next_day") is not None:
                state["day"] = int(attrs["next_day"]) - 1
            self.write()
        elif name == "heartbeat":
            state["heartbeats"] += 1
            state["phase"] = attrs.get("phase")
            if attrs.get("day") is not None:
                state["day"] = int(attrs["day"])
            if attrs.get("days_per_sec") is not None:
                state["days_per_sec"] = float(attrs["days_per_sec"])
            if attrs.get("eta_s") is not None:
                state["eta_s"] = float(attrs["eta_s"])
            self.write()
        elif name == "runner.checkpoint":
            state["last_checkpoint"] = dict(attrs)
            if attrs.get("day_end") is not None:
                state["day"] = int(attrs["day_end"]) - 1
            self.write()
        elif name == "io.degraded":
            artifact = attrs.get("artifact")
            if artifact and artifact not in state["degraded"]:
                state["degraded"].append(artifact)
            self.write()
        elif name == "runner.complete":
            state["status"] = "complete"
            state["eta_s"] = 0.0
            if state["days"] is not None:
                state["day"] = int(state["days"]) - 1
            self.write()

    def mark(self, status: str) -> None:
        """Force a terminal status (the runner marks ``interrupted`` on
        the way out of a failing run) and persist it."""
        self.state["status"] = status
        self.write()

    def flush(self) -> None:
        self.write()

    # -- persistence ---------------------------------------------------

    def write(self) -> None:
        """Atomically rewrite the sidecar from the current state.

        Failures degrade (warn once, keep simulating): the sidecar is a
        convenience for watchers, never a load-bearing artifact.
        """
        snapshot = self._registry.snapshot()["counters"]
        self.state["counters"] = {
            name: snapshot[name]
            for name in SNAPSHOT_COUNTERS
            if snapshot.get(name)
        }
        payload = dict(self.state)
        payload["updated_unix"] = round(float(self._wall_clock()), 3)
        try:
            from ..records.atomic import atomic_write_text

            atomic_write_text(
                self.path,
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n",
            )
        except OSError as exc:
            if not self._warned:
                self._warned = True
                _log.warning(
                    "progress sidecar write failed (%s); the simulation "
                    "continues without live progress",
                    exc,
                )


def load_progress(run_dir: str | Path) -> dict | None:
    """The parsed sidecar of a run directory, or ``None`` when absent
    or unreadable (pre-sidecar run dirs are a normal state)."""
    path = Path(run_dir)
    if path.is_dir():
        path = path / PROGRESS_NAME
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def _format_eta(eta_s: float | None) -> str:
    if eta_s is None:
        return "eta ?"
    eta_s = float(eta_s)
    if eta_s >= 3600:
        return f"eta {eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"eta {eta_s / 60:.1f}m"
    return f"eta {eta_s:.0f}s"


def render_progress(progress: dict, stale_s: float | None = None) -> str:
    """One status line for a sidecar payload (the watch CLI)."""
    status = progress.get("status", "?")
    day = progress.get("day")
    days = progress.get("days")
    parts = [status]
    if progress.get("phase"):
        parts.append(str(progress["phase"]))
    if day is not None and days:
        done = int(day) + 1
        parts.append(f"day {done}/{days} ({done / int(days):.0%})")
    if status == "running":
        if progress.get("days_per_sec"):
            parts.append(f"{float(progress['days_per_sec']):.1f} days/s")
        parts.append(_format_eta(progress.get("eta_s")))
    checkpoint = progress.get("last_checkpoint")
    if checkpoint and checkpoint.get("day_end") is not None:
        parts.append(f"ckpt@{checkpoint['day_end']}")
    degraded = progress.get("degraded")
    if degraded:
        parts.append(f"degraded:{','.join(degraded)}")
    if stale_s is not None and stale_s > 0:
        parts.append(f"stale {stale_s:.0f}s")
    return "  ".join(parts)
