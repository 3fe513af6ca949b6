"""Trace export: recorded spans/events as Chrome ``trace_event`` JSON.

``python -m repro.obs export <run-dir> --format chrome-trace`` converts
a run's ``telemetry.jsonl`` into the Trace Event Format that
``chrome://tracing`` and Perfetto load natively, turning the phase tree
into a visual timeline:

* **spans** become complete (``"ph": "X"``) events -- name, start and
  duration in microseconds, span attrs under ``args`` -- so nesting
  renders as stacked slices;
* **point events** (checkpoints, heartbeats, faults) become instant
  (``"ph": "i"``) events with process scope;
* **metrics snapshots** become counter (``"ph": "C"``) events, one per
  counter, so cumulative series (rows emitted, chunks written) plot as
  staircase tracks under the slices.

Every event belongs to one trace process, named by a process-name
metadata record.  The export is deterministic: events keep their file
order, so the same telemetry always produces the same JSON bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "TRACE_NAME",
    "EXPORT_FORMATS",
    "events_to_chrome_trace",
    "export_chrome_trace",
]

#: Default export file name inside a run directory.
TRACE_NAME = "trace.json"

EXPORT_FORMATS = ("chrome-trace",)


def events_to_chrome_trace(events: list[dict]) -> dict:
    """Build the Trace Event Format payload for one telemetry stream."""
    pid = 1
    trace_events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]

    for event in events:
        kind = event.get("kind")
        if kind == "span":
            trace_events.append(
                {
                    "ph": "X",
                    "name": str(event.get("name", "?")),
                    "cat": "span",
                    "ts": round(float(event.get("start", 0.0)) * 1e6, 1),
                    "dur": round(float(event.get("dur", 0.0)) * 1e6, 1),
                    "pid": pid,
                    "tid": 1,
                    "args": event.get("attrs") or {},
                }
            )
        elif kind == "event":
            trace_events.append(
                {
                    "ph": "i",
                    "name": str(event.get("name", "?")),
                    "cat": "event",
                    "ts": round(float(event.get("t", 0.0)) * 1e6, 1),
                    "pid": pid,
                    "tid": 1,
                    "s": "p",
                    "args": event.get("attrs") or {},
                }
            )
        elif kind == "metrics":
            counters = (event.get("data") or {}).get("counters") or {}
            ts = round(float(event.get("t", 0.0)) * 1e6, 1)
            for name in sorted(counters):
                trace_events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "ts": ts,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": counters[name]},
                    }
                )
        # "resources" and unknown kinds carry no timeline geometry.

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def export_chrome_trace(events: list[dict], out: str | Path) -> Path:
    """Serialize the chrome-trace payload atomically to ``out``."""
    from ..records.atomic import atomic_write_text

    out = Path(out)
    payload = events_to_chrome_trace(events)
    atomic_write_text(
        out, json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    )
    return out
