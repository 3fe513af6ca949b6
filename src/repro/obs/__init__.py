"""repro.obs: structured tracing, counters, and run telemetry.

A zero-dependency observability layer threaded through the whole
simulation stack.  It records three kinds of thing -- spans, point
events and counters:

* **spans** (:mod:`~repro.obs.trace`) -- context-manager timing with
  monotonic clocks and parent/child nesting, plus point events
  (heartbeats, checkpoints, faults);
* **counters** (:mod:`~repro.obs.metrics`) -- module-level handles
  cheap enough for hot loops, published as cumulative snapshots;
* **sinks** (:mod:`~repro.obs.sink`) -- none attached by default; an
  in-memory sink for tests and benches, and a crash-safe JSONL file
  sink the checkpoint runner writes into its run directory (CLI
  diagnostics go to stderr through :mod:`~repro.obs.logsetup`);
* **the day ledger** (:mod:`~repro.obs.timeseries`) -- per-day
  marketplace-health rows; not a process-global, but an object the
  runner builds from Phase 1's outputs and the run manifest's market
  rows and passes to the auction loop;
* **reporting** -- ``python -m repro.obs report <run-dir>`` renders
  ``telemetry.jsonl`` into a phase-tree timing table and counter
  summary (:mod:`~repro.obs.report`);
* **comparison and analysis** -- the read side: cross-run diffs of the
  day ledger, validation and counters (:mod:`~repro.obs.diff`) and
  deterministic anomaly/change-point detection over the day ledger
  (:mod:`~repro.obs.analyze`), via ``python -m repro.obs
  diff|analyze``.  Neither is imported here: the write side stays
  import-light for the engine's hot path.

The package-level functions (:func:`span`, :func:`event`,
:func:`counter`, ...) operate on one process-global tracer and counter
registry, which is what the instrumented modules use.  The hard
invariant: nothing in this layer ever touches the named RNG streams,
so a fully traced run is bit-identical to an untraced one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .logsetup import LOG_LEVEL_ENV, get_logger, setup_logging
from .metrics import Counter, MetricsRegistry
from .progress import PROGRESS_NAME, ProgressSink, load_progress
from .resources import ResourceSampler
from .sink import TELEMETRY_NAME, JsonlSink, MemorySink, Sink
from .timeseries import DAYLEDGER_NAME, DayLedger
from .trace import Span, Tracer

__all__ = [
    "Counter",
    "DayLedger",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "ProgressSink",
    "ResourceSampler",
    "Sink",
    "Span",
    "Tracer",
    "DAYLEDGER_NAME",
    "HEARTBEAT_EVERY",
    "LOG_LEVEL_ENV",
    "PROGRESS_NAME",
    "TELEMETRY_NAME",
    "add_sink",
    "capture",
    "counter",
    "event",
    "get_logger",
    "load_progress",
    "metrics",
    "publish_metrics",
    "publish_resources",
    "remove_sink",
    "setup_logging",
    "span",
    "tracer",
]

#: Days between progress heartbeat events in the engine's day loops
#: (read when a loop starts; 0 disables them).
HEARTBEAT_EVERY = 25

_TRACER = Tracer()
_METRICS = MetricsRegistry()


def tracer() -> Tracer:
    """The process-global tracer the instrumented modules emit to."""
    return _TRACER


def metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _METRICS


def span(name: str, **attrs):
    """Open a span on the global tracer (context manager)."""
    return _TRACER.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Emit a point event on the global tracer."""
    _TRACER.event(name, **attrs)


def counter(name: str) -> Counter:
    """Get-or-create a counter in the global registry."""
    return _METRICS.counter(name)


def add_sink(sink: Sink) -> None:
    """Attach a sink to the global tracer."""
    _TRACER.add_sink(sink)


def remove_sink(sink: Sink) -> None:
    """Detach a sink from the global tracer."""
    _TRACER.remove_sink(sink)


@contextmanager
def capture() -> Iterator[MemorySink]:
    """Collect every event emitted inside the block (tests, benches)."""
    sink = MemorySink()
    _TRACER.add_sink(sink)
    try:
        yield sink
    finally:
        _TRACER.remove_sink(sink)


def _publish(kind: str, data: dict) -> None:
    """Emit one ``{"t", "kind", "data"}`` envelope to the attached sinks."""
    _TRACER.emit({"t": round(_TRACER.now(), 6), "kind": kind, "data": data})


def publish_metrics() -> None:
    """Emit a cumulative counter snapshot event to the attached sinks."""
    if _TRACER.sinks:
        _publish("metrics", _METRICS.snapshot())


def publish_resources(summary: dict) -> None:
    """Emit a resource-envelope event (see :mod:`repro.obs.resources`)."""
    if _TRACER.sinks:
        _publish("resources", summary)
