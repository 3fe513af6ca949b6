"""Zero-dependency span tracer.

A :class:`Tracer` measures named spans of work with a monotonic clock
(:func:`time.perf_counter`), nests them parent/child via a span stack,
and emits one structured event per *finished* span -- plus one per
point event (:meth:`Tracer.event`) -- to every attached sink.  Spans
are context managers only.  With no sinks attached, spans still time
themselves but nothing is built or emitted -- the instrumentation left
permanently in the hot paths costs a couple of clock reads per span.

The hard invariant of the whole ``repro.obs`` layer is enforced here by
construction: tracing **never touches the named RNG streams**.  Span
ids come from a process-local counter, timings from the monotonic
clock, and no code path draws randomness -- a fully traced run is
bit-identical to an untraced one (``tests/obs/test_determinism.py``
pins this down).

Event payloads are plain dicts so any sink can serialize them::

    {"t": 3.21, "kind": "span", "name": "phase3.day", "id": 17,
     "parent": 5, "start": 2.95, "dur": 0.26, "attrs": {"day": 4}}

``t`` and ``start`` are seconds since the tracer's epoch (its
construction time), so they are comparable within one process and
monotone even across wall-clock jumps.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed region of work; live spans sit on the tracer's stack."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    attrs: dict = field(default_factory=dict)
    end: float | None = None


class Tracer:
    """Context-manager spans and point events with pluggable sinks."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._sinks: list = []

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Monotonic seconds since this tracer was created."""
        return time.perf_counter() - self._epoch

    # -- sink management -----------------------------------------------

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    def add_sink(self, sink) -> None:
        """Attach a sink; it receives every event emitted from now on."""
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach a sink (no-op if it is not attached)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def flush(self) -> None:
        """Flush every attached sink (durable sinks persist buffers)."""
        for sink in self._sinks:
            sink.flush()

    def emit(self, payload: dict) -> None:
        """Hand a pre-built event to every sink."""
        for sink in self._sinks:
            sink.emit(payload)

    # -- spans and events ----------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Time a region; emits one span event on exit (sinks attached).

        Nesting is tracked by a stack, so a span opened inside another
        records that span as its parent -- the report CLI reconstructs
        the phase tree from these parent pointers.
        """
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent,
            start=self.now(),
            attrs=dict(attrs) if attrs else {},
        )
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.now()
            if self._sinks:
                self.emit(
                    {
                        "t": round(record.end, 6),
                        "kind": "span",
                        "name": record.name,
                        "id": record.span_id,
                        "parent": record.parent_id,
                        "start": round(record.start, 6),
                        "dur": round(record.end - record.start, 6),
                        "attrs": record.attrs,
                    }
                )

    def event(self, name: str, **attrs) -> None:
        """Emit a point-in-time event (heartbeats, checkpoints, faults)."""
        if self._sinks:
            self.emit(
                {
                    "t": round(self.now(), 6),
                    "kind": "event",
                    "name": name,
                    "attrs": attrs,
                }
            )
