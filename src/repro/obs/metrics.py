"""Counters and their registry.

A :class:`MetricsRegistry` is a flat name -> :class:`Counter` map with
a get-or-create accessor.  Counters are plain attribute bumps -- no
locks, no label dicts, no allocation on the hot path -- so the handles
can live at module level next to the code they instrument
(``_ROWS = obs.counter("auction.rows_emitted")``) and be incremented
unconditionally.  :meth:`MetricsRegistry.reset` zeroes values *in
place*, so handles stay valid across resets (tests rely on this).
Nothing here reads a clock or an RNG -- values come entirely from the
caller.
"""

from __future__ import annotations

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class MetricsRegistry:
    """Flat registry of named counters with a get-or-create accessor."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def snapshot(self) -> dict:
        """JSON-ready dump: ``{"counters": {name: value}}``, names sorted
        for stable output."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            }
        }

    def reset(self) -> None:
        """Zero every counter in place (handles stay valid)."""
        for counter in self._counters.values():
            counter.value = 0
