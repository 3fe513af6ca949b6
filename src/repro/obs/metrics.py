"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat name -> metric map with
get-or-create accessors.  Metric objects are plain attribute bumps --
no locks, no label dicts, no allocation on the hot path -- so the
handles can live at module level next to the code they instrument
(``_ROWS = obs.counter("auction.rows_emitted")``) and be incremented
unconditionally.  :meth:`MetricsRegistry.reset` zeroes values *in
place*, so handles stay valid across resets (tests rely on this).

Histograms use fixed upper-bound buckets chosen at creation:
``observe(v)`` bumps the first bucket whose bound is ``>= v`` (one
final overflow bucket catches the rest).  Nothing here reads a clock
or an RNG -- values come entirely from the caller.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Upper bounds (seconds) suiting per-day / per-phase timings.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 600.0,
)

#: Upper bounds for row/entity counts per operation.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """Last-write-wins instantaneous value (e.g. rows/s)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket histogram with running count and sum."""

    __slots__ = ("name", "buckets", "counts", "count", "sum")

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.buckets = bounds
        # One slot per bound plus the overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0


class MetricsRegistry:
    """Flat registry of named metrics with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def snapshot(self) -> dict:
        """JSON-ready dump: ``{"counters": ..., "gauges": ...,
        "histograms": ...}``, names sorted for stable output."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "count": metric.count,
                    "sum": round(metric.sum, 6),
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every metric in place (handles stay valid)."""
        for metric in self._metrics.values():
            metric._reset()
