"""Unit tests for counters and the registry."""

from __future__ import annotations

from repro.obs.metrics import Counter, MetricsRegistry


class TestMetricObjects:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestMetricsRegistry:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.counter("a.count").inc(1)
        snap = registry.snapshot()
        assert snap == {"counters": {"a.count": 1, "z.count": 2}}
        assert list(snap["counters"]) == ["a.count", "z.count"]
        json.dumps(snap)  # must serialize without a custom encoder

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc(9)
        registry.reset()
        # The *same* handle reads zero -- module-level handles survive.
        assert counter.value == 0
        assert registry.counter("n") is counter
