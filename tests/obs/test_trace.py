"""Unit tests for the span tracer."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer


class TestTracer:
    def test_span_records_timing_and_attrs(self):
        tracer = Tracer()
        sink = MemorySink()
        tracer.add_sink(sink)
        with tracer.span("work", size=3) as span:
            assert span.name == "work"
            assert span.end is None
        [event] = sink.events
        assert event["kind"] == "span"
        assert event["name"] == "work"
        assert event["attrs"] == {"size": 3}
        assert event["dur"] >= 0.0
        assert event["parent"] is None

    def test_nesting_links_parent_ids(self):
        tracer = Tracer()
        sink = MemorySink()
        tracer.add_sink(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        inner_event, sibling_event, outer_event = sink.events
        assert inner.parent_id == sibling.parent_id == outer.span_id
        assert inner_event["parent"] == outer_event["id"]
        assert sibling_event["parent"] == outer_event["id"]
        assert outer_event["parent"] is None

    def test_span_ids_are_unique_and_increasing(self):
        tracer = Tracer()
        sink = MemorySink()
        tracer.add_sink(sink)
        for _ in range(5):
            with tracer.span("x"):
                pass
        ids = [e["id"] for e in sink.events]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_no_sinks_means_no_event_payloads(self):
        tracer = Tracer()
        with tracer.span("quiet") as span:
            pass
        # The span still timed itself; nothing was built for sinks.
        assert span.end is not None and span.end >= span.start
        assert tracer.sinks == ()

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        sink = MemorySink()
        tracer.add_sink(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed") as doomed:
                raise RuntimeError("boom")
        assert doomed.end is not None
        # The stack unwound: the next span is a root again.
        with tracer.span("after"):
            pass
        doomed_event, after_event = sink.events
        assert doomed_event["name"] == "doomed"
        assert after_event["parent"] is None

    def test_event_emits_point_payload(self):
        tracer = Tracer()
        sink = MemorySink()
        tracer.add_sink(sink)
        tracer.event("checkpoint", day=3)
        [event] = sink.events
        assert event["kind"] == "event"
        assert event["attrs"] == {"day": 3}

    def test_now_is_monotonic(self):
        tracer = Tracer()
        a = tracer.now()
        b = tracer.now()
        assert b >= a >= 0.0


class TestGlobalHelpers:
    def test_capture_collects_and_detaches(self):
        with obs.capture() as sink:
            with obs.span("global-span"):
                obs.event("global-event")
        names = [e["name"] for e in sink.events]
        assert names == ["global-event", "global-span"]
        assert sink not in obs.tracer().sinks

    def test_publish_metrics_snapshot_event(self):
        obs.counter("test.publish.count").inc(7)
        with obs.capture() as sink:
            obs.publish_metrics()
        [event] = sink.events
        assert event["kind"] == "metrics"
        assert event["data"]["counters"]["test.publish.count"] >= 7
