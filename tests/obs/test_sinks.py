"""Tests for the telemetry sinks, JSONL crash-safety in particular."""

from __future__ import annotations

import json

from repro.obs.sink import JsonlSink, MemorySink
from repro.obs.trace import Tracer


def _span_event(span_id, parent=None, name="s"):
    return {
        "t": 1.0,
        "kind": "span",
        "name": name,
        "id": span_id,
        "parent": parent,
        "start": 0.5,
        "dur": 0.5,
        "attrs": {},
    }


class TestBasicSinks:
    def test_memory_sink_collects(self):
        sink = MemorySink()
        sink.emit(_span_event(1))
        sink.emit(_span_event(2))
        assert [e["id"] for e in sink.events] == [1, 2]


class TestJsonlSink:
    def test_flush_writes_parseable_jsonl(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(path)
        sink.emit(_span_event(1))
        sink.emit({"t": 2.0, "kind": "event", "name": "e", "attrs": {"k": 1}})
        sink.flush()
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["id"] == 1
        assert lines[1]["attrs"] == {"k": 1}

    def test_unflushed_events_never_reach_disk(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(path)
        sink.emit(_span_event(1))
        sink.flush()
        sink.emit(_span_event(2))
        # No flush: disk still holds exactly the last durable state.
        assert len(path.read_text().splitlines()) == 1
        sink.flush()
        assert len(path.read_text().splitlines()) == 2

    def test_flush_is_idempotent_and_atomic(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(path)
        sink.emit(_span_event(1))
        sink.flush()
        before = path.read_text()
        sink.flush()  # clean: no rewrite needed, content unchanged
        assert path.read_text() == before
        # The atomic-write protocol leaves no tmp litter behind.
        assert [p.name for p in tmp_path.iterdir()] == ["telemetry.jsonl"]

    def test_preload_offsets_new_span_ids(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        first = JsonlSink(path)
        first.emit(_span_event(1))
        first.emit(_span_event(2, parent=1))
        first.flush()

        resumed = JsonlSink(path)
        resumed.emit(_span_event(1))            # new process restarts ids at 1
        resumed.emit(_span_event(2, parent=1))
        resumed.flush()

        ids = [
            e["id"]
            for e in map(json.loads, path.read_text().splitlines())
            if e["kind"] == "span"
        ]
        assert ids == [1, 2, 3, 4]
        parents = [
            e["parent"]
            for e in map(json.loads, path.read_text().splitlines())
            if e["kind"] == "span"
        ]
        # Remapped parent pointers stay internally consistent.
        assert parents == [None, 1, None, 3]

    def test_preload_tolerates_blank_lines(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(json.dumps(_span_event(5)) + "\n\n")
        sink = JsonlSink(path)
        assert len(sink) == 1
        sink.emit(_span_event(1))
        sink.flush()
        events = [json.loads(x) for x in path.read_text().splitlines()]
        assert [e["id"] for e in events] == [5, 6]

    def test_tracer_flush_reaches_sink(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        tracer = Tracer()
        sink = JsonlSink(path)
        tracer.add_sink(sink)
        with tracer.span("s"):
            pass
        tracer.flush()
        assert path.exists()
        [event] = [json.loads(x) for x in path.read_text().splitlines()]
        assert event["name"] == "s"
