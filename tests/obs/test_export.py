"""Tests for the Chrome trace_event exporter and its CLI."""

from __future__ import annotations

import json

from repro.obs.__main__ import main as obs_main
from repro.obs.export import TRACE_NAME, events_to_chrome_trace, export_chrome_trace


def _span(span_id, name, start=0.5, dur=0.25, attrs=None):
    return {
        "t": start + dur,
        "kind": "span",
        "name": name,
        "id": span_id,
        "parent": None,
        "start": start,
        "dur": dur,
        "attrs": attrs or {},
    }


class TestChromeTraceConversion:
    def test_span_becomes_complete_event_in_microseconds(self):
        trace = events_to_chrome_trace([_span(1, "phase3.auctions")])
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["name"] == "phase3.auctions"
        assert slices[0]["ts"] == 500000.0
        assert slices[0]["dur"] == 250000.0
        assert slices[0]["pid"] == 1

    def test_point_event_becomes_instant(self):
        events = [
            {"t": 1.5, "kind": "event", "name": "runner.checkpoint",
             "attrs": {"day_end": 7}}
        ]
        trace = events_to_chrome_trace(events)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["ts"] == 1500000.0
        assert instants[0]["args"] == {"day_end": 7}

    def test_metrics_become_counter_tracks_sorted(self):
        events = [
            {"t": 2.0, "kind": "metrics",
             "data": {"counters": {"b": 2, "a": 1}, "gauges": {},
                      "histograms": {}}}
        ]
        trace = events_to_chrome_trace(events)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert [c["name"] for c in counters] == ["a", "b"]
        assert counters[0]["args"] == {"value": 1}

    def test_all_events_share_one_named_process(self):
        events = [
            _span(1, "run"),
            {"t": 1.5, "kind": "event", "name": "heartbeat", "attrs": {}},
            {"t": 2.0, "kind": "metrics",
             "data": {"counters": {"x": 1}, "gauges": {}, "histograms": {}}},
        ]
        trace = events_to_chrome_trace(events)
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert [(m["pid"], m["args"]["name"]) for m in meta] == [(1, "repro")]
        assert {e["pid"] for e in trace["traceEvents"]} == {1}

    def test_resources_and_unknown_kinds_are_skipped(self):
        events = [
            {"t": 1.0, "kind": "resources", "data": {"overall": {}}},
            {"t": 1.0, "kind": "someday", "data": {}},
        ]
        trace = events_to_chrome_trace(events)
        assert [e["ph"] for e in trace["traceEvents"]] == ["M"]

    def test_conversion_is_deterministic(self):
        events = [
            _span(1, "run"),
            {"t": 2.0, "kind": "metrics",
             "data": {"counters": {"x": 1}, "gauges": {}, "histograms": {}}},
        ]
        first = json.dumps(events_to_chrome_trace(events), sort_keys=True)
        second = json.dumps(events_to_chrome_trace(events), sort_keys=True)
        assert first == second


class TestExportCli:
    def _write_run(self, run_dir):
        run_dir.mkdir(exist_ok=True)
        events = [
            _span(1, "runner.run", dur=2.0),
            {"t": 2.0, "kind": "event", "name": "heartbeat",
             "attrs": {"phase": "phase3", "day": 10}},
        ]
        (run_dir / "telemetry.jsonl").write_text(
            "\n".join(json.dumps(e, separators=(",", ":")) for e in events)
            + "\n"
        )

    def test_export_writes_trace_json_into_run_dir(self, tmp_path, capsys):
        self._write_run(tmp_path)
        assert obs_main(["export", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert TRACE_NAME in out
        payload = json.loads((tmp_path / TRACE_NAME).read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_export_honors_explicit_out_and_format(self, tmp_path):
        self._write_run(tmp_path)
        out = tmp_path / "custom.json"
        assert obs_main(
            ["export", str(tmp_path), "--format", "chrome-trace",
             "--out", str(out)]
        ) == 0
        assert out.exists()

    def test_export_missing_telemetry_exits_2(self, tmp_path):
        assert obs_main(["export", str(tmp_path)]) == 2

    def test_export_malformed_telemetry_exits_2(self, tmp_path):
        (tmp_path / "telemetry.jsonl").write_text("garbage\n")
        assert obs_main(["export", str(tmp_path)]) == 2

    def test_export_function_round_trips(self, tmp_path):
        out = export_chrome_trace([_span(1, "run")], tmp_path / "t.json")
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
