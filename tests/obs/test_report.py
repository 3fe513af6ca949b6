"""Tests for telemetry loading/aggregation and the report CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    REPORT_SCHEMA,
    aggregate_spans,
    last_metrics,
    last_resources,
    load_events,
    render_report,
    report_json,
    report_path,
)

from .test_diff import make_run


def _span(span_id, parent, name, dur=0.5):
    return {
        "t": 1.0,
        "kind": "span",
        "name": name,
        "id": span_id,
        "parent": parent,
        "start": 0.5,
        "dur": dur,
        "attrs": {},
    }


def _write(path, events):
    path.write_text(
        "\n".join(json.dumps(e, separators=(",", ":")) for e in events) + "\n"
    )


class TestLoadEvents:
    def test_round_trips_jsonl(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        events = [_span(1, None, "run"), {"t": 2.0, "kind": "event", "name": "e", "attrs": {}}]
        _write(path, events)
        assert load_events(path) == events

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text('{"kind":"span"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_events(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_events(path)

    def test_report_path_resolves_directories(self, tmp_path):
        assert report_path(tmp_path).name == "telemetry.jsonl"
        explicit = tmp_path / "other.jsonl"
        assert report_path(explicit) == explicit


class TestAggregateSpans:
    def test_name_paths_follow_parents(self):
        events = [
            _span(1, None, "run", dur=2.0),
            _span(2, 1, "phase", dur=1.0),
            _span(3, 2, "day", dur=0.4),
            _span(4, 2, "day", dur=0.6),
        ]
        agg = aggregate_spans(events)
        assert agg[("run",)]["count"] == 1
        assert agg[("run", "phase", "day")]["count"] == 2
        assert agg[("run", "phase", "day")]["total"] == pytest.approx(1.0)
        assert agg[("run", "phase", "day")]["max"] == pytest.approx(0.6)

    def test_self_time_excludes_direct_children(self):
        # run 2.0 = phase 1.0 + io 0.5 + 0.5 self; phase 1.0 = its two
        # days; io has no children, so all of it is self time.
        events = [
            _span(1, None, "run", dur=2.0),
            _span(2, 1, "phase", dur=1.0),
            _span(3, 2, "day", dur=0.4),
            _span(4, 2, "day", dur=0.6),
            _span(5, 1, "io", dur=0.5),
        ]
        doc = report_json(events)
        self_s = {span["path"]: span["self_s"] for span in doc["spans"]}
        assert self_s == {
            "run": 0.5,
            "run/phase": 0.0,
            "run/phase/day": 1.0,
            "run/io": 0.5,
        }
        lines = render_report(events).splitlines()
        header = next(line for line in lines if line.startswith("span"))
        assert header.split() == [
            "span", "count", "total_s", "self_s", "mean_s", "max_s"
        ]
        rows = {
            line.split()[0]: line.split()
            for line in lines[lines.index(header) + 1 :]
            if line.strip()
        }
        assert rows["run"][2:4] == ["2.000", "0.500"]
        assert rows["phase"][2:4] == ["1.000", "0.000"]
        assert rows["day"][1:4] == ["2", "1.000", "1.000"]
        assert rows["io"][2:4] == ["0.500", "0.500"]

    def test_orphaned_span_becomes_root(self):
        # Parent id 99 never reached the file (lost in a crash).
        agg = aggregate_spans([_span(1, 99, "day")])
        assert ("day",) in agg


class TestReportCli:
    def _sample_events(self):
        return [
            _span(1, None, "run", dur=2.0),
            _span(2, 1, "phase3.auctions", dur=1.5),
            {"t": 2.0, "kind": "event", "name": "runner.checkpoint",
             "attrs": {"day_end": 7}},
            {"t": 2.5, "kind": "metrics",
             "data": {"counters": {"auction.rows_emitted": 123},
                      "gauges": {}, "histograms": {}}},
        ]

    def test_report_renders_all_sections(self, tmp_path, capsys):
        _write(tmp_path / "telemetry.jsonl", self._sample_events())
        assert obs_main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "phase3.auctions" in out
        assert "runner.checkpoint x1" in out
        assert "auction.rows_emitted" in out
        assert "123" in out

    def test_report_accepts_explicit_file(self, tmp_path, capsys):
        path = tmp_path / "custom.jsonl"
        _write(path, self._sample_events())
        assert obs_main(["report", str(path)]) == 0
        assert "4 events" in capsys.readouterr().out

    def test_missing_telemetry_notices_and_exits_0(self, tmp_path, capsys):
        # Absent telemetry is a normal run state (a dead telemetry
        # device), not an error: a clear notice on stdout, exit 0, no
        # traceback.
        assert obs_main(["report", str(tmp_path / "void")]) == 0
        out = capsys.readouterr().out
        assert "no telemetry" in out

    def test_missing_run_dir_file_notices_and_exits_0(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path)]) == 0
        assert "no telemetry" in capsys.readouterr().out

    def test_truncated_telemetry_notices_and_exits_0(self, tmp_path, capsys):
        # A torn/garbage file renders a notice naming the damage.
        path = tmp_path / "telemetry.jsonl"
        path.write_text("garbage\n")
        assert obs_main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no usable telemetry" in out
        assert "malformed" in out

    def test_render_report_mentions_source(self):
        text = render_report(self._sample_events(), source="RUNS/x")
        assert text.startswith("telemetry report: RUNS/x")


def _resources_event():
    stats = {
        "samples": 4, "rss_peak_kb": 2048.0, "rss_mean_kb": 1024.0,
        "cpu_s": 0.9, "wall_s": 1.0, "cpu_utilization": 0.9,
        "gc": {"collections": 3, "pause_total_s": 0.01, "pause_max_s": 0.005},
    }
    return {
        "t": 3.0,
        "kind": "resources",
        "data": {
            "interval_s": 0.05,
            "overall": stats,
            "phases": {"phase1": dict(stats)},
        },
    }


class TestResourcesSection:
    def test_last_resources_returns_final_payload(self):
        events = [_resources_event(), _resources_event()]
        events[1]["data"]["overall"]["samples"] = 9
        assert last_resources(events)["overall"]["samples"] == 9
        assert last_resources([]) is None

    def test_last_metrics_returns_final_snapshot(self):
        events = [
            {"t": float(t), "kind": "metrics",
             "data": {"counters": {"rows": t}, "gauges": {}, "histograms": {}}}
            for t in (1, 2)
        ]
        assert last_metrics(events)["counters"] == {"rows": 2}
        assert last_metrics([_span(1, None, "run")]) is None

    def test_render_report_includes_resource_envelope(self):
        text = render_report([_resources_event()])
        assert "resources:" in text
        assert "rss peak 2.0M" in text
        assert "phase1" in text
        assert "gc 3x" in text


class TestReportJson:
    def _events(self):
        return [
            _span(1, None, "run", dur=2.0),
            _span(2, 1, "phase3.auctions", dur=1.5),
            {"t": 2.0, "kind": "event", "name": "heartbeat",
             "attrs": {"phase": "phase3", "day": 10}},
            {"t": 2.5, "kind": "metrics",
             "data": {"counters": {"rows": 5}, "gauges": {},
                      "histograms": {}}},
            _resources_event(),
        ]

    def test_document_covers_every_section(self):
        doc = report_json(self._events(), source="RUNS/x")
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["source"] == "RUNS/x"
        assert doc["events"] == 5
        paths = [s["path"] for s in doc["spans"]]
        assert "run/phase3.auctions" in paths
        assert doc["events_by_name"]["heartbeat"]["count"] == 1
        assert doc["metrics"]["counters"] == {"rows": 5}
        assert doc["resources"]["overall"]["rss_peak_kb"] == 2048.0

    def test_span_aggregates_round(self):
        doc = report_json([_span(1, None, "run", dur=1.0),
                           _span(2, None, "run", dur=3.0)])
        (record,) = doc["spans"]
        assert record["count"] == 2
        assert record["total_s"] == 4.0
        assert record["mean_s"] == 2.0
        assert record["max_s"] == 3.0

    def test_cli_json_prints_document(self, tmp_path, capsys):
        _write(tmp_path / "telemetry.jsonl", self._events())
        assert obs_main(["report", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == REPORT_SCHEMA

    def test_cli_json_out_writes_file(self, tmp_path, capsys):
        _write(tmp_path / "telemetry.jsonl", self._events())
        out = tmp_path / "report.json"
        assert obs_main(
            ["report", str(tmp_path), "--json", "--out", str(out)]
        ) == 0
        assert "wrote report" in capsys.readouterr().out
        assert json.loads(out.read_text())["schema"] == REPORT_SCHEMA

    def test_cli_out_without_json_is_an_error(self, tmp_path):
        _write(tmp_path / "telemetry.jsonl", self._events())
        assert obs_main(
            ["report", str(tmp_path), "--out", str(tmp_path / "r.json")]
        ) == 2


class TestSubcommands:
    def test_help_lists_exactly_four_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["--help"])
        assert excinfo.value.code == 0
        assert "{report,watch,diff,analyze}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["dash", "runs", "export"])
    def test_removed_subcommand_exits_2_on_a_run_dir(
        self, tmp_path, capsys, command
    ):
        run_dir = make_run(tmp_path, "a")
        before = sorted(p.name for p in run_dir.iterdir())
        with pytest.raises(SystemExit) as excinfo:
            obs_main([command, str(run_dir)])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert sorted(p.name for p in run_dir.iterdir()) == before
