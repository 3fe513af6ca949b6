"""Tests for the run registry (``python -m repro.obs runs ...``)."""

from __future__ import annotations

import json

from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressSink
from repro.obs.registry import (
    RUNS_INDEX_NAME,
    index_runs,
    live_status,
    load_validation,
    phase_totals,
    render_runs_table,
    summarize_run,
)

from .test_diff import make_run


def _write_sidecar(run_dir, name, **attrs):
    sink = ProgressSink(
        run_dir,
        days=attrs.pop("days", 100),
        registry=MetricsRegistry(),
        wall_clock=lambda: 1000.0,
    )
    sink.emit({"t": 1.0, "kind": "event", "name": name, "attrs": attrs})
    return sink


class TestSummarizeRun:
    def test_full_run_summary(self, tmp_path):
        run_dir = make_run(tmp_path, "a")
        summary = summarize_run(run_dir)
        assert summary["dir"] == "a"
        assert summary["seed"] == 7
        assert summary["phase"] == "complete"
        assert summary["phases_s"]["phase3.auctions"] > 0
        assert summary["validation"]["passed"] == 2
        ledger = summary["ledger"]
        assert ledger["days"] == 4
        assert ledger["registrations"] == 28.0  # 4 days x (5 + 2)
        assert ledger["clicks"] == 40.0

    def test_non_run_directory_returns_none(self, tmp_path):
        assert summarize_run(tmp_path) is None
        (tmp_path / "MANIFEST.json").write_text("not json")
        assert summarize_run(tmp_path) is None

    def test_missing_artifacts_are_null_sections(self, tmp_path):
        run_dir = tmp_path / "bare"
        run_dir.mkdir()
        (run_dir / "MANIFEST.json").write_text(
            json.dumps({"seed": 1, "days": 2, "phase": "phase1"})
        )
        summary = summarize_run(run_dir)
        assert summary is not None
        assert summary["phases_s"] is None
        assert summary["validation"] is None
        assert summary["ledger"] is None


class TestIndexRuns:
    def test_indexes_children_and_skips_non_runs(self, tmp_path):
        make_run(tmp_path, "a")
        make_run(tmp_path, "b")
        (tmp_path / "scratch").mkdir()  # no manifest: not a run
        out = tmp_path / RUNS_INDEX_NAME
        index = index_runs(tmp_path, out=out)
        assert index["schema"] == "repro.runs/v2"
        assert [run["dir"] for run in index["runs"]] == ["a", "b"]
        assert json.loads(out.read_text())["runs"][0]["dir"] == "a"

    def test_root_may_itself_be_a_run_dir(self, tmp_path):
        run_dir = make_run(tmp_path, "solo")
        index = index_runs(run_dir)
        assert [run["dir"] for run in index["runs"]] == ["solo"]

    def test_table_renders_every_run(self, tmp_path):
        make_run(tmp_path, "a")
        table = render_runs_table(index_runs(tmp_path))
        assert "a" in table
        assert "complete" in table
        assert "2/2" in table  # validation column
        assert "4d" in table  # ledger column
        empty = render_runs_table({"root": "X", "runs": []})
        assert "no run directories" in empty


class TestLoadValidation:
    def test_report_text_fallback(self, tmp_path):
        # No validation.json: parse the stable report line format.
        (tmp_path / "validation_report.txt").write_text(
            "validation vs paper\n"
            "[ok  ] fraud_click_share                          "
            "paper: ~33% of clicks            measured: 0.31 (sec 5.1)\n"
            "[MISS] mean_cpc                                   "
            "paper: $0.50-2.00                measured: 9.1 (sec 4.2)\n"
        )
        result = load_validation(tmp_path)
        assert result == {
            "passed": 1,
            "total": 2,
            "ok": ["fraud_click_share"],
            "miss": ["mean_cpc"],
        }

    def test_json_takes_precedence(self, tmp_path):
        run_dir = make_run(tmp_path, "a", validation_ok=("only_json",))
        (run_dir / "validation_report.txt").write_text(
            "[ok  ] from_text  paper: x  measured: 1 (s)\n"
        )
        assert load_validation(run_dir)["ok"] == ["only_json"]

    def test_no_artifact_returns_none(self, tmp_path):
        assert load_validation(tmp_path) is None

    def test_corrupt_json_returns_none(self, tmp_path):
        (tmp_path / "validation.json").write_text("{broken")
        assert load_validation(tmp_path) is None


class TestPhaseTotals:
    def test_aggregates_by_leaf_name(self):
        events = [
            {"t": 1, "kind": "span", "name": "runner.run", "id": 1,
             "parent": None, "start": 0, "dur": 5.0, "attrs": {}},
            {"t": 1, "kind": "span", "name": "phase3.auctions", "id": 2,
             "parent": 1, "start": 0, "dur": 2.0, "attrs": {}},
            {"t": 1, "kind": "span", "name": "phase3.auctions", "id": 3,
             "parent": 1, "start": 2, "dur": 1.5, "attrs": {}},
            {"t": 1, "kind": "span", "name": "not.a.phase", "id": 4,
             "parent": 1, "start": 0, "dur": 9.0, "attrs": {}},
        ]
        totals = phase_totals(events)
        assert totals["runner.run"] == 5.0
        assert totals["phase3.auctions"] == 3.5
        assert "not.a.phase" not in totals


class TestLiveStatus:
    def test_pre_sidecar_run_has_no_live_status(self, tmp_path):
        run_dir = make_run(tmp_path, "a")
        assert live_status(run_dir) is None
        assert summarize_run(run_dir)["live"] is None

    def test_running_sidecar_surfaces_progress(self, tmp_path):
        run_dir = make_run(tmp_path, "a")
        _write_sidecar(
            run_dir, "heartbeat",
            phase="phase3", day=49, days_per_sec=20.0, eta_s=2.5,
        )
        live = live_status(run_dir)
        assert live["status"] == "running"
        assert live["phase"] == "phase3"
        assert live["day"] == 49
        assert live["days"] == 100
        assert live["eta_s"] == 2.5
        assert live["degraded"] is False
        assert summarize_run(run_dir)["live"] == live

    def test_table_status_column_and_fallback_notice(self, tmp_path):
        complete = make_run(tmp_path, "done")
        _write_sidecar(complete, "runner.complete", days=100)
        running = make_run(tmp_path, "live")
        _write_sidecar(running, "heartbeat", phase="phase3", day=10,
                       eta_s=30.0)
        make_run(tmp_path, "old")  # pre-sidecar: no progress.json

        table = render_runs_table(index_runs(tmp_path))
        assert "status" in table
        assert "complete" in table
        assert "running" in table
        assert "eta" in table
        # The pre-sidecar run degrades to '-' plus a single notice.
        assert "-" in table
        assert "1 run(s) predate the progress sidecar" in table

    def test_table_without_pre_sidecar_runs_has_no_notice(self, tmp_path):
        run_dir = make_run(tmp_path, "a")
        _write_sidecar(run_dir, "runner.complete", days=100)
        table = render_runs_table(index_runs(tmp_path))
        assert "predate the progress sidecar" not in table

    def test_degraded_run_is_flagged_in_status(self, tmp_path):
        run_dir = make_run(tmp_path, "a")
        sink = _write_sidecar(run_dir, "runner.start", days=100)
        sink.emit({"t": 2.0, "kind": "event", "name": "io.degraded",
                   "attrs": {"artifact": "telemetry.jsonl", "error": "x"}})
        live = live_status(run_dir)
        assert live["degraded"] is True
        table = render_runs_table(index_runs(tmp_path))
        assert "running!" in table


class TestRunsCli:
    def test_index_list_show_round_trip(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a")

        assert obs_main(["runs", "index", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "indexed 1 run(s)" in out
        assert (tmp_path / RUNS_INDEX_NAME).exists()

        assert obs_main(["runs", "list", str(tmp_path)]) == 0
        assert "complete" in capsys.readouterr().out

        assert obs_main(["runs", "show", str(run_dir)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["dir"] == "a"

    def test_show_non_run_dir_exits_2(self, tmp_path):
        assert obs_main(["runs", "show", str(tmp_path)]) == 2

    def test_index_and_list_refuse_a_root_that_is_not_a_directory(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "missing"
        a_file = tmp_path / "file.txt"
        a_file.write_text("not a run root\n")
        for root in (missing, a_file):
            for action in ("index", "list"):
                assert obs_main(["runs", action, str(root)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    f"ERROR repro.obs.cli: {root}: not a directory\n"
                )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]

    def test_index_and_list_accept_an_empty_directory(self, tmp_path, capsys):
        assert obs_main(["runs", "index", str(tmp_path)]) == 0
        assert "indexed 0 run(s)" in capsys.readouterr().out
        assert obs_main(["runs", "list", str(tmp_path)]) == 0
        assert "no run directories" in capsys.readouterr().out


class TestAnalysisSummary:
    def _analyzed_run(self, tmp_path, name="a", unexplained=1):
        run_dir = make_run(tmp_path, name)
        (run_dir / "analyze.json").write_text(
            json.dumps(
                {
                    "schema": "repro.analyze/v1",
                    "totals": {
                        "anomalies": 3,
                        "unexplained_anomalies": unexplained,
                        "level_shifts": 2,
                    },
                }
            )
        )
        return run_dir

    def test_summary_condenses_analyze_totals(self, tmp_path):
        summary = summarize_run(self._analyzed_run(tmp_path))
        assert summary["analysis"] == {
            "anomalies": 3,
            "unexplained_anomalies": 1,
            "level_shifts": 2,
        }

    def test_unanalyzed_run_has_null_analysis(self, tmp_path):
        summary = summarize_run(make_run(tmp_path, "a"))
        assert summary["analysis"] is None
        assert summary["artifacts"] == []

    def test_corrupt_analysis_is_null(self, tmp_path):
        run_dir = make_run(tmp_path, "a")
        (run_dir / "analyze.json").write_text("not json")
        assert summarize_run(run_dir)["analysis"] is None

    def test_artifacts_recorded_in_index(self, tmp_path):
        run_dir = self._analyzed_run(tmp_path)
        (run_dir / "dashboard.html").write_text("<!DOCTYPE html>\n")
        index = index_runs(tmp_path, out=tmp_path / RUNS_INDEX_NAME)
        (entry,) = index["runs"]
        assert entry["artifacts"] == ["analyze.json", "dashboard.html"]
        persisted = json.loads((tmp_path / RUNS_INDEX_NAME).read_text())
        assert persisted["runs"][0]["artifacts"] == [
            "analyze.json",
            "dashboard.html",
        ]

    def test_table_anom_column(self, tmp_path):
        self._analyzed_run(tmp_path, "flagged", unexplained=2)
        self._analyzed_run(tmp_path, "clean", unexplained=0)
        make_run(tmp_path, "unanalyzed")
        table = render_runs_table(index_runs(tmp_path))
        assert "anom" in table.splitlines()[0]
        row = {line.split()[0]: line for line in table.splitlines()[2:5]}
        assert " 2! " in row["flagged"]
        assert " 3 " in row["clean"]  # analyzed: total shown, no bang
        assert " - " in row["unanalyzed"]
