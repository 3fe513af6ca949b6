"""Tests for the progress sidecar and the watch CLI."""

from __future__ import annotations

import logging

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import (
    PROGRESS_NAME,
    PROGRESS_SCHEMA,
    ProgressSink,
    load_progress,
    render_progress,
)


def _event(name, t=1.0, **attrs):
    return {"t": t, "kind": "event", "name": name, "attrs": attrs}


def _sink(tmp_path, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("wall_clock", lambda: 1000.0)
    return ProgressSink(tmp_path, **kwargs)


@pytest.fixture
def propagate_repro_logs(monkeypatch):
    # The ``repro`` logger tree runs with propagate=False once its
    # handler is attached; let records reach caplog's root handler.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)


class TestProgressSink:
    def test_start_event_writes_initial_sidecar(self, tmp_path):
        sink = _sink(tmp_path)
        sink.emit(_event("runner.start", days=120, seed=7))
        payload = load_progress(tmp_path)
        assert payload["schema"] == PROGRESS_SCHEMA
        assert payload["status"] == "running"
        assert payload["days"] == 120
        assert payload["updated_unix"] == 1000.0

    def test_heartbeat_updates_phase_day_throughput(self, tmp_path):
        sink = _sink(tmp_path, days=100)
        sink.emit(
            _event(
                "heartbeat",
                t=2.5,
                phase="phase3",
                day=49,
                days_per_sec=20.0,
                eta_s=2.5,
            )
        )
        payload = load_progress(tmp_path)
        assert payload["phase"] == "phase3"
        assert payload["day"] == 49
        assert payload["days_per_sec"] == 20.0
        assert payload["eta_s"] == 2.5
        assert payload["heartbeats"] == 1
        assert payload["elapsed_s"] == 2.5

    def test_checkpoint_records_last_checkpoint(self, tmp_path):
        sink = _sink(tmp_path)
        attrs = {"day_start": 0, "day_end": 7, "rows": 42, "file": "c.npc"}
        sink.emit(_event("runner.checkpoint", **attrs))
        payload = load_progress(tmp_path)
        assert payload["last_checkpoint"] == attrs
        assert payload["day"] == 6

    def test_degraded_artifacts_accumulate_without_duplicates(self, tmp_path):
        sink = _sink(tmp_path)
        sink.emit(_event("io.degraded", artifact="telemetry.jsonl", error="x"))
        sink.emit(_event("io.degraded", artifact="telemetry.jsonl", error="x"))
        sink.emit(_event("io.degraded", artifact="dayledger.jsonl", error="y"))
        payload = load_progress(tmp_path)
        assert payload["degraded"] == ["telemetry.jsonl", "dayledger.jsonl"]

    def test_complete_event_is_terminal(self, tmp_path):
        sink = _sink(tmp_path, days=60)
        sink.emit(_event("runner.complete", days=60, rows=10))
        payload = load_progress(tmp_path)
        assert payload["status"] == "complete"
        assert payload["day"] == 59
        assert payload["eta_s"] == 0.0

    def test_mark_forces_terminal_status(self, tmp_path):
        sink = _sink(tmp_path)
        sink.emit(_event("runner.start", days=10))
        sink.mark("interrupted")
        assert load_progress(tmp_path)["status"] == "interrupted"

    def test_counters_snapshot_comes_from_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("auction.rows_emitted").inc(77)
        registry.counter("auction.candidates_gathered").inc(5)  # not listed
        sink = _sink(tmp_path, registry=registry)
        sink.emit(_event("runner.start", days=10))
        counters = load_progress(tmp_path)["counters"]
        assert counters == {"auction.rows_emitted": 77}

    def test_non_runner_events_do_not_write(self, tmp_path):
        sink = _sink(tmp_path)
        sink.emit({"t": 1.0, "kind": "span", "name": "x", "id": 1,
                   "parent": None, "start": 0.0, "dur": 1.0, "attrs": {}})
        sink.emit(_event("runner.stray_removed", file="x"))
        assert not (tmp_path / PROGRESS_NAME).exists()

    def test_write_failure_degrades_with_one_warning(
        self, tmp_path, monkeypatch, caplog, propagate_repro_logs
    ):
        def boom(path, text):
            raise OSError("disk on fire")

        monkeypatch.setattr("repro.records.atomic.atomic_write_text", boom)
        sink = _sink(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.obs.progress"):
            sink.emit(_event("runner.start", days=10))
            sink.emit(_event("heartbeat", phase="phase1", day=5))
        warnings = [r for r in caplog.records if "sidecar" in r.getMessage()]
        assert len(warnings) == 1


class TestLoadAndRender:
    def test_load_progress_absent_returns_none(self, tmp_path):
        assert load_progress(tmp_path) is None

    def test_load_progress_garbage_returns_none(self, tmp_path):
        (tmp_path / PROGRESS_NAME).write_text("not json")
        assert load_progress(tmp_path) is None
        (tmp_path / PROGRESS_NAME).write_text("[1,2]")
        assert load_progress(tmp_path) is None

    def test_render_running_line(self):
        line = render_progress(
            {
                "status": "running",
                "phase": "phase3",
                "day": 49,
                "days": 100,
                "days_per_sec": 20.0,
                "eta_s": 3.0,
            }
        )
        assert "running" in line
        assert "phase3" in line
        assert "day 50/100 (50%)" in line
        assert "20.0 days/s" in line
        assert "eta 3s" in line

    def test_render_complete_line_omits_eta(self):
        line = render_progress({"status": "complete", "day": 99, "days": 100})
        assert line.startswith("complete")
        assert "eta" not in line

    def test_render_flags_staleness_and_degradation(self):
        line = render_progress(
            {"status": "running", "degraded": ["telemetry.jsonl"]},
            stale_s=120.0,
        )
        assert "degraded:telemetry.jsonl" in line
        assert "stale 120s" in line


class TestWatchCli:
    def test_watch_once_prints_status_line(self, tmp_path, capsys):
        sink = _sink(tmp_path, days=60)
        sink.emit(_event("runner.complete", days=60))
        assert obs_main(["watch", str(tmp_path), "--once"]) == 0
        assert "complete" in capsys.readouterr().out

    def test_watch_once_without_sidecar_notices_and_exits_0(
        self, tmp_path, capsys
    ):
        assert obs_main(["watch", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert PROGRESS_NAME in out
        assert "pre-sidecar" in out

    def test_watch_loop_exits_when_run_completes(self, tmp_path, capsys):
        sink = _sink(tmp_path)
        sink.emit(_event("runner.complete", days=10))
        assert obs_main(["watch", str(tmp_path), "--interval", "0.1"]) == 0
        assert "complete" in capsys.readouterr().out
