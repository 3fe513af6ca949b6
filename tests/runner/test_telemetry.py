"""Run-directory telemetry: crash-safe JSONL written by the runner.

The contract under test: ``telemetry.jsonl`` is flushed atomically at
every durable checkpoint (and at injected faults), so after a crash it
is always parseable and describes no more than the manifest does; a
resumed process appends to the same file with span ids offset past the
crashed process's, and the final file round-trips through the report
CLI.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.config import small_config
from repro.obs.__main__ import main as obs_main
from repro.obs.report import last_resources, load_events
from repro.obs.sink import TELEMETRY_NAME
from repro.runner.faults import FaultPlan, InjectedCrash
from repro.runner.runner import CheckpointRunner


@pytest.fixture()
def config():
    return small_config(seed=7, days=40)


def _names(events):
    return [e.get("name") for e in events]


class TestRunnerTelemetry:
    def test_clean_run_writes_full_history(self, config, tmp_path):
        # The registry is process-global and cumulative; zero it so the
        # final snapshot can be compared against this run alone.
        import repro.obs as obs

        obs.metrics().reset()
        runner = CheckpointRunner(config, tmp_path, checkpoint_every=10)
        result = runner.run()
        events = load_events(tmp_path / TELEMETRY_NAME)
        names = _names(events)
        assert "runner.start" in names
        assert "runner.complete" in names
        checkpoints = [e for e in events if e.get("name") == "runner.checkpoint"]
        assert len(checkpoints) == 4  # 40 days / checkpoint_every=10
        assert checkpoints[-1]["attrs"]["day_end"] == config.days
        # Cumulative metrics snapshot agrees with the result.
        snapshots = [e for e in events if e.get("kind") == "metrics"]
        rows = snapshots[-1]["data"]["counters"]["auction.rows_emitted"]
        assert rows == len(result.impressions)

    def test_reloading_a_completed_run_writes_nothing(self, config, tmp_path):
        first = CheckpointRunner(config, tmp_path, checkpoint_every=10).run()

        def tree():
            return {
                path.relative_to(tmp_path): path.read_bytes()
                for path in sorted(tmp_path.rglob("*"))
                if path.is_file()
            }

        before = tree()
        assert (tmp_path / TELEMETRY_NAME).exists()
        again = CheckpointRunner(config, tmp_path, checkpoint_every=10).run(
            resume=True
        )
        assert tree() == before
        assert len(again.impressions) == len(first.impressions)
        assert again.detections == first.detections

    def test_crash_leaves_parseable_file_with_fault_event(self, config, tmp_path):
        plan = FaultPlan.crash_at("phase3:day", day=20)
        runner = CheckpointRunner(
            config, tmp_path, checkpoint_every=7, faults=plan
        )
        with pytest.raises(InjectedCrash):
            runner.run()
        events = load_events(tmp_path / TELEMETRY_NAME)  # parses cleanly
        faults = [e for e in events if e.get("name") == "runner.fault"]
        assert [f["attrs"]["site"] for f in faults] == ["phase3:day"]
        assert faults[0]["attrs"]["day"] == 20
        # Only *durable* checkpoints made it to disk: days 0-7 and 7-14.
        checkpoints = [e for e in events if e.get("name") == "runner.checkpoint"]
        assert [c["attrs"]["day_end"] for c in checkpoints] == [7, 14]
        # runner.complete must not be claimed by a crashed run.
        assert "runner.complete" not in _names(events)

    def test_resume_appends_with_unique_span_ids(self, config, tmp_path, capsys):
        plan = FaultPlan.crash_at("phase3:day", day=20)
        with pytest.raises(InjectedCrash):
            CheckpointRunner(
                config, tmp_path, checkpoint_every=7, faults=plan
            ).run()
        CheckpointRunner(config, tmp_path, checkpoint_every=7).run()

        events = load_events(tmp_path / TELEMETRY_NAME)
        names = _names(events)
        assert "runner.fault" in names     # the crash's history survives
        assert "runner.resume" in names
        assert "runner.complete" in names
        span_ids = [e["id"] for e in events if e["kind"] == "span"]
        assert len(span_ids) == len(set(span_ids))
        # The whole two-process history renders through the report CLI.
        assert obs_main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "runner.fault x1" in out
        assert "runner.resume x1" in out

    def test_end_of_run_assembly_belongs_to_phase3(
        self, config, tmp_path, monkeypatch
    ):
        """The sample ``stop()`` takes after the result table is built
        lands in ``phase3``, so no peak falls outside every phase.

        The sampler thread's loop is patched out and resident size only
        grows, so that final sample is the run's one phase sample and
        its peak."""
        from repro.obs import resources

        rss_kb = itertools.count(1)
        monkeypatch.setattr(
            resources.ResourceSampler, "_sample_loop", lambda self: None
        )
        monkeypatch.setattr(resources, "read_rss_kb", lambda: float(next(rss_kb)))
        CheckpointRunner(config, tmp_path, checkpoint_every=10).run()
        summary = last_resources(load_events(tmp_path / TELEMETRY_NAME))
        phases = summary["phases"]
        assert phases["phase1"]["samples"] == 0
        assert phases["phase3"]["samples"] == 1
        assert summary["overall"]["rss_peak_kb"] == phases["phase3"]["rss_peak_kb"]

    def test_tail_discard_is_recorded(self, config, tmp_path):
        from repro.runner import IO_TORN, Fault, WriteFault

        # The disk tears the first chunk's write; the run dies after the
        # checkpoint that vouched for the intended bytes.
        plan = FaultPlan(
            [Fault(site="phase3:checkpoint", day=6)],
            io_faults=[WriteFault("chunk-00000-00007.npc", action=IO_TORN)],
        )
        with pytest.raises(InjectedCrash):
            CheckpointRunner(
                config, tmp_path, checkpoint_every=7, faults=plan
            ).run()
        CheckpointRunner(config, tmp_path, checkpoint_every=7).run()
        events = load_events(tmp_path / TELEMETRY_NAME)
        names = _names(events)
        assert "runner.tail_discarded" in names
        assert "runner.complete" in names


class TestJsonlDurabilityModel:
    def test_file_state_never_exceeds_manifest(self, config, tmp_path):
        """After a mid-phase3 crash the telemetry describes at most the
        checkpointed prefix -- buffered day spans since the last flush
        are lost with the process, like the impression rows are."""
        plan = FaultPlan.crash_at("phase3:day", day=20)
        with pytest.raises(InjectedCrash):
            CheckpointRunner(
                config, tmp_path, checkpoint_every=7, faults=plan
            ).run()
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        durable_days = max(c["day_end"] for c in manifest["chunks"])
        events = load_events(tmp_path / TELEMETRY_NAME)
        phase3_days = [
            e["attrs"]["day"]
            for e in events
            if e["kind"] == "span" and e["name"] == "phase3.day"
        ]
        # The fault flush at day 20 persists spans for days <= 20, but
        # nothing beyond the crash point.
        assert max(phase3_days) <= 20
        assert durable_days <= 20
