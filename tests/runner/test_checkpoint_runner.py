"""Checkpoint runner basics: fresh runs, run-dir layout, guard rails."""

import math
import pickle
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError, SimulationError
from repro.records.atomic import sha256_bytes
from repro.runner import CheckpointRunner, RunManifest
from repro.runner.runner import MARKET_NAME, PHASE1_NAME, snapshot_bytes
from repro.simulator.engine import RNG_STREAMS, SimulationEngine

from .conftest import RUNNER_DAYS, assert_results_identical

CHECKPOINT_EVERY = 6


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory, runner_config):
    """One checkpointed run shared by the read-only tests below."""
    run_dir = tmp_path_factory.mktemp("completed-run")
    runner = CheckpointRunner(
        runner_config, run_dir, checkpoint_every=CHECKPOINT_EVERY
    )
    result = runner.run(resume=False)
    return runner, result


class TestFreshRun:
    def test_matches_in_memory_simulation(self, completed_run, baseline):
        _, result = completed_run
        assert_results_identical(baseline, result)

    def test_run_directory_layout(self, completed_run):
        runner, _ = completed_run
        assert runner.manifest_path.exists()
        assert runner.phase1_path.exists()
        assert runner.market_path.exists()
        chunks = sorted(runner.chunk_dir.iterdir())
        assert len(chunks) == math.ceil(RUNNER_DAYS / CHECKPOINT_EVERY)
        assert all(p.suffix == ".npc" for p in chunks)

    def test_manifest_is_complete_and_checksummed(self, completed_run):
        runner, _ = completed_run
        manifest = RunManifest.load(runner.manifest_path)
        assert manifest.phase == "complete"
        assert set(manifest.artifacts) == {
            "phase1.pkl",
            "market.pkl",
            "dayledger.jsonl",
        }
        assert all(len(sha) == 64 for sha in manifest.artifacts.values())
        assert manifest.next_day == RUNNER_DAYS
        for chunk in manifest.chunks:
            assert set(chunk.rng_after) == set(RNG_STREAMS)

    def test_snapshots_are_pickled_one_at_a_time(
        self, completed_run, runner_config, monkeypatch
    ):
        """``market.pkl`` is pickled only once the caller has taken the
        ``phase1.pkl`` blob, so a caller that drops each blob before it
        asks for the next never holds both."""
        runner, _ = completed_run
        vouched = RunManifest.load(runner.manifest_path).artifacts
        summaries, records, market = SimulationEngine(runner_config).build_phase1()
        dumped = []

        def dumps(obj, protocol):
            dumped.append(obj)
            return pickle.dumps(obj, protocol=protocol)

        monkeypatch.setattr(
            "repro.runner.runner.pickle",
            SimpleNamespace(dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL),
        )
        blobs = snapshot_bytes(summaries, records, market)
        name, blob = next(blobs)
        assert (name, len(dumped)) == (PHASE1_NAME, 1)
        assert sha256_bytes(blob) == vouched[PHASE1_NAME]
        name, blob = next(blobs)
        assert name == MARKET_NAME and dumped[1] is market
        assert sha256_bytes(blob) == vouched[MARKET_NAME]
        assert next(blobs, None) is None

    def test_completed_run_reloads_without_resimulating(
        self, completed_run, runner_config, baseline
    ):
        runner, _ = completed_run
        # Tamper-proof probe: a reload must not touch phase 3 again, so
        # an impossible fault plan on the phase3 sites must never fire.
        from repro.runner import FaultPlan

        plan = FaultPlan.crash_at("phase3:day")
        again = CheckpointRunner(
            runner_config,
            runner.run_dir,
            checkpoint_every=CHECKPOINT_EVERY,
            faults=plan,
        ).run(resume=True)
        assert plan.pending  # never reached phase 3
        assert_results_identical(baseline, again)


class TestGuardRails:
    def test_checkpoint_every_must_be_positive(self, runner_config, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointRunner(runner_config, tmp_path, checkpoint_every=0)

    def test_fresh_refuses_existing_run(self, completed_run, runner_config):
        runner, _ = completed_run
        with pytest.raises(SimulationError, match="already contains a run"):
            CheckpointRunner(runner_config, runner.run_dir).run(resume=False)

    def test_resume_requires_manifest(self, runner_config, tmp_path):
        with pytest.raises(SimulationError, match="nothing to resume"):
            CheckpointRunner(runner_config, tmp_path / "void").run(resume=True)

    def test_resume_refuses_different_config(
        self, completed_run, runner_config
    ):
        runner, _ = completed_run
        other = runner_config.with_auction(mainline_slots=3)
        with pytest.raises(SimulationError, match="config hash mismatch"):
            CheckpointRunner(other, runner.run_dir).run(resume=True)

    def test_version_mismatch_warns_on_resume(
        self, completed_run, runner_config, tmp_path
    ):
        """A cross-version resume proceeds, but through warnings.warn

        (catchable/filterable by callers), not a bare stderr print.
        """
        import json
        import shutil

        runner, _ = completed_run
        run_dir = tmp_path / "stale-version"
        shutil.copytree(runner.run_dir, run_dir)
        manifest_path = run_dir / "MANIFEST.json"
        payload = json.loads(manifest_path.read_text())
        payload["package_version"] = "0.0.0-older"
        manifest_path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="written by repro 0.0.0-older"):
            CheckpointRunner(
                runner_config, run_dir, checkpoint_every=CHECKPOINT_EVERY
            ).run(resume=True)
