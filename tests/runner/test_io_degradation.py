"""Graceful degradation: auxiliary sink failures must not touch the run.

The contract under test (DESIGN.md section 12): chunk, snapshot and
manifest writes are fatal after retries; telemetry and day-ledger
writes degrade to a warning plus the ``io.degraded`` counter, and a
degraded run's *simulation output* -- impression rows, detections,
serialized RNG states, the manifest itself -- is bit-identical to an
undegraded same-seed run.
"""

from __future__ import annotations

import pytest

from repro import obs, run_simulation, small_config
from repro.obs.timeseries import DAYLEDGER_NAME
from repro.runner import (
    IO_ERROR,
    CheckpointRunner,
    FaultPlan,
    WriteFault,
    verify_run,
)
from repro.runner.manifest import MANIFEST_NAME

from .conftest import assert_results_identical

_IO_DEGRADED = obs.counter("io.degraded")
_IO_RETRIES = obs.counter("io.retries")

SEED = 5
DAYS = 12
EVERY = 5

#: Retries land in well under a second; a "device" that keeps failing
#: needs to outlast every retry of every write.
FOREVER = 10**9


def _fast_faults(*faults: WriteFault) -> FaultPlan:
    return FaultPlan(io_faults=faults)


def _no_sleep(monkeypatch):
    """Strip the retry backoff waits -- they decide nothing."""
    import repro.records.atomic as atomic

    monkeypatch.setattr(atomic, "RETRY_DELAYS", (0.0,) * 3)


@pytest.fixture(scope="module")
def config():
    return small_config(seed=SEED, days=DAYS)


@pytest.fixture(scope="module")
def expected(config):
    """The in-memory uninterrupted result every degraded run must match."""
    return run_simulation(config)


@pytest.fixture(scope="module")
def clean_manifest(config, tmp_path_factory):
    """The manifest of an undegraded checkpointed run of the same seed."""
    run_dir = tmp_path_factory.mktemp("clean")
    CheckpointRunner(config, run_dir, checkpoint_every=EVERY).run(resume=False)
    return (run_dir / MANIFEST_NAME).read_text()


class TestTelemetryDegrades:
    def test_run_completes_bit_identical(
        self, config, expected, clean_manifest, tmp_path, monkeypatch
    ):
        _no_sleep(monkeypatch)
        plan = _fast_faults(
            WriteFault("telemetry.jsonl", action=IO_ERROR, times=FOREVER)
        )
        runner = CheckpointRunner(
            config, tmp_path, checkpoint_every=EVERY, faults=plan
        )
        before = _IO_DEGRADED.value
        result = runner.run(resume=False)

        assert_results_identical(expected, result)
        assert _IO_DEGRADED.value > before
        # The telemetry never landed...
        assert not (tmp_path / "telemetry.jsonl").exists()
        # ...and everything the manifest vouches for -- checksums,
        # chunk index, serialized RNG states, embedded config -- is
        # byte-identical to the undegraded run's manifest.
        assert (tmp_path / MANIFEST_NAME).read_text() == clean_manifest
        report = verify_run(tmp_path)
        assert report.ok, report.issues


class TestLedgerDegrades:
    def test_run_completes_without_ledger(
        self, config, expected, tmp_path, monkeypatch
    ):
        _no_sleep(monkeypatch)
        plan = _fast_faults(
            WriteFault(DAYLEDGER_NAME, action=IO_ERROR, times=FOREVER)
        )
        runner = CheckpointRunner(
            config, tmp_path, checkpoint_every=EVERY, faults=plan
        )
        before = _IO_DEGRADED.value
        result = runner.run(resume=False)

        assert_results_identical(expected, result)
        assert _IO_DEGRADED.value > before
        assert not (tmp_path / DAYLEDGER_NAME).exists()
        # The manifest never vouched for a flush that did not land.
        from repro.runner import RunManifest

        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        assert DAYLEDGER_NAME not in manifest.artifacts
        report = verify_run(tmp_path)
        assert report.ok, report.issues


class TestCriticalWritesStayFatal:
    def test_transient_chunk_error_is_retried_away(
        self, config, expected, clean_manifest, tmp_path, monkeypatch
    ):
        _no_sleep(monkeypatch)
        plan = _fast_faults(
            WriteFault("chunk-*.npc", action=IO_ERROR, times=2)
        )
        runner = CheckpointRunner(
            config, tmp_path, checkpoint_every=EVERY, faults=plan
        )
        retries_before = _IO_RETRIES.value
        degraded_before = _IO_DEGRADED.value
        result = runner.run(resume=False)

        assert_results_identical(expected, result)
        assert _IO_RETRIES.value - retries_before >= 2
        assert _IO_DEGRADED.value == degraded_before
        assert (tmp_path / MANIFEST_NAME).read_text() == clean_manifest

    def test_persistent_chunk_error_kills_the_run(
        self, config, tmp_path, monkeypatch
    ):
        _no_sleep(monkeypatch)
        plan = _fast_faults(
            WriteFault("chunk-*.npc", action=IO_ERROR, times=FOREVER)
        )
        runner = CheckpointRunner(
            config, tmp_path, checkpoint_every=EVERY, faults=plan
        )
        with pytest.raises(OSError):
            runner.run(resume=False)

    def test_persistent_manifest_error_kills_the_run(
        self, config, tmp_path, monkeypatch
    ):
        _no_sleep(monkeypatch)
        plan = _fast_faults(
            WriteFault(MANIFEST_NAME, action=IO_ERROR, times=FOREVER)
        )
        runner = CheckpointRunner(
            config, tmp_path, checkpoint_every=EVERY, faults=plan
        )
        with pytest.raises(OSError):
            runner.run(resume=False)
