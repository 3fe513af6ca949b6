"""The run doctor: verify catches damage, repair restores vouched bytes.

The central claim: ``repair_run`` on a damaged completed run produces a
directory *byte-identical* (quarantine aside) to one that was never
damaged -- because re-simulating a damaged day range from the recorded
RNG states regenerates the exact artifact bytes the manifest vouches.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import small_config
from repro.errors import SimulationError
from repro.obs.__main__ import main as obs_main
from repro.obs.timeseries import DAYLEDGER_NAME
from repro.runner import (
    CheckpointRunner,
    FaultPlan,
    InjectedCrash,
    repair_run,
    verify_run,
)
from repro.runner.doctor import QUARANTINE_DIR, render_repair, render_verify
from repro.runner.manifest import MANIFEST_NAME
from repro.runner.runner import MARKET_NAME, PHASE1_NAME
from repro.simulator.engine import SimulationEngine

SEED = 5
DAYS = 12
EVERY = 5  # chunks: [0,5) [5,10) [10,12) -- index 1 is mid-run


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One completed, healthy run directory (copied per test)."""
    run_dir = tmp_path_factory.mktemp("runs") / "pristine"
    config = small_config(seed=SEED, days=DAYS)
    CheckpointRunner(config, run_dir, checkpoint_every=EVERY).run(resume=False)
    return run_dir


@pytest.fixture
def run_dir(pristine, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(pristine, copy)
    return copy


def _tree(root, *, skip=(QUARANTINE_DIR,)):
    """Relative path -> content bytes for every file under ``root``."""
    files = {}
    for path in sorted(root.rglob("*")):
        relative = path.relative_to(root)
        if relative.parts[0] in skip:
            continue
        if path.is_file():
            files[str(relative)] = path.read_bytes()
    return files


def assert_byte_identical(repaired, pristine):
    """Every non-quarantine file equals the never-damaged original."""
    want = _tree(pristine)
    got = _tree(repaired)
    assert set(got) == set(want)
    for name, data in want.items():
        assert got[name] == data, f"{name} differs after repair"


def _flip_byte(path, offset=100):
    data = bytearray(path.read_bytes())
    data[offset % len(data)] ^= 0xFF
    path.write_bytes(bytes(data))


def _chunk_paths(run_dir):
    return sorted((run_dir / "chunks").iterdir())


class TestVerify:
    def test_healthy_run_is_healthy(self, run_dir):
        report = verify_run(run_dir)
        assert report.ok
        # phase1, market, dayledger + three chunks.
        assert report.checked == 6
        assert "HEALTHY" in render_verify(report)

    def test_catches_chunk_bitrot(self, run_dir):
        _flip_byte(_chunk_paths(run_dir)[1])
        report = verify_run(run_dir)
        assert not report.ok
        assert [i.kind for i in report.damage] == ["checksum"]

    def test_catches_missing_chunk(self, run_dir):
        _chunk_paths(run_dir)[0].unlink()
        report = verify_run(run_dir)
        assert [i.kind for i in report.damage] == ["missing"]

    def test_catches_stray_chunk_and_tmp(self, run_dir):
        (run_dir / "chunks" / "chunk-99999-99999.npz").write_bytes(b"junk")
        (run_dir / f"{PHASE1_NAME}.tmp").write_bytes(b"junk")
        report = verify_run(run_dir)
        kinds = sorted(i.kind for i in report.damage)
        assert kinds == ["stray", "tmp"]

    def test_catches_snapshot_and_ledger_damage(self, run_dir):
        _flip_byte(run_dir / MARKET_NAME)
        (run_dir / DAYLEDGER_NAME).write_text("")
        report = verify_run(run_dir)
        damaged = {i.path for i in report.damage}
        assert damaged == {MARKET_NAME, DAYLEDGER_NAME}

    def test_incomplete_run_vouches_no_ledger(self, tmp_path):
        # The ledger is written once, at completion: a crashed run has
        # none, and a ledger file found there is only an unvouched note.
        config = small_config(seed=SEED, days=DAYS)
        with pytest.raises(InjectedCrash):
            CheckpointRunner(
                config,
                tmp_path,
                checkpoint_every=EVERY,
                faults=FaultPlan.crash_at("phase3:day", day=7),
            ).run(resume=False)
        report = verify_run(tmp_path)
        assert report.phase == "phase3" and report.ok
        assert report.issues == []
        assert not (tmp_path / DAYLEDGER_NAME).exists()
        (tmp_path / DAYLEDGER_NAME).write_text('{"day":0,"clicks":1e9}\n')
        report = verify_run(tmp_path)
        assert report.ok
        assert [(i.kind, i.path) for i in report.issues] == [
            ("note", DAYLEDGER_NAME)
        ]

    def test_unreadable_manifest_raises(self, run_dir):
        (run_dir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SimulationError):
            verify_run(run_dir)

    def test_tampered_embedded_config_is_rejected(self, run_dir):
        import json

        payload = json.loads((run_dir / MANIFEST_NAME).read_text())
        payload["config"]["seed"] = payload["config"]["seed"] + 1
        (run_dir / MANIFEST_NAME).write_text(json.dumps(payload))
        _flip_byte(_chunk_paths(run_dir)[0])
        with pytest.raises(SimulationError, match="tampered"):
            repair_run(run_dir)


class TestRepair:
    def test_healthy_run_needs_nothing(self, run_dir):
        report = repair_run(run_dir)
        assert report.strategy == "none"
        assert report.quarantined == [] and report.rewritten == []
        assert report.verify.ok

    def test_chunk_bitrot_repaired_byte_identical(self, run_dir, pristine):
        # The acceptance case: bitrot in a non-tail chunk.
        victim = _chunk_paths(run_dir)[1]
        _flip_byte(victim)
        report = repair_run(run_dir)
        assert report.strategy == "chunk-replay"
        assert report.rewritten == [f"chunks/{victim.name}"]
        assert report.verify.ok
        assert_byte_identical(run_dir, pristine)
        # The damaged original is preserved, not destroyed.
        assert (run_dir / QUARANTINE_DIR / "chunks" / victim.name).exists()
        assert "re-simulated" in render_repair(report)

    def test_repaired_run_passes_drift_gate(self, run_dir, pristine):
        _flip_byte(_chunk_paths(run_dir)[1])
        repair_run(run_dir)
        # The cross-run gate the CI uses for resume determinism: zero
        # ledger drift between the repaired and never-damaged run.
        assert obs_main(
            ["diff", str(pristine), str(run_dir), "--fail-on", "drift=0"]
        ) == 0

    def test_missing_first_chunk_replayed_from_phase3_start(
        self, run_dir, pristine
    ):
        _chunk_paths(run_dir)[0].unlink()
        report = repair_run(run_dir)
        assert report.strategy == "chunk-replay"
        assert report.verify.ok
        assert_byte_identical(run_dir, pristine)

    def test_every_chunk_damaged_still_repairs(self, run_dir, pristine):
        for index, path in enumerate(_chunk_paths(run_dir)):
            _flip_byte(path, offset=50 + index)
        report = repair_run(run_dir)
        assert report.strategy == "chunk-replay"
        assert len(report.rewritten) == 3
        assert_byte_identical(run_dir, pristine)

    def test_damaged_ledger_full_replay(self, run_dir, pristine):
        (run_dir / DAYLEDGER_NAME).write_text("torn gibberish\n")
        report = repair_run(run_dir)
        assert report.strategy == "full-replay"
        assert DAYLEDGER_NAME in report.rewritten
        assert report.verify.ok
        assert_byte_identical(run_dir, pristine)

    def test_torn_ledger_repair_replays_no_phase3_day(
        self, run_dir, pristine, monkeypatch
    ):
        # The ledger's market rows come from the manifest, so a damaged
        # ledger costs Phases 1-2 and no auction day.
        replayed = []
        run_auctions = SimulationEngine.run_auctions

        def counting(self, market, builder, start_day=0, end_day=None, **kwargs):
            replayed.append((start_day, end_day))
            return run_auctions(self, market, builder, start_day, end_day, **kwargs)

        monkeypatch.setattr(SimulationEngine, "run_auctions", counting)
        ledger = run_dir / DAYLEDGER_NAME
        ledger.write_bytes(ledger.read_bytes()[:-40])
        report = repair_run(run_dir)
        assert report.rewritten == [DAYLEDGER_NAME]
        assert replayed == []
        assert_byte_identical(run_dir, pristine)

    def test_damaged_snapshot_full_replay(self, run_dir, pristine):
        _flip_byte(run_dir / PHASE1_NAME)
        _flip_byte(_chunk_paths(run_dir)[2])
        report = repair_run(run_dir)
        assert report.strategy == "full-replay"
        assert set(report.rewritten) >= {PHASE1_NAME}
        assert report.verify.ok
        assert_byte_identical(run_dir, pristine)

    def test_damaged_snapshot_chunk_and_ledger_full_replay(
        self, run_dir, pristine
    ):
        # One damaged artifact for each step of the full replay: the
        # snapshot, the ledger, then a chunk (through the chunk replay).
        victim = _chunk_paths(run_dir)[1]
        _flip_byte(run_dir / MARKET_NAME)
        _flip_byte(victim)
        (run_dir / DAYLEDGER_NAME).write_text("torn gibberish\n")
        report = repair_run(run_dir)
        assert report.strategy == "full-replay"
        assert report.rewritten == [
            MARKET_NAME,
            DAYLEDGER_NAME,
            f"chunks/{victim.name}",
        ]
        assert report.verify.ok
        assert_byte_identical(run_dir, pristine)

    def test_strays_are_quarantined_not_deleted(self, run_dir, pristine):
        (run_dir / "chunks" / "chunk-99999-99999.npz").write_bytes(b"junk")
        (run_dir / "market.pkl.tmp").write_bytes(b"junk")
        report = repair_run(run_dir)
        assert report.strategy == "quarantine-only"
        assert sorted(report.quarantined) == [
            "chunks/chunk-99999-99999.npz",
            "market.pkl.tmp",
        ]
        assert report.verify.ok
        assert_byte_identical(run_dir, pristine)
        quarantined = run_dir / QUARANTINE_DIR / "market.pkl.tmp"
        assert quarantined.read_bytes() == b"junk"

    def test_incomplete_run_is_refused(self, tmp_path):
        config = small_config(seed=SEED, days=DAYS)
        plan = FaultPlan.crash_at("phase3:checkpoint")
        runner = CheckpointRunner(
            config, tmp_path, checkpoint_every=EVERY, faults=plan
        )
        with pytest.raises(InjectedCrash):
            runner.run(resume=False)
        # Break a durable chunk so there is damage to (not) repair.
        _flip_byte(_chunk_paths(tmp_path)[0])
        with pytest.raises(SimulationError, match="resume"):
            repair_run(tmp_path)


def _runner_cli(hash_seed: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -m repro.runner`` in a fresh process with this hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "repro.runner", *argv],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )


def test_repair_in_another_process_restores_snapshots(tmp_path):
    """The snapshots' bytes do not depend on the writer's hash seed, so
    a repair under another ``PYTHONHASHSEED`` rebuilds them exactly."""
    run_dir = tmp_path / "run"
    written = _runner_cli(
        "1", "run", "--checkpoint-dir", str(run_dir), "--small", "--days", "20"
    )
    assert written.returncode == 0, written.stderr[-2000:]
    pristine = {
        name: (run_dir / name).read_bytes() for name in (PHASE1_NAME, MARKET_NAME)
    }
    for name in pristine:
        _flip_byte(run_dir / name)
    repaired = _runner_cli("2", "doctor", str(run_dir), "--repair")
    assert repaired.returncode == 0, (repaired.stdout + repaired.stderr)[-2000:]
    for name, data in pristine.items():
        assert (run_dir / name).read_bytes() == data, name
