"""Acceptance: the day ledger survives interruption byte-identically.

An interrupted-then-resumed run must write ``dayledger.jsonl`` exactly
as an uninterrupted same-seed run wrote it.  Until the run completes,
the ledger's market rows live only in the manifest's chunk entries, so
a ledger file on disk -- deleted, torn or altered -- changes nothing.
A ``repro.obs diff --fail-on drift=0`` over such a pair (the CI
diff-gate) must therefore hold.
"""

import json

import pytest

import repro.records.atomic as atomic
from repro import obs
from repro.obs.__main__ import main as obs_main
from repro.obs.timeseries import DAYLEDGER_NAME, DayLedger, load_rows
from repro.runner import (
    IO_ERROR,
    IO_TORN,
    CheckpointRunner,
    Fault,
    FaultPlan,
    InjectedCrash,
    RunManifest,
    WriteFault,
    verify_run,
)
from repro.runner.__main__ import main as runner_main
from repro.runner.manifest import MANIFEST_NAME

from .conftest import assert_results_identical

CHECKPOINT_EVERY = 5

#: Interruption points exercising distinct rebuild paths: mid-Phase-1
#: (ledger built from scratch), Phase-3 before any chunk is durable
#: (Phase-1 half from the snapshot, no market rows), between
#: checkpoints (the days after the last chunk are simulated again), and
#: at a durable checkpoint whose chunk the disk tore (chunk validation
#: discards that entry and its rows).
SCENARIOS = {
    "mid-phase1": lambda: FaultPlan.crash_at("phase1:day", day=17),
    "phase3-before-first-checkpoint": lambda: FaultPlan.crash_at(
        "phase3:day", day=2
    ),
    "phase3-between-checkpoints": lambda: FaultPlan.crash_at(
        "phase3:day", day=23
    ),
    "corrupt-tail-chunk": lambda: FaultPlan(
        [Fault(site="phase3:checkpoint", day=24)],
        io_faults=[WriteFault("chunk-00020-00025.npc", action=IO_TORN)],
    ),
}


@pytest.fixture(scope="module")
def ledger_reference(runner_config, tmp_path_factory):
    """The uninterrupted run's ledger bytes (and its run dir)."""
    run_dir = tmp_path_factory.mktemp("ledger-ref")
    result = CheckpointRunner(
        runner_config, run_dir, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=False)
    ledger_path = run_dir / DAYLEDGER_NAME
    assert ledger_path.exists(), "ledgered run wrote no dayledger.jsonl"
    return {
        "dir": run_dir,
        "bytes": ledger_path.read_bytes(),
        "result": result,
    }


def _interrupt(config, run_dir, plan):
    with pytest.raises(InjectedCrash):
        CheckpointRunner(
            config, run_dir, checkpoint_every=CHECKPOINT_EVERY, faults=plan
        ).run(resume=False)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_resumed_ledger_byte_identical(
    scenario, runner_config, ledger_reference, tmp_path
):
    plan = SCENARIOS[scenario]()
    _interrupt(runner_config, tmp_path, plan)
    assert not plan.pending, "fault never fired -- scenario is vacuous"
    shim = plan.io_shim()
    assert shim is None or shim.fired, "the disk never lied -- vacuous"

    resumed = CheckpointRunner(
        runner_config, tmp_path, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=True)

    assert_results_identical(ledger_reference["result"], resumed)
    assert (
        tmp_path / DAYLEDGER_NAME
    ).read_bytes() == ledger_reference["bytes"]


def test_fresh_vs_resumed_passes_diff_gate(
    runner_config, ledger_reference, tmp_path, capsys
):
    """The CI gate itself: fresh vs resumed diffs clean at drift=0."""
    _interrupt(
        runner_config, tmp_path, FaultPlan.crash_at("phase3:day", day=23)
    )
    CheckpointRunner(
        runner_config, tmp_path, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=True)

    code = obs_main(
        ["diff", str(ledger_reference["dir"]), str(tmp_path),
         "--fail-on", "drift=0"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "ok: 1 rule(s) held" in out


def test_ledger_rows_cover_every_day(runner_config, ledger_reference):
    rows = load_rows(ledger_reference["dir"] / DAYLEDGER_NAME)
    assert [row["day"] for row in rows] == list(range(runner_config.days))
    assert all("impressions" in row for row in rows)


def test_resume_of_completed_run_preserves_ledger(
    runner_config, ledger_reference, tmp_path
):
    """Resuming an already-complete run must not rewrite the ledger."""
    run_dir = tmp_path / "done"
    CheckpointRunner(
        runner_config, run_dir, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=False)
    before = (run_dir / DAYLEDGER_NAME).read_bytes()
    CheckpointRunner(
        runner_config, run_dir, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=True)
    assert (run_dir / DAYLEDGER_NAME).read_bytes() == before


def test_fresh_run_writes_the_ledger_once(runner_config, tmp_path, monkeypatch):
    """No checkpoint rewrites the ledger: one write, at completion."""
    flushes = []
    flush = DayLedger.flush

    def counting(self, path):
        flushes.append(path)
        return flush(self, path)

    monkeypatch.setattr(DayLedger, "flush", counting)
    CheckpointRunner(
        runner_config, tmp_path, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=False)
    assert flushes == [tmp_path / DAYLEDGER_NAME]


def _plant(run_dir, reference: bytes, damage: str) -> None:
    """Leave a crashed run's ledger file deleted, torn or altered."""
    ledger = run_dir / DAYLEDGER_NAME
    lines = reference.decode().splitlines()[:23]
    if damage == "deleted":
        ledger.unlink(missing_ok=True)
        return
    if damage == "torn":
        lines[10] = lines[10][:30]
    else:  # a well-formed row with other clicks
        row = json.loads(lines[10])
        row["clicks"] += 1000.0
        lines[10] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    ledger.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("damage", ["deleted", "torn", "altered"])
def test_cli_resume_ignores_a_ledger_file(
    damage, runner_config, ledger_reference, tmp_path
):
    """Resume reads no ledger file: whatever lies in the crashed run's
    directory, it ends with the uninterrupted run's ledger bytes."""
    _interrupt(
        runner_config, tmp_path, FaultPlan.crash_at("phase3:day", day=23)
    )
    assert not (tmp_path / DAYLEDGER_NAME).exists()
    manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
    assert DAYLEDGER_NAME not in manifest.artifacts
    _plant(tmp_path, ledger_reference["bytes"], damage)
    code = runner_main(
        [
            "run",
            "--checkpoint-dir",
            str(tmp_path),
            "--resume",
            "--small",
            "--seed",
            str(runner_config.seed),
            "--days",
            str(runner_config.days),
            "--checkpoint-every",
            str(CHECKPOINT_EVERY),
        ]
    )
    assert code == 0
    assert (tmp_path / DAYLEDGER_NAME).read_bytes() == ledger_reference["bytes"]
    assert verify_run(tmp_path).ok
    reloaded = CheckpointRunner(
        runner_config, tmp_path, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=True)
    assert_results_identical(ledger_reference["result"], reloaded)


class TestNeverVouchAPartialLedger:
    """A ledger write that fails is degraded -- one ``io.degraded``, no
    artifact, no file -- and the simulation output is unchanged."""

    @pytest.fixture(autouse=True)
    def _no_retry_sleep(self, monkeypatch):
        monkeypatch.setattr(atomic, "RETRY_DELAYS", (0.0,) * 3)

    def test_failed_flushes_never_vouch_a_partial_ledger(
        self, runner_config, ledger_reference, tmp_path
    ):
        # A stale file from elsewhere must not outlive the failed write.
        tmp_path.joinpath(DAYLEDGER_NAME).write_text('{"day":0}\n')
        failing = WriteFault(DAYLEDGER_NAME, action=IO_ERROR, times=10**9)
        degraded = obs.counter("io.degraded")
        before = degraded.value
        result = CheckpointRunner(
            runner_config,
            tmp_path,
            checkpoint_every=CHECKPOINT_EVERY,
            faults=FaultPlan(io_faults=[failing]),
        ).run(resume="auto")
        assert failing.seen > 1, "the ledger write was never attempted"
        assert degraded.value - before == 1
        assert_results_identical(ledger_reference["result"], result)
        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        assert manifest.phase == "complete"
        assert DAYLEDGER_NAME not in manifest.artifacts
        assert not (tmp_path / DAYLEDGER_NAME).exists()
        report = verify_run(tmp_path)
        assert report.ok, report.issues

    def test_flush_that_lands_vouches_the_ledger_again(
        self, runner_config, ledger_reference, tmp_path
    ):
        # The one ledger write fails twice; its retry lands the whole
        # ledger, and the manifest vouches it.
        transient = WriteFault(DAYLEDGER_NAME, action=IO_ERROR, times=2)
        CheckpointRunner(
            runner_config,
            tmp_path,
            checkpoint_every=CHECKPOINT_EVERY,
            faults=FaultPlan(io_faults=[transient]),
        ).run(resume=False)
        assert transient.seen == 3
        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        assert DAYLEDGER_NAME in manifest.artifacts
        assert (tmp_path / DAYLEDGER_NAME).read_bytes() == ledger_reference["bytes"]
        assert verify_run(tmp_path).ok
