"""Acceptance: the day ledger survives interruption byte-identically.

An interrupted-then-resumed run must reconstruct ``dayledger.jsonl``
exactly as an uninterrupted same-seed run wrote it -- the ledger is a
run artifact with the same crash-safety contract as the impression
chunks.  A ``repro.obs diff --fail-on drift=0`` over such a pair (the
CI diff-gate) must therefore hold.
"""

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.timeseries import DAYLEDGER_NAME, load_rows
from repro.runner import (
    IO_TORN,
    CheckpointRunner,
    Fault,
    FaultPlan,
    InjectedCrash,
    WriteFault,
)

from .conftest import assert_results_identical

CHECKPOINT_EVERY = 5

#: Interruption points exercising distinct preload paths: mid-Phase-1
#: (ledger rebuilt from scratch), Phase-3 before any chunk is durable
#: (phase-1 fields preloaded, no market days), between checkpoints
#: (preload discards the un-vouched tail), and at a durable checkpoint
#: whose chunk the disk tore (chunk validation truncates the manifest's
#: view).
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
