"""Acceptance: interrupted-and-resumed runs are byte-identical.

Each scenario kills a checkpointed run at a distinct point via a
deterministic :class:`FaultPlan` -- mid-Phase-1, mid-Phase-3 before a
checkpoint, and *after* a durable checkpoint whose tail chunk the disk
tore or bit-flipped -- resumes it, and asserts the final impression
table, detection records, and rendered validation report are
byte-identical to the uninterrupted same-seed run.
"""

import dataclasses
import json

import pytest

from repro import small_config
from repro.errors import SimulationError
from repro.runner import (
    IO_BITROT,
    IO_TORN,
    CheckpointRunner,
    Fault,
    FaultPlan,
    InjectedCrash,
    WriteFault,
)
from repro.runner.__main__ import main as runner_main
from repro.validation import render_report, run_validation

from .conftest import assert_results_identical

CHECKPOINT_EVERY = 5

#: The chunk the day-24 checkpoint writes (days 20-24).
TAIL_CHUNK = "chunk-00020-00025.npc"


def _damaged_tail(action):
    """The disk damages the day-24 chunk's write; the run then dies."""
    return FaultPlan(
        [Fault(site="phase3:checkpoint", day=24)],
        io_faults=[WriteFault(TAIL_CHUNK, action=action)],
    )


#: Distinct interruption points (id -> fault plan factory).
SCENARIOS = {
    "mid-phase1": lambda: FaultPlan.crash_at("phase1:day", day=17),
    # Near the end of Phase 1: re-running Phase 1 from the seed must
    # replay every registration and detection draw identically.
    "late-phase1": lambda: FaultPlan.crash_at("phase1:day", day=35),
    "phase3-before-first-checkpoint": lambda: FaultPlan.crash_at(
        "phase3:day", day=2
    ),
    "phase3-between-checkpoints": lambda: FaultPlan.crash_at(
        "phase3:day", day=23
    ),
    "corrupt-tail-chunk": lambda: _damaged_tail(IO_TORN),
    "bitrot-tail-chunk": lambda: _damaged_tail(IO_BITROT),
}


def _interrupt(config, run_dir, plan):
    with pytest.raises(InjectedCrash):
        CheckpointRunner(
            config, run_dir, checkpoint_every=CHECKPOINT_EVERY, faults=plan
        ).run(resume=False)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_interrupted_run_resumes_byte_identical(
    scenario, runner_config, baseline, baseline_report, tmp_path
):
    plan = SCENARIOS[scenario]()
    _interrupt(runner_config, tmp_path, plan)
    assert not plan.pending, "fault never fired -- scenario is vacuous"
    shim = plan.io_shim()
    assert shim is None or shim.fired, "the disk never lied -- vacuous"

    resumed = CheckpointRunner(
        runner_config, tmp_path, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=True)

    assert_results_identical(baseline, resumed)
    report = render_report(run_validation(resumed))
    assert report == baseline_report


def test_double_interruption_still_byte_identical(
    runner_config, baseline, tmp_path
):
    """Crash, resume, crash again later, resume again."""
    _interrupt(runner_config, tmp_path, FaultPlan.crash_at("phase3:day", day=8))
    second = FaultPlan.crash_at("phase3:day", day=33)
    with pytest.raises(InjectedCrash):
        CheckpointRunner(
            runner_config,
            tmp_path,
            checkpoint_every=CHECKPOINT_EVERY,
            faults=second,
        ).run(resume=True)
    resumed = CheckpointRunner(
        runner_config, tmp_path, checkpoint_every=CHECKPOINT_EVERY
    ).run(resume=True)
    assert_results_identical(baseline, resumed)


def test_resume_with_corrupted_config_hash_is_refused(
    runner_config, tmp_path
):
    """A run directory resumes only under the configuration it was
    created with."""
    _interrupt(
        runner_config, tmp_path, FaultPlan.crash_at("phase3:checkpoint", day=24)
    )
    other = dataclasses.replace(runner_config, seed=runner_config.seed + 1)
    with pytest.raises(SimulationError, match="config hash mismatch"):
        CheckpointRunner(
            other, tmp_path, checkpoint_every=CHECKPOINT_EVERY
        ).run(resume=True)


def test_corrupt_non_tail_chunk_is_refused(runner_config, tmp_path):
    """Damage before the tail is unrecoverable and must say so."""
    _interrupt(
        runner_config, tmp_path, FaultPlan.crash_at("phase3:day", day=23)
    )
    # Four durable chunks exist (days 0-20); damage the first one.
    first_chunk = sorted((tmp_path / "chunks").iterdir())[0]
    first_chunk.write_bytes(first_chunk.read_bytes()[:-32])
    with pytest.raises(SimulationError, match="not\\s+a discardable tail"):
        CheckpointRunner(
            runner_config, tmp_path, checkpoint_every=CHECKPOINT_EVERY
        ).run(resume=True)


def test_chunk_entry_outside_run_dir_is_refused(tmp_path):
    """Resume never acts on a file the manifest names outside ``chunks/``."""
    run_dir = tmp_path / "runs" / "x"
    victim = tmp_path / "victim.txt"
    victim.write_text("not a chunk")
    config = small_config(days=20)
    with pytest.raises(InjectedCrash):
        CheckpointRunner(
            config, run_dir, faults=FaultPlan.crash_at("phase3:day", day=15)
        ).run()
    manifest_path = run_dir / "MANIFEST.json"
    payload = json.loads(manifest_path.read_text())
    payload["chunks"][-1]["file"] = "../../victim.txt"
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(SimulationError, match="victim.txt"):
        CheckpointRunner(config, run_dir).run(resume=True)
    assert victim.read_text() == "not a chunk"


def test_malformed_rng_state_exits_2_on_cli_resume(runner_config, tmp_path, capsys):
    """A stream state numpy refuses is one ``ERROR`` line, not a
    traceback."""
    _interrupt(
        runner_config, tmp_path, FaultPlan.crash_at("phase3:day", day=23)
    )
    manifest_path = tmp_path / "MANIFEST.json"
    payload = json.loads(manifest_path.read_text())
    payload["chunks"][-1]["rng_after"]["clicks"]["state"] = {"state": "zzz", "inc": 1}
    manifest_path.write_text(json.dumps(payload))
    capsys.readouterr()
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
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR"), lines
    assert "'clicks'" in lines[0]
