"""Chaos matrix: no fault scenario leaves unaccounted-for damage.

Property under test, for every scenario in the matrix (process crashes
at named sites, ENOSPC/EIO devices, torn writes, silent bitrot, dead
telemetry):

1. the run directory never contains an orphaned ``.tmp`` file;
2. every file present is either vouched by the manifest, a known
   auxiliary, or reported by ``verify`` -- damage cannot hide;
3. the documented recovery path (resume for crashes, doctor for silent
   corruption, nothing for degraded auxiliaries) restores a healthy
   directory and a bit-identical simulation result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

import repro.records.atomic as atomic
from repro import run_simulation, small_config
from repro.obs.progress import PROGRESS_NAME
from repro.obs.sink import TELEMETRY_NAME
from repro.runner import (
    IO_BITROT,
    IO_ERROR,
    IO_TORN,
    CheckpointRunner,
    Fault,
    FaultPlan,
    InjectedCrash,
    RunManifest,
    WriteFault,
    repair_run,
    verify_run,
)
from repro.runner.doctor import QUARANTINE_DIR
from repro.runner.manifest import MANIFEST_NAME

from .conftest import assert_results_identical

SEED = 5
DAYS = 12
EVERY = 5
FOREVER = 10**9


@dataclass
class Scenario:
    name: str
    site_faults: tuple = ()
    io_faults: tuple = ()
    #: "crash" -- the first run dies; "complete" -- it finishes.
    expect: str = "crash"
    #: "resume" | "doctor" | "none" -- the documented recovery path.
    recover: str = "resume"
    #: Issue kinds verify is allowed to report before recovery.
    allowed_damage: frozenset = field(default_factory=frozenset)


SCENARIOS = [
    Scenario("crash-phase1-day", site_faults=(Fault("phase1:day", day=3),)),
    Scenario("crash-phase1-end", site_faults=(Fault("phase1:end"),)),
    Scenario("crash-phase3-day", site_faults=(Fault("phase3:day", day=7),)),
    Scenario(
        "crash-mid-checkpoint", site_faults=(Fault("phase3:checkpoint"),)
    ),
    Scenario(
        "torn-chunk-then-crash",
        site_faults=(Fault("phase3:checkpoint"),),
        io_faults=(WriteFault("chunk-00000-00005.npc", action=IO_TORN),),
        allowed_damage=frozenset({"checksum"}),
    ),
    Scenario(
        "enospc-on-chunk",
        io_faults=(WriteFault("chunk-*.npc", action=IO_ERROR, times=FOREVER),),
    ),
    Scenario(
        "enospc-mid-checkpoint-manifest",
        io_faults=(
            WriteFault(MANIFEST_NAME, action=IO_ERROR, nth=2, times=FOREVER),
        ),
    ),
    Scenario(
        # The ledger is written once, at completion: a tear there is
        # silent damage for the doctor.
        "silent-torn-dayledger",
        io_faults=(WriteFault("dayledger.jsonl", action=IO_TORN, detail=7),),
        expect="complete",
        recover="doctor",
        allowed_damage=frozenset({"checksum"}),
    ),
    Scenario(
        "silent-torn-chunk",
        io_faults=(WriteFault("chunk-*.npc", action=IO_TORN, detail=32),),
        expect="complete",
        recover="doctor",
        allowed_damage=frozenset({"checksum"}),
    ),
    Scenario(
        "silent-bitrot-mid-chunk",
        io_faults=(WriteFault("chunk-*.npc", action=IO_BITROT, nth=2),),
        expect="complete",
        recover="doctor",
        allowed_damage=frozenset({"checksum"}),
    ),
    Scenario(
        "dead-telemetry-device",
        io_faults=(
            WriteFault(TELEMETRY_NAME, action=IO_ERROR, times=FOREVER),
        ),
        expect="complete",
        recover="none",
    ),
]


@pytest.fixture(scope="module")
def config():
    return small_config(seed=SEED, days=DAYS)


@pytest.fixture(scope="module")
def expected(config):
    return run_simulation(config)


@pytest.fixture(autouse=True)
def _no_retry_sleep(monkeypatch):
    monkeypatch.setattr(atomic, "RETRY_DELAYS", (0.0,) * 3)


def assert_no_tmp_orphans(run_dir):
    orphans = [p for p in run_dir.rglob("*.tmp") if p.is_file()]
    assert orphans == [], f"orphaned tmp files: {orphans}"


def assert_nothing_hides_from_verify(run_dir, allowed_damage):
    """Every on-disk file is vouched, known-auxiliary, or reported."""
    report = verify_run(run_dir)
    reported = {issue.path for issue in report.issues}
    manifest = RunManifest.load(run_dir / MANIFEST_NAME)
    accounted = (
        set(manifest.artifacts)
        | {entry.file for entry in manifest.chunks}
        | {MANIFEST_NAME, TELEMETRY_NAME, PROGRESS_NAME, "validation.json"}
    )
    for path in run_dir.rglob("*"):
        relative = path.relative_to(run_dir).as_posix()
        if not path.is_file() or relative.startswith(f"{QUARANTINE_DIR}/"):
            continue
        assert relative in accounted or relative in reported, (
            f"{relative}: on disk, unvouched, and verify did not report it"
        )
    surprise = {
        issue.kind for issue in report.damage
    } - allowed_damage
    assert not surprise, (
        f"unexpected damage kinds {surprise}: {report.issues}"
    )


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[scenario.name for scenario in SCENARIOS]
)
def test_no_scenario_leaves_hidden_damage(
    scenario, config, expected, tmp_path
):
    plan = FaultPlan(scenario.site_faults, io_faults=scenario.io_faults)
    runner = CheckpointRunner(
        config, tmp_path, checkpoint_every=EVERY, faults=plan
    )

    result = None
    if scenario.expect == "crash":
        with pytest.raises((InjectedCrash, OSError)):
            runner.run(resume=False)
    else:
        result = runner.run(resume=False)
    if scenario.io_faults:
        assert plan.io_shim().fired, "the disk never lied -- vacuous"

    # Invariants that must hold in the damaged state, before recovery.
    assert_no_tmp_orphans(tmp_path)
    assert_nothing_hides_from_verify(tmp_path, scenario.allowed_damage)

    # The documented recovery path restores health and bit-identity.
    if scenario.recover == "resume":
        healthy = CheckpointRunner(config, tmp_path, checkpoint_every=EVERY)
        result = healthy.run(resume=True)
    elif scenario.recover == "doctor":
        repair = repair_run(tmp_path)
        assert repair.verify is not None and repair.verify.ok

    if result is not None:
        assert_results_identical(expected, result)
    if scenario.recover != "none":
        post = verify_run(tmp_path)
        assert post.ok, post.issues
    assert_no_tmp_orphans(tmp_path)
