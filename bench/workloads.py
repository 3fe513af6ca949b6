"""The benchmark's workloads: inputs from a seed, timed operations, checks.

Each workload is one job issued by one client (a closed loop of one):

``paper_default``
    ``python -m repro.runner run ... --report R`` on the default preset,
    cut to :data:`DAYS` days.
``auction_dense``
    ``CheckpointRunner(cfg).run()`` with 1/5 of the registrations and
    12x the sampled auctions at 1/12 of the volume weight, so aggregate
    traffic is unchanged but Phase 3 (query stream, auctions, chunk
    writes) dominates.  The tech-support ban moves to
    :data:`DENSE_BAN_DAY`, so the policy-ban path runs within the
    horizon.
``recover``
    A run crashed at ``phase1:end`` (set-up), then resume, verify, a
    one-byte flip, repair, reload, validation and all 21 experiments:
    the read and recovery side.

:func:`setup` and :func:`timed` run in the calling process;
``bench/run.py`` calls them from fresh child processes, the tests call
them directly with a small configuration.  :func:`timed` returns the
operations' summed wall and CPU time, what the run left on disk, the
output digest and the checks attempted and failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

from repro import validation
from repro.config import SimulationConfig, default_config, small_config
from repro.entities.enums import ShutdownReason
from repro.experiments import ExperimentContext, registry
from repro.runner import CheckpointRunner, FaultPlan, InjectedCrash, doctor
from repro.runner import __main__ as runner_cli

from layers import LayerTrace

WORKLOADS = ("paper_default", "auction_dense", "recover")

#: Simulated days of every workload.  The default preset's 728 days
#: take about a minute per run; 13 weeks keep one repetition at a few
#: seconds so each benchmark run can take the median of several.  The
#: cost: the preset's tech-support ban (day ~456) and its full-scale
#: memory (~2 GB) are out of reach, see :data:`DENSE_BAN_DAY`.
DAYS = 91

#: ``auction_dense``: registrations divided and sampled auctions
#: multiplied by these, volume weight divided, so traffic is unchanged.
DENSE_REGISTRATION_DIVISOR = 5
DENSE_AUCTION_FACTOR = 12
#: ``auction_dense``: day of the tech-support ban.  With the engine's
#: 30-day policy learning lag, fraud registered from day 60 on avoids
#: the banned vertical, so sweeps, post-ban catches and the policy
#: ledger rows all fall within :data:`DAYS`.
DENSE_BAN_DAY = 30.0

#: The fault that leaves ``recover``'s run directory as after a crash.
CRASH_SITE = "phase1:end"


def bench_config(seed: int) -> SimulationConfig:
    """The base configuration every workload derives from."""
    return replace(default_config(seed), days=DAYS)


def workload_config(name: str, base: SimulationConfig) -> SimulationConfig:
    """The configuration ``name`` simulates, derived from ``base``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if name != "auction_dense":
        return base
    return replace(
        base,
        population=replace(
            base.population,
            registrations_per_day=base.population.registrations_per_day
            / DENSE_REGISTRATION_DIVISOR,
        ),
        query=replace(
            base.query,
            auctions_per_day=base.query.auctions_per_day * DENSE_AUCTION_FACTOR,
            volume_weight=base.query.volume_weight / DENSE_AUCTION_FACTOR,
        ),
        detection=replace(base.detection, techsupport_ban_day=DENSE_BAN_DAY),
    )


def cli_args(config: SimulationConfig) -> list[str]:
    """``python -m repro.runner run`` flags that rebuild ``config``."""
    for flags, preset in (([], default_config), (["--small"], small_config)):
        if replace(preset(config.seed), days=config.days) == config:
            return [*flags, "--seed", str(config.seed), "--days", str(config.days)]
    raise ValueError("config is not a runner CLI preset with seed and days")


class Checks:
    """Counts correctness checks; a failed one is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", file=sys.stderr)


class Ops:
    """Times the workload's operations; their sums are wall_s and cpu_s."""

    def __init__(self, trace: LayerTrace | None) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._trace = trace

    @contextmanager
    def op(self, name: str):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.wall_s += end - wall
            self.cpu_s += time.process_time() - cpu
            if self._trace is not None:
                self._trace.spans.append((f"op.{name}", wall, end))


def _sha256_file(path: Path) -> str:
    # hashlib directly: a check must not rely on the program's own hashing.
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_mb(path: Path) -> float:
    """Bytes of every file under ``path``, in MB."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def run_digest(run_dir: Path, passed: list[str] | None) -> str:
    """sha256 over what a run must reproduce bit for bit.

    The ordered chunk checksums, the day-ledger checksum and the final
    RNG states from ``MANIFEST.json``, plus the validation PASS set
    where the workload validates.  Pickled snapshots are left out:
    their bytes vary with ``PYTHONHASHSEED``.
    """
    manifest = json.loads((run_dir / "MANIFEST.json").read_text())
    payload = {
        "chunks": [entry["sha256"] for entry in manifest["chunks"]],
        "dayledger": manifest["artifacts"].get("dayledger.jsonl"),
        "rng": manifest["chunks"][-1]["rng_after"] if manifest["chunks"] else None,
        "validation_passed": sorted(passed) if passed is not None else None,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def flip_byte(run_dir: Path, seed: int) -> str:
    """Flip one byte of a seed-chosen chunk from the middle half.

    Returns the chunk's run-directory-relative path.
    """
    chunks = json.loads((run_dir / "MANIFEST.json").read_text())["chunks"]
    rng = random.Random(seed)
    entry = chunks[len(chunks) // 4 + rng.randrange(max(1, len(chunks) // 2))]
    path = run_dir / entry["file"]
    data = bytearray(path.read_bytes())
    data[rng.randrange(len(data))] ^= 0xFF
    path.write_bytes(bytes(data))
    return entry["file"]


def setup(name: str, base: SimulationConfig, run_dir: Path) -> Checks:
    """Untimed set-up; only ``recover`` has one (the crashed run)."""
    checks = Checks()
    if name != "recover":
        return checks
    crashed = False
    try:
        CheckpointRunner(
            workload_config(name, base), run_dir, faults=FaultPlan.crash_at(CRASH_SITE)
        ).run(resume=False)
    except InjectedCrash:
        crashed = True
    checks(crashed, f"set-up run did not crash at {CRASH_SITE}")
    manifest = json.loads((run_dir / "MANIFEST.json").read_text())
    checks(manifest["phase"] == "phase3", "crashed run is not in phase3")
    return checks


def timed(
    name: str,
    base: SimulationConfig,
    run_dir: Path,
    work_dir: Path,
    trace: LayerTrace | None = None,
) -> dict:
    """Run the workload's timed operations, then check their outputs.

    With ``trace`` the layer wrappers are installed around the timed
    operations only; the checks run after they are removed.
    """
    config = workload_config(name, base)
    checks = Checks()
    ops = Ops(trace)
    with trace if trace is not None else nullcontext():
        outputs = _OPERATIONS[name](config, run_dir, work_dir, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_dir_mb = dir_mb(run_dir)
    passed = _CHECKS[name](config, run_dir, outputs, checks)
    checks(doctor.verify_run(run_dir).ok, "final run directory fails verify")
    return {
        "wall_s": ops.wall_s,
        "cpu_s": ops.cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "run_dir_mb": run_dir_mb,
        "digest": run_digest(run_dir, passed),
        "attempted": checks.attempted,
        "failed": checks.failed,
    }


# -- paper_default -----------------------------------------------------


def _paper_ops(config, run_dir, work_dir, ops) -> dict:
    argv = ["run", "--checkpoint-dir", str(run_dir), *cli_args(config)]
    with ops.op("run"):
        code = runner_cli.main([*argv, "--report", str(work_dir / "report.txt")])
    return {"code": code}


def _paper_checks(config, run_dir, outputs, checks) -> list[str]:
    checks(outputs["code"] == 0, f"runner exited {outputs['code']}")
    report = json.loads((run_dir / "validation.json").read_text())
    return [row["name"] for row in report["checks"] if row["ok"]]


# -- auction_dense -----------------------------------------------------


def _dense_ops(config, run_dir, work_dir, ops) -> dict:
    with ops.op("run"):
        result = CheckpointRunner(config, run_dir).run(resume=False)
    return {
        "rows": len(result.impressions),
        "policy_days": [change.day for change in result.policy_changes],
        "policy_shutdowns": sum(
            record.stage == ShutdownReason.POLICY_CHANGE.value
            for record in result.detections
        ),
    }


def _dense_checks(config, run_dir, outputs, checks) -> None:
    manifest = json.loads((run_dir / "MANIFEST.json").read_text())
    rows = sum(entry["rows"] for entry in manifest["chunks"])
    checks(outputs["rows"] == rows > 0, "impression rows differ from the manifest")
    checks(
        outputs["policy_days"] == [DENSE_BAN_DAY] and outputs["policy_shutdowns"] > 0,
        f"no policy-ban shutdowns ({outputs['policy_shutdowns']}) "
        f"for the ban on days {outputs['policy_days']}",
    )


# -- recover -----------------------------------------------------------


def _recover_ops(config, run_dir, work_dir, ops) -> dict:
    out: dict = {}
    argv = ["run", "--checkpoint-dir", str(run_dir), *cli_args(config), "--resume"]
    with ops.op("resume"):
        out["code"] = runner_cli.main(argv)
    with ops.op("verify"):
        out["verify_ok"] = doctor.verify_run(run_dir).ok
    out["victim"] = flip_byte(run_dir, config.seed)
    with ops.op("repair"):
        out["repair"] = doctor.repair_run(run_dir)
    with ops.op("reload"):
        result = CheckpointRunner(config, run_dir).run(resume=True)
    out["rows"] = len(result.impressions)
    with ops.op("validation"):
        out["validation"] = validation.run_validation(result)
    out["experiments_failed"] = []
    with ops.op("experiments"):
        context = ExperimentContext(config, result=result)
        for experiment_id in registry.experiment_ids():
            try:
                registry.run_experiment(experiment_id, context)
            except Exception:
                traceback.print_exc()
                out["experiments_failed"].append(experiment_id)
    return out


def _recover_checks(config, run_dir, outputs, checks) -> list[str]:
    checks(outputs["code"] == 0, f"resume exited {outputs['code']}")
    checks(outputs["verify_ok"], "resumed run fails verify")
    repair = outputs["repair"]
    victim = outputs["victim"]
    checks(
        repair.strategy == "chunk-replay" and repair.rewritten == [victim],
        f"repair did {repair.strategy} of {repair.rewritten}, expected {victim}",
    )
    checks(repair.verify is not None and repair.verify.ok, "repaired run fails verify")
    manifest = json.loads((run_dir / "MANIFEST.json").read_text())
    vouched = {entry["file"]: entry for entry in manifest["chunks"]}
    checks(
        _sha256_file(run_dir / victim) == vouched[victim]["sha256"],
        f"repaired {victim} does not match its manifest checksum",
    )
    rows = sum(entry["rows"] for entry in manifest["chunks"])
    checks(outputs["rows"] == rows > 0, "reloaded rows differ from the manifest")
    checks(len(outputs["validation"]) > 0, "validation measured nothing")
    for experiment_id in registry.experiment_ids():
        checks(
            experiment_id not in outputs["experiments_failed"],
            f"experiment {experiment_id} raised",
        )
    return [check.target.name for check in outputs["validation"] if check.ok]


_OPERATIONS = {
    "paper_default": _paper_ops,
    "auction_dense": _dense_ops,
    "recover": _recover_ops,
}
_CHECKS = {
    "paper_default": _paper_checks,
    "auction_dense": _dense_checks,
    "recover": _recover_checks,
}
