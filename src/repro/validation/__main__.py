"""Command line validation: simulate and check every paper target.

    python -m repro.validation [--small] [--seed N] [--json] [--out PATH]
    python -m repro.validation --run-dir RUNS/x [--json] [--out PATH]

``--run-dir`` validates an existing *completed* checkpoint-runner run
instead of simulating fresh: the configuration is rebuilt from the
manifest's embedded copy (hash-verified), and the result is
reconstructed from the durable chunks without re-simulating a day or
writing to the run directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .. import obs
from ..config import default_config, small_config
from ..errors import ReproError, SimulationError
from ..records.atomic import atomic_write_text
from ..simulator.cache import cached_simulation
from .suite import checks_to_json, render_report, run_validation

log = obs.get_logger("validation.cli")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro-validate")
    parser.add_argument("--small", action="store_true",
                        help="use the fast test-scale configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any target misses its band",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable check payload instead of text",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the JSON payload to this path (atomic)",
    )
    parser.add_argument(
        "--run-dir",
        type=Path,
        default=None,
        help="validate a completed checkpoint-runner run directory "
        "(config comes from its manifest; --small/--seed are rejected)",
    )
    args = parser.parse_args(argv)
    obs.setup_logging()
    if args.run_dir is not None and (args.small or args.seed is not None):
        parser.error("--run-dir takes its config from the manifest; "
                     "drop --small/--seed")
    # A failed simulation or validation run must exit 2 (mirroring the
    # runner CLI), not escape as a traceback: before this guard,
    # ``--strict`` in a shell pipeline could conflate "targets missed"
    # with "validator crashed".  An unwritable ``--out`` exits 2 too.
    try:
        if args.run_dir is not None:
            result = _load_run_dir(args.run_dir)
        else:
            result = cached_simulation(_config(args))
        checks = run_validation(result)
        payload = checks_to_json(checks)
        if args.out is not None:
            atomic_write_text(args.out, json.dumps(payload, indent=2) + "\n")
    except (ReproError, OSError) as exc:
        log.error("%s", exc)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(checks))
    if args.strict and any(not check.ok for check in checks):
        return 1
    return 0


def _config(args: argparse.Namespace):
    if args.small:
        return small_config() if args.seed is None else small_config(seed=args.seed)
    return default_config() if args.seed is None else default_config(seed=args.seed)


def _load_run_dir(run_dir: Path):
    """The simulation a completed run directory durably holds."""
    from ..runner import CheckpointRunner, RunManifest
    from ..runner.manifest import MANIFEST_NAME

    manifest = RunManifest.load(run_dir / MANIFEST_NAME)
    if manifest.phase != "complete":
        raise SimulationError(
            f"{run_dir}: run is in phase {manifest.phase!r}; finish it "
            f"before validating"
        )
    # A completed run reloads read-only, without simulating a day:
    # snapshots and chunks are checksum-verified and loaded, and no
    # file in the run directory is written.
    return CheckpointRunner(manifest.simulation_config(), run_dir).run(resume=True)


if __name__ == "__main__":
    sys.exit(main())
