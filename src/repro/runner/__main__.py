"""CLI for the checkpointing run harness.

Run a full simulation with durable checkpoints, or resume one that was
interrupted::

    python -m repro.runner run --checkpoint-dir RUNS/x
    python -m repro.runner run --checkpoint-dir RUNS/x --resume

Audit or repair an existing run directory::

    python -m repro.runner verify RUNS/x
    python -m repro.runner doctor RUNS/x --repair

``verify`` re-checksums every vouched artifact and reports stray
``.tmp`` files; it exits 0 only for a healthy directory (1 = damage,
2 = the manifest itself is unreadable).  A missing or unknown
subcommand exits 2 with the usage line.  ``doctor --repair``
quarantines damaged/stray files and deterministically re-simulates
exactly the damaged day ranges back to the manifest's vouched bytes --
see :mod:`repro.runner.doctor` for the repair contract.

The run directory carries everything needed to continue: see
:mod:`repro.runner.runner` for the layout and recovery semantics.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .. import obs
from ..config import default_config, small_config
from ..errors import ReproError
from ..records.atomic import atomic_write_text

log = obs.get_logger("runner.cli")


def _main_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner run",
        description="Run a simulation with crash-safe checkpoints.",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        required=True,
        help="run directory holding MANIFEST.json, snapshots and chunks",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run from its last durable checkpoint",
    )
    parser.add_argument(
        "--small", action="store_true", help="use the fast test-scale config"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--days", type=int, default=None)
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=7,
        metavar="N",
        help="persist an impression chunk every N simulated days",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="also write the validation report to this path",
    )
    args = parser.parse_args(argv)
    obs.setup_logging()

    from .runner import CheckpointRunner

    # Monotonic clock (the tracer's): wall-clock steps from NTP slew
    # must not corrupt the reported elapsed time.
    started = obs.tracer().now()
    # Config validation raises ConfigError (a ReproError) from
    # __post_init__, so a bad --seed/--days exits 2 like any other; an
    # OSError (an unwritable run directory or report path) does too.
    try:
        config = small_config() if args.small else default_config()
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.days is not None:
            config = replace(config, days=args.days)
        runner = CheckpointRunner(
            config,
            args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
        result = runner.run(resume=args.resume)
        elapsed = obs.tracer().now() - started
        print(
            f"simulated {config.days} days in {elapsed:.0f}s "
            f"(run dir: {args.checkpoint_dir})"
        )
        print(
            f"{len(result.accounts)} accounts, "
            f"{len(result.impressions)} impression rows, "
            f"{len(result.detections)} detections"
        )
        if args.report is not None:
            import json

            from ..validation import checks_to_json, render_report, run_validation

            try:
                checks = run_validation(result)
            except ReproError as exc:
                log.error("validation failed: %s", exc)
                return 2
            # Machine-readable twin in the run directory, where
            # `repro.obs diff` looks for it.  Written first: the run
            # directory is known writable, the report path is not.
            validation_json = args.checkpoint_dir / "validation.json"
            atomic_write_text(
                validation_json,
                json.dumps(checks_to_json(checks), indent=2) + "\n",
            )
            print(f"wrote {validation_json}")
            atomic_write_text(args.report, render_report(checks) + "\n")
            print(f"wrote {args.report}")
    except (ReproError, OSError) as exc:
        log.error("%s", exc)
        return 2
    return 0


def _main_verify(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner verify",
        description="Re-checksum every vouched artifact in a run directory.",
    )
    parser.add_argument("run_dir", type=Path, help="run directory to audit")
    args = parser.parse_args(argv)
    obs.setup_logging()

    from .doctor import render_verify, verify_run

    try:
        report = verify_run(args.run_dir)
    except (ReproError, OSError) as exc:
        log.error("%s", exc)
        return 2
    print(render_verify(report))
    return 0 if report.ok else 1


def _main_doctor(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner doctor",
        description=(
            "Diagnose a run directory; with --repair, quarantine damage "
            "and re-simulate it back to the manifest's vouched bytes."
        ),
    )
    parser.add_argument("run_dir", type=Path, help="run directory to doctor")
    parser.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged/stray files and re-simulate the damage",
    )
    args = parser.parse_args(argv)
    obs.setup_logging()

    from .doctor import render_repair, render_verify, repair_run, verify_run

    try:
        if not args.repair:
            report = verify_run(args.run_dir)
            print(render_verify(report))
            if not report.ok:
                print("run `doctor --repair` to quarantine and re-simulate")
            return 0 if report.ok else 1
        repair = repair_run(args.run_dir)
    except (ReproError, OSError) as exc:
        log.error("%s", exc)
        return 2
    print(render_repair(repair))
    return 0 if repair.verify is not None and repair.verify.ok else 1


_COMMANDS = {"run": _main_run, "verify": _main_verify, "doctor": _main_doctor}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        print(
            "usage: python -m repro.runner {run,verify,doctor} ...\n"
            "python -m repro.runner: error: the first argument must be "
            "run, verify or doctor",
            file=sys.stderr,
        )
        return 2
    return command(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
