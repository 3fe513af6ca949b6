"""Finalize release artifacts from one full-scale simulation.

Runs the default two-year simulation through the crash-safe checkpoint
runner (so an interrupted finalize resumes from its last durable
checkpoint instead of starting over), then:
  * writes validation_report.txt (the ~23-target acceptance report),
  * writes EXPERIMENTS.md (paper-vs-measured for all 21 artifacts).

    python scripts/finalize.py [--checkpoint-dir RUNS/finalize]

Re-running after a crash picks up the existing run directory
automatically; delete it (or pass a fresh --checkpoint-dir) to force a
from-scratch simulation.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import default_config
from repro.experiments import ExperimentContext
from repro.records.atomic import atomic_write_text
from repro.runner import CheckpointRunner
from repro.validation import render_report, run_validation

SCRIPTS_DIR = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=Path("RUNS/finalize"),
        help="run directory for durable checkpoints (resumed if present)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=28,
        metavar="N",
        help="persist an impression chunk every N simulated days",
    )
    args = parser.parse_args(argv)

    config = default_config()
    runner = CheckpointRunner(
        config, args.checkpoint_dir, checkpoint_every=args.checkpoint_every
    )
    t0 = time.time()
    result = runner.run(resume="auto")
    print(f"simulated {config.days} days in {time.time() - t0:.0f}s")

    checks = run_validation(result)
    report = render_report(checks)
    atomic_write_text("validation_report.txt", report + "\n")
    print(report)

    sys.path.insert(0, str(SCRIPTS_DIR))
    try:
        import generate_experiments_md
    finally:
        sys.path.remove(str(SCRIPTS_DIR))
    # The experiments render from the checkpointed run's result rather
    # than simulating again.
    atomic_write_text(
        "EXPERIMENTS.md",
        generate_experiments_md.render(ExperimentContext(config, result)),
    )
    print("wrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
