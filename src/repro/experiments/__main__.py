"""Command line interface: regenerate the paper's figures and tables.

Examples::

    python -m repro.experiments all
    python -m repro.experiments fig2 tab4 --small
    python -m repro.experiments fig8 --export out/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import obs
from ..config import default_config, small_config
from ..errors import ReproError
from ..plotting.series import export_series_csv
from .base import ExperimentContext
from .registry import EXPERIMENTS, experiment_ids, run_experiment

log = obs.get_logger("experiments.cli")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids or 'all' (known: {', '.join(experiment_ids())})",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="use the fast test-scale configuration",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the simulation seed"
    )
    parser.add_argument(
        "--export",
        type=Path,
        default=None,
        help="directory to export each chart's series as CSV",
    )
    args = parser.parse_args(argv)
    obs.setup_logging()

    requested = (
        experiment_ids()
        if "all" in args.experiments
        else list(dict.fromkeys(args.experiments))
    )
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    # A bad seed, a failed simulation or an unwritable --export
    # directory exits 2 with one error line, like the other CLIs.
    try:
        if args.small:
            config = small_config() if args.seed is None else small_config(seed=args.seed)
        else:
            config = (
                default_config() if args.seed is None else default_config(seed=args.seed)
            )
        context = ExperimentContext(config)
        for experiment_id in requested:
            output = run_experiment(experiment_id, context)
            print(output.render())
            if args.export is not None:
                args.export.mkdir(parents=True, exist_ok=True)
                for index, chart in enumerate(output.charts):
                    path = args.export / f"{experiment_id}_chart{index}.csv"
                    export_series_csv(chart.as_series(), path)
    except (ReproError, OSError) as exc:
        log.error("%s", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
