"""Command line dataset export: write the three datasets to a directory.

    python -m repro.records OUTPUT_DIR [--small] [--seed N]

Produces ``customers.jsonl``, ``detections.jsonl`` and
``impressions.csv`` -- the synthetic equivalents of the paper's three
data sources.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import obs
from ..config import default_config, small_config
from ..errors import ReproError
from ..simulator.cache import cached_simulation
from .io import write_impressions_csv, write_records_jsonl

log = obs.get_logger("records.cli")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro-export")
    parser.add_argument("output_dir", type=Path)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    obs.setup_logging()
    if args.small:
        config = small_config() if args.seed is None else small_config(seed=args.seed)
    else:
        config = (
            default_config() if args.seed is None else default_config(seed=args.seed)
        )
    try:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        result = cached_simulation(config)

        customers = args.output_dir / "customers.jsonl"
        detections = args.output_dir / "detections.jsonl"
        impressions = args.output_dir / "impressions.csv"
        n_customers = write_records_jsonl(result.customer_records(), customers)
        n_detections = write_records_jsonl(result.detections, detections)
        write_impressions_csv(result.impressions, impressions)
    except (ReproError, OSError) as exc:
        log.error("%s", exc)
        return 2
    print(f"{n_customers} customer records -> {customers}")
    print(f"{n_detections} detection records -> {detections}")
    print(f"{len(result.impressions)} impression rows -> {impressions}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
