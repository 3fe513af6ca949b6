"""Regenerate ``bench/expected.json``, the pinned output digests.

    python3 bench/pin.py

Runs every workload once for each pinned seed, through the same child
processes as the benchmark, and writes their digests.  It writes
nothing when a check fails, or when ``recover``'s digest differs from
``paper_default``'s: a resumed run is bit-identical to a fresh one by
contract.  A change that alters the pins changes simulated output;
name it in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

#: The benchmark's default seed and a holdout seed.
PINNED_SEEDS = (run.DEFAULT_SEED, 1729)


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    pins: dict[str, dict[str, str]] = {}
    for seed in PINNED_SEEDS:
        digests = pins.setdefault(str(seed), {})
        for workload in WORKLOADS:
            rep = run.run_rep(workload, seed, False, 0, run.HARD_LIMIT_S)
            if rep["failed"] or "digest" not in rep:
                print(f"pin: {workload} seed {seed} failed its checks", file=sys.stderr)
                return 1
            digests[workload] = rep["digest"]
            print(f"{seed} {workload} {rep['digest']}")
        if digests["recover"] != digests["paper_default"]:
            print(f"pin: recover != paper_default for seed {seed}", file=sys.stderr)
            return 1
    run.EXPECTED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
