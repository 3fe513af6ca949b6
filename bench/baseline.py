"""Measure the benchmark's baseline and its run-to-run spread.

    python3 bench/baseline.py

For every workload, runs ``bench/run.py`` untraced ten times with seeds
1-10 (``seeds``: the spread between populations, which is what ten runs
with different seeds see) and ten times with seed 1 (``repeat``: the
host's noise alone, which is what runs of one seed see), then once
traced with seed 1.  For each end-to-end metric and set it records the
median, the quartiles (``statistics.quantiles(n=4)``), the minimum and
maximum, and the spread: the distance between the quartiles as a share
of the median.  The traced run adds the per-layer medians.  The result
goes to ``bench/baseline.json``; the exit code is 1 when a run fails
its checks.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "baseline.json"
SETS = {"seeds": list(range(1, 11)), "repeat": [1] * 10}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    return result


def host() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"host": host(), "run_seconds": seconds, "sets": SETS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        entry: dict = {"end_to_end": {}}
        for set_name, seeds in SETS.items():
            samples: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in seeds:
                result = bench(workload, seed, seconds, 0)
                ok &= result["exit"] == 0 and result["correct"]
                for name, metric in result["metrics"].items():
                    samples[name].append(metric["value"])
                print(f"{workload} {set_name} seed {seed}: correct={result['correct']}", flush=True)
            for name, values in samples.items():
                row = stats(values)
                entry["end_to_end"].setdefault(name, {})[set_name] = row
                print(
                    f"  {workload:14s} {set_name:6s} {name:12s} "
                    f"median {row['median']:10.4f} spread {row['spread']:.3f}",
                    flush=True,
                )
        traced = bench(workload, SETS["repeat"][0], seconds, 1)
        ok &= traced["exit"] == 0 and traced["correct"]
        entry["per_layer"] = {
            name: metric["value"] for name, metric in traced["metrics"].items()
        }
        report["workloads"][workload] = entry
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
