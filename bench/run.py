"""The repository benchmark.

    python3 bench/run.py --workload paper_default --seed 1 --seconds 40 --trace 0

Repeats one workload (see ``bench/workloads.py``) for about ``--seconds``
seconds: ``--seconds / REP_SECONDS[workload]`` repetitions, a number
that does not depend on the speed of the host, so the inputs of a run
follow from ``--seed`` and ``--seconds`` alone (unless the host is so
slow that the run would overrun, see ``OVERRUN``).  Repetition ``i``
simulates seed ``--seed + i * SEED_STRIDE``, so a run covers several
populations.  Each repetition runs in fresh child processes, one at a
time: ``recover`` first runs its set-up in a child of its own, then
every workload runs its timed operations in a new child, as a user's
process would.  Children are single-threaded apart from the runner's
resource sampler thread.

End-to-end times are the median over the repetitions, in plain seconds:
the host's slowdown bursts move the median least.  Sizes are the mean:
they are the same on every run of a population, so the mean uses every
population in full.

With ``--trace 1`` every repetition simulates ``--seed`` itself, and
the repetitions alternate untraced and traced, the traced ones with the
layer wrappers of ``bench/layers.py`` installed.  The per-layer metrics
are medians over the traced repetitions; ``trace_overhead_frac`` is the
median, over consecutive untraced/traced pairs, of traced over untraced
wall time, minus one.  The last traced repetition's Chrome trace and
layer table are written to ``.bench_work/<workload>.trace.json`` and
``.bench_work/<workload>.layers.txt``.

Outputs are checked in every repetition.  Repetitions of one seed must
produce the same digest, and for a seed pinned in ``bench/expected.json``
the pinned one.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the program
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected.json"
sys.path.insert(0, str(SRC))

#: End-to-end metrics and their units, as BENCHMARK.json lists them.
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_dir_mb", "MB"),
)
#: End-to-end metrics reported as the mean over repetitions, not the median.
MEAN_METRICS = ("peak_rss_mb", "run_dir_mb")
DEFAULT_SEED = 20170101
DEFAULT_SECONDS = 40
#: Seconds one repetition takes, child start and checks included, on the
#: 2-vCPU host of the baseline with some room to spare; a 40 s run makes
#: 6, 10 and 5 repetitions and takes about 34 s there.
REP_SECONDS = {"paper_default": 6.5, "auction_dense": 4.0, "recover": 8.0}
#: Distance between the simulation seeds of consecutive repetitions.
SEED_STRIDE = 7919
#: A run starts no repetition it expects to end after this many times
#: ``--seconds``, so that on a host much slower than the baseline's a run
#: still takes about as long as asked, at the price of fewer populations.
OVERRUN = 1.1
#: Nor one that could pass this many seconds, so a run ends well within
#: three minutes.
HARD_LIMIT_S = 170.0

#: Children see one BLAS/OpenMP thread each.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    """A child step exited non-zero or printed no result."""


def spawn(spec: dict, timeout: float) -> tuple[dict, float, float]:
    """Run one child step; returns its output, spawn time and duration."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        timeout=max(1.0, timeout),
    )
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise ChildFailed(f"{spec['role']} step exited {proc.returncode}")
    return json.loads(lines[-1]), started, elapsed


def rep_seed(seed: int, index: int, trace: bool) -> int:
    """The simulation seed of repetition ``index`` of a run.

    Populations are heavy-tailed, so one seed's run time and output size
    differ from another's by 10-30%; cycling through several seeds lets
    a run describe the preset rather than one population.
    A traced run stays on one seed, so that each traced repetition is
    compared with the untraced one before it on the same input.
    """
    return seed if trace else seed + index * SEED_STRIDE


def run_rep(workload: str, seed: int, traced: bool, index: int, budget: float) -> dict:
    """One repetition on simulation seed ``seed``: set-up and timed step."""
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "trace": traced,
        "run_dir": str(run_dir),
        "work_dir": str(WORK),
    }
    rep: dict = {"seed": seed, "traced": traced, "attempted": 0, "failed": 0}
    started = time.monotonic()
    try:
        setup_s = 0.0
        if workload == "recover":
            out, _, setup_s = spawn({**spec, "role": "setup"}, budget)
            rep["attempted"] += out["attempted"]
            rep["failed"] += out["failed"]
        remaining = budget - (time.monotonic() - started)
        out, spawned, _ = spawn({**spec, "role": "timed"}, remaining)
        out["setup_s"] = setup_s + out.pop("ready") - spawned
        rep["attempted"] += out.pop("attempted")
        rep["failed"] += out.pop("failed")
        rep.update(out)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: repetition {index} failed: {exc}", file=sys.stderr)
        rep["attempted"] += 1
        rep["failed"] += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rep["elapsed"] = time.monotonic() - started
    return rep


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """How many repetitions a run of ``seconds`` makes; whole pairs when traced."""
    count = max(1, int(seconds / REP_SECONDS[workload]))
    return 2 * max(1, count // 2) if trace else count


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run the workload's repetitions; stop at a failed one or an overrun."""
    WORK.mkdir(exist_ok=True)
    started = time.monotonic()
    reps: list[dict] = []
    for index in range(repetitions(workload, seconds, trace)):
        elapsed = time.monotonic() - started
        traced = trace and index % 2 == 1
        if reps and not traced:
            step = 2 if trace else 1
            typical = step * statistics.median(rep["elapsed"] for rep in reps)
            longest = step * max(rep["elapsed"] for rep in reps)
            if (
                elapsed + typical > OVERRUN * seconds
                or elapsed + 1.5 * longest > HARD_LIMIT_S
            ):
                print(
                    f"bench: stopped after {index} repetitions, the host is slow",
                    file=sys.stderr,
                )
                break
        seed_i = rep_seed(seed, index, trace)
        reps.append(run_rep(workload, seed_i, traced, index, HARD_LIMIT_S - elapsed))
        if reps[-1]["failed"]:
            break
    return reps


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def check_digests(workload: str, reps: list[dict], expected: dict) -> tuple[int, int]:
    """Attempted and failed digest checks.

    Repetitions of one simulation seed must agree (in a traced run, the
    traced one with the untraced one), and with the pinned digest when
    the seed has one.
    """
    attempted = failed = 0
    by_seed: dict[int, list[str]] = {}
    for rep in reps:
        if "digest" in rep:
            by_seed.setdefault(rep["seed"], []).append(rep["digest"])
    for sim_seed, digests in by_seed.items():
        reference = expected.get(str(sim_seed), {}).get(workload) or digests[0]
        for digest in digests:
            attempted += 1
            if digest != reference:
                failed += 1
                print(
                    f"bench: seed {sim_seed} output digest {digest[:16]} "
                    f"!= expected {reference[:16]}",
                    file=sys.stderr,
                )
    return attempted, failed


def summarize(
    workload: str, reps: list[dict], expected: dict, trace: bool = False
) -> tuple[dict, dict[str, list[float]]]:
    """The result object, and each metric's samples, for a run's repetitions."""
    from layers import LAYER_METRICS

    attempted, failed = check_digests(workload, reps, expected)
    attempted += sum(rep["attempted"] for rep in reps)
    failed += sum(rep["failed"] for rep in reps)
    done = [rep for rep in reps if "wall_s" in rep]
    values: dict[str, list[float]] = {}
    if trace:
        units = dict(LAYER_METRICS)
        traced = [rep for rep in done if rep["traced"]]
        if traced:
            values = {
                name: [rep["layers"][name] for rep in traced]
                for name in units
                if name != "trace_overhead_frac"
            }
        ratios = [
            after["wall_s"] / before["wall_s"] - 1.0
            for before, after in zip(reps[0::2], reps[1::2])
            if "wall_s" in before and "wall_s" in after
        ]
        if ratios:
            values["trace_overhead_frac"] = ratios
    else:
        units = dict(E2E_METRICS)
        if done:
            values = {name: [rep[name] for rep in done] for name in units}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": (
                    statistics.fmean if name in MEAN_METRICS else statistics.median
                )(samples),
                "unit": units[name],
            }
            for name, samples in values.items()
        },
    }
    return result, values


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    reps = measure(args.workload, args.seed, args.seconds, trace)
    result, samples = summarize(args.workload, reps, load_expected(), trace)
    print(
        f"{args.workload} seed={args.seed}: {len(reps)} repetitions "
        f"({sum(rep['traced'] for rep in reps)} traced) on seeds "
        f"{sorted({rep['seed'] for rep in reps})}, "
        f"{result['failed']}/{result['attempted']} checks failed"
    )
    for name, metric in result["metrics"].items():
        runs = " ".join(f"{value:.4g}" for value in samples[name])
        how = "mean" if name in MEAN_METRICS else "median"
        print(f"  {name:38s} {metric['value']:12.6g} {metric['unit']:6s} {how} of [{runs}]")
    table = WORK / f"{args.workload}.layers.txt"
    if trace and any(rep["traced"] and "wall_s" in rep for rep in reps):
        print(table.read_text(), end="")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
