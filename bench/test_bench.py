"""Tests of the benchmark harness: ``python -m pytest bench -q``.

They call the workload functions in this process on
``small_config(days=40)``; the benchmark itself runs them in child
processes on the default preset.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402
from repro.config import small_config  # noqa: E402

SEED = 3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _rep(name: str, tmp: Path, trace: layers.LayerTrace | None = None) -> dict:
    base = small_config(seed=SEED, days=40)
    run_dir = tmp / "run"
    checks = workloads.setup(name, base, run_dir)
    assert checks.failed == 0
    out = workloads.timed(name, base, run_dir, tmp, trace)
    out["attempted"] += checks.attempted
    return {**out, "seed": SEED, "traced": trace is not None, "setup_s": 0.1}


@pytest.fixture(scope="module")
def paper_reps(tmp_path_factory) -> list[dict]:
    return [_rep("paper_default", tmp_path_factory.mktemp("paper")) for _ in range(2)]


@pytest.fixture(scope="module")
def traced_recover(tmp_path_factory):
    callbacks = list(gc.callbacks)
    sinks = obs.tracer().sinks
    trace = layers.LayerTrace()
    out = _rep("recover", tmp_path_factory.mktemp("recover"), trace)
    return trace, out, callbacks, sinks


def test_metric_names_have_units_and_match_benchmark_json():
    metrics = run.E2E_METRICS + layers.LAYER_METRICS
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # 70 runs (4 + 22 per workload) fit in 3420 s.
    assert (4 + 22 * len(spec["workloads"])) * spec["run_seconds"] < 3420


def test_digest_is_identical_across_calls(paper_reps):
    first, second = paper_reps
    assert first["failed"] == second["failed"] == 0
    assert first["digest"] == second["digest"]


def test_recover_digest_equals_paper_default(paper_reps, traced_recover):
    _, out, _, _ = traced_recover
    assert out["failed"] == 0
    assert out["digest"] == paper_reps[0]["digest"]


def test_tampered_expected_digest_fails(paper_reps, monkeypatch, capsys):
    result, _ = run.summarize("paper_default", paper_reps, {})
    assert result["correct"] and result["failed"] == 0
    tampered = {str(SEED): {"paper_default": "0" * 64}}
    monkeypatch.setattr(run, "measure", lambda *args: paper_reps)
    monkeypatch.setattr(run, "load_expected", lambda: tampered)
    assert run.main(["--workload", "paper_default", "--seed", str(SEED)]) != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_trace_overhead_pairs_each_traced_rep_with_the_one_before():
    layer_values = {name: 1.0 for name, _ in layers.LAYER_METRICS}
    reps = [
        {"seed": SEED, "traced": traced, "attempted": 1, "failed": 0, "wall_s": wall}
        | ({"layers": layer_values} if traced else {})
        for traced, wall in ((False, 2.0), (True, 2.1), (False, 4.0), (True, 4.4))
    ]
    result, samples = run.summarize("paper_default", reps, {}, trace=True)
    assert samples["trace_overhead_frac"] == pytest.approx([0.05, 0.10])
    assert set(result["metrics"]) == {name for name, _ in layers.LAYER_METRICS}


def test_traced_self_times_sum_to_at_most_wall(traced_recover):
    trace, out, _, _ = traced_recover
    nodes = trace.tree()
    assert sum(node["self"] for node in nodes) <= out["wall_s"] + 1e-3
    metrics = trace.metrics()
    expected = {name for name, _ in layers.LAYER_METRICS} - {"trace_overhead_frac"}
    assert set(metrics) == expected
    assert 0 <= metrics["unattributed_s"] <= out["wall_s"]
    assert metrics["experiments.count"] == 21
    assert metrics["doctor.repair_s"] > 0 and metrics["runner.snapshot_load_s"] > 0
    # Layers timed by the program's own spans and counters.
    assert metrics["simulator.auctions_s"] > metrics["auction.kernel_s"] > 0
    assert metrics["runner.self_s"] > 0 and metrics["querygen.queries"] > 0
    assert metrics["auction.candidates"] >= metrics["auction.shown"] > 0


def test_wrappers_and_gc_callbacks_are_removed(traced_recover):
    _, _, callbacks, sinks = traced_recover
    assert gc.callbacks == callbacks
    assert obs.tracer().sinks == sinks
    trace = layers.LayerTrace()
    trace.install()
    patches = list(trace._patches)
    assert len(patches) > 30
    assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    trace.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)
    assert gc.callbacks == callbacks
    assert obs.tracer().sinks == sinks
