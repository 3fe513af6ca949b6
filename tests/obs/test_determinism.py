"""The hard invariant: telemetry never perturbs the simulation.

Every stochastic draw comes from the five named RNG streams;
``repro.obs`` must not touch them.  A run traced through the JSONL
sink therefore has to be *bit-identical* to an untraced run -- same
impression bytes, same detections, and the same serialized RNG states
at the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.config import small_config
from repro.obs.progress import ProgressSink
from repro.obs.resources import ResourceSampler
from repro.obs.sink import JsonlSink
from repro.simulator.engine import SimulationEngine


@pytest.fixture(scope="module")
def config():
    return small_config(seed=11, days=40)


def _run(config, sink=None):
    engine = SimulationEngine(config)
    if sink is not None:
        obs.add_sink(sink)
    try:
        result = engine.run()
    finally:
        if sink is not None:
            obs.remove_sink(sink)
    return result, engine.rng_state()


def test_traced_run_is_bit_identical(config, tmp_path):
    plain_result, plain_rng = _run(config)
    sink = JsonlSink(tmp_path / "telemetry.jsonl")
    traced_result, traced_rng = _run(config, sink=sink)
    sink.flush()

    for name in plain_result.impressions.field_names():
        want = getattr(plain_result.impressions, name)
        got = getattr(traced_result.impressions, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), f"column {name} differs"
    assert traced_result.detections == plain_result.detections
    assert traced_result.policy_changes == plain_result.policy_changes
    # Identical *serialized* RNG states: not a single extra draw.
    assert traced_rng == plain_rng
    # And the trace actually captured the run.
    assert len(sink) > 0


def test_sampler_and_sidecar_active_run_is_bit_identical(config, tmp_path):
    """The live-telemetry layer (resource sampler thread + progress
    sidecar + JSONL sink, all at once) must not move a single draw on
    any of the five named RNG streams."""
    plain_result, plain_rng = _run(config)

    sampler = ResourceSampler(interval_s=0.005)
    sampler.start()
    sinks = [
        JsonlSink(tmp_path / "telemetry.jsonl"),
        ProgressSink(tmp_path, days=config.days),
    ]
    engine = SimulationEngine(config)
    for sink in sinks:
        obs.add_sink(sink)
    try:
        sampler.set_phase("phase1")
        live_result = engine.run()
    finally:
        for sink in sinks:
            obs.remove_sink(sink)
        summary = sampler.stop()
    live_rng = engine.rng_state()
    sinks[0].flush()

    for name in plain_result.impressions.field_names():
        want = getattr(plain_result.impressions, name)
        got = getattr(live_result.impressions, name)
        assert np.array_equal(got, want), f"column {name} differs"
    assert live_result.detections == plain_result.detections
    # All five serialized stream states, not one extra draw anywhere.
    assert set(live_rng) == set(plain_rng)
    assert live_rng == plain_rng
    # The instruments actually observed the run.
    assert summary["overall"]["samples"] >= 2
    assert len(sinks[0]) > 0


def test_heartbeat_cadence_does_not_change_results(config, monkeypatch):
    _, default_rng = _run(config)
    monkeypatch.setattr(obs, "HEARTBEAT_EVERY", 1)
    with obs.capture() as sink:
        _, chatty_rng = _run(config)
    assert chatty_rng == default_rng
    heartbeats = [e for e in sink.events if e.get("name") == "heartbeat"]
    assert len(heartbeats) >= 2 * config.days - 2
