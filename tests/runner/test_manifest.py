"""Manifest round-trip, config hashing, and structural validation."""

import json

import pytest

from repro import small_config
from repro.errors import SimulationError
from repro.runner import ChunkEntry, RunManifest, config_sha256
from repro.simulator.engine import RNG_STREAMS, SimulationEngine


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_sha256(small_config(seed=3, days=10)) == config_sha256(
            small_config(seed=3, days=10)
        )

    def test_differs_on_any_knob(self):
        base = small_config(seed=3, days=10)
        assert config_sha256(base) != config_sha256(small_config(seed=4, days=10))
        assert config_sha256(base) != config_sha256(small_config(seed=3, days=11))
        assert config_sha256(base) != config_sha256(
            base.with_auction(mainline_slots=3)
        )


class TestRngStateSerialization:
    def test_json_round_trip_preserves_draws(self):
        config = small_config(seed=9, days=5)
        engine = SimulationEngine(config)
        states = engine.rng_state()
        assert set(states) == set(RNG_STREAMS)
        # Through JSON (as the manifest stores them) and back.
        restored = json.loads(json.dumps(states))
        reference = [engine._rng_queries.random() for _ in range(4)]
        fresh = SimulationEngine(config)
        fresh._rng_queries.random()  # desync deliberately
        fresh.set_rng_state(restored)
        assert [fresh._rng_queries.random() for _ in range(4)] == reference

    def test_rejects_missing_stream(self):
        engine = SimulationEngine(small_config(seed=9, days=5))
        states = engine.rng_state()
        states.pop("clicks")
        with pytest.raises(SimulationError):
            engine.set_rng_state(states)


class TestManifestRoundTrip:
    def _manifest(self, tmp_path):
        config = small_config(seed=2, days=12)
        engine = SimulationEngine(config)
        manifest = RunManifest.fresh(config, checkpoint_every=4)
        manifest.phase = "phase3"
        manifest.artifacts = {"phase1.pkl": "ab" * 32}
        manifest.phase3_start_rng = engine.rng_state()
        manifest.chunks.append(
            ChunkEntry(
                file="chunks/chunk-00000-00004.npc",
                sha256="cd" * 32,
                day_start=0,
                day_end=4,
                rows=17,
                rng_after=engine.rng_state(),
            )
        )
        return manifest

    def test_save_load_round_trip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        path = tmp_path / "MANIFEST.json"
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded == manifest
        assert loaded.next_day == 4
        assert loaded.resume_rng() == manifest.chunks[0].rng_after

    def test_resume_rng_falls_back_to_phase3_start(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.chunks.clear()
        assert manifest.next_day == 0
        assert manifest.resume_rng() == manifest.phase3_start_rng

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "MANIFEST.json"
        path.write_text("{not json")
        with pytest.raises(SimulationError, match="not valid JSON"):
            RunManifest.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(SimulationError, match="cannot read"):
            RunManifest.load(tmp_path / "MANIFEST.json")

    def test_load_rejects_unknown_format(self, tmp_path):
        manifest = self._manifest(tmp_path)
        payload = json.loads(manifest.to_json())
        payload["format"] = "repro-run/99"
        path = tmp_path / "MANIFEST.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SimulationError, match="format"):
            RunManifest.load(path)

    def test_load_rejects_non_contiguous_chunks(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.chunks.append(
            ChunkEntry(
                file="chunks/chunk-00005-00008.npc",
                sha256="ef" * 32,
                day_start=5,  # gap: previous chunk ended at day 4
                day_end=8,
                rows=3,
                rng_after=manifest.chunks[0].rng_after,
            )
        )
        path = tmp_path / "MANIFEST.json"
        manifest.save(path)
        with pytest.raises(SimulationError, match="contiguous"):
            RunManifest.load(path)

    @pytest.mark.parametrize(
        "name",
        [
            "../../victim.txt",
            "/victim.txt",
            "chunk-00000-00004.npc",
            "chunks/chunk-00000-00005.npc",
            "chunks/chunk-00000-00004.npz",
        ],
    )
    def test_load_rejects_non_canonical_chunk_file(self, tmp_path, name):
        manifest = self._manifest(tmp_path)
        manifest.chunks[0].file = name
        path = tmp_path / "MANIFEST.json"
        manifest.save(path)
        with pytest.raises(SimulationError, match="is not 'chunks/chunk-00000-00004.npc'"):
            RunManifest.load(path)

    @pytest.mark.parametrize("name", ["../victim.txt", "sub/phase1.pkl", ".", "..", ""])
    def test_load_rejects_artifact_outside_run_dir(self, tmp_path, name):
        manifest = self._manifest(tmp_path)
        manifest.artifacts[name] = "ef" * 32
        path = tmp_path / "MANIFEST.json"
        manifest.save(path)
        with pytest.raises(SimulationError, match="not a file name"):
            RunManifest.load(path)

    def test_load_rejects_missing_keys(self, tmp_path):
        manifest = self._manifest(tmp_path)
        payload = json.loads(manifest.to_json())
        del payload["chunks"]
        path = tmp_path / "MANIFEST.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SimulationError, match="malformed"):
            RunManifest.load(path)
