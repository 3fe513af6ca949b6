"""Manifest round-trip, config hashing, and structural validation."""

import json

import pytest

from repro import small_config
from repro.errors import SimulationError
from repro.obs.timeseries import MARKET_FIELDS, DayLedger
from repro.runner import ChunkEntry, RunManifest, config_sha256
from repro.simulator.engine import RNG_STREAMS, SimulationEngine


def ledger_rows(day_start: int, day_end: int) -> list[dict]:
    """Market rows of days ``[day_start, day_end)`` as a run records them."""
    ledger = DayLedger(day_end)
    for day in range(day_start, day_end):
        ledger.record_day(day, rows=3 * day, clicks=0.5 + day, spend=0.1 * day)
    return ledger.market_rows(day_start, day_end)


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
        with pytest.raises(SimulationError, match="streams"):
            engine.set_rng_state(["population", "detection"])
        # A state numpy refuses names its stream.
        states = engine.rng_state()
        states["market"]["state"] = {"state": "zzz", "inc": 1}
        with pytest.raises(SimulationError, match="'market'"):
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
                ledger=ledger_rows(0, 4),
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
        # Older formats too: /3 carried no ledger rows in its chunks.
        manifest = self._manifest(tmp_path)
        payload = json.loads(manifest.to_json())
        path = tmp_path / "MANIFEST.json"
        for old in ("repro-run/2", "repro-run/3", "repro-run/99"):
            payload["format"] = old
            path.write_text(json.dumps(payload))
            with pytest.raises(SimulationError, match=f"'{old}'"):
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
                ledger=ledger_rows(5, 8),
            )
        )
        path = tmp_path / "MANIFEST.json"
        manifest.save(path)
        with pytest.raises(SimulationError, match="contiguous"):
            RunManifest.load(path)

    @pytest.mark.parametrize(
        "phase, day_end", [("complete", 4), ("phase3", 13)]
    )
    def test_load_rejects_chunks_not_ending_at_days(self, tmp_path, phase, day_end):
        # A finished 12-day run whose chunk index stops early, or any
        # index that runs past the horizon.
        manifest = self._manifest(tmp_path)
        manifest.phase = phase
        chunk = manifest.chunks[0]
        chunk.day_end = day_end
        chunk.file = f"chunks/chunk-00000-{day_end:05d}.npc"
        chunk.ledger = ledger_rows(0, day_end)
        path = tmp_path / "MANIFEST.json"
        manifest.save(path)
        with pytest.raises(SimulationError, match=f"covers \\[0, {day_end}\\)"):
            RunManifest.load(path)

    @pytest.mark.parametrize(
        "damage",
        [
            "missing",
            "drop-row",
            "extra-row",
            "drop-field",
            "extra-field",
            "not-a-row",
            "bad-value",
            "bool",
            "float-for-int",
            "nan",
            "infinite",
            "string",
        ],
    )
    def test_load_rejects_bad_ledger_rows(self, tmp_path, damage):
        payload = json.loads(self._manifest(tmp_path).to_json())
        entry = payload["chunks"][0]
        rows = entry["ledger"]
        if damage == "missing":
            del entry["ledger"]
        elif damage == "drop-row":
            del rows[1]
        elif damage == "extra-row":
            rows.append(dict(rows[0]))
        elif damage == "drop-field":
            del rows[1]["clicks"]
        elif damage == "extra-field":
            rows[1]["day"] = 1
        elif damage == "not-a-row":
            rows[1] = list(rows[1].values())
        elif damage == "bad-value":
            rows[1]["rows"] = [9]
        elif damage == "bool":
            rows[1]["auctions"] = True
        elif damage == "float-for-int":
            rows[1]["rows"] = 3.0
        elif damage == "nan":
            rows[1]["spend"] = float("nan")
        elif damage == "infinite":
            rows[1]["clicks"] = float("inf")
        else:
            rows[1]["clicks"] = "21.0"
        path = tmp_path / "MANIFEST.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SimulationError, match="chunk entry"):
            RunManifest.load(path)

    def test_ledger_rows_round_trip_exactly(self, tmp_path):
        # JSON's float repr reads back as the same float, so re-recorded
        # rows serialize to the same bytes.
        manifest = self._manifest(tmp_path)
        manifest.chunks[0].ledger[2]["spend"] = 0.1 + 0.2
        path = tmp_path / "MANIFEST.json"
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.chunks[0].ledger == manifest.chunks[0].ledger
        rebuilt = DayLedger(4)
        for day, fields in enumerate(loaded.chunks[0].ledger):
            assert list(fields) == sorted(MARKET_FIELDS)
            rebuilt.record_day(day, **fields)
        assert rebuilt.market_rows(0, 4) == manifest.chunks[0].ledger

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
