"""The ``.npc`` chunk store: round trip, runs, doctor repair."""

import numpy as np

from repro.records.columnar import read_header
from repro.runner import (
    CheckpointRunner,
    chunk_to_bytes,
    load_chunk,
    repair_run,
    verify_run,
)
from repro.runner.chunkstore import chunk_file_name

from .conftest import assert_results_identical


def _rows(n, seed=0):
    rng = np.random.default_rng(seed)
    from repro.records.impressions import ImpressionTable

    dtypes = ImpressionTable.field_dtypes()
    out = {}
    for name, dtype in dtypes.items():
        kind = np.dtype(dtype).kind
        if kind == "f":
            out[name] = rng.random(n).astype(dtype)
        elif kind == "b":
            out[name] = rng.random(n) < 0.5
        else:
            out[name] = rng.integers(0, 100, n).astype(dtype)
    return out


class TestChunkstore:
    def test_round_trip_and_determinism(self, tmp_path):
        chunk = _rows(17)
        blob = chunk_to_bytes(chunk, 0, 7)
        assert blob == chunk_to_bytes({k: v.copy() for k, v in chunk.items()}, 0, 7)
        path = tmp_path / chunk_file_name(0, 7)
        path.write_bytes(blob)
        back = load_chunk(path)
        for name, values in chunk.items():
            assert back[name].dtype == values.dtype, name
            assert np.array_equal(back[name], values), name

    def test_zero_row_chunk(self, tmp_path):
        chunk = _rows(0)
        path = tmp_path / chunk_file_name(3, 5)
        path.write_bytes(chunk_to_bytes(chunk, 3, 5))
        back = load_chunk(path)
        assert all(len(v) == 0 for v in back.values())

    def test_malformed_chunk_loads_as_none(self, tmp_path):
        path = tmp_path / chunk_file_name(0, 7)
        path.write_bytes(b'{"not": "a chunk"}\n')
        assert load_chunk(path) is None


class TestRunnerChunks:
    def test_run_is_bit_identical(self, tmp_path, runner_config, baseline):
        run_dir = tmp_path / "run"
        result = CheckpointRunner(runner_config, run_dir).run()
        assert_results_identical(baseline, result)
        chunks = sorted((run_dir / "chunks").iterdir())
        assert chunks
        assert all(p.suffix == ".npc" for p in chunks)
        assert verify_run(run_dir).ok
        header = read_header(chunks[0])
        assert header["meta"] == {"day_start": 0, "day_end": 7}

    def test_doctor_repairs_a_chunk(self, tmp_path, runner_config):
        run_dir = tmp_path / "doctor"
        CheckpointRunner(runner_config, run_dir).run()
        pristine = {
            p.relative_to(run_dir): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file()
        }
        chunk = sorted((run_dir / "chunks").iterdir())[1]
        blob = bytearray(chunk.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        assert not verify_run(run_dir).ok
        repair = repair_run(run_dir)
        assert repair.strategy == "chunk-replay"
        assert repair.verify.ok, repair.verify.issues
        for rel, data in pristine.items():
            assert (run_dir / rel).read_bytes() == data, rel


def test_stray_tmp_detection_still_works(tmp_path, runner_config):
    run_dir = tmp_path / "tmp-orphan"
    CheckpointRunner(runner_config, run_dir).run()
    (run_dir / "chunks" / "chunk-junk.npc.tmp").write_bytes(b"partial")
    report = verify_run(run_dir)
    assert not report.ok
    repair = repair_run(run_dir)
    assert repair.verify.ok
    assert not (run_dir / "chunks" / "chunk-junk.npc.tmp").exists()
    quarantined = list((run_dir / "quarantine").rglob("*.tmp*"))
    assert quarantined
