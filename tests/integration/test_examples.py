"""Smoke tests: the runnable examples must actually run."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "Click share by match type" in output
        assert "subset sizes" in output

    def test_dataset_export(self, tmp_path):
        output = run_example("dataset_export.py", str(tmp_path))
        assert "Table 3 recomputed" in output
        assert (tmp_path / "impressions.csv").exists()
        assert (tmp_path / "customers.jsonl").exists()
        assert (tmp_path / "detections.jsonl").exists()

    def test_anomaly_baseline(self):
        output = run_example("anomaly_baseline.py")
        assert "Anomaly baseline vs ground truth" in output
        assert "review budget" in output

    @pytest.mark.slow
    def test_policy_intervention(self):
        output = run_example("policy_intervention.py")
        assert "post-midpoint spend share" in output

    @pytest.mark.slow
    def test_detection_tuning(self):
        output = run_example("detection_tuning.py")
        assert "Detection aggressiveness sweep" in output
