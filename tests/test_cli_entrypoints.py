"""Tests for the validation, dataset-export, and runner CLIs."""

import json

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.obs.__main__ import main as obs_main
from repro.records.__main__ import main as export_main
from repro.runner.__main__ import main as runner_main
from repro.validation.__main__ import main as validate_main


def _file_bytes(root):
    """Relative path -> bytes of every file under ``root``."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestValidationCli:
    def test_report_prints(self, capsys):
        assert validate_main(["--small"]) == 0
        captured = capsys.readouterr()
        assert "targets in band" in captured.out
        assert "Fig 10" in captured.out

    def test_strict_mode_returns_status(self, capsys):
        # Small runs may miss full-scale bands; strict mode must return
        # 0 or 1 (not raise) either way.
        code = validate_main(["--small", "--strict"])
        assert code in (0, 1)


class TestExportCli:
    def test_exports_three_datasets(self, tmp_path, capsys):
        assert export_main([str(tmp_path), "--small"]) == 0
        assert (tmp_path / "customers.jsonl").exists()
        assert (tmp_path / "detections.jsonl").exists()
        assert (tmp_path / "impressions.csv").exists()
        captured = capsys.readouterr()
        assert "impression rows" in captured.out

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        assert export_main([str(target), "--small"]) == 0
        assert target.exists()


class TestRunnerCli:
    ARGS = ["--small", "--seed", "5", "--days", "25", "--checkpoint-every", "10"]

    def test_fresh_run_then_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert runner_main(["run", "--checkpoint-dir", str(run_dir), *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "impression rows" in out
        assert (run_dir / "MANIFEST.json").exists()
        assert any((run_dir / "chunks").iterdir())
        # A completed run resumes as a pure reload.
        assert (
            runner_main(
                ["run", "--checkpoint-dir", str(run_dir), "--resume", *self.ARGS]
            )
            == 0
        )

    def test_refuses_clobbering_existing_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert runner_main(["run", "--checkpoint-dir", str(run_dir), *self.ARGS]) == 0
        assert runner_main(["run", "--checkpoint-dir", str(run_dir), *self.ARGS]) == 2
        assert "already contains a run" in capsys.readouterr().err

    def test_resume_without_run_fails_cleanly(self, tmp_path, capsys):
        code = runner_main(
            ["run", "--checkpoint-dir", str(tmp_path / "void"), "--resume", *self.ARGS]
        )
        assert code == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_invalid_checkpoint_every_fails_cleanly(self, tmp_path, capsys):
        # Constructor-time ConfigError (checkpoint_every < 1) must exit
        # like every other ReproError -- code 2 and a one-line message,
        # not a traceback.
        code = runner_main(
            [
                "run",
                "--checkpoint-dir",
                str(tmp_path / "run"),
                "--small",
                "--checkpoint-every",
                "0",
            ]
        )
        assert code == 2
        assert "checkpoint_every must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["0", "-3"])
    def test_invalid_days_fails_cleanly(self, tmp_path, capsys, days):
        # Config-time ConfigError from the --days override: exit 2 with
        # the one-line message, and no run directory left behind.
        run_dir = tmp_path / "run"
        code = runner_main(
            ["run", "--checkpoint-dir", str(run_dir), "--small", "--days", days]
        )
        assert code == 2
        assert "days must be > 0" in capsys.readouterr().err
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [[], ["--checkpoint-dir", "RUN", "--small"], ["repair", "RUN"]],
        ids=["empty", "bare-checkpoint-dir", "unknown-command"],
    )
    def test_subcommand_required(self, tmp_path, capsys, argv):
        # Only `run`, `verify` and `doctor` are accepted; anything else,
        # the bare `--checkpoint-dir` form included, exits 2 with usage
        # and starts no run.
        argv = [str(tmp_path / "run") if arg == "RUN" else arg for arg in argv]
        assert runner_main(argv) == 2
        assert "usage: python -m repro.runner" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestVerifyDoctorCli:
    """`python -m repro.runner verify|doctor` and `--run-dir` validation."""

    ARGS = ["--small", "--seed", "5", "--days", "12", "--checkpoint-every", "5"]

    @pytest.fixture()
    def run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert runner_main(["run", "--checkpoint-dir", str(run_dir), *self.ARGS]) == 0
        capsys.readouterr()
        return run_dir

    def _bitrot(self, run_dir):
        victim = sorted((run_dir / "chunks").iterdir())[0]
        data = bytearray(victim.read_bytes())
        data[100] ^= 0xFF
        victim.write_bytes(bytes(data))
        return victim

    def test_verify_healthy_exits_zero(self, run_dir, capsys):
        # The derived analyze.json is expected, not an unvouched file.
        assert obs_main(["analyze", str(run_dir)]) == 0
        capsys.readouterr()
        assert runner_main(["verify", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out
        assert "note:" not in out

    def test_verify_damage_exits_one(self, run_dir, capsys):
        self._bitrot(run_dir)
        assert runner_main(["verify", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out and "checksum" in out

    def test_verify_unreadable_manifest_exits_two(self, run_dir, capsys):
        (run_dir / "MANIFEST.json").write_text("{broken")
        assert runner_main(["verify", str(run_dir)]) == 2

    def test_doctor_dry_run_reports_without_touching(self, run_dir, capsys):
        victim = self._bitrot(run_dir)
        damaged = victim.read_bytes()
        assert runner_main(["doctor", str(run_dir)]) == 1
        assert "--repair" in capsys.readouterr().out
        assert victim.read_bytes() == damaged  # diagnosis only

    def test_doctor_repair_restores_health(self, run_dir, capsys):
        self._bitrot(run_dir)
        assert runner_main(["doctor", str(run_dir), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "chunk-replay" in out and "HEALTHY" in out
        assert runner_main(["verify", str(run_dir)]) == 0

    def test_validation_from_run_dir(self, tmp_path, capsys):
        # Full small-scale horizon: the validation suite needs enough
        # days for its policy-window subsets to be non-empty.
        run_dir = tmp_path / "run"
        assert (
            runner_main(
                [
                    "run",
                    "--checkpoint-dir",
                    str(run_dir),
                    "--small",
                    "--checkpoint-every",
                    "60",
                ]
            )
            == 0
        )
        capsys.readouterr()
        before = _file_bytes(run_dir)
        code = validate_main(["--run-dir", str(run_dir)])
        assert code == 0
        assert "targets in band" in capsys.readouterr().out
        assert _file_bytes(run_dir) == before, "validation --run-dir changed the run"

    def test_validation_run_dir_rejects_config_flags(self, run_dir, capsys):
        with pytest.raises(SystemExit):
            validate_main(["--run-dir", str(run_dir), "--small"])

    def test_validation_run_dir_missing_exits_two(self, tmp_path, capsys):
        assert validate_main(["--run-dir", str(tmp_path / "void")]) == 2


#: Every CLI that reads a run directory (``{run_dir}`` is filled in).
_RUN_DIR_READERS = pytest.mark.parametrize(
    "main, argv",
    [
        (
            runner_main,
            [
                "run", "--checkpoint-dir", "{run_dir}", "--resume", "--small",
                "--seed", "5", "--days", "12", "--checkpoint-every", "5",
            ],
        ),
        (runner_main, ["verify", "{run_dir}"]),
        (runner_main, ["doctor", "{run_dir}", "--repair"]),
        (validate_main, ["--run-dir", "{run_dir}"]),
    ],
    ids=["run-resume", "verify", "doctor-repair", "validation-run-dir"],
)


def _finished_run(tmp_path_factory, edit):
    """A finished 12-day run whose manifest payload ``edit`` changed."""
    run_dir = tmp_path_factory.mktemp("edited") / "run"
    argv = ["--small", "--seed", "5", "--days", "12", "--checkpoint-every", "5"]
    assert runner_main(["run", "--checkpoint-dir", str(run_dir), *argv]) == 0
    manifest = run_dir / "MANIFEST.json"
    payload = json.loads(manifest.read_text())
    edit(payload)
    manifest.write_text(json.dumps(payload, sort_keys=True, indent=1))
    return run_dir


def _one_error_line(capsys, main, argv, run_dir) -> str:
    capsys.readouterr()
    assert main([arg.format(run_dir=run_dir) for arg in argv]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return lines[0]


class TestOldRunDirectoryRefused:
    """Every CLI that reads a run directory refuses a ``repro-run/3`` one."""

    @pytest.fixture(scope="class")
    def old_run_dir(self, tmp_path_factory):
        return _finished_run(
            tmp_path_factory, lambda payload: payload.update(format="repro-run/3")
        )

    @_RUN_DIR_READERS
    def test_exits_2_with_one_error_line(self, old_run_dir, capsys, main, argv):
        line = _one_error_line(capsys, main, argv, old_run_dir)
        assert "'repro-run/3'" in line and "'repro-run/4'" in line
        assert "re-run" in line


class TestTruncatedChunkIndexRefused:
    """A finished run whose chunk index stops short of its horizon is
    refused as it loads, not reloaded with days missing."""

    @pytest.fixture(scope="class")
    def truncated_run_dir(self, tmp_path_factory):
        # Chunks [0,5) [5,10) [10,12): keep the first two.
        return _finished_run(
            tmp_path_factory, lambda payload: payload["chunks"].pop()
        )

    @_RUN_DIR_READERS
    def test_exits_2_with_one_error_line(
        self, truncated_run_dir, capsys, main, argv
    ):
        line = _one_error_line(capsys, main, argv, truncated_run_dir)
        assert line.startswith("ERROR") and "covers [0, 10)" in line


class TestUnwritableOutput:
    """An output path under a regular file: exit 2, one error line."""

    @pytest.fixture(scope="class")
    def done_run(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("done") / "run"
        args = ["--small", "--seed", "5", "--days", "12"]
        assert runner_main(["run", "--checkpoint-dir", str(run_dir), *args]) == 0
        return run_dir

    @pytest.mark.parametrize(
        "main, argv, out",
        [
            # 60 days: validation succeeds, so the report write fails.
            (
                runner_main,
                ["run", "--checkpoint-dir", "{tmp}/run", "--small", "--days", "60",
                 "--report", "{out}"],
                "report.txt",
            ),
            (validate_main, ["--small", "--out", "{out}"], "v.json"),
            (obs_main, ["report", "{run_dir}", "--json", "--out", "{out}"], "r.json"),
            (
                obs_main,
                ["diff", "{run_dir}", "{run_dir}", "--json", "--out", "{out}"],
                "d.json",
            ),
            (obs_main, ["analyze", "{run_dir}", "--out", "{out}"], "a.json"),
            (export_main, ["{out}", "--small"], "x"),
            (experiments_main, ["fig1", "--small", "--export", "{out}"], None),
        ],
        ids=[
            "runner-report",
            "validation-out",
            "obs-report",
            "obs-diff",
            "obs-analyze",
            "records",
            "experiments-export",
        ],
    )
    def test_exits_2_with_one_error_line(
        self, done_run, tmp_path, capsys, main, argv, out
    ):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")
        # ``None``: the regular file itself is the output directory.
        target = blocker if out is None else blocker / out
        capsys.readouterr()
        code = main(
            [
                arg.format(tmp=tmp_path, run_dir=done_run, out=target)
                for arg in argv
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("ERROR ") and str(target) in lines[0]
        # The error names the path the user passed, not a temp file.
        assert ".tmp" not in lines[0]
