"""Tests for ledger anomaly / change-point detection (``repro.obs analyze``)."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.analyze import (
    ANALYZE_NAME,
    ANALYZE_SCHEMA,
    analysis_json,
    analyze_rows,
    analyze_run,
    detect_anomalies,
    detect_level_shifts,
    evaluate_analyze_fail_on,
    parse_analyze_fail_on,
    policy_effects,
    rolling_mad_scores,
)
from repro.obs.timeseries import (
    DAYLEDGER_NAME,
    DayLedger,
    rows_to_series,
    window_means,
)

from .test_diff import make_run, policy_timeline, stand_in_accounts


def _spiked_ledger(days=40, spike_day=35, policy_day=None) -> DayLedger:
    """Constant marketplace with one click spike (and optional policy day)."""
    ledger = DayLedger(days)
    ledger.record_phase1(
        stand_in_accounts([(5, 2)] * days), [], policy_timeline(policy_day)
    )
    for day in range(days):
        ledger.record_day(
            day,
            impressions=100.0,
            clicks=500.0 if day == spike_day else 10.0,
            fraud_clicks=1.0,
            spend=4.0,
            fraud_spend=0.5,
            rows=8,
            auctions=3,
            mainline_slots=5,
        )
    return ledger


class TestDetectors:
    def test_rolling_scores_skip_warmup_window(self):
        scores = rolling_mad_scores([1.0, 2.0] * 10, window=5)
        assert scores[:5] == [None] * 5
        assert all(s is not None for s in scores[5:])

    def test_spike_scores_high_against_noisy_baseline(self):
        values = [1.0, 2.0] * 5 + [50.0]
        anomalies = detect_anomalies(values, window=10)
        assert [a["day"] for a in anomalies] == [10]
        assert anomalies[0]["value"] == 50.0
        assert anomalies[0]["z"] > 3.5

    def test_sparse_series_uses_meanad_fallback_not_inf(self):
        # More than half the window is 0 so the MAD vanishes; the mean-AD
        # fallback must keep the score finite (and still anomalous).
        values = [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0]
        anomalies = detect_anomalies(values, window=10)
        assert [a["day"] for a in anomalies] == [10]
        z = anomalies[0]["z"]
        assert isinstance(z, float) and z > 3.5

    def test_constant_window_scores_inf_as_string(self):
        # An exactly-flat window makes any deviation maximally surprising;
        # the sentinel is serialized as a string for strict-JSON documents.
        anomalies = detect_anomalies([2.0] * 10 + [3.0], window=10)
        assert [a["day"] for a in anomalies] == [10]
        assert anomalies[0]["z"] == "inf"
        json.dumps(anomalies)  # strict JSON (no Infinity literal)

    def test_level_shift_reports_first_day_of_new_regime(self):
        values = [0.0] * 20 + [5.0] * 20
        shifts = detect_level_shifts(values, window=5)
        assert [s["day"] for s in shifts] == [20]
        assert shifts[0]["pre_mean"] == 0.0
        assert shifts[0]["post_mean"] == 5.0
        # Constant-vs-constant regimes hit the jump/100 floor: large but
        # finite, never an epsilon-driven 1e12 blowup.
        assert shifts[0]["score"] == 100.0

    def test_no_shift_on_flat_series(self):
        assert detect_level_shifts([3.0] * 40, window=5) == []


class TestPolicyEffects:
    def test_effect_sizes_match_diff_window_means(self):
        rows = _spiked_ledger(days=70, spike_day=32, policy_day=30).rows()
        effects = policy_effects(rows)
        assert list(effects) == ["30"]
        expected = window_means(rows_to_series(rows), 30)
        for name, (pre, post) in expected.items():
            effect = effects["30"][name]
            assert effect["pre_mean"] == pre
            assert effect["post_mean"] == post
            assert effect["delta"] == post - pre

    def test_relative_none_when_pre_mean_zero(self):
        ledger = DayLedger(60)
        ledger.record_phase1(
            stand_in_accounts((1, 1 if day >= 30 else 0) for day in range(60)),
            [],
            policy_timeline(30),
        )
        effects = policy_effects(ledger.rows())
        fraud = effects["30"]["registrations_fraud"]
        assert fraud["pre_mean"] == 0.0
        assert fraud["relative"] is None


class TestAnalyzeRows:
    def test_document_shape_and_near_policy_totals(self):
        rows = _spiked_ledger(days=70, spike_day=32, policy_day=30).rows()
        document = analyze_rows(rows)
        assert document["schema"] == ANALYZE_SCHEMA
        assert document["days"] == 70
        assert document["policy_days"] == [30]
        # The spike sits in the policy settling window: reported but not
        # counted as unexplained.
        assert document["totals"]["anomalies"] > 0
        assert document["totals"]["unexplained_anomalies"] == 0
        spikes = document["anomalies"]["clicks"]
        assert [a["day"] for a in spikes] == [32]
        assert spikes[0]["near_policy"] is True

    def test_spike_without_policy_day_is_unexplained(self):
        rows = _spiked_ledger(days=40, spike_day=35).rows()
        document = analyze_rows(rows)
        assert document["policy_days"] == []
        assert (
            document["totals"]["unexplained_anomalies"]
            == document["totals"]["anomalies"]
            > 0
        )

    def test_document_is_strict_json_and_deterministic(self):
        rows = _spiked_ledger(days=40, spike_day=35).rows()
        text = analysis_json(analyze_rows(rows))
        assert text == analysis_json(analyze_rows(rows))
        json.loads(text)  # round-trips


class TestFailOn:
    def test_parse_rules(self):
        rules = parse_analyze_fail_on(["anomalies=0,level_shifts=2"])
        assert rules == {"anomalies": 0.0, "level_shifts": 2.0}
        with pytest.raises(ValueError, match="unknown"):
            parse_analyze_fail_on(["bogus=1"])
        with pytest.raises(ValueError, match="must be name=threshold"):
            parse_analyze_fail_on(["anomalies"])
        with pytest.raises(ValueError, match="not a number"):
            parse_analyze_fail_on(["anomalies=lots"])

    def test_gate_budgets_unexplained_only(self):
        explained = analyze_rows(
            _spiked_ledger(days=70, spike_day=32, policy_day=30).rows()
        )
        assert evaluate_analyze_fail_on(explained, {"anomalies": 0}) == []
        unexplained = analyze_rows(_spiked_ledger(days=40, spike_day=35).rows())
        violations = evaluate_analyze_fail_on(unexplained, {"anomalies": 0})
        assert violations and "unexplained" in violations[0]


class TestCli:
    def test_analyze_writes_artifact_and_leaves_run_untouched(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        (run_dir / "rng_state.json").write_text('{"stream":"philox","state":7}')
        before = {
            p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()
        }

        assert obs_main(["analyze", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert f"wrote analysis -> {run_dir / ANALYZE_NAME}" in out
        document = json.loads((run_dir / ANALYZE_NAME).read_text())
        assert document["schema"] == ANALYZE_SCHEMA
        # No run-dir echo in the artifact: identical ledgers in
        # differently-named directories must produce identical bytes.
        assert "source" not in document
        # Pure observer: every pre-existing artifact (manifest, ledger,
        # telemetry, serialized RNG state) stays byte-identical.
        for name, payload in before.items():
            assert (run_dir / name).read_bytes() == payload

    def test_artifact_bytes_independent_of_gate_flags(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        assert obs_main(["analyze", str(run_dir)]) == 0
        first = (run_dir / ANALYZE_NAME).read_bytes()
        # A failing gate changes the exit code, never the artifact.
        assert obs_main(["analyze", str(run_dir), "--fail-on", "anomalies=0"]) == 1
        assert (run_dir / ANALYZE_NAME).read_bytes() == first
        capsys.readouterr()

    def test_identical_ledgers_give_identical_bytes_across_dirs(
        self, tmp_path, capsys
    ):
        # The CI gate cmps the fresh and resumed-after-crash runs'
        # analyses -- same ledger, different directory names.
        run_a = make_run(tmp_path, "fresh", ledger=_spiked_ledger())
        run_b = make_run(tmp_path, "resumed", ledger=_spiked_ledger())
        assert obs_main(["analyze", str(run_a)]) == 0
        assert obs_main(["analyze", str(run_b)]) == 0
        assert (run_a / ANALYZE_NAME).read_bytes() == (
            run_b / ANALYZE_NAME
        ).read_bytes()
        capsys.readouterr()

    def test_json_stdout_is_pure_document(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        code = obs_main(
            ["analyze", str(run_dir), "--json", "--fail-on", "anomalies=0"]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["totals"]["unexplained_anomalies"] > 0

    def test_out_redirects_artifact(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        target = tmp_path / "elsewhere.json"
        assert obs_main(["analyze", str(run_dir), "--out", str(target)]) == 0
        assert target.exists()
        assert not (run_dir / ANALYZE_NAME).exists()
        capsys.readouterr()

    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        assert obs_main(["analyze", str(run_dir)]) == 2
        with pytest.raises(FileNotFoundError):
            analyze_run(run_dir)
        capsys.readouterr()

    def test_bad_rule_exits_2(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a")
        assert obs_main(["analyze", str(run_dir), "--fail-on", "bogus=1"]) == 2
        capsys.readouterr()

    def test_nan_threshold_exits_2(self, tmp_path, capsys):
        # anomalies=0 fails this ledger; anomalies=nan must not pass it.
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        assert obs_main(["analyze", str(run_dir), "--fail-on", "anomalies=0"]) == 1
        capsys.readouterr()
        code = obs_main(["analyze", str(run_dir), "--fail-on", "anomalies=nan"])
        captured = capsys.readouterr()
        assert code == 2
        assert "held" not in captured.out
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("ERROR")
        ]
        assert len(errors) == 1 and "anomalies" in errors[0]

    def test_damaged_ledger_exits_2(self, tmp_path, capsys):
        # Garbage anywhere -- even a torn final line, or nothing but
        # garbage -- is no ledger to analyze, and no gate can pass it.
        run_dir = make_run(tmp_path, "a")
        for text in [
            'not json\n{"day":1}\n',
            "not json\n",
            '{"day":0}\n{"day":1}\n{"day":2,"cli',
            '{"day":0}\n[1,2]\nnot json\n',
        ]:
            (run_dir / DAYLEDGER_NAME).write_text(text)
            code = obs_main(["analyze", str(run_dir), "--fail-on", "anomalies=0"])
            assert code == 2, text
            assert not (run_dir / ANALYZE_NAME).exists()
        capsys.readouterr()
