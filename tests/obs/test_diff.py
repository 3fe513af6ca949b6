"""Tests for cross-run diffing and the ``--fail-on`` CI gate."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.diff import (
    diff_runs,
    evaluate_fail_on,
    load_run,
    load_validation,
    parse_fail_on,
    render_diff,
)
from repro.obs.timeseries import DAYLEDGER_NAME, DayLedger


def _span(span_id, parent, name, dur):
    return {
        "t": 1.0,
        "kind": "span",
        "name": name,
        "id": span_id,
        "parent": parent,
        "start": 0.5,
        "dur": dur,
        "attrs": {},
    }


def _metrics(counters):
    return {
        "t": 9.0,
        "kind": "metrics",
        "data": {"counters": counters, "gauges": {}, "histograms": {}},
    }


def _ledger(days=4, clicks=10.0, policy_day=None) -> DayLedger:
    ledger = DayLedger(days=days)
    if policy_day is not None:
        ledger.record_policy_change(policy_day)
    for day in range(days):
        ledger.record_registrations(day, 5, 2)
        ledger.begin_day(day)
        ledger.record_auction_day(
            day,
            impressions=100.0,
            clicks=clicks,
            fraud_clicks=1.0,
            spend=4.0,
            fraud_spend=0.5,
            rows=8,
            auctions=3,
            mainline_slots=5,
        )
    return ledger


def make_run(
    root: Path,
    name: str,
    *,
    counters: dict | None = None,
    ledger: DayLedger | None = None,
    validation_ok: tuple[str, ...] = ("fraud_share", "cpc"),
    validation_miss: tuple[str, ...] = (),
    rss_peak_kb: float | None = None,
) -> Path:
    """Synthesize a minimal but complete run directory."""
    run_dir = root / name
    run_dir.mkdir(parents=True)
    (run_dir / "MANIFEST.json").write_text(
        json.dumps({"seed": 7, "days": 4, "phase": "complete", "chunks": []})
    )
    events = [
        _span(1, None, "runner.run", dur=3.0),
        _span(2, 1, "phase1.population", dur=0.5),
        _span(3, 1, "phase3.auctions", dur=2.0),
        _metrics(counters or {"auction.rows_emitted": 100}),
    ]
    if rss_peak_kb is not None:
        events.append({
            "t": 9.5,
            "kind": "resources",
            "data": {
                "interval_s": 0.05,
                "overall": {"samples": 3, "rss_peak_kb": rss_peak_kb,
                            "rss_mean_kb": rss_peak_kb / 2, "cpu_s": 1.0,
                            "wall_s": 1.0, "cpu_utilization": 1.0,
                            "gc": {"collections": 0, "pause_total_s": 0.0,
                                   "pause_max_s": 0.0}},
                "phases": {},
            },
        })
    (run_dir / "telemetry.jsonl").write_text(
        "\n".join(json.dumps(e, separators=(",", ":")) for e in events) + "\n"
    )
    checks = [
        {"name": n, "ok": True, "measured": 1.0, "low": 0, "high": 2,
         "paper": "x", "section": "4"}
        for n in validation_ok
    ] + [
        {"name": n, "ok": False, "measured": 9.0, "low": 0, "high": 2,
         "paper": "x", "section": "4"}
        for n in validation_miss
    ]
    (run_dir / "validation.json").write_text(
        json.dumps({"schema": "repro.validation/v1", "passed": len(validation_ok),
                    "total": len(checks), "checks": checks})
    )
    (ledger or _ledger()).flush(run_dir / DAYLEDGER_NAME)
    return run_dir


class TestDiffRuns:
    def test_identical_runs_have_zero_divergence(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        diff = diff_runs(load_run(a), load_run(b))
        assert diff.series_divergence
        assert all(d == 0.0 for d in diff.series_divergence.values())
        assert diff.counter_deltas == {}
        assert diff.new_misses == []
        assert evaluate_fail_on(diff, parse_fail_on(["drift=0"])) == []

    def test_perturbed_ledger_fails_drift_zero(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b", ledger=_ledger(clicks=10.5))
        diff = diff_runs(load_run(a), load_run(b))
        assert diff.series_divergence["clicks"] > 0
        violations = evaluate_fail_on(diff, {"drift": 0.0})
        assert any("clicks" in v for v in violations)
        # A loose threshold tolerates the same perturbation.
        assert evaluate_fail_on(diff, {"drift": 0.1}) == []

    def test_day_count_mismatch_is_infinite_drift(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b", ledger=_ledger(days=3))
        diff = diff_runs(load_run(a), load_run(b))
        assert diff.series_divergence["__days__"] == math.inf
        violations = evaluate_fail_on(diff, {"drift": 1e9})
        assert any("__days__" in v for v in violations)

    def test_new_validation_miss_fails_budget(self, tmp_path):
        a = make_run(tmp_path, "a", validation_ok=("fraud_share", "cpc"))
        b = make_run(
            tmp_path, "b",
            validation_ok=("cpc",), validation_miss=("fraud_share",),
        )
        diff = diff_runs(load_run(a), load_run(b))
        assert diff.new_misses == ["fraud_share"]
        violations = evaluate_fail_on(diff, {"validation": 0.0})
        assert any("fraud_share" in v for v in violations)
        assert evaluate_fail_on(diff, {"validation": 1.0}) == []

    def test_counter_deltas_only_where_values_differ(self, tmp_path):
        a = make_run(tmp_path, "a", counters={"x": 1, "same": 5})
        b = make_run(tmp_path, "b", counters={"x": 2, "same": 5})
        diff = diff_runs(load_run(a), load_run(b))
        assert diff.counter_deltas == {"x": (1.0, 2.0)}

    def test_ledger_missing_one_side_violates_drift(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        (b / DAYLEDGER_NAME).unlink()
        diff = diff_runs(load_run(a), load_run(b))
        violations = evaluate_fail_on(diff, {"drift": 0.0})
        assert len(violations) == 1
        assert "no readable" in violations[0]

    def test_ledger_missing_both_sides_skips_drift(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        (a / DAYLEDGER_NAME).unlink()
        (b / DAYLEDGER_NAME).unlink()
        diff = diff_runs(load_run(a), load_run(b))
        assert evaluate_fail_on(diff, {"drift": 0.0}) == []

    def test_policy_windows_report_pre_post_means(self, tmp_path):
        a = make_run(tmp_path, "a", ledger=_ledger(policy_day=2))
        b = make_run(tmp_path, "b", ledger=_ledger(policy_day=2))
        diff = diff_runs(load_run(a), load_run(b))
        assert 2 in diff.policy_windows
        windows = diff.policy_windows[2]["clicks"]
        assert windows["a"] == windows["b"]
        assert windows["a"][1] == pytest.approx(10.0)
        assert "policy-change windows" in render_diff(diff)


class TestParseFailOn:
    def test_comma_and_repeat_forms(self):
        assert parse_fail_on(["drift=0,degraded=0.25", "validation=1"]) == {
            "drift": 0.0,
            "degraded": 0.25,
            "validation": 1.0,
        }

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown --fail-on rule"):
            parse_fail_on(["latency=3"])

    def test_missing_threshold_raises(self):
        with pytest.raises(ValueError, match="name=threshold"):
            parse_fail_on(["drift"])

    def test_non_numeric_threshold_raises(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_fail_on(["drift=tight"])

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_threshold_raises(self, raw):
        # `x > nan` is always false, so a nan threshold would silently
        # turn its gate off; a negative one would fail every input.
        with pytest.raises(ValueError, match="must be a finite number >= 0"):
            parse_fail_on([f"drift={raw}"])


class TestDiffCli:
    def test_identical_runs_exit_0(self, tmp_path, capsys):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        code = obs_main(["diff", str(a), str(b), "--fail-on", "drift=0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok: 1 rule(s) held" in out

    def test_perturbed_run_exits_1(self, tmp_path, capsys):
        # Acceptance criterion: diff exits non-zero on a perturbed
        # ledger or a newly missed validation target.
        a = make_run(tmp_path, "a")
        b = make_run(
            tmp_path, "b", ledger=_ledger(clicks=11.0),
            validation_ok=("cpc",), validation_miss=("fraud_share",),
        )
        code = obs_main(
            ["diff", str(a), str(b),
             "--fail-on", "drift=0,validation=0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL:" in out
        assert "drift" in out
        assert "validation" in out

    def test_bad_rule_exits_2(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        assert obs_main(["diff", str(a), str(b), "--fail-on", "bogus=1"]) == 2

    @pytest.mark.parametrize("rule", ["phase_time=0.25", "rss=0.05"])
    def test_perf_rule_exits_2(self, tmp_path, capsys, rule):
        # Timing and memory gates belong to the repository benchmark.
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        assert obs_main(["diff", str(a), str(b), "--fail-on", rule]) == 2
        assert "unknown --fail-on rule" in capsys.readouterr().err

    def test_nan_threshold_exits_2(self, tmp_path, capsys):
        # drift=0 fails this pair; drift=nan must not pass it instead.
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b", ledger=_ledger(clicks=11.0))
        assert obs_main(["diff", str(a), str(b), "--fail-on", "drift=0"]) == 1
        capsys.readouterr()
        code = obs_main(["diff", str(a), str(b), "--fail-on", "drift=nan"])
        captured = capsys.readouterr()
        assert code == 2
        assert "held" not in captured.out
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("ERROR")
        ]
        assert len(errors) == 1 and "drift" in errors[0]

    def test_missing_run_dir_exits_2(self, tmp_path):
        a = make_run(tmp_path, "a")
        assert obs_main(["diff", str(a), str(tmp_path / "nope")]) == 2

    def test_diff_without_rules_reports_and_exits_0(self, tmp_path, capsys):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b", ledger=_ledger(clicks=99.0))
        assert obs_main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "day-ledger series" in out


class TestDegradedRule:
    def test_undegraded_run_passes_budget_zero(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        diff = diff_runs(load_run(a), load_run(b))
        assert evaluate_fail_on(diff, parse_fail_on(["degraded=0"])) == []

    def test_degraded_counters_fail_budget(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(
            tmp_path, "b",
            counters={"io.degraded": 3, "io.giveups": 1},
        )
        diff = diff_runs(load_run(a), load_run(b))
        violations = evaluate_fail_on(diff, {"degraded": 0.0})
        assert violations and "degraded" in violations[0]
        # Four degradations fit inside a budget of four.
        assert evaluate_fail_on(diff, {"degraded": 4.0}) == []

    def test_degradation_in_a_does_not_count(self, tmp_path):
        # The rule gates the *candidate* run; a noisy baseline is not
        # the candidate's regression.
        a = make_run(tmp_path, "a", counters={"io.degraded": 9})
        b = make_run(tmp_path, "b")
        diff = diff_runs(load_run(a), load_run(b))
        assert evaluate_fail_on(diff, {"degraded": 0.0}) == []

    def test_missing_telemetry_in_b_violates(self, tmp_path):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        (b / "telemetry.jsonl").unlink()
        diff = diff_runs(load_run(a), load_run(b))
        violations = evaluate_fail_on(diff, {"degraded": 0.0})
        assert violations and "telemetry" in violations[0]


class TestDiffJson:
    def test_schema_and_sections(self, tmp_path):
        from repro.obs.diff import DIFF_SCHEMA, diff_json

        a = make_run(tmp_path, "a", rss_peak_kb=100_000.0,
                     ledger=_ledger(policy_day=2))
        b = make_run(tmp_path, "b", rss_peak_kb=100_000.0,
                     ledger=_ledger(policy_day=2))
        document = diff_json(diff_runs(load_run(a), load_run(b)))
        assert document["schema"] == DIFF_SCHEMA
        assert document["run_a"] == str(a) and document["run_b"] == str(b)
        assert document["series_divergence"]["clicks"] == 0.0
        assert "2" in document["policy_windows"]
        # No rules requested: the gate keys stay out of the document.
        assert "fail_on" not in document and "violations" not in document
        json.dumps(document)  # strict JSON

    def test_infinite_divergence_serializes_as_string(self, tmp_path):
        from repro.obs.diff import diff_json

        a = make_run(tmp_path, "a", ledger=_ledger(days=4))
        b = make_run(tmp_path, "b", ledger=_ledger(days=6))
        document = diff_json(diff_runs(load_run(a), load_run(b)))
        assert document["series_divergence"]["__days__"] == "inf"
        json.dumps(document)

    def test_cli_json_stdout(self, tmp_path, capsys):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        assert obs_main(["diff", str(a), str(b), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.diff/v3"

    def test_cli_json_out_writes_file(self, tmp_path, capsys):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        target = tmp_path / "diff.json"
        code = obs_main(["diff", str(a), str(b), "--json", "--out", str(target)])
        assert code == 0
        assert f"wrote diff -> {target}" in capsys.readouterr().out
        assert json.loads(target.read_text())["schema"] == "repro.diff/v3"

    def test_cli_out_without_json_exits_2(self, tmp_path, capsys):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        target = tmp_path / "diff.json"
        assert obs_main(["diff", str(a), str(b), "--out", str(target)]) == 2
        assert not target.exists()
        capsys.readouterr()

    def test_cli_json_violation_exits_1_and_embeds_gate(self, tmp_path, capsys):
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b", ledger=_ledger(clicks=11.0))
        code = obs_main(
            ["diff", str(a), str(b), "--json", "--fail-on", "drift=0"]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["fail_on"] == {"drift": 0.0}
        assert document["violations"]
        assert "clicks" in document["violations"][0]

    def test_text_output_unchanged_by_json_flag_absence(self, tmp_path, capsys):
        # The pre-existing text path still renders (no accidental JSON).
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        assert obs_main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("run diff: ")
        assert "final counters differing" in out


class TestLoadValidation:
    def test_no_artifact_returns_none(self, tmp_path):
        assert load_validation(tmp_path) is None

    def test_corrupt_json_returns_none(self, tmp_path):
        (tmp_path / "validation.json").write_text("{broken")
        assert load_validation(tmp_path) is None
