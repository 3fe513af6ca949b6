"""Tests for the paper-target validation suite."""

import math

from repro.validation import (
    TARGETS,
    CheckResult,
    TargetBand,
    measure_all,
    render_report,
    run_validation,
)


class TestTargetBand:
    def test_in_band(self):
        band = TargetBand("x", "~1", 0.5, 1.5, "Sec 0")
        assert band.check(1.0).ok
        assert not band.check(0.4).ok
        assert not band.check(1.6).ok

    def test_unbounded_sides(self):
        low_only = TargetBand("x", ">1", 1.0, None, "Sec 0")
        assert low_only.check(100.0).ok
        high_only = TargetBand("x", "<1", None, 1.0, "Sec 0")
        assert high_only.check(-5.0).ok

    def test_nan_fails(self):
        band = TargetBand("x", "any", None, None, "Sec 0")
        assert not band.check(math.nan).ok

    def test_render(self):
        result = TargetBand("x", "~1", 0.5, 1.5, "Sec 0").check(1.0)
        assert "ok" in result.render()
        assert "Sec 0" in result.render()


class TestSuite:
    def test_target_names_unique(self):
        names = [target.name for target in TARGETS]
        assert len(names) == len(set(names))

    def test_measures_computed(self, sim_result):
        measures = measure_all(sim_result)
        assert "fraud_registration_share" in measures
        assert "f_median_affected" in measures
        # All measured values are real numbers or NaN-free finite floats.
        for name, value in measures.items():
            assert isinstance(value, float) or isinstance(value, int), name

    def test_run_validation(self, sim_result):
        checks = run_validation(sim_result)
        assert len(checks) >= 15
        assert all(isinstance(check, CheckResult) for check in checks)
        # The small test simulation should already satisfy the robust
        # Section 4 targets.
        by_name = {check.target.name: check for check in checks}
        assert by_name["fraud_registration_share"].ok
        assert by_name["median_lifetime_from_registration"].ok

    def test_render_report(self, sim_result):
        checks = run_validation(sim_result)
        report = render_report(checks)
        assert "targets in band" in report
        assert report.count("\n") == len(checks)
