"""Deterministic anomaly and change-point detection over the day ledger.

The write side of :mod:`repro.obs` records a per-day marketplace-health
timeseries (``dayledger.jsonl``); this module is the read side that
*interprets* it.  Three detectors, all zero-dependency arithmetic on
the ledger rows (no numpy, no RNG, no clocks -- same rows in, same
document out, byte for byte):

* **point anomalies** -- per series, a rolling-median + MAD robust
  z-score over a trailing window.  A day whose value sits more than
  ``z_threshold`` scaled median-absolute-deviations away from the
  trailing median is flagged.  This is the Clicktok framing (fraud
  detection as anomaly detection over traffic timeseries) pointed at
  our own health series.
* **level shifts** -- per series, a two-window mean-shift detector:
  for every candidate day the means of the ``window`` days before and
  after are compared, normalized by the robust standard error of the
  mean difference (pooled MAD-based scale times ``sqrt(2/window)``).
  Local maxima of that score above ``shift_threshold`` are reported as
  change points -- the Year-2 policy ban (the paper's Figure-3 regime
  shift) surfaces here as a level shift in the shutdown and fraud-share
  series.
* **policy effects** -- for every ``policy_change`` day in the ledger,
  pre/post window means per series over the ±28-day window
  (:data:`~repro.obs.timeseries.POLICY_WINDOW_DAYS`), computed by
  :func:`~repro.obs.timeseries.window_means`, the helper
  :mod:`repro.obs.diff` also uses -- so ``analyze``'s effect sizes are
  numerically identical to ``repro.obs diff``'s policy-window means.

The detectors' ``window`` also defaults to ``POLICY_WINDOW_DAYS``, so
every windowed statistic here talks about the same four weeks.

Anomalies that land inside the post-policy settling window of a
recorded policy change are marked ``near_policy`` and *excluded* from
the ``--fail-on anomalies=N`` gate: the policy-day shutdown spike is
the paper's headline event, not a data-quality problem.  Everything
else counts as unexplained.

``python -m repro.obs analyze <run-dir>`` writes the document to
``<run-dir>/analyze.json`` (schema ``repro.analyze/v1``, atomic write,
byte-deterministic) and prints a text summary; ``--json`` prints the
document instead, ``--out`` redirects the artifact.  Like every reader
in this package the analyzer never perturbs the run: it opens the
ledger read-only and touches no RNG stream
(``tests/obs/test_analyze.py`` asserts the run directory's simulation
artifacts stay byte-identical).
"""

from __future__ import annotations

import json
from pathlib import Path

from .diff import parse_fail_on
from .timeseries import (
    ANALYZE_NAME,
    DAYLEDGER_NAME,
    POLICY_KEY_SERIES,
    POLICY_WINDOW_DAYS,
    load_rows,
    policy_days,
    rows_to_series,
    window_means,
)

__all__ = [
    "ANALYZE_NAME",
    "ANALYZE_SCHEMA",
    "DEFAULT_Z_THRESHOLD",
    "DEFAULT_SHIFT_THRESHOLD",
    "rolling_mad_scores",
    "detect_anomalies",
    "detect_level_shifts",
    "policy_effects",
    "analyze_rows",
    "analyze_run",
    "analysis_to_text",
]

ANALYZE_SCHEMA = "repro.analyze/v1"

#: Robust z-score above which a day is a point anomaly.  3.5 is the
#: classic Iglewicz-Hoaglin cutoff for modified z-scores.
DEFAULT_Z_THRESHOLD = 3.5

#: Normalized mean-shift score above which a candidate day is a level
#: shift.  The score is a two-sample z on window *means* (normalized by
#: the robust standard error, not per-day deviation), so under i.i.d.
#: noise it is roughly standard normal -- 8.0 keeps week-scale drift
#: out while regime changes (startup growth, the Year-2 ban) score
#: comfortably above it.
DEFAULT_SHIFT_THRESHOLD = 8.0

#: Scale factor making the MAD a consistent estimator of the standard
#: deviation under normality (Iglewicz & Hoaglin's 0.6745).
_MAD_SCALE = 0.6745

#: Same role for the mean absolute deviation, the fallback scale when
#: the MAD is 0 (sparse count series -- fraud clicks on a mostly-quiet
#: ledger are 0 on more than half the days, so their MAD vanishes and
#: every nonzero day would otherwise score infinite).
_MEANAD_SCALE = 0.7979


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: list[float], center: float) -> float:
    return _median([abs(v - center) for v in values])


def _robust_scale(values: list[float], center: float) -> float:
    """MAD-based deviation scale with the Iglewicz-Hoaglin fallback.

    Returns the scaled MAD when it is nonzero, else the scaled mean
    absolute deviation, else 0.0 (an exactly-constant window).  Both
    are normalized to estimate one standard deviation, so callers
    divide by this directly.
    """
    mad = _mad(values, center)
    if mad > 0.0:
        return mad / _MAD_SCALE
    mean_ad = sum(abs(v - center) for v in values) / len(values)
    if mean_ad > 0.0:
        return mean_ad / _MEANAD_SCALE
    return 0.0


def rolling_mad_scores(
    values: list[float], window: int = POLICY_WINDOW_DAYS
) -> list[tuple[float, float, float] | None]:
    """Per-day ``(z, median, mad)`` over a trailing window.

    Day ``i`` is scored against the ``window`` days strictly before it;
    the first ``window`` days have no full trailing context and score
    ``None`` (a detector that judged day 3 against 2 neighbours would
    flag startup transients forever).  The scale is the window's MAD
    with the mean-absolute-deviation fallback (:func:`_robust_scale`);
    only an *exactly constant* window scores a deviation as infinite --
    on a flat series even a tiny move is maximally surprising.
    """
    scores: list[tuple[float, float, float] | None] = []
    for i, value in enumerate(values):
        if i < window:
            scores.append(None)
            continue
        context = values[i - window : i]
        med = _median(context)
        scale = _robust_scale(context, med)
        if scale == 0.0:
            z = 0.0 if value == med else float("inf")
        else:
            z = (value - med) / scale
        scores.append((z, med, scale))
    return scores


def detect_anomalies(
    values: list[float],
    window: int = POLICY_WINDOW_DAYS,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> list[dict]:
    """Days whose robust z-score exceeds ``z_threshold`` in magnitude."""
    anomalies: list[dict] = []
    for day, scored in enumerate(rolling_mad_scores(values, window)):
        if scored is None:
            continue
        z, med, _ = scored
        if abs(z) > z_threshold:
            anomalies.append(
                {
                    "day": day,
                    "value": round(values[day], 6),
                    "z": round(z, 3) if z not in (float("inf"), float("-inf"))
                    else ("inf" if z > 0 else "-inf"),
                    "baseline_median": round(med, 6),
                }
            )
    return anomalies


def detect_level_shifts(
    values: list[float],
    window: int = POLICY_WINDOW_DAYS,
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD,
) -> list[dict]:
    """Change points where the windowed mean jumps between regimes.

    For every day ``t`` with a full ``window`` on each side, the score
    is a robust two-sample z on the window *means*:
    ``|mean(post) - mean(pre)| / se`` where ``se`` is the averaged
    robust scale of both windows (:func:`_robust_scale`: MAD with
    mean-AD fallback, each around its own median) scaled by
    ``sqrt(2 / window)`` -- the standard error of a difference of two
    ``window``-day means, so comparable day-scale noise scores ~1
    regardless of window length.  The ``se`` is floored by 1% of the
    jump itself, capping the score at 100: a regime shift on an
    exactly-constant series (both scales 0) still scores large but
    finite instead of exploding toward an epsilon floor.  Scores above
    ``shift_threshold`` are non-maximum-suppressed within ``window``
    days so one regime change reports one day.
    """
    n = len(values)
    se_factor = (2.0 / window) ** 0.5
    scores: list[tuple[int, float, float, float]] = []
    for t in range(window, n - window + 1):
        pre = values[t - window : t]
        post = values[t : t + window]
        pre_mean = sum(pre) / len(pre)
        post_mean = sum(post) / len(post)
        jump = abs(post_mean - pre_mean)
        pooled = (
            _robust_scale(pre, _median(pre))
            + _robust_scale(post, _median(post))
        ) / 2.0
        se = max(pooled * se_factor, jump / 100.0, 1e-12)
        score = jump / se
        if score > shift_threshold:
            scores.append((t, score, pre_mean, post_mean))

    shifts: list[dict] = []
    for t, score, pre_mean, post_mean in scores:
        better_neighbour = any(
            other_t != t
            and abs(other_t - t) < window
            and (other_score, -other_t) > (score, -t)
            for other_t, other_score, _, _ in scores
        )
        if better_neighbour:
            continue
        shifts.append(
            {
                "day": t,
                "score": round(score, 3),
                "pre_mean": round(pre_mean, 6),
                "post_mean": round(post_mean, 6),
            }
        )
    return shifts


def policy_effects(rows: list[dict]) -> dict[str, dict[str, dict]]:
    """Per-policy-day pre/post window means and effect sizes.

    Uses :func:`repro.obs.timeseries.window_means`, as ``repro.obs
    diff`` does, so the means here are numerically identical to the
    ``a:``/``b:`` policy-window means the diff prints for the same
    ledger.
    """
    effects: dict[str, dict[str, dict]] = {}
    series = rows_to_series(rows)
    for day in policy_days(rows):
        per_series: dict[str, dict] = {}
        for name, (pre, post) in sorted(window_means(series, day).items()):
            delta = post - pre
            per_series[name] = {
                "pre_mean": pre,
                "post_mean": post,
                "delta": delta,
                "relative": (
                    delta / abs(pre) if pre != 0.0 else (0.0 if delta == 0.0 else None)
                ),
            }
        effects[str(day)] = per_series
    return effects


def _near_policy(day: int, policy: list[int], symmetric: bool = False) -> bool:
    """True when ``day`` falls in a policy day's settling window.

    The settling window is the post-window the effect sizes are
    computed over, ``POLICY_WINDOW_DAYS`` long.  Point anomalies settle
    *after* the policy day (``[p, p + settle]``);
    level shifts check symmetrically (``symmetric=True``): the
    two-window detector's score peaks anywhere its post window overlaps
    the regime change, up to ``window`` days before the policy day
    itself.
    """
    if symmetric:
        return any(abs(day - p) <= POLICY_WINDOW_DAYS for p in policy)
    return any(0 <= day - p <= POLICY_WINDOW_DAYS for p in policy)


def analyze_rows(
    rows: list[dict],
    window: int = POLICY_WINDOW_DAYS,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD,
) -> dict:
    """Full analysis document for one ledger's rows (no I/O)."""
    series = rows_to_series(rows)
    policy = policy_days(rows)

    anomalies: dict[str, list[dict]] = {}
    shifts: dict[str, list[dict]] = {}
    total = unexplained = 0
    for name in sorted(series):
        values = series[name]
        found = detect_anomalies(values, window, z_threshold)
        for anomaly in found:
            anomaly["near_policy"] = _near_policy(int(anomaly["day"]), policy)
            total += 1
            if not anomaly["near_policy"]:
                unexplained += 1
        if found:
            anomalies[name] = found
        shifted = detect_level_shifts(values, window, shift_threshold)
        for shift in shifted:
            shift["near_policy"] = _near_policy(
                int(shift["day"]), policy, symmetric=True
            )
        if shifted:
            shifts[name] = shifted

    return {
        "schema": ANALYZE_SCHEMA,
        "days": len(rows),
        "params": {
            "window": window,
            "z_threshold": z_threshold,
            "shift_threshold": shift_threshold,
        },
        "policy_days": policy,
        "anomalies": anomalies,
        "level_shifts": shifts,
        "policy_effects": policy_effects(rows),
        "totals": {
            "anomalies": total,
            "unexplained_anomalies": unexplained,
            "level_shifts": sum(len(s) for s in shifts.values()),
        },
    }


def analyze_run(run_dir: str | Path, **params) -> dict:
    """Analyze one run directory's ledger.

    Raises ``FileNotFoundError`` when the directory or its
    ``dayledger.jsonl`` is missing, and ``ValueError`` when the ledger
    is damaged (:func:`~repro.obs.timeseries.load_rows`) -- this
    command produces an artifact, so a silent no-op would masquerade
    as a healthy analysis.
    """
    run_dir = Path(run_dir)
    ledger = run_dir / DAYLEDGER_NAME
    if not ledger.exists():
        raise FileNotFoundError(f"{run_dir}: no {DAYLEDGER_NAME} to analyze")
    # No ``source`` field: the artifact's bytes must be a function of
    # the ledger alone, and two runs with identical ledgers live in
    # differently-named directories (CI cmp-gates exactly that pair).
    return analyze_rows(load_rows(ledger), **params)


def analysis_to_text(document: dict, source: str | Path | None = None) -> str:
    """Human-readable summary of an analysis document."""
    header = "ledger analysis" + (f": {source}" if source else "")
    lines = [header]
    totals = document["totals"]
    lines.append(
        f"{document['days']} day(s): {totals['anomalies']} anomal"
        f"{'y' if totals['anomalies'] == 1 else 'ies'} "
        f"({totals['unexplained_anomalies']} unexplained), "
        f"{totals['level_shifts']} level shift(s)"
    )
    if document["policy_days"]:
        days = ", ".join(str(d) for d in document["policy_days"])
        lines.append(f"policy change day(s): {days}")

    if document["level_shifts"]:
        lines.append("")
        lines.append("level shifts (two-window mean jump):")
        for name, shifts in document["level_shifts"].items():
            for shift in shifts:
                tag = "  [policy]" if shift["near_policy"] else ""
                lines.append(
                    f"  {name:<28} day {shift['day']:>4}  "
                    f"{shift['pre_mean']:.4g} -> {shift['post_mean']:.4g}  "
                    f"(score {shift['score']:g}){tag}"
                )

    if document["anomalies"]:
        lines.append("")
        lines.append("point anomalies (|robust z| > threshold):")
        for name, anomalies in document["anomalies"].items():
            for anomaly in anomalies:
                tag = "  [policy]" if anomaly["near_policy"] else ""
                lines.append(
                    f"  {name:<28} day {anomaly['day']:>4}  "
                    f"value {anomaly['value']:g} "
                    f"(median {anomaly['baseline_median']:g}, "
                    f"z {anomaly['z']}){tag}"
                )

    effects = document["policy_effects"]
    if effects:
        lines.append("")
        lines.append(
            f"policy effects (±{POLICY_WINDOW_DAYS}d window means, "
            f"matching repro.obs diff):"
        )
        for day, per_series in effects.items():
            lines.append(f"  day {day}:")
            for name in POLICY_KEY_SERIES:
                effect = per_series.get(name)
                if effect is None:
                    continue
                rel = effect["relative"]
                rel_text = f" ({rel:+.1%})" if isinstance(rel, float) else ""
                lines.append(
                    f"    {name:<26} {effect['pre_mean']:.4g} -> "
                    f"{effect['post_mean']:.4g}{rel_text}"
                )
    if not (document["anomalies"] or document["level_shifts"] or effects):
        lines.append("nothing unusual: no anomalies, shifts, or policy days")
    return "\n".join(lines)


def analysis_json(document: dict) -> str:
    """Canonical byte-deterministic serialization of a document."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def parse_analyze_fail_on(specs: list[str]) -> dict[str, float]:
    """Parse ``--fail-on`` rules for ``analyze`` (``anomalies=N``,
    ``level_shifts=N``) with the diff's parser; raises ``ValueError``
    on malformed input."""
    return parse_fail_on(specs, ("anomalies", "level_shifts"))


def evaluate_analyze_fail_on(document: dict, rules: dict[str, float]) -> list[str]:
    """Violation messages for an analysis document under the gate rules.

    ``anomalies=N`` budgets *unexplained* anomalies only -- a spike
    inside a policy day's settling window is the experiment working,
    not a regression.  ``level_shifts=N`` budgets shifts away from
    policy days the same way.
    """
    violations: list[str] = []
    totals = document["totals"]
    if "anomalies" in rules:
        unexplained = totals["unexplained_anomalies"]
        if unexplained > rules["anomalies"]:
            violations.append(
                f"anomalies: {unexplained} unexplained anomal"
                f"{'y' if unexplained == 1 else 'ies'} "
                f"(> {rules['anomalies']:g}; {totals['anomalies']} total "
                f"incl. policy-window days)"
            )
    if "level_shifts" in rules:
        unexplained_shifts = sum(
            1
            for shifts in document["level_shifts"].values()
            for shift in shifts
            if not shift["near_policy"]
        )
        if unexplained_shifts > rules["level_shifts"]:
            violations.append(
                f"level_shifts: {unexplained_shifts} shift(s) away from "
                f"policy days (> {rules['level_shifts']:g})"
            )
    return violations
