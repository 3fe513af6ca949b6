"""Cross-run comparison: ``python -m repro.obs diff <run-a> <run-b>``.

Compares what two checkpoint-runner run directories simulated:

* **final metrics** -- the last cumulative counter snapshot of each
  run (from its ``telemetry.jsonl``), flagging counters whose values
  differ;
* **validation** -- the pass/miss sets (``validation.json``, which
  ``runner run --report`` writes), flagging targets that passed in A
  but miss in B;
* **day-ledger series** -- the per-day marketplace-health timeseries
  (``dayledger.jsonl``), reporting the maximum relative divergence per
  series and, when either run records a policy change, the pre/post
  policy-window means so regime shifts can be compared across runs.

Timing and memory are not compared here: perf numbers come from the
repository benchmark (``bench/run.py``), and one run's own phase times
and resource envelope from ``python -m repro.obs report``.

``--fail-on`` turns the comparison into a CI gate.  Rules (repeatable,
comma-separable):

``drift=FRAC``
    Fail if any ledger series diverges relatively by more than
    ``FRAC`` on any day (``drift=0`` demands byte-level agreement --
    what a fresh vs. resumed same-seed pair must satisfy).
``validation=N``
    Fail if more than ``N`` targets that passed in A miss in B.
``degraded=N``
    Fail if run B degraded more than ``N`` auxiliary writes: its final
    ``io.degraded`` + ``io.giveups`` counters (``degraded=0`` demands
    a run that never lost a telemetry or ledger flush).

Every threshold must be a finite number >= 0: ``x > nan`` is always
false, so a ``nan`` threshold would silently turn its gate off.

Exit codes: 0 -- compared (and every rule held); 1 -- at least one
rule violated; 2 -- a run directory was unreadable or a rule
malformed.  A rule whose inputs are missing on *both* sides is skipped
(nothing to compare); missing on one side only is a violation of that
rule, because "the artifact disappeared" is itself a regression.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .report import last_metrics, load_events, report_path
from .timeseries import (
    DAYLEDGER_NAME,
    POLICY_KEY_SERIES,
    POLICY_WINDOW_DAYS,
    load_rows,
    policy_days,
    rows_to_series,
    window_means,
)

__all__ = [
    "DIFF_SCHEMA",
    "RunData",
    "RunDiff",
    "load_run",
    "load_validation",
    "diff_runs",
    "diff_json",
    "parse_fail_on",
    "evaluate_fail_on",
    "render_diff",
]

DIFF_SCHEMA = "repro.diff/v3"

VALIDATION_JSON_NAME = "validation.json"

#: Series the text diff lists even when they do not diverge; past
#: this many, identical series are summarized in one line.
TOP_SERIES = 12


@dataclass
class RunData:
    """Everything the diff reads from one run directory."""

    path: Path
    metrics: dict | None
    validation: dict | None
    ledger_rows: list[dict] | None
    notes: list[str] = field(default_factory=list)


@dataclass
class RunDiff:
    """The comparison of two runs, axis by axis."""

    a: RunData
    b: RunData
    #: counter -> (value_a, value_b), only where the values differ.
    counter_deltas: dict[str, tuple[float, float]]
    #: targets that passed in A but miss (or vanished) in B.
    new_misses: list[str]
    #: series name -> max relative divergence across days.
    series_divergence: dict[str, float]
    #: policy day -> series -> {"a": (pre, post), "b": (pre, post)}.
    policy_windows: dict[int, dict[str, dict[str, tuple[float, float]]]]


def load_validation(run_dir: str | Path) -> dict | None:
    """Validation pass/miss info from a run directory's ``validation.json``.

    Returns ``{"passed", "total", "ok": [names], "miss": [names]}`` or
    ``None`` when the run has no (readable) validation artifact.
    """
    json_path = Path(run_dir) / VALIDATION_JSON_NAME
    if not json_path.exists():
        return None
    try:
        payload = json.loads(json_path.read_text())
        checks = payload["checks"]
        ok = [c["name"] for c in checks if c["ok"]]
        miss = [c["name"] for c in checks if not c["ok"]]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None
    return {"passed": len(ok), "total": len(checks), "ok": ok, "miss": miss}


def load_run(run_dir: str | Path) -> RunData:
    """Read one run directory's comparable artifacts (best-effort)."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"{run_dir}: not a run directory")
    data = RunData(path=run_dir, metrics=None, validation=None, ledger_rows=None)
    telemetry = report_path(run_dir)
    if telemetry.exists():
        try:
            data.metrics = last_metrics(load_events(telemetry))
        except ValueError as exc:
            data.notes.append(f"telemetry unreadable: {exc}")
    else:
        data.notes.append("no telemetry.jsonl")
    data.validation = load_validation(run_dir)
    if data.validation is None:
        data.notes.append("no validation artifact")
    ledger = run_dir / DAYLEDGER_NAME
    if ledger.exists():
        try:
            data.ledger_rows = load_rows(ledger)
        except ValueError as exc:
            data.notes.append(f"ledger unreadable: {exc}")
    else:
        data.notes.append(f"no {DAYLEDGER_NAME}")
    return data


def _relative_divergence(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    if scale == 0.0 or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / scale


def diff_runs(a: RunData, b: RunData) -> RunDiff:
    """Compare two loaded runs along every recorded axis."""
    counter_deltas: dict[str, tuple[float, float]] = {}
    counters_a = (a.metrics or {}).get("counters") or {}
    counters_b = (b.metrics or {}).get("counters") or {}
    for name in sorted({*counters_a, *counters_b}):
        va = float(counters_a.get(name, 0))
        vb = float(counters_b.get(name, 0))
        if va != vb:
            counter_deltas[name] = (va, vb)

    new_misses: list[str] = []
    if a.validation is not None and b.validation is not None:
        ok_b = set(b.validation["ok"])
        new_misses = [name for name in a.validation["ok"] if name not in ok_b]

    series_divergence: dict[str, float] = {}
    policy_windows: dict[int, dict] = {}
    if a.ledger_rows is not None and b.ledger_rows is not None:
        series_a = rows_to_series(a.ledger_rows)
        series_b = rows_to_series(b.ledger_rows)
        n_days = max(len(a.ledger_rows), len(b.ledger_rows))
        for name in sorted({*series_a, *series_b}):
            va = series_a.get(name, [])
            vb = series_b.get(name, [])
            worst = 0.0
            for day in range(n_days):
                xa = va[day] if day < len(va) else 0.0
                xb = vb[day] if day < len(vb) else 0.0
                worst = max(worst, _relative_divergence(xa, xb))
            series_divergence[name] = worst
        if len(a.ledger_rows) != len(b.ledger_rows):
            series_divergence["__days__"] = math.inf
        for day in sorted(
            {*policy_days(a.ledger_rows), *policy_days(b.ledger_rows)}
        ):
            policy_windows[day] = {
                name: {
                    "a": means_a,
                    "b": window_means(series_b, day).get(name, (0.0, 0.0)),
                }
                for name, means_a in window_means(series_a, day).items()
            }

    return RunDiff(
        a=a,
        b=b,
        counter_deltas=counter_deltas,
        new_misses=new_misses,
        series_divergence=series_divergence,
        policy_windows=policy_windows,
    )


# ----------------------------------------------------------------------
# --fail-on rules
# ----------------------------------------------------------------------

_RULES = ("drift", "validation", "degraded")


def parse_fail_on(
    specs: list[str], known: tuple[str, ...] = _RULES
) -> dict[str, float]:
    """Parse ``--fail-on`` rule strings into ``{rule: threshold}``.

    Accepts repeated flags and comma-separated lists; raises
    ``ValueError`` on a rule not in ``known`` or a threshold that is
    not a finite number >= 0.
    """
    rules: dict[str, float] = {}
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            if not sep:
                raise ValueError(
                    f"--fail-on rule {part!r} must be name=threshold"
                )
            name = name.strip()
            if name not in known:
                raise ValueError(
                    f"unknown --fail-on rule {name!r} "
                    f"(known: {', '.join(known)})"
                )
            try:
                threshold = float(raw)
            except ValueError:
                raise ValueError(
                    f"--fail-on {name}: threshold {raw!r} is not a number"
                ) from None
            if not (math.isfinite(threshold) and threshold >= 0):
                raise ValueError(
                    f"--fail-on {name}: threshold {raw!r} must be a "
                    f"finite number >= 0"
                )
            rules[name] = threshold
    return rules


def evaluate_fail_on(diff: RunDiff, rules: dict[str, float]) -> list[str]:
    """Apply parsed rules to a diff; returns violation messages.

    A rule whose inputs exist in neither run is skipped; inputs present
    in one run but not the other violate the rule (a vanished artifact
    is a regression, not a pass).
    """
    violations: list[str] = []

    if "drift" in rules:
        threshold = rules["drift"]
        has_a = diff.a.ledger_rows is not None
        has_b = diff.b.ledger_rows is not None
        if has_a != has_b:
            missing = diff.b.path if has_a else diff.a.path
            violations.append(
                f"drift: {missing} has no readable {DAYLEDGER_NAME}"
            )
        else:
            for name, divergence in sorted(diff.series_divergence.items()):
                if divergence > threshold:
                    violations.append(
                        f"drift: series {name!r} diverges by "
                        f"{divergence:.3g} > {threshold:g}"
                    )

    if "degraded" in rules:
        budget = rules["degraded"]
        metrics_b = diff.b.metrics
        if metrics_b is None:
            # A run whose telemetry sink itself degraded away cannot
            # testify about its own health -- that absence is the
            # violation, same as the other rules' vanished-artifact
            # handling.
            violations.append(
                f"degraded: {diff.b.path} has no readable telemetry to "
                f"prove it ran undegraded"
            )
        else:
            counters_b = metrics_b.get("counters") or {}
            degraded = float(counters_b.get("io.degraded", 0)) + float(
                counters_b.get("io.giveups", 0)
            )
            if degraded > budget:
                violations.append(
                    f"degraded: run b degraded {degraded:g} auxiliary "
                    f"write(s) (io.degraded + io.giveups > {budget:g})"
                )

    if "validation" in rules:
        budget = rules["validation"]
        has_a = diff.a.validation is not None
        has_b = diff.b.validation is not None
        if has_a and not has_b:
            violations.append(
                f"validation: {diff.b.path} has no validation artifact"
            )
        elif len(diff.new_misses) > budget:
            names = ", ".join(diff.new_misses)
            violations.append(
                f"validation: {len(diff.new_misses)} previously-passing "
                f"target(s) now miss (> {budget:g}): {names}"
            )

    return violations


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _validation_summary(data: RunData) -> dict | None:
    if data.validation is None:
        return None
    return {
        "passed": data.validation["passed"],
        "total": data.validation["total"],
        "miss": sorted(data.validation["miss"]),
    }


def diff_json(
    diff: RunDiff,
    rules: dict[str, float] | None = None,
    violations: list[str] | None = None,
) -> dict:
    """The diff as a machine-readable document (``repro.diff/v3``).

    Same content as :func:`render_diff` -- counter deltas, validation
    pass/miss, per-series divergence, policy-window means, notes --
    plus the evaluated ``--fail-on`` rules and their violations when a
    gate ran, so a CI consumer reads one artifact instead of scraping
    stdout.
    """
    policy_windows = {
        str(day): {
            name: {
                "a": list(windows["a"]),
                "b": list(windows["b"]),
            }
            for name, windows in sorted(per_series.items())
        }
        for day, per_series in sorted(diff.policy_windows.items())
    }
    document = {
        "schema": DIFF_SCHEMA,
        "run_a": str(diff.a.path),
        "run_b": str(diff.b.path),
        "counter_deltas": {
            name: {"a": va, "b": vb}
            for name, (va, vb) in sorted(diff.counter_deltas.items())
        },
        "validation": {
            "a": _validation_summary(diff.a),
            "b": _validation_summary(diff.b),
            "new_misses": list(diff.new_misses),
        },
        # inf (day-count mismatch, NaN series) is not valid JSON; keep
        # the document strict-parseable for non-Python consumers.
        "series_divergence": {
            name: (divergence if math.isfinite(divergence) else "inf")
            for name, divergence in sorted(diff.series_divergence.items())
        },
        "policy_windows": policy_windows,
        "notes": {"a": list(diff.a.notes), "b": list(diff.b.notes)},
    }
    if rules is not None:
        document["fail_on"] = dict(sorted(rules.items()))
        document["violations"] = list(violations or [])
    return document


def render_diff(diff: RunDiff) -> str:
    """Human-readable diff report."""
    lines = [f"run diff: {diff.a.path}  vs  {diff.b.path}", ""]

    lines.append("final counters differing:")
    if diff.counter_deltas:
        for name, (va, vb) in diff.counter_deltas.items():
            lines.append(f"  {name:<32} {va:>14g}  {vb:>14g}")
    else:
        lines.append("  (none)")

    lines.append("")
    lines.append("validation:")
    for label, data in (("a", diff.a.validation), ("b", diff.b.validation)):
        if data is None:
            lines.append(f"  {label}: no validation artifact")
        else:
            lines.append(f"  {label}: {data['passed']}/{data['total']} in band")
    if diff.new_misses:
        lines.append(f"  newly missing in b: {', '.join(diff.new_misses)}")

    lines.append("")
    lines.append("day-ledger series (max relative divergence):")
    if diff.series_divergence:
        ranked = sorted(
            diff.series_divergence.items(), key=lambda kv: -kv[1]
        )
        shown = 0
        for name, divergence in ranked:
            if shown >= TOP_SERIES and divergence == 0.0:
                break
            lines.append(f"  {name:<28} {divergence:.4g}")
            shown += 1
        zeros = sum(1 for _, d in ranked if d == 0.0)
        if zeros and shown < len(ranked):
            lines.append(f"  ... {len(ranked) - shown} more series identical")
    else:
        lines.append("  (no ledger in one or both runs)")

    if diff.policy_windows:
        lines.append("")
        lines.append(
            f"policy-change windows (+/-{POLICY_WINDOW_DAYS}d means, "
            f"pre -> post):"
        )
        for day, per_series in diff.policy_windows.items():
            lines.append(f"  day {day}:")
            for name in POLICY_KEY_SERIES:
                windows = per_series.get(name)
                if windows is None:
                    continue
                (pa, qa), (pb, qb) = windows["a"], windows["b"]
                lines.append(
                    f"    {name:<24} a: {pa:.4g} -> {qa:.4g}   "
                    f"b: {pb:.4g} -> {qb:.4g}"
                )

    notes = [f"a: {n}" for n in diff.a.notes] + [
        f"b: {n}" for n in diff.b.notes
    ]
    if notes:
        lines.append("")
        lines.append("notes:")
        lines.extend(f"  {note}" for note in notes)
    return "\n".join(lines)
