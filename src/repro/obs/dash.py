"""Self-contained HTML run dashboards: ``python -m repro.obs dash``.

Renders one checkpoint-runner run directory (or a comparison across
several) as a single HTML file with **no external assets** -- styles
inlined, every chart an inline SVG, zero JavaScript -- so the artifact
opens from a CI artifact tab, an scp'd file, or ``file://`` decades
from now.

The output is **byte-deterministic**: same run directory, same bytes.
No clocks, no randomness, no dict-order dependence -- every collection
is explicitly sorted and every float goes through one formatting
helper.  CI renders the dashboard twice and ``cmp``s the two files.

Sections, in order:

* **metadata** -- manifest fields (seed, days, phase, config digest,
  package version) plus registry-style ledger totals;
* **sparklines** -- one inline-SVG sparkline per ledger series
  (:data:`~repro.obs.timeseries.LEDGER_SERIES` plus the flattened
  ``shutdowns.*`` stages), with per-day anomaly markers from
  :mod:`repro.obs.analyze` and a vertical rule on every policy-change
  day -- the Figure-1..6 dynamics at a glance;
* **phase timings** -- horizontal bars from the run's telemetry spans;
* **resources** -- the resource envelope (peak/mean RSS, CPU, GC);
* **validation** -- pass/miss targets from ``validation.json``.

``--compare RUN...`` instead emits a multi-run comparison matrix:
ledger/phase/validation summary rows with one column per run, plus a
sparkline grid of the key health series across runs -- the visual
precursor to the scenario sweep harness (one column per swept
scenario).
"""

from __future__ import annotations

from pathlib import Path

from .analyze import analyze_rows
from .diff import RunData, load_run
from .registry import summarize_run
from .timeseries import policy_days, rows_to_series

__all__ = ["DASHBOARD_NAME", "render_dashboard", "render_compare"]

#: Dashboard artifact name inside a run directory.
DASHBOARD_NAME = "dashboard.html"

#: Sparkline geometry (viewBox units; the page scales them via CSS).
_SPARK_W = 220.0
_SPARK_H = 44.0
_PAD = 3.0

#: Series shown in the ``--compare`` sparkline grid (the health series
#: the paper's figures key on).
_COMPARE_SERIES = (
    "registrations_fraud",
    "fraud_click_share",
    "fraud_spend_share",
    "spend",
    "mean_cpc",
    "active_accounts",
)

_CSS = """\
body{font:14px/1.45 system-ui,sans-serif;margin:24px;color:#1a1a2e;
background:#fafafa}
h1{font-size:20px;margin:0 0 4px}
h2{font-size:15px;margin:28px 0 8px;border-bottom:1px solid #ddd;
padding-bottom:3px}
table{border-collapse:collapse;margin:4px 0}
td,th{padding:2px 10px 2px 0;text-align:left;vertical-align:top;
font-variant-numeric:tabular-nums}
th{font-weight:600;color:#444}
.num{text-align:right}
.grid{display:flex;flex-wrap:wrap;gap:10px 18px}
.cell{width:240px}
.cell .name{font-size:12px;color:#444;margin-bottom:1px}
.cell .range{font-size:11px;color:#888}
.miss{color:#b3261e;font-weight:600}
.ok{color:#1e7d32}
.note{color:#888;font-size:12px}
.bar{fill:#4c6ef5}
.spark{fill:none;stroke:#4c6ef5;stroke-width:1.2}
.area{fill:#4c6ef5;fill-opacity:.12;stroke:none}
.anom{fill:#b3261e}
.anompol{fill:#e8912d}
.policy{stroke:#e8912d;stroke-width:1;stroke-dasharray:2 2}
.zero{stroke:#ccc;stroke-width:.5}
"""


def _fmt(value: float) -> str:
    """The one float formatter every SVG coordinate goes through."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _num(value) -> str:
    """Human-ish number formatting for table cells (deterministic)."""
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.4g}"
    return f"{int(value):,}"


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _scale(values: list[float]) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if lo == hi:
        # Flat series: center the line instead of dividing by zero.
        lo -= 1.0
        hi += 1.0
    return lo, hi


def _spark_svg(
    values: list[float],
    anomalies: list[dict],
    policy: list[int],
) -> str:
    """One sparkline: area + line + policy rules + anomaly dots."""
    n = len(values)
    if n == 0:
        return '<svg class="sparksvg" viewBox="0 0 220 44"></svg>'
    lo, hi = _scale(values)
    span_x = max(n - 1, 1)

    def x(i: int) -> float:
        return _PAD + (_SPARK_W - 2 * _PAD) * i / span_x

    def y(v: float) -> float:
        return _PAD + (_SPARK_H - 2 * _PAD) * (hi - v) / (hi - lo)

    points = " ".join(f"{_fmt(x(i))},{_fmt(y(v))}" for i, v in enumerate(values))
    parts = [
        f'<svg class="sparksvg" viewBox="0 0 {_fmt(_SPARK_W)} '
        f'{_fmt(_SPARK_H)}" width="{_fmt(_SPARK_W)}" '
        f'height="{_fmt(_SPARK_H)}">'
    ]
    if lo < 0.0 < hi:
        zero = _fmt(y(0.0))
        parts.append(
            f'<line class="zero" x1="0" y1="{zero}" '
            f'x2="{_fmt(_SPARK_W)}" y2="{zero}"/>'
        )
    for day in policy:
        if 0 <= day < n:
            px = _fmt(x(day))
            parts.append(
                f'<line class="policy" x1="{px}" y1="0" x2="{px}" '
                f'y2="{_fmt(_SPARK_H)}"/>'
            )
    baseline = _fmt(_SPARK_H - _PAD)
    parts.append(
        f'<polygon class="area" points="{_fmt(x(0))},{baseline} '
        f"{points} {_fmt(x(n - 1))},{baseline}\"/>"
    )
    parts.append(f'<polyline class="spark" points="{points}"/>')
    for anomaly in anomalies:
        day = int(anomaly["day"])
        if 0 <= day < n:
            cls = "anompol" if anomaly.get("near_policy") else "anom"
            parts.append(
                f'<circle class="{cls}" cx="{_fmt(x(day))}" '
                f'cy="{_fmt(y(values[day]))}" r="2.2"/>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _sparkline_section(rows: list[dict], analysis: dict) -> list[str]:
    series = rows_to_series(rows)
    policy = policy_days(rows)
    out = ["<h2>Day-ledger series</h2>"]
    if policy:
        days = ", ".join(str(d) for d in policy)
        out.append(
            f'<p class="note">dashed rule: policy change (day {days}); '
            f"red dot: unexplained anomaly; orange dot: anomaly inside "
            f"a policy settling window</p>"
        )
    out.append('<div class="grid">')
    for name in sorted(series):
        values = series[name]
        anomalies = analysis["anomalies"].get(name, [])
        shifts = analysis["level_shifts"].get(name, [])
        lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
        badges = ""
        if shifts:
            badges += (
                f' <span class="miss">shift@'
                f"{','.join(str(s['day']) for s in shifts)}</span>"
            )
        out.append(
            f'<div class="cell"><div class="name">{_esc(name)}{badges}</div>'
            f"{_spark_svg(values, anomalies, policy)}"
            f'<div class="range">min {_num(lo)} · max {_num(hi)}</div></div>'
        )
    out.append("</div>")
    return out


def _phase_section(phases: dict[str, float] | None) -> list[str]:
    out = ["<h2>Phase timings</h2>"]
    if not phases:
        out.append('<p class="note">no telemetry recorded</p>')
        return out
    longest = max(phases.values()) or 1.0
    out.append("<table>")
    for name in sorted(phases):
        seconds = phases[name]
        width = _fmt(200.0 * seconds / longest)
        out.append(
            f"<tr><th>{_esc(name)}</th>"
            f'<td class="num">{seconds:.3f}s</td>'
            f'<td><svg width="202" height="12" viewBox="0 0 202 12">'
            f'<rect class="bar" x="0" y="1" width="{width}" height="10"/>'
            f"</svg></td></tr>"
        )
    out.append("</table>")
    return out


def _resources_section(resources: dict | None) -> list[str]:
    out = ["<h2>Resources</h2>"]
    if not resources:
        out.append('<p class="note">no resource envelope recorded</p>')
        return out
    out.append(
        "<table><tr><th>scope</th><th>rss peak</th><th>rss mean</th>"
        "<th>cpu</th><th>gc pauses</th></tr>"
    )
    scopes = []
    overall = resources.get("overall")
    if overall:
        scopes.append(("overall", overall))
    scopes.extend(sorted((resources.get("phases") or {}).items()))
    for label, stats in scopes:
        gc = stats.get("gc") or {}
        out.append(
            f"<tr><th>{_esc(label)}</th>"
            f'<td class="num">{stats.get("rss_peak_kb", 0) / 1024:.1f}M</td>'
            f'<td class="num">{stats.get("rss_mean_kb", 0) / 1024:.1f}M</td>'
            f'<td class="num">{stats.get("cpu_utilization", 0.0):.0%}</td>'
            f'<td class="num">{gc.get("collections", 0)}x '
            f'{gc.get("pause_total_s", 0.0) * 1000:.1f}ms</td></tr>'
        )
    out.append("</table>")
    return out


def _validation_section(validation: dict | None) -> list[str]:
    out = ["<h2>Validation</h2>"]
    if validation is None:
        out.append('<p class="note">no validation artifact</p>')
        return out
    out.append(
        f"<p><span class=\"ok\">{validation['passed']}</span>/"
        f"{validation['total']} targets in band</p>"
    )
    if validation["miss"]:
        names = ", ".join(_esc(n) for n in sorted(validation["miss"]))
        out.append(f'<p class="miss">missing: {names}</p>')
    return out


def _metadata_section(run_dir: Path, data: RunData) -> list[str]:
    summary = summarize_run(run_dir) or {}
    ledger = summary.get("ledger") or {}
    rows = [
        ("run", str(run_dir)),
        ("seed", summary.get("seed")),
        ("days", summary.get("days")),
        ("phase", summary.get("phase")),
        ("chunks / rows", f"{summary.get('chunks', 0)} / "
                          f"{_num(summary.get('rows', 0))}"),
        ("config sha256", (summary.get("config_sha256") or "-")[:16]),
        ("package version", summary.get("package_version")),
        ("ledger days", ledger.get("days")),
        ("registrations (fraud)",
         f"{_num(ledger.get('registrations'))} "
         f"({_num(ledger.get('registrations_fraud'))})"),
        ("shutdowns", _num(ledger.get("shutdowns"))),
        ("spend", _num(ledger.get("spend"))),
        ("fraud click share",
         f"{ledger['fraud_click_share']:.4f}" if ledger else "-"),
    ]
    out = ["<h2>Run</h2>", "<table>"]
    for label, value in rows:
        if isinstance(value, (int, float)) or value is None:
            value = _num(value)
        out.append(f"<tr><th>{_esc(label)}</th><td>{_esc(value)}</td></tr>")
    out.append("</table>")
    if data.notes:
        out.append(
            '<p class="note">notes: '
            + "; ".join(_esc(n) for n in data.notes)
            + "</p>"
        )
    return out


def _page(title: str, body: list[str]) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>\n{_CSS}</style></head>\n<body>\n"
        f"<h1>{_esc(title)}</h1>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def render_dashboard(run_dir: str | Path) -> str:
    """The full single-run dashboard as an HTML string.

    Raises ``FileNotFoundError`` when ``run_dir`` is not a directory;
    every missing artifact inside it renders as an explicit notice
    instead (a run without telemetry still has a ledger worth seeing,
    and vice versa).
    """
    run_dir = Path(run_dir)
    data = load_run(run_dir)
    body = _metadata_section(run_dir, data)
    if data.ledger_rows is not None:
        analysis = analyze_rows(data.ledger_rows)
        body += _sparkline_section(data.ledger_rows, analysis)
        totals = analysis["totals"]
        body.append(
            f'<p class="note">analysis: {totals["anomalies"]} anomalies '
            f'({totals["unexplained_anomalies"]} unexplained), '
            f'{totals["level_shifts"]} level shift(s)</p>'
        )
    else:
        body.append("<h2>Day-ledger series</h2>")
        body.append('<p class="note">no readable day ledger</p>')
    body += _phase_section(data.phases)
    body += _resources_section(data.resources)
    body += _validation_section(data.validation)
    return _page(f"repro run — {run_dir.name}", body)


# ----------------------------------------------------------------------
# multi-run comparison
# ----------------------------------------------------------------------


def _compare_rows(runs: list["_CompareRun"]) -> list[str]:
    """The summary matrix: one column per run."""

    def row(label: str, cells: list[str], cls: str = "num") -> str:
        tds = "".join(f'<td class="{cls}">{cell}</td>' for cell in cells)
        return f"<tr><th>{_esc(label)}</th>{tds}</tr>"

    headers = "".join(f"<th>{_esc(run.path.name)}</th>" for run in runs)
    out = ["<h2>Comparison matrix</h2>", "<table>",
           f"<tr><th></th>{headers}</tr>"]

    def summary_cell(summary: dict, *path, fmt=_num) -> str:
        value = summary
        for key in path:
            value = (value or {}).get(key) if isinstance(value, dict) else None
        return fmt(value) if value is not None else "-"

    rows: list[tuple[str, tuple, object]] = [
        ("seed", ("seed",), _num),
        ("days", ("days",), _num),
        ("rows", ("rows",), _num),
        ("ledger days", ("ledger", "days"), _num),
        ("registrations", ("ledger", "registrations"), _num),
        ("fraud registrations", ("ledger", "registrations_fraud"), _num),
        ("shutdowns", ("ledger", "shutdowns"), _num),
        ("spend", ("ledger", "spend"), _num),
        ("fraud click share", ("ledger", "fraud_click_share"),
         lambda v: f"{v:.4f}"),
        ("fraud spend share", ("ledger", "fraud_spend_share"),
         lambda v: f"{v:.4f}"),
    ]
    for label, path, fmt in rows:
        out.append(
            row(
                label,
                [summary_cell(run.summary, *path, fmt=fmt) for run in runs],
            )
        )
    phase_names = sorted(
        {name for run in runs for name in (run.data.phases or {})}
    )
    for name in phase_names:
        out.append(
            row(
                f"{name} (s)",
                [
                    f"{run.data.phases[name]:.3f}"
                    if run.data.phases and name in run.data.phases
                    else "-"
                    for run in runs
                ],
            )
        )
    out.append(
        row(
            "validation",
            [
                f"{run.data.validation['passed']}"
                f"/{run.data.validation['total']}"
                if run.data.validation
                else "-"
                for run in runs
            ],
        )
    )
    rss_cells = []
    for run in runs:
        peak = ((run.data.resources or {}).get("overall") or {}).get(
            "rss_peak_kb"
        )
        rss_cells.append(f"{peak / 1024:.1f}M" if peak is not None else "-")
    out.append(row("peak rss", rss_cells))
    out.append(
        row(
            "anomalies (unexplained)",
            [
                (
                    f"{run.analysis['totals']['anomalies']} "
                    f"({run.analysis['totals']['unexplained_anomalies']})"
                )
                if run.analysis is not None
                else "-"
                for run in runs
            ],
        )
    )
    out.append("</table>")
    return out


class _CompareRun:
    """One run's artifacts loaded once for the comparison page."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data: RunData = load_run(path)  # raises when absent
        self.summary: dict = summarize_run(path) or {}
        self.analysis: dict | None = (
            analyze_rows(self.data.ledger_rows)
            if self.data.ledger_rows is not None
            else None
        )


def _compare_sparklines(runs: list[_CompareRun]) -> list[str]:
    out = ["<h2>Health series per run</h2>"]
    out.append("<table><tr><th></th>")
    for run in runs:
        out.append(f"<th>{_esc(run.path.name)}</th>")
    out.append("</tr>")
    for name in _COMPARE_SERIES:
        cells = []
        for run in runs:
            if run.data.ledger_rows is None or run.analysis is None:
                cells.append('<td class="note">no ledger</td>')
                continue
            series = rows_to_series(run.data.ledger_rows).get(name, [])
            cells.append(
                "<td>"
                + _spark_svg(
                    series,
                    run.analysis["anomalies"].get(name, []),
                    policy_days(run.data.ledger_rows),
                )
                + "</td>"
            )
        out.append(f"<tr><th>{_esc(name)}</th>{''.join(cells)}</tr>")
    out.append("</table>")
    return out


def render_compare(run_dirs: list[str | Path]) -> str:
    """The multi-run comparison dashboard as an HTML string."""
    runs = [_CompareRun(Path(run_dir)) for run_dir in run_dirs]
    body = _compare_rows(runs) + _compare_sparklines(runs)
    names = ", ".join(run.path.name for run in runs)
    return _page(f"repro runs — {names}", body)
