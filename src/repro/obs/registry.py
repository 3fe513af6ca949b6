"""Run registry: index checkpoint-runner run directories.

Every completed (or in-flight) run directory already carries the
artifacts that describe it -- ``MANIFEST.json``, ``telemetry.jsonl``,
``dayledger.jsonl``, ``validation.json`` / ``validation_report.txt``.
The registry condenses each into one summary record and writes the
collection to ``runs.json`` so cross-run tooling (and humans) can
answer "what runs do I have and how did they do?" without re-parsing
every artifact::

    python -m repro.obs runs index RUNS/          # write RUNS/runs.json
    python -m repro.obs runs list RUNS/           # table to stdout
    python -m repro.obs runs show RUNS/x          # one run, full JSON

Reading is strictly best-effort: a run directory missing any artifact
(telemetry disabled, validation never run, pre-ledger layout) still
indexes -- the corresponding summary section is simply ``null``.  Only
a directory without a readable ``MANIFEST.json`` is skipped (it is not
a run directory).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .analyze import ANALYZE_NAME
from .progress import load_progress
from .report import aggregate_spans, load_events, report_path
from .timeseries import DAYLEDGER_NAME, load_rows, policy_days, rows_to_series

__all__ = [
    "RUNS_INDEX_NAME",
    "VALIDATION_JSON_NAME",
    "PHASE_NAMES",
    "live_status",
    "summarize_run",
    "index_runs",
    "phase_totals",
    "load_validation",
]

RUNS_INDEX_NAME = "runs.json"
VALIDATION_JSON_NAME = "validation.json"
VALIDATION_REPORT_NAME = "validation_report.txt"

#: Top-level phase span names whose totals the registry (and diff)
#: extract from a run's telemetry.
PHASE_NAMES: tuple[str, ...] = (
    "phase1.population",
    "phase2.market",
    "phase3.auctions",
    "runner.run",
)

#: ``[ok  ] name ... measured: 1.234 (...)`` -- the stable line format
#: of ``validation_report.txt``, the fallback when no JSON payload was
#: written.
_REPORT_LINE = re.compile(
    r"^\[(?P<status>ok\s*|MISS)\]\s+(?P<name>\S+)\s+.*"
    r"measured:\s+(?P<measured>\S+)"
)


def phase_totals(events: list[dict]) -> dict[str, float]:
    """Total seconds per phase span name, from telemetry events.

    Aggregates by the *leaf* span name so nesting depth (engine-driven
    vs runner-driven runs) does not matter.
    """
    totals: dict[str, float] = {}
    for path, record in aggregate_spans(events).items():
        name = path[-1]
        if name in PHASE_NAMES:
            totals[name] = totals.get(name, 0.0) + float(record["total"])
    return totals


def last_metrics(events: list[dict]) -> dict | None:
    """The final cumulative metrics snapshot in a telemetry stream."""
    snapshot = None
    for event in events:
        if event.get("kind") == "metrics":
            snapshot = event.get("data")
    return snapshot


def load_validation(run_dir: str | Path) -> dict | None:
    """Validation pass/miss info for a run directory, if any.

    Prefers the machine-readable ``validation.json``; falls back to
    parsing the stable line format of ``validation_report.txt``.
    Returns ``{"passed", "total", "ok": [names], "miss": [names]}`` or
    ``None`` when the run has no validation artifact.
    """
    run_dir = Path(run_dir)
    json_path = run_dir / VALIDATION_JSON_NAME
    if json_path.exists():
        try:
            payload = json.loads(json_path.read_text())
            checks = payload["checks"]
            ok = [c["name"] for c in checks if c["ok"]]
            miss = [c["name"] for c in checks if not c["ok"]]
        except (json.JSONDecodeError, KeyError, TypeError):
            return None
        return {"passed": len(ok), "total": len(checks), "ok": ok, "miss": miss}
    report = run_dir / VALIDATION_REPORT_NAME
    if report.exists():
        ok, miss = [], []
        for line in report.read_text().splitlines():
            match = _REPORT_LINE.match(line)
            if match is None:
                continue
            bucket = ok if match.group("status").startswith("ok") else miss
            bucket.append(match.group("name"))
        if ok or miss:
            return {
                "passed": len(ok),
                "total": len(ok) + len(miss),
                "ok": ok,
                "miss": miss,
            }
    return None


def _ledger_summary(run_dir: Path) -> dict | None:
    path = run_dir / DAYLEDGER_NAME
    if not path.exists():
        return None
    try:
        rows = load_rows(path)
    except (OSError, ValueError):
        return None
    series = rows_to_series(rows)

    def total(name: str) -> float:
        return float(sum(series.get(name, ())))

    clicks = total("clicks")
    spend = total("spend")
    return {
        "days": len(rows),
        "registrations": total("registrations_legit")
        + total("registrations_fraud"),
        "registrations_fraud": total("registrations_fraud"),
        # All stages together; per-stage series stay in the ledger.
        "shutdowns": float(
            sum(
                sum(values)
                for name, values in series.items()
                if name.startswith("shutdowns.")
            )
        ),
        "impressions": total("impressions"),
        "clicks": clicks,
        "spend": spend,
        "fraud_click_share": total("fraud_clicks") / clicks if clicks else 0.0,
        "fraud_spend_share": total("fraud_spend") / spend if spend else 0.0,
        "policy_days": policy_days(rows),
    }


def _analysis_summary(run_dir: Path) -> dict | None:
    """Condensed ``analyze.json`` totals, when the artifact exists.

    Best-effort like every other section: a missing or unreadable
    analysis (pre-analyzer run dirs) summarizes as ``None``, never an
    error -- run ``python -m repro.obs analyze <run-dir>`` to create
    it.
    """
    path = run_dir / ANALYZE_NAME
    if not path.exists():
        return None
    try:
        document = json.loads(path.read_text())
        totals = document["totals"]
        return {
            "anomalies": int(totals["anomalies"]),
            "unexplained_anomalies": int(totals["unexplained_anomalies"]),
            "level_shifts": int(totals["level_shifts"]),
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


#: Post-hoc artifacts the index records the presence of (the read-side
#: outputs: analysis document, dashboard page).
_ARTIFACT_NAMES = (ANALYZE_NAME, "dashboard.html")


def live_status(run_dir: str | Path) -> dict | None:
    """The ``progress.json`` sidecar condensed for the registry.

    Returns ``{"status", "phase", "day", "days", "eta_s",
    "days_per_sec", "degraded", "updated_unix"}`` or ``None`` for
    pre-sidecar run directories (runs recorded before the live-progress
    layer, or with telemetry disabled) -- the table renders those with
    a fallback notice rather than guessing.
    """
    progress = load_progress(run_dir)
    if progress is None:
        return None
    return {
        "status": progress.get("status"),
        "phase": progress.get("phase"),
        "day": progress.get("day"),
        "days": progress.get("days"),
        "eta_s": progress.get("eta_s"),
        "days_per_sec": progress.get("days_per_sec"),
        "degraded": bool(progress.get("degraded")),
        "updated_unix": progress.get("updated_unix"),
    }


def summarize_run(run_dir: str | Path) -> dict | None:
    """One registry record for a run directory.

    Returns ``None`` when the directory has no readable manifest (not a
    run directory); otherwise every other section is best-effort.
    """
    run_dir = Path(run_dir)
    try:
        manifest = json.loads((run_dir / "MANIFEST.json").read_text())
        if not isinstance(manifest, dict):
            return None
    except (OSError, json.JSONDecodeError):
        return None

    chunks = manifest.get("chunks") or []
    summary: dict = {
        "dir": run_dir.name,
        "path": str(run_dir),
        "seed": manifest.get("seed"),
        "days": manifest.get("days"),
        "phase": manifest.get("phase"),
        "config_sha256": manifest.get("config_sha256"),
        "package_version": manifest.get("package_version"),
        "chunks": len(chunks),
        "rows": sum(int(c.get("rows", 0)) for c in chunks),
        "phases_s": None,
        "live": live_status(run_dir),
        "validation": load_validation(run_dir),
        "ledger": _ledger_summary(run_dir),
        "analysis": _analysis_summary(run_dir),
        "artifacts": sorted(
            name for name in _ARTIFACT_NAMES if (run_dir / name).exists()
        ),
    }
    telemetry = report_path(run_dir)
    if telemetry.exists():
        try:
            summary["phases_s"] = phase_totals(load_events(telemetry))
        except ValueError:
            pass
    return summary


def index_runs(root: str | Path, out: str | Path | None = None) -> dict:
    """Scan ``root`` for run directories and build (optionally persist)
    the ``runs.json`` index.

    ``root`` may itself be a run directory or a directory of run
    directories; both shapes index.  The index is written atomically
    when ``out`` is given.
    """
    root = Path(root)
    candidates: list[Path] = []
    if root.is_dir():
        candidates = [root, *sorted(p for p in root.iterdir() if p.is_dir())]
    runs = []
    seen: set[str] = set()
    for candidate in candidates:
        summary = summarize_run(candidate)
        if summary is not None and summary["path"] not in seen:
            seen.add(summary["path"])
            runs.append(summary)
    index = {"schema": "repro.runs/v2", "root": str(root), "runs": runs}
    if out is not None:
        from ..records.atomic import atomic_write_text

        atomic_write_text(out, json.dumps(index, indent=2, sort_keys=True) + "\n")
    return index


def _status_cell(live: dict | None) -> str:
    """One table cell for a run's live status."""
    if live is None:
        return "-"
    status = str(live.get("status") or "?")
    if live.get("degraded"):
        status += "!"
    if status.startswith("running"):
        from .progress import _format_eta

        status += f" {_format_eta(live.get('eta_s'))}"
    return status


def render_runs_table(index: dict) -> str:
    """Human-readable table for ``runs list``."""
    runs = index.get("runs") or []
    if not runs:
        return f"no run directories under {index.get('root')}"
    header = (
        f"{'run':<24} {'phase':<9} {'seed':>10} {'days':>6} {'rows':>10} "
        f"{'valid':>7} {'ledger':>7} {'anom':>6} {'status':<18}"
    )
    lines = [header, "-" * len(header)]
    pre_sidecar = 0
    for run in runs:
        validation = run.get("validation")
        valid = (
            f"{validation['passed']}/{validation['total']}"
            if validation
            else "-"
        )
        ledger = run.get("ledger")
        live = run.get("live")
        if live is None:
            pre_sidecar += 1
        analysis = run.get("analysis")
        if analysis is None:
            # No analyze.json yet: distinct from "analyzed, 0 found".
            anom = "-"
        elif analysis["unexplained_anomalies"]:
            anom = f"{analysis['unexplained_anomalies']}!"
        else:
            anom = str(analysis["anomalies"])
        lines.append(
            f"{run['dir']:<24} {str(run.get('phase')):<9} "
            f"{str(run.get('seed')):>10} {str(run.get('days')):>6} "
            f"{run.get('rows', 0):>10} {valid:>7} "
            f"{(str(ledger['days']) + 'd') if ledger else '-':>7} "
            f"{anom:>6} {_status_cell(live):<18}"
        )
    if pre_sidecar:
        lines.append(
            f"note: {pre_sidecar} run(s) predate the progress sidecar "
            f"(no progress.json); status shown as '-'"
        )
    return "\n".join(lines)
