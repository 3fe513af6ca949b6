"""Render a run's ``telemetry.jsonl`` into a human-readable report.

The report has four sections:

* **span tree** -- every span aggregated by its name-path (the chain
  of ancestor span names), rendered as an indented timing table with
  count / total / self / mean / max columns, where *self* is the total
  minus the totals of the direct child paths (time no child span covers);
* **events** -- point events (checkpoints, heartbeats, faults)
  aggregated by name, with the attributes of the last occurrence;
* **metrics** -- the counters of the *last* metrics snapshot in the
  file (snapshots are cumulative, so the last one is the run's final
  state);
* **resources** -- the resource envelope (peak/mean RSS, CPU
  utilization, GC pauses per phase) when the run recorded one
  (:mod:`~repro.obs.resources`).

Used by ``python -m repro.obs report <run-dir>``; importable directly
for tests and notebooks.  ``report_json`` produces the same content as
a machine-readable document (``repro.report/v1``) for
``report --json [--out]``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .sink import TELEMETRY_NAME

__all__ = [
    "load_events",
    "aggregate_spans",
    "last_metrics",
    "last_resources",
    "render_report",
    "report_json",
    "report_path",
]

REPORT_SCHEMA = "repro.report/v1"


def report_path(target: str | Path) -> Path:
    """Resolve a run directory or explicit file path to the JSONL file."""
    path = Path(target)
    if path.is_dir():
        return path / TELEMETRY_NAME
    return path


def load_events(path: str | Path) -> list[dict]:
    """Parse a telemetry JSONL file into a list of event dicts.

    Raises ``ValueError`` naming the offending line on malformed
    content -- the atomic-flush protocol means a healthy file never
    contains a torn line, so damage is worth surfacing loudly.
    """
    events: list[dict] = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: malformed telemetry line ({exc})"
            ) from None
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{lineno}: event is not a JSON object")
        events.append(event)
    return events


def aggregate_spans(events: list[dict]) -> dict[tuple[str, ...], dict]:
    """Aggregate span events by name-path.

    Returns ``{(root, ..., name): {"count", "total", "max"}}``.  Spans
    whose parent never made it to the file (an open span lost in a
    crash) are treated as roots.
    """
    spans = [e for e in events if e.get("kind") == "span"]
    by_id = {e["id"]: e for e in spans if "id" in e}
    aggregated: dict[tuple[str, ...], dict] = {}
    for span in spans:
        names = [str(span.get("name", "?"))]
        parent = span.get("parent")
        hops = 0
        while parent is not None and parent in by_id and hops < 64:
            ancestor = by_id[parent]
            names.append(str(ancestor.get("name", "?")))
            parent = ancestor.get("parent")
            hops += 1
        path = tuple(reversed(names))
        record = aggregated.setdefault(
            path, {"count": 0, "total": 0.0, "max": 0.0}
        )
        duration = float(span.get("dur", 0.0))
        record["count"] += 1
        record["total"] += duration
        record["max"] = max(record["max"], duration)
    return aggregated


def _self_times(aggregated: dict[tuple[str, ...], dict]) -> dict[tuple[str, ...], float]:
    """Each name-path's total minus the totals of its direct child paths."""
    self_s = {path: record["total"] for path, record in aggregated.items()}
    for path, record in aggregated.items():
        if path[:-1] in self_s:
            self_s[path[:-1]] -= record["total"]
    return self_s


def _render_span_tree(aggregated: dict[tuple[str, ...], dict]) -> list[str]:
    name_width = max(
        [len("  " * (len(path) - 1) + path[-1]) for path in aggregated],
        default=4,
    )
    name_width = max(name_width, len("span"))
    self_s = _self_times(aggregated)
    lines = [
        f"{'span':<{name_width}}  {'count':>7}  {'total_s':>10}  "
        f"{'self_s':>10}  {'mean_s':>10}  {'max_s':>10}"
    ]

    def walk(prefix: tuple[str, ...]) -> None:
        depth = len(prefix)
        children = sorted(
            {
                path[: depth + 1]
                for path in aggregated
                if len(path) > depth and path[:depth] == prefix
            },
            key=lambda p: -aggregated.get(p, {"total": 0.0})["total"],
        )
        for child in children:
            record = aggregated.get(child)
            if record is not None:
                label = "  " * depth + child[-1]
                mean = record["total"] / record["count"]
                lines.append(
                    f"{label:<{name_width}}  {record['count']:>7}  "
                    f"{record['total']:>10.3f}  {self_s[child]:>10.3f}  "
                    f"{mean:>10.4f}  {record['max']:>10.4f}"
                )
            walk(child)

    walk(())
    return lines


def _events_by_name(events: list[dict]) -> dict[str, dict]:
    """Point events grouped by name, names sorted:
    ``{name: {"count", "last_attrs"}}``."""
    by_name: dict[str, dict] = {}
    for event in events:
        if event.get("kind") != "event":
            continue
        name = str(event.get("name", "?"))
        record = by_name.setdefault(name, {"count": 0, "last_attrs": {}})
        record["count"] += 1
        record["last_attrs"] = event.get("attrs") or {}
    return dict(sorted(by_name.items()))


def _render_events(events: list[dict]) -> list[str]:
    by_name = _events_by_name(events)
    if not by_name:
        return []
    lines = ["events:"]
    for name, record in by_name.items():
        last = ", ".join(f"{k}={v}" for k, v in record["last_attrs"].items())
        suffix = f"  (last: {last})" if last else ""
        lines.append(f"  {name} x{record['count']}{suffix}")
    return lines


def _render_metrics(events: list[dict]) -> list[str]:
    # Snapshots from older runs also hold gauges and histograms; only
    # their counters render.
    counters = (last_metrics(events) or {}).get("counters") or {}
    if not counters:
        return []
    width = max(len(name) for name in counters)
    return ["metrics (last snapshot):", "  counters:"] + [
        f"    {name:<{width}}  {value:>14,}" for name, value in counters.items()
    ]


def last_metrics(events: list[dict]) -> dict | None:
    """The final cumulative metrics snapshot in a telemetry stream."""
    snapshot = None
    for event in events:
        if event.get("kind") == "metrics":
            snapshot = event.get("data")
    return snapshot


def last_resources(events: list[dict]) -> dict | None:
    """The final resource-envelope payload in a telemetry stream."""
    summary = None
    for event in events:
        if event.get("kind") == "resources":
            summary = event.get("data")
    return summary


def _render_resources(events: list[dict]) -> list[str]:
    summary = last_resources(events)
    if not summary:
        return []
    lines = ["resources:"]

    def describe(label: str, stats: dict) -> str:
        gc = stats.get("gc") or {}
        return (
            f"  {label:<18} rss peak {stats.get('rss_peak_kb', 0) / 1024:.1f}M"
            f" mean {stats.get('rss_mean_kb', 0) / 1024:.1f}M"
            f"  cpu {stats.get('cpu_utilization', 0.0):.0%}"
            f" ({stats.get('cpu_s', 0.0):.2f}s/"
            f"{stats.get('wall_s', 0.0):.2f}s)"
            f"  gc {gc.get('collections', 0)}x"
            f" {gc.get('pause_total_s', 0.0) * 1000:.1f}ms"
        )

    overall = summary.get("overall")
    if overall:
        lines.append(describe("overall", overall))
    for name, stats in sorted((summary.get("phases") or {}).items()):
        lines.append(describe(name, stats))
    return lines


def report_json(
    events: list[dict], source: str | Path | None = None
) -> dict:
    """The report as a machine-readable document (``repro.report/v1``).

    Same content as :func:`render_report`: the aggregated span tree
    (name-paths joined with ``/``), event counts with last attrs, the
    final metrics snapshot as the run recorded it, and the resource
    envelope when recorded.
    """
    aggregated = aggregate_spans(events)
    self_s = _self_times(aggregated)
    spans = []
    for path in sorted(aggregated):
        record = aggregated[path]
        spans.append(
            {
                "path": "/".join(path),
                "count": record["count"],
                "total_s": round(record["total"], 6),
                "self_s": round(self_s[path], 6),
                "mean_s": round(record["total"] / record["count"], 6),
                "max_s": round(record["max"], 6),
            }
        )
    return {
        "schema": REPORT_SCHEMA,
        "source": str(source) if source is not None else None,
        "events": len(events),
        "spans": spans,
        "events_by_name": _events_by_name(events),
        "metrics": last_metrics(events),
        "resources": last_resources(events),
    }


def render_report(events: list[dict], source: str | Path | None = None) -> str:
    """Full text report for one telemetry event list."""
    header = "telemetry report" + (f": {source}" if source else "")
    sections: list[list[str]] = [[header, f"{len(events)} events"]]
    aggregated = aggregate_spans(events)
    if aggregated:
        sections.append(_render_span_tree(aggregated))
    event_lines = _render_events(events)
    if event_lines:
        sections.append(event_lines)
    metric_lines = _render_metrics(events)
    if metric_lines:
        sections.append(metric_lines)
    resource_lines = _render_resources(events)
    if resource_lines:
        sections.append(resource_lines)
    return "\n\n".join("\n".join(section) for section in sections)
