"""Observability CLI: run reports, live progress, cross-run diffs, and
ledger analysis.

::

    python -m repro.obs report RUNS/x             # timing/metric report
    python -m repro.obs report RUNS/x --json      # machine-readable
    python -m repro.obs watch RUNS/x              # live progress tail
    python -m repro.obs watch RUNS/x --once       # one status line
    python -m repro.obs diff RUNS/a RUNS/b        # compare two runs
    python -m repro.obs diff RUNS/a RUNS/b --fail-on drift=0,validation=0
    python -m repro.obs analyze RUNS/x            # anomalies -> analyze.json
    python -m repro.obs analyze RUNS/x --fail-on anomalies=0

Reports go to stdout; diagnostics go to stderr via logging.  ``diff``
and ``analyze`` exit 0 when every ``--fail-on`` rule holds, 1 on a
violation, and 2 when inputs are unreadable or a rule is malformed
(an unknown name, or a threshold that is not a finite number >= 0).
``report`` and ``watch`` on a run with missing telemetry or sidecar
print a notice and exit 0 -- absent telemetry is a normal state (a run
that has not flushed yet, or whose telemetry writes degraded), not an
error.
``analyze`` exits 2 on an unreadable ledger: it produces an artifact,
so a silent no-op would masquerade as success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from ..records.atomic import atomic_write_text
from .logsetup import get_logger, setup_logging
from .report import load_events, render_report, report_json, report_path
from .timeseries import ANALYZE_NAME

log = get_logger("obs.cli")


def _print(text: str) -> None:
    """Print, tolerating a consumer that closed the pipe early."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream consumer closed early (`... | head`): normal for a
        # report CLI.  Point stdout at devnull so the interpreter's
        # exit-time flush doesn't raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_report(args: argparse.Namespace) -> int:
    path = report_path(args.target)
    if not path.exists():
        _print(f"no telemetry found at {path} (run recorded none)")
        return 0
    try:
        events = load_events(path)
    except ValueError as exc:
        _print(f"no usable telemetry at {path}: {exc}")
        return 0
    if args.json:
        document = report_json(events, source=path)
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.out is not None:
            atomic_write_text(args.out, text + "\n")
            _print(f"wrote report -> {args.out}")
        else:
            _print(text)
        return 0
    if args.out is not None:
        log.error("--out requires --json")
        return 2
    _print(render_report(events, source=path))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .progress import PROGRESS_NAME, load_progress, render_progress

    def line() -> str | None:
        progress = load_progress(args.run_dir)
        if progress is None:
            return None
        stale_s = None
        updated = progress.get("updated_unix")
        if updated is not None:
            stale_s = max(0.0, time.time() - float(updated))
            if stale_s < 2 * max(args.interval, 1.0):
                stale_s = None
        return render_progress(progress, stale_s=stale_s)

    if args.once:
        rendered = line()
        if rendered is None:
            _print(
                f"no {PROGRESS_NAME} under {args.run_dir} "
                f"(pre-sidecar run, or not started yet)"
            )
        else:
            _print(rendered)
        return 0

    last = None
    try:
        while True:
            rendered = line()
            if rendered is None:
                if last is None:
                    _print(f"waiting for {PROGRESS_NAME} in {args.run_dir}...")
                    last = "waiting"
            elif rendered != last:
                _print(rendered)
                last = rendered
            if rendered is not None and not rendered.startswith("running"):
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .diff import (
        diff_json,
        diff_runs,
        evaluate_fail_on,
        load_run,
        parse_fail_on,
        render_diff,
    )

    try:
        rules = parse_fail_on(args.fail_on)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    if args.out is not None and not args.json:
        log.error("--out requires --json")
        return 2
    # A missing run directory (FileNotFoundError) exits 2 in main().
    diff = diff_runs(load_run(args.run_a), load_run(args.run_b))
    violations = evaluate_fail_on(diff, rules)
    if args.json:
        document = diff_json(diff, rules=rules or None, violations=violations)
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.out is not None:
            atomic_write_text(args.out, text + "\n")
            _print(f"wrote diff -> {args.out}")
        else:
            _print(text)
        return 1 if violations else 0
    _print(render_diff(diff))
    if violations:
        _print("")
        _print("FAIL:")
        for violation in violations:
            _print(f"  {violation}")
        return 1
    if rules:
        _print("")
        _print(f"ok: {len(rules)} rule(s) held")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analyze import (
        analysis_json,
        analysis_to_text,
        analyze_run,
        evaluate_analyze_fail_on,
        parse_analyze_fail_on,
    )

    try:
        rules = parse_analyze_fail_on(args.fail_on)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    # A missing ledger (FileNotFoundError) exits 2 in main().
    try:
        document = analyze_run(args.run_dir)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    out = args.out
    if out is None:
        out = Path(args.run_dir) / ANALYZE_NAME
    # The artifact never embeds gate results: its bytes depend only on
    # the ledger, so re-running with different --fail-on rules (or none)
    # leaves it byte-identical -- the determinism CI cmp-gates on.
    atomic_write_text(out, analysis_json(document))
    violations = evaluate_analyze_fail_on(document, rules)
    if args.json:
        # Keep stdout strictly the document; violations go to stderr
        # (the exit code is the machine-readable verdict).
        _print(json.dumps(document, indent=2, sort_keys=True))
        for violation in violations:
            log.error("FAIL: %s", violation)
        return 1 if violations else 0
    _print(analysis_to_text(document, source=args.run_dir))
    _print("")
    _print(f"wrote analysis -> {out}")
    if violations:
        _print("")
        _print("FAIL:")
        for violation in violations:
            _print(f"  {violation}")
        return 1
    if rules:
        _print(f"ok: {len(rules)} rule(s) held")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect, compare and analyze run directories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render telemetry.jsonl as a timing/metric report"
    )
    report.add_argument(
        "target",
        type=Path,
        help="run directory (containing telemetry.jsonl) or a JSONL file",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the report as a JSON document (repro.report/v1)",
    )
    report.add_argument(
        "--out",
        type=Path,
        default=None,
        help="with --json: write the document here instead of stdout",
    )
    report.set_defaults(func=_cmd_report)

    watch = sub.add_parser(
        "watch", help="tail a run's progress.json sidecar as status lines"
    )
    watch.add_argument(
        "run_dir", type=Path, help="checkpoint-runner run directory"
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="print the current status line and exit",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default: 2)",
    )
    watch.set_defaults(func=_cmd_watch)

    diff = sub.add_parser(
        "diff", help="compare two run directories (ledger, validation, counters)"
    )
    diff.add_argument("run_a", type=Path, help="baseline run directory")
    diff.add_argument("run_b", type=Path, help="candidate run directory")
    diff.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="RULE=THRESHOLD",
        help=(
            "gate rule(s): drift=FRAC (ledger series divergence), "
            "validation=N (new misses), degraded=N (lost auxiliary "
            "writes); repeatable or comma-separated"
        ),
    )
    diff.add_argument(
        "--json",
        action="store_true",
        help="emit the diff as a JSON document (repro.diff/v3)",
    )
    diff.add_argument(
        "--out",
        type=Path,
        default=None,
        help="with --json: write the document here instead of stdout",
    )
    diff.set_defaults(func=_cmd_diff)

    analyze = sub.add_parser(
        "analyze",
        help="detect ledger anomalies/level shifts -> analyze.json",
    )
    analyze.add_argument(
        "run_dir", type=Path, help="run directory containing dayledger.jsonl"
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the analysis document (repro.analyze/v1) to stdout",
    )
    analyze.add_argument(
        "--out",
        type=Path,
        default=None,
        help="where to write analyze.json (default: <run-dir>/analyze.json)",
    )
    analyze.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="RULE=N",
        help=(
            "gate rule(s): anomalies=N (unexplained point anomalies), "
            "level_shifts=N (shifts away from policy days); repeatable "
            "or comma-separated"
        ),
    )
    analyze.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    setup_logging()
    try:
        return args.func(args)
    except OSError as exc:
        # An unreadable input or an unwritable --out: one error line.
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
