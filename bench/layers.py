"""Per-layer tracing for the benchmark, recorded from outside the program.

:class:`LayerTrace` takes the program's own ``repro.obs`` spans and
counters through a memory sink, wraps the public entry point of every
layer the program does not time itself for the duration of a ``with``
block, recording one span per call (name, start, end) in memory, and
times garbage-collector pauses through ``gc.callbacks``.  On exit every
wrapper, the sink and the callback are removed again.

Nothing under ``src/`` is edited.  Where a module bound a name with
``from ... import``, the wrapper is installed in that module's namespace
as well; ``materialize_account_batch`` is bound as a default argument of
``SimulationEngine._plan_account``, so that function's ``__defaults__``
is patched.

Spans are properly nested (one thread calls every wrapped function), so
the parent of a span is the innermost span that contains it, whichever
recorder it came from.  A span's self time is its duration minus that
of its children.  The benchmark's own operations are recorded as
``op.*`` spans; their self time is the wall time no layer span covers
(``unattributed_s``).
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import statistics
import time
import types
from collections import Counter
from importlib import import_module
from pathlib import Path

from repro import obs

#: Every per-layer metric, with its unit, in report order.
#: ``trace_overhead_frac`` needs an untraced reference run, so
#: ``bench/run.py`` fills it in; everything else comes from
#: :meth:`LayerTrace.metrics`.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("simulator.population_s", "s"),
    ("simulator.population.draws_s", "s"),
    ("simulator.population.build_s", "s"),
    ("simulator.market_build_s", "s"),
    ("simulator.auctions_s", "s"),
    ("simulator.auctions.self_s", "s"),
    ("simulator.days", "count"),
    ("behavior.profile_s", "s"),
    ("behavior.profiles", "count"),
    ("behavior.materialize_s", "s"),
    ("behavior.accounts_materialized", "count"),
    ("behavior.materialize_us_per_account", "us"),
    ("detection.screen_s", "s"),
    ("detection.evaluate_s", "s"),
    ("detection.commit_s", "s"),
    ("detection.calls", "count"),
    ("detection.commits", "count"),
    ("querygen.sample_day_s", "s"),
    ("querygen.queries", "count"),
    ("market.day_buckets_s", "s"),
    ("market.gather_s", "s"),
    ("market.candidates", "count"),
    ("auction.kernel_s", "s"),
    ("auction.candidates", "count"),
    ("auction.shown", "count"),
    ("auction.shown_per_candidate", "ratio"),
    ("records.add_batch_s", "s"),
    ("records.rows", "count"),
    ("records.build_s", "s"),
    ("records.chunk_encode_s", "s"),
    ("records.chunk_encode_mb", "MB"),
    ("records.chunk_decode_s", "s"),
    ("records.atomic_write_s", "s"),
    ("records.atomic_writes", "count"),
    ("records.atomic_write_mb", "MB"),
    ("records.atomic_write_p50_ms", "ms"),
    ("records.atomic_write_p90_ms", "ms"),
    ("records.sha256_s", "s"),
    ("records.sha256_mb", "MB"),
    ("io.retries", "count"),
    ("io.giveups", "count"),
    ("runner.snapshot_dump_s", "s"),
    ("runner.snapshot_load_s", "s"),
    ("runner.snapshot_mb", "MB"),
    ("runner.manifest_save_s", "s"),
    ("runner.manifest_saves", "count"),
    ("runner.manifest_kb", "KB"),
    ("runner.self_s", "s"),
    ("obs.telemetry_flush_s", "s"),
    ("obs.telemetry_mb", "MB"),
    ("obs.events", "count"),
    ("obs.ledger_flush_s", "s"),
    ("obs.progress_write_s", "s"),
    ("obs.progress_writes", "count"),
    ("doctor.verify_s", "s"),
    ("doctor.repair_s", "s"),
    ("validation.run_s", "s"),
    ("validation.passed", "count"),
    ("experiments.all_s", "s"),
    ("experiments.max_s", "s"),
    ("experiments.count", "count"),
    ("runtime.gc_pause_s", "s"),
    ("runtime.gc_max_pause_s", "s"),
    ("runtime.gc_collections", "count"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)

#: The program's own spans (``repro.obs``) taken into the span tree,
#: renamed to the layer they time.  Layers the program already times
#: are not wrapped again.
_OBS_SPANS = {
    "runner.run": "runner.run",
    "phase1.population": "simulator.population",
    "phase1.draws": "simulator.population.draws",
    "phase1.build": "simulator.population.build",
    "phase2.market": "simulator.market_build",
    "phase3.auctions": "simulator.auctions",
    "auction.gather": "market.gather",
    "auction.kernel": "auction.kernel",
}

#: The program's ``repro.obs`` counters, read as before/after deltas.
_OBS_COUNTERS = {
    "population.accounts_materialized": "behavior.accounts_materialized",
    "auction.queries_sampled": "querygen.queries",
    "auction.candidates_gathered": "market.candidates",
    "auction.kernel_candidates": "auction.candidates",
    "auction.kernel_shown": "auction.shown",
    "io.retries": "io.retries",
    "io.giveups": "io.giveups",
}

#: Layer metric -> span name whose number of calls it reports.
_SPAN_COUNTS = {
    "behavior.profiles": ("behavior.profile",),
    "detection.calls": ("detection.screen", "detection.evaluate"),
    "detection.commits": ("detection.commit",),
    "records.atomic_writes": ("records.atomic_write",),
    "runner.manifest_saves": ("runner.manifest_save",),
    "obs.progress_writes": ("obs.progress_write",),
    "experiments.count": ("experiments.run",),
}

#: Layer metric -> span name whose inclusive time it reports.
_SPAN_TOTALS = {
    "simulator.population_s": "simulator.population",
    "simulator.population.draws_s": "simulator.population.draws",
    "simulator.population.build_s": "simulator.population.build",
    "simulator.market_build_s": "simulator.market_build",
    "simulator.auctions_s": "simulator.auctions",
    "behavior.profile_s": "behavior.profile",
    "behavior.materialize_s": "behavior.materialize",
    "detection.screen_s": "detection.screen",
    "detection.evaluate_s": "detection.evaluate",
    "detection.commit_s": "detection.commit",
    "querygen.sample_day_s": "querygen.sample_day",
    "market.day_buckets_s": "market.day_buckets",
    "market.gather_s": "market.gather",
    "auction.kernel_s": "auction.kernel",
    "records.add_batch_s": "records.add_batch",
    "records.build_s": "records.build",
    "records.chunk_encode_s": "records.chunk_encode",
    "records.chunk_decode_s": "records.chunk_decode",
    "records.atomic_write_s": "records.atomic_write",
    "records.sha256_s": "records.sha256",
    "runner.snapshot_dump_s": "runner.snapshot_dump",
    "runner.snapshot_load_s": "runner.snapshot_load",
    "runner.manifest_save_s": "runner.manifest_save",
    "obs.telemetry_flush_s": "obs.telemetry_flush",
    "obs.ledger_flush_s": "obs.ledger_flush",
    "obs.progress_write_s": "obs.progress_write",
    "doctor.verify_s": "doctor.verify",
    "doctor.repair_s": "doctor.repair",
    "validation.run_s": "validation.run",
    "experiments.all_s": "experiments.run",
}

#: Percentiles are shown in the table only from this many samples on.
MIN_PERCENTILE_SAMPLES = 20

#: Tolerance for span containment: engine spans are rounded to 1 us.
_EPS = 2e-6

_MB = 1e6


def _count(key: str, amount):
    """A wrapper measure adding ``amount(args, kwargs, result)`` to ``key``."""

    def measure(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)

    return measure


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = q * (len(ordered) - 1)
    low = int(index)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (index - low)


class LayerTrace:
    """Spans around every layer's entry points, for one ``with`` block."""

    def __init__(self) -> None:
        #: ``(name, start, end)`` in ``time.perf_counter`` seconds.
        self.spans: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        #: ``(start, end)`` of every garbage-collector pause.
        self.gc_pauses: list[tuple[float, float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sink: obs.MemorySink | None = None
        self._gc_start: float | None = None
        self._counters_before: dict[str, float] = {}
        self._obs_epoch = 0.0

    # -- install / remove ----------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str, measure=None):
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock()))
            if measure is not None:
                measure(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, owner, attr: str, name: str, measure=None) -> None:
        self._set(owner, attr, self._wrap(getattr(owner, attr), name, measure))

    def install(self) -> None:
        """Wrap every layer boundary and start collecting."""
        if self._patches:
            raise RuntimeError("LayerTrace is already installed")
        engine = import_module("repro.simulator.engine")
        atomic = import_module("repro.records.atomic")
        columnar = import_module("repro.records.columnar")
        runner = import_module("repro.runner.runner")
        doctor = import_module("repro.runner.doctor")
        Engine = engine.SimulationEngine

        # simulator (phase1.population, phase3.auctions) and auction
        # (auction.kernel) come from the program's spans.
        # behavior
        for attr in ("sample_fraud_profile", "sample_legitimate_profile"):
            self._patch(engine, attr, "behavior.profile")
        plan = Engine._plan_account
        (materializer,) = plan.__defaults__
        self._set(
            plan, "__defaults__", (self._wrap(materializer, "behavior.materialize"),)
        )
        # detection
        pipeline = import_module("repro.detection.pipeline").DetectionPipeline
        self._patch(pipeline, "screen_registration", "detection.screen")
        self._patch(pipeline, "evaluate_fraud_account", "detection.evaluate")
        self._patch(pipeline, "evaluate_legitimate_account", "detection.evaluate")
        self._patch(pipeline, "commit", "detection.commit")
        # querygen + market
        self._patch(
            import_module("repro.simulator.querygen").QuerySampler,
            "sample_day",
            "querygen.sample_day",
        )
        self._patch(
            import_module("repro.simulator.market").MarketIndex,
            "day_buckets",
            "market.day_buckets",
        )
        # records
        builder = import_module("repro.records.impressions").ImpressionBuilder
        self._patch(
            builder,
            "add_batch",
            "records.add_batch",
            _count("records.rows", lambda a, k, r: len(k["day"])),
        )
        self._patch(builder, "build", "records.build")
        encode = _count("records.chunk_encode_bytes", lambda a, k, r: len(r))
        self._patch(runner, "chunk_to_bytes", "records.chunk_encode", encode)
        self._patch(doctor, "chunk_to_bytes", "records.chunk_encode", encode)
        self._patch(runner, "load_chunk", "records.chunk_decode")
        write = _count(
            "records.atomic_write_bytes",
            lambda a, k, r: len(_arg(a, k, 1, "data")),
        )
        for module in (atomic, runner, doctor, columnar):
            self._patch(module, "atomic_write_bytes", "records.atomic_write", write)
        hashed_bytes = _count(
            "records.sha256_bytes", lambda a, k, r: len(_arg(a, k, 0, "data"))
        )
        hashed_file = _count(
            "records.sha256_bytes",
            lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
        )
        for module in (runner, doctor, columnar):
            self._patch(module, "sha256_bytes", "records.sha256", hashed_bytes)
        for module in (runner, doctor):
            self._patch(module, "sha256_file", "records.sha256", hashed_file)
        # runner
        dump = _count("runner.snapshot_bytes", lambda a, k, r: len(r))
        load = _count("runner.snapshot_bytes", lambda a, k, r: len(a[0]))
        for module in (runner, doctor):
            self._set(
                module,
                "pickle",
                types.SimpleNamespace(
                    dumps=self._wrap(pickle.dumps, "runner.snapshot_dump", dump),
                    loads=self._wrap(pickle.loads, "runner.snapshot_load", load),
                    HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
                ),
            )
        self._patch(
            import_module("repro.runner.manifest").RunManifest,
            "save",
            "runner.manifest_save",
            _count(
                "runner.manifest_bytes",
                lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
            ),
        )
        # obs
        self._patch(
            import_module("repro.obs.sink").JsonlSink,
            "flush",
            "obs.telemetry_flush",
            _count(
                "obs.telemetry_bytes",
                lambda a, k, r: a[0].path.stat().st_size if a[0].path.exists() else 0,
            ),
        )
        self._patch(
            import_module("repro.obs.timeseries").DayLedger, "flush", "obs.ledger_flush"
        )
        self._patch(
            import_module("repro.obs.progress").ProgressSink,
            "write",
            "obs.progress_write",
        )
        # doctor / validation / experiments
        self._patch(doctor, "verify_run", "doctor.verify")
        self._patch(doctor, "repair_run", "doctor.repair")
        self._patch(
            import_module("repro.validation"),
            "run_validation",
            "validation.run",
            _count("validation.passed", lambda a, k, r: sum(c.ok for c in r)),
        )
        self._patch(
            import_module("repro.experiments.registry"),
            "run_experiment",
            "experiments.run",
        )

        registry = obs.metrics()
        self._counters_before = {
            name: registry.counter(name).value for name in _OBS_COUNTERS
        }
        self._obs_epoch = time.perf_counter() - obs.tracer().now()
        self._sink = obs.MemorySink()
        obs.add_sink(self._sink)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Remove every wrapper, the sink and the GC callback."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        if self._sink is not None:
            obs.remove_sink(self._sink)
            self._absorb_obs_events(self._sink.events)
            self._sink = None
            registry = obs.metrics()
            for name, key in _OBS_COUNTERS.items():
                self.counts[key] += (
                    registry.counter(name).value - self._counters_before[name]
                )
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append((self._gc_start, time.perf_counter()))
            self._gc_start = None

    def _absorb_obs_events(self, events: list[dict]) -> None:
        self.counts["obs.events"] += len(events)
        for event in events:
            if event.get("kind") != "span":
                continue
            name = event["name"]
            if name == "phase3.day":
                self.counts["simulator.days"] += 1
            layer = _OBS_SPANS.get(name)
            if layer is not None:
                start = self._obs_epoch + event["start"]
                self.spans.append((layer, start, start + event["dur"]))

    # -- analysis ------------------------------------------------------

    def tree(self) -> list[dict]:
        """Every span with its parent index and self time, by start."""
        ordered = sorted(self.spans, key=lambda s: (s[1], -s[2]))
        nodes: list[dict] = []
        stack: list[int] = []
        for name, start, end in ordered:
            while stack and not (
                nodes[stack[-1]]["start"] - _EPS <= start
                and end <= nodes[stack[-1]]["end"] + _EPS
            ):
                stack.pop()
            parent = stack[-1] if stack else None
            node = {
                "name": name,
                "start": start,
                "end": end,
                "dur": end - start,
                "parent": parent,
                "self": end - start,
            }
            if parent is not None:
                nodes[parent]["self"] -= node["dur"]
            stack.append(len(nodes))
            nodes.append(node)
        for node in nodes:
            node["self"] = max(0.0, node["self"])
        return nodes

    def by_name(self) -> dict[str, dict]:
        """Count, inclusive total, self total and durations per span name."""
        table: dict[str, dict] = {}
        for node in self.tree():
            row = table.setdefault(
                node["name"], {"count": 0, "total": 0.0, "self": 0.0, "durs": []}
            )
            row["count"] += 1
            row["total"] += node["dur"]
            row["self"] += node["self"]
            row["durs"].append(node["dur"])
        return table

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace_overhead_frac``."""
        table = self.by_name()
        empty = {"count": 0, "total": 0.0, "self": 0.0, "durs": []}

        def row(name: str) -> dict:
            return table.get(name, empty)

        counts = self.counts
        out: dict[str, float] = {
            metric: row(span)["total"] for metric, span in _SPAN_TOTALS.items()
        }
        out["simulator.auctions.self_s"] = row("simulator.auctions")["self"]
        out["runner.self_s"] = row("runner.run")["self"]
        for metric, spans in _SPAN_COUNTS.items():
            out[metric] = sum(row(span)["count"] for span in spans)
        for key in (
            "simulator.days",
            "records.rows",
            "obs.events",
            "validation.passed",
            *_OBS_COUNTERS.values(),
        ):
            out[key] = counts[key]
        materialized = counts["behavior.accounts_materialized"]
        out["behavior.materialize_us_per_account"] = (
            out["behavior.materialize_s"] / materialized * 1e6 if materialized else 0.0
        )
        candidates = counts["auction.candidates"]
        out["auction.shown_per_candidate"] = (
            counts["auction.shown"] / candidates if candidates else 0.0
        )
        out["records.chunk_encode_mb"] = counts["records.chunk_encode_bytes"] / _MB
        writes = row("records.atomic_write")["durs"]
        out["records.atomic_write_mb"] = counts["records.atomic_write_bytes"] / _MB
        out["records.atomic_write_p50_ms"] = (
            _quantile(writes, 0.5) * 1e3 if writes else 0.0
        )
        out["records.atomic_write_p90_ms"] = (
            _quantile(writes, 0.9) * 1e3 if writes else 0.0
        )
        out["records.sha256_mb"] = counts["records.sha256_bytes"] / _MB
        out["runner.snapshot_mb"] = counts["runner.snapshot_bytes"] / _MB
        out["runner.manifest_kb"] = counts["runner.manifest_bytes"] / 1e3
        out["obs.telemetry_mb"] = counts["obs.telemetry_bytes"] / _MB
        out["experiments.max_s"] = max(row("experiments.run")["durs"], default=0.0)
        pauses = [end - start for start, end in self.gc_pauses]
        out["runtime.gc_pause_s"] = sum(pauses)
        out["runtime.gc_max_pause_s"] = max(pauses, default=0.0)
        out["runtime.gc_collections"] = len(pauses)
        out["unattributed_s"] = sum(
            entry["self"] for name, entry in table.items() if name.startswith("op.")
        )
        return out

    # -- output --------------------------------------------------------

    def render_table(self) -> str:
        """Per-span-name table: count, total, self, p50/p90 (n >= 20)."""
        lines = [
            f"{'span':34s} {'n':>7s} {'total_s':>10s} {'self_s':>10s} "
            f"{'p50_ms':>9s} {'p90_ms':>9s}"
        ]
        table = self.by_name()
        for name, row in sorted(table.items(), key=lambda item: -item[1]["total"]):
            if row["count"] >= MIN_PERCENTILE_SAMPLES:
                p50 = f"{statistics.median(row['durs']) * 1e3:9.3f}"
                p90 = f"{_quantile(row['durs'], 0.9) * 1e3:9.3f}"
            else:
                p50 = p90 = f"{'-':>9s}"
            lines.append(
                f"{name:34s} {row['count']:7d} {row['total']:10.4f} "
                f"{row['self']:10.4f} {p50} {p90}"
            )
        pauses = [end - start for start, end in self.gc_pauses]
        lines.append(
            f"gc: {len(pauses)} collections, {sum(pauses):.4f} s paused, "
            f"longest {max(pauses, default=0.0):.4f} s"
        )
        return "\n".join(lines) + "\n"

    def chrome_trace(self) -> dict:
        """The spans and GC pauses as Chrome ``trace_event`` JSON."""
        nodes = self.tree()
        origin = min(
            [node["start"] for node in nodes] + [s for s, _ in self.gc_pauses],
            default=0.0,
        )
        events = [
            {
                "name": node["name"],
                "cat": node["name"].split(".")[0],
                "ph": "X",
                "ts": round((node["start"] - origin) * 1e6, 3),
                "dur": round(node["dur"] * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            for node in nodes
        ]
        events += [
            {
                "name": "gc",
                "cat": "runtime",
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 2,
            }
            for start, end in self.gc_pauses
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, out_dir: Path, stem: str) -> None:
        """Write ``<stem>.trace.json`` and ``<stem>.layers.txt``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.trace.json").write_text(json.dumps(self.chrome_trace()))
        (out_dir / f"{stem}.layers.txt").write_text(self.render_table())
