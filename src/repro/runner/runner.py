"""Crash-safe checkpoint/resume orchestration of a full simulation.

Run directory layout::

    <run_dir>/
      MANIFEST.json             config hash, checksums, chunk index, RNG states
      phase1.pkl                account summaries + detection records
      market.pkl                the Phase-2 MarketIndex snapshot
      chunks/
        chunk-00000-00007.npc   impression rows for days [0, 7), append-only
        chunk-00007-00014.npc   ...

The two snapshots hold only what resume reads back
(:func:`snapshot_bytes`), so their bytes do not depend on the process
that wrote them.  Chunks are columnar bundles
(:mod:`repro.records.columnar`) named by :mod:`repro.runner.chunkstore`
after their day range.  The manifest is format ``repro-run/3``
(:mod:`repro.runner.manifest`); resume refuses a directory written
under any other format -- re-run it instead, the output is
seed-deterministic -- and a manifest naming any file outside this
layout, with :class:`~repro.errors.SimulationError`.

Crash-consistency protocol: every artifact lands via tmp-file + fsync +
``os.replace`` (:mod:`repro.records.atomic`), and ``MANIFEST.json`` is
replaced only *after* the artifacts it references are durable.  A crash
at any instant therefore leaves the directory in one of the states the
resume path is written for:

* no manifest, or manifest in phase ``phase1`` -- Phase 1 is re-run
  from the seed (deterministic, so nothing is lost);
* manifest in phase ``phase3`` -- population + market snapshots are
  verified by checksum and reloaded, durable chunks are verified and
  reloaded, the five RNG streams are restored from the last chunk's
  recorded state, and the day loop continues at ``next_day``;
* a chunk file that exists but is not in the manifest is a partial
  write from the crash -- deleted and re-simulated;
* the *tail* manifest chunk whose file is missing or fails its
  checksum is discarded and its days are re-simulated (corrupt-tail
  fallback); corruption anywhere earlier, or of the phase snapshots,
  refuses with :class:`~repro.errors.SimulationError`;
* a manifest whose config hash does not match the resuming
  configuration refuses with :class:`~repro.errors.SimulationError`.

A manifest already in phase ``complete`` reloads read-only: snapshots
and chunks are checksum-verified and loaded, and nothing in the run
directory is written.

Because every stochastic draw comes from the five named RNG streams and
their ``bit_generator`` states are serialized at each checkpoint, an
interrupted-and-resumed run is *bit-identical* to an uninterrupted run
of the same seed -- the resume-determinism tests assert equality of the
final impression table, detection records, and validation report.
"""

from __future__ import annotations

import pickle
import warnings
from collections.abc import Iterator
from pathlib import Path

from .. import obs
from ..config import SimulationConfig
from ..errors import ConfigError, SimulationError
from ..obs.progress import ProgressSink
from ..obs.resources import ResourceSampler
from ..obs.sink import TELEMETRY_NAME, JsonlSink
from ..obs.timeseries import DAYLEDGER_NAME, DayLedger
from ..records.atomic import (
    atomic_write_bytes,
    set_io_shim,
    sha256_bytes,
    sha256_file,
)
from ..records.impressions import ImpressionBuilder
from ..records.schemas import DetectionRecord
from ..simulator.engine import SimulationEngine
from ..simulator.market import MarketIndex
from ..simulator.results import AccountSummary, SimulationResult
from .chunkstore import CHUNK_DIR, chunk_file_name, chunk_to_bytes, load_chunk
from .faults import FaultPlan
from .manifest import MANIFEST_NAME, ChunkEntry, RunManifest, config_sha256

__all__ = [
    "CheckpointRunner",
    "PHASE1_NAME",
    "MARKET_NAME",
    "TELEMETRY_NAME",
    "DAYLEDGER_NAME",
    "snapshot_bytes",
]

PHASE1_NAME = "phase1.pkl"
MARKET_NAME = "market.pkl"

# Runner telemetry handles (repro.obs).
_CHUNKS_WRITTEN = obs.counter("runner.chunks_written")
_CHUNKS_VERIFIED = obs.counter("runner.chunks_verified")
_TAILS_DISCARDED = obs.counter("runner.tail_chunks_discarded")
_IO_DEGRADED = obs.counter("io.degraded")

_log = obs.get_logger("runner")


def snapshot_bytes(
    summaries: list[AccountSummary],
    records: list[DetectionRecord],
    market: MarketIndex,
) -> Iterator[tuple[str, bytes]]:
    """Yield ``(name, blob)`` for ``phase1.pkl``, then ``market.pkl``.

    They hold exactly what resume reads back: the account summaries,
    the detection records and the Phase-2 market.  None of it holds a
    ``set``, whose pickled order would follow the string-hash seed, so
    the bytes are the same under any ``PYTHONHASHSEED``.  Each blob is
    pickled only when the next pair is asked for, so a caller that
    drops one blob before it asks for the next never holds both.
    """
    yield PHASE1_NAME, pickle.dumps(
        {"summaries": summaries, "records": records},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    yield MARKET_NAME, pickle.dumps(market, protocol=pickle.HIGHEST_PROTOCOL)


class CheckpointRunner:
    """Runs a simulation with durable checkpoints in a run directory."""

    def __init__(
        self,
        config: SimulationConfig,
        run_dir: str | Path,
        checkpoint_every: int = 7,
        faults: FaultPlan | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        self.config = config
        self.run_dir = Path(run_dir)
        self.checkpoint_every = checkpoint_every
        self.manifest_path = self.run_dir / MANIFEST_NAME
        self.chunk_dir = self.run_dir / CHUNK_DIR
        self.phase1_path = self.run_dir / PHASE1_NAME
        self.market_path = self.run_dir / MARKET_NAME
        self.ledger_path = self.run_dir / DAYLEDGER_NAME
        self._faults = faults if faults is not None else FaultPlan()
        # The observers of the run in progress; :meth:`run` attaches a
        # fresh set to every run that writes.
        self._sink: JsonlSink | None = None
        self._ledger: DayLedger | None = None
        self._progress: ProgressSink | None = None
        self._sampler: ResourceSampler | None = None
        #: Auxiliary artifacts whose writes have already warned once.
        self._degraded: set[str] = set()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, resume: bool | str = "auto") -> SimulationResult:
        """Run (or resume) the simulation to completion.

        ``resume`` may be ``True`` (a manifest must exist), ``False``
        (the directory must not contain one), or ``"auto"`` (resume if
        a manifest exists, else start fresh).

        A run whose manifest is already ``complete`` reloads read-only:
        the config hash, snapshots and chunks are verified and loaded,
        and nothing is attached, so no file in the directory changes.

        Every other run attaches four observers, none of which touches
        the named RNG streams: a :class:`~repro.obs.sink.JsonlSink`
        (``telemetry.jsonl``), a :class:`~repro.obs.progress.ProgressSink`
        (the ``progress.json`` sidecar, rewritten on every heartbeat and
        checkpoint so watchers see live state), a background
        :class:`~repro.obs.resources.ResourceSampler` (the RSS/CPU/GC
        envelope per phase) and the :class:`~repro.obs.timeseries.DayLedger`
        (``dayledger.jsonl``).  Telemetry and ledger are flushed
        atomically only at durable checkpoints, so neither describes
        more than the manifest guarantees: a crash loses only what was
        buffered since, exactly as it loses the impression rows since
        then, and resume continues the same files.
        """
        has_manifest = self.manifest_path.exists()
        if resume is True and not has_manifest:
            raise SimulationError(
                f"{self.run_dir}: nothing to resume (no {MANIFEST_NAME})"
            )
        if resume is False and has_manifest:
            raise SimulationError(
                f"{self.run_dir}: already contains a run; resume it or "
                f"choose a fresh directory"
            )
        manifest = RunManifest.load(self.manifest_path) if has_manifest else None
        if manifest is not None:
            self._check_compatible(manifest)
            if manifest.phase == "complete":
                return self._run(manifest)

        self.chunk_dir.mkdir(parents=True, exist_ok=True)
        # Install the fault plan's IO shim (if any) for the duration of
        # the run: every atomic write -- chunks, manifest, snapshots,
        # ledger, telemetry -- goes through the shimmed layer, so a
        # plan can make the disk lie about any artifact.
        shim = self._faults.io_shim()
        prior_shim = set_io_shim(shim) if shim is not None else None
        self._sink = JsonlSink(self.run_dir / TELEMETRY_NAME)
        obs.add_sink(self._sink)
        self._progress = ProgressSink(self.run_dir, days=self.config.days)
        obs.add_sink(self._progress)
        self._sampler = ResourceSampler()
        self._sampler.start()
        self._ledger = DayLedger(days=self.config.days)
        prior_ledger = obs.set_dayledger(self._ledger)
        completed = False
        try:
            result = self._run(manifest)
            # Stop before the final flush so the envelope lands in this
            # run's telemetry (and sidecar counters settle).
            obs.publish_resources(self._sampler.stop())
            obs.event(
                "runner.complete", days=self.config.days, rows=len(result.impressions)
            )
            obs.publish_metrics()
            self._flush_telemetry()
            completed = True
            return result
        finally:
            # On an exception (including an injected or real crash
            # surfacing as one) the un-flushed tail is dropped: the
            # durable telemetry stays whatever the last checkpoint
            # flushed, mirroring the run state itself.  The sidecar, by
            # contrast, *does* record the interruption -- that is its
            # job -- and the sampler thread always stops.
            if self._sampler.running:
                self._sampler.stop()
            if not completed:
                self._progress.mark("interrupted")
            obs.remove_sink(self._progress)
            obs.remove_sink(self._sink)
            obs.set_dayledger(prior_ledger)
            if shim is not None:
                set_io_shim(prior_shim)

    # ------------------------------------------------------------------
    # Graceful degradation of auxiliary sinks
    # ------------------------------------------------------------------

    def _degrade(self, artifact: str, exc: OSError) -> None:
        """Record a persistent auxiliary-write failure and carry on.

        Telemetry and the day ledger are conveniences layered on top of
        the simulation: losing them must never lose the run.  Each
        failure bumps ``io.degraded`` and emits an ``io.degraded``
        event; the first failure per artifact also logs a warning.
        """
        _IO_DEGRADED.inc()
        obs.event("io.degraded", artifact=artifact, error=str(exc))
        if artifact not in self._degraded:
            self._degraded.add(artifact)
            _log.warning(
                "auxiliary write of %s failed (%s); the simulation "
                "continues without it",
                artifact,
                exc,
            )

    def _flush_ledger(self, manifest: RunManifest) -> None:
        """Flush the day ledger and vouch its checksum in the manifest.

        Called *before* ``manifest.save`` at every durable point, so
        the durable ledger is never older than the manifest.  A
        persistent write failure degrades: the manifest keeps vouching
        the last ledger content that actually landed (atomic writes
        leave old-or-new, never a hybrid).
        """
        try:
            text = self._ledger.flush(self.ledger_path)
        except OSError as exc:
            self._degrade(DAYLEDGER_NAME, exc)
            return
        manifest.artifacts[DAYLEDGER_NAME] = sha256_bytes(text.encode("utf-8"))

    def _flush_telemetry(self) -> None:
        """Flush the telemetry sink, degrading on persistent failure."""
        try:
            self._sink.flush()
        except OSError as exc:
            self._degrade(TELEMETRY_NAME, exc)

    def _run(self, manifest: RunManifest | None) -> SimulationResult:
        """The checkpointed run body.

        ``manifest`` is the loaded manifest of the run being resumed,
        or ``None`` for a fresh run.  Only a ``complete`` one may run
        without the observers :meth:`run` attaches: it writes nothing.
        """
        engine = SimulationEngine(self.config)
        resuming = manifest is not None
        with obs.span("runner.run", resuming=resuming, days=self.config.days):
            if manifest is not None:
                manifest.checkpoint_every = self.checkpoint_every
                obs.event(
                    "runner.resume",
                    phase=manifest.phase,
                    next_day=manifest.next_day,
                    chunks=len(manifest.chunks),
                )
            else:
                manifest = RunManifest.fresh(self.config, self.checkpoint_every)
                manifest.save(self.manifest_path)
                obs.event(
                    "runner.start",
                    seed=self.config.seed,
                    days=self.config.days,
                    checkpoint_every=self.checkpoint_every,
                )

            if manifest.phase == "phase1":
                self._sampler.set_phase("phase1")
                summaries, records, market = self._run_phase1(engine, manifest)
            else:
                summaries, records, market = self._load_phase1(manifest)

            chunks = self._validate_chunks(manifest)
            if manifest.phase != "complete":
                if resuming:
                    # Reload the durable ledger prefix *after* chunk
                    # validation so a discarded tail's days (reflected
                    # in ``next_day``) are dropped and re-accumulated.
                    self._ledger.preload(
                        self.ledger_path, market_before=manifest.next_day
                    )
                states = manifest.resume_rng()
                if states is None:
                    raise SimulationError(
                        f"{self.manifest_path}: no RNG snapshot to resume from"
                    )
                engine.set_rng_state(states)
                self._sampler.set_phase("phase3")
                chunks += self._run_phase3(engine, market, manifest)
                self._faults.fire("finalize")
                self._flush_ledger(manifest)
                manifest.phase = "complete"
                manifest.save(self.manifest_path)

            builder = ImpressionBuilder()
            for chunk in chunks:
                if len(chunk["day"]):
                    builder.add_batch(**chunk)
            return SimulationResult(
                config=self.config,
                accounts=summaries,
                impressions=builder.build(),
                detections=list(records),
                policy_changes=list(engine.pipeline.policy.changes),
            )

    # ------------------------------------------------------------------
    # Phase 1 + 2: population and market snapshots
    # ------------------------------------------------------------------

    def _check_compatible(self, manifest: RunManifest) -> None:
        expected = config_sha256(self.config)
        if manifest.config_sha256 != expected:
            raise SimulationError(
                f"{self.manifest_path}: config hash mismatch -- the run "
                f"directory was created with a different configuration "
                f"({manifest.config_sha256[:12]}... != {expected[:12]}...); "
                f"refusing to resume"
            )
        from .._version import __version__

        if manifest.package_version != __version__:
            warnings.warn(
                f"resuming a run written by repro "
                f"{manifest.package_version} with repro {__version__}",
                RuntimeWarning,
                stacklevel=2,
            )

    def _run_phase1(
        self, engine: SimulationEngine, manifest: RunManifest
    ) -> tuple[list[AccountSummary], list[DetectionRecord], MarketIndex]:
        def on_day(day: int) -> None:
            self._faults.fire("phase1:day", day=day)

        summaries, records, market = engine.build_phase1(on_day_complete=on_day)
        manifest.artifacts = {}
        for name, blob in snapshot_bytes(summaries, records, market):
            atomic_write_bytes(self.run_dir / name, blob)
            manifest.artifacts[name] = sha256_bytes(blob)
            del blob  # freed before the next snapshot is pickled
        manifest.phase3_start_rng = engine.rng_state()
        manifest.phase = "phase3"
        # Ledger before manifest: a crash between the two leaves a
        # ledger that is *newer* than the manifest, and preload only
        # trusts what the manifest vouches for.
        self._flush_ledger(manifest)
        manifest.save(self.manifest_path)
        self._faults.fire("phase1:end")
        return summaries, records, market

    def _load_phase1(
        self, manifest: RunManifest
    ) -> tuple[list[AccountSummary], list[DetectionRecord], MarketIndex]:
        for name, path in ((PHASE1_NAME, self.phase1_path), (MARKET_NAME, self.market_path)):
            recorded = manifest.artifacts.get(name)
            if recorded is None:
                raise SimulationError(
                    f"{self.manifest_path}: missing checksum for {name}"
                )
            if not path.exists() or sha256_file(path) != recorded:
                raise SimulationError(
                    f"{path}: snapshot missing or fails its checksum; the "
                    f"run directory is damaged beyond the recoverable tail"
                )
        state = pickle.loads(self.phase1_path.read_bytes())
        market = pickle.loads(self.market_path.read_bytes())
        return state["summaries"], state["records"], market

    # ------------------------------------------------------------------
    # Phase 3: chunked auctions
    # ------------------------------------------------------------------

    def _validate_chunks(self, manifest: RunManifest) -> list[dict]:
        """Verify and load every durable chunk, pruning a corrupt tail.

        Returns the loaded per-chunk field arrays in day order.  A
        missing/corrupt *tail* chunk of an incomplete run is discarded
        (its days will be re-simulated); any earlier damage -- or any
        damage at all in a ``complete`` run -- raises.
        """
        loaded: list[dict] = []
        for index, entry in enumerate(manifest.chunks):
            path = self.run_dir / entry.file
            intact = path.exists() and sha256_file(path) == entry.sha256
            if intact:
                chunk = load_chunk(path)
                if chunk is None:
                    intact = False
                else:
                    loaded.append(chunk)
            if intact:
                _CHUNKS_VERIFIED.inc()
                continue
            is_tail = index == len(manifest.chunks) - 1
            if is_tail and manifest.phase != "complete":
                _TAILS_DISCARDED.inc()
                obs.event(
                    "runner.tail_discarded",
                    file=entry.file,
                    day_start=entry.day_start,
                    day_end=entry.day_end,
                )
                manifest.chunks.pop()
                manifest.save(self.manifest_path)
                path.unlink(missing_ok=True)
                break
            raise SimulationError(
                f"{path}: chunk missing or fails its checksum and is not "
                f"a discardable tail; refusing to resume"
            )
        if manifest.phase == "complete":
            # A finished run reloads read-only; a stray there is for
            # ``verify`` to report and the doctor to quarantine.
            return loaded
        # Partial writes from a crash (files the manifest never saw).
        keep = {(self.run_dir / entry.file).name for entry in manifest.chunks}
        for stray in self.chunk_dir.iterdir():
            if stray.name not in keep:
                obs.event("runner.stray_removed", file=stray.name)
                stray.unlink()
        return loaded

    def _run_phase3(
        self,
        engine: SimulationEngine,
        market: MarketIndex,
        manifest: RunManifest,
    ) -> list[dict]:
        days = self.config.days
        start_day = manifest.next_day
        builder = ImpressionBuilder()
        collected: list[dict] = []
        pending_start = start_day

        def on_day(day: int) -> None:
            nonlocal pending_start
            self._faults.fire("phase3:day", day=day)
            if day + 1 - pending_start >= self.checkpoint_every or day + 1 == days:
                chunk = builder.drain()
                self._write_chunk(engine, manifest, chunk, pending_start, day + 1)
                collected.append(chunk)
                pending_start = day + 1
                self._faults.fire("phase3:checkpoint", day=day)

        engine.run_auctions(
            market, builder, start_day=start_day, on_day_complete=on_day
        )
        return collected

    def _write_chunk(
        self,
        engine: SimulationEngine,
        manifest: RunManifest,
        chunk: dict,
        day_start: int,
        day_end: int,
    ) -> None:
        name = f"{CHUNK_DIR}/{chunk_file_name(day_start, day_end)}"
        data = chunk_to_bytes(chunk, day_start, day_end)
        atomic_write_bytes(self.run_dir / name, data)
        manifest.chunks.append(
            ChunkEntry(
                file=name,
                sha256=sha256_bytes(data),
                day_start=day_start,
                day_end=day_end,
                rows=int(len(chunk["day"])),
                rng_after=engine.rng_state(),
            )
        )
        # Same ordering as the Phase-1 flush: ledger first, so the
        # durable ledger is never older than the manifest.
        self._flush_ledger(manifest)
        manifest.save(self.manifest_path)
        _CHUNKS_WRITTEN.inc()
        obs.event(
            "runner.checkpoint",
            day_start=day_start,
            day_end=day_end,
            rows=int(len(chunk["day"])),
            file=name,
        )
        # The manifest just became durable; make the telemetry match it.
        obs.publish_metrics()
        self._flush_telemetry()
