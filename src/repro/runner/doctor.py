"""The run doctor: verify and repair damaged run directories.

:func:`verify_run` audits a run directory against its manifest: every
vouched artifact (phase snapshots, every impression chunk, the day
ledger of a completed run) is re-checksummed, and stray ``.tmp`` files
and unvouched chunk files are reported.  The manifest's own structure
is checked as it loads (:meth:`~repro.runner.manifest.RunManifest.load`).

:func:`repair_run` restores a damaged *completed* run to the byte-exact
state of a never-damaged one.  It can, because the simulation is
deterministic end to end: the manifest embeds the full configuration,
records the serialized RNG stream states and ledger rows after every
chunk, and vouches a SHA-256 for every artifact -- so the doctor
re-simulates exactly the damaged artifacts and refuses to write
anything whose bytes do not hash to what the manifest promised.  Two
repair strategies (``quarantine-only`` when there are only strays):

* **chunk replay** -- only impression chunks are damaged.  The intact
  market snapshot is loaded (the auctions read nothing else of Phase
  1), the RNG streams are restored from the *predecessor* chunk's
  recorded state (or ``phase3_start_rng`` for the first chunk), and
  only the damaged day ranges are re-simulated.
* **full replay** -- a phase snapshot or the day ledger is damaged.
  Phases 1 and 2 are re-run from the seed through
  :meth:`~repro.simulator.engine.SimulationEngine.build_phase1`, the
  sequence the runner and the engine's own ``run`` use; the damaged
  snapshots are rewritten, a damaged ledger is rebuilt from those
  outputs and the manifest's rows
  (:func:`~repro.runner.runner.rebuild_ledger`, as on resume), and
  only the damaged chunks go through the chunk replay above.
  Each regenerated byte string is verified against the manifest
  before it is written, and the RNG streams are checked after Phase 1
  and after every replayed chunk.

Damaged and stray files are moved into ``<run_dir>/quarantine/`` (never
deleted) before their replacements are written.  If a regenerated
artifact does not hash to the vouched value, the run is irreparable on
this interpreter/platform and the doctor raises instead of vouching for
bytes it cannot reproduce.
"""

from __future__ import annotations

import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..errors import SimulationError
from ..obs.progress import PROGRESS_NAME
from ..obs.sink import TELEMETRY_NAME
from ..obs.timeseries import ANALYZE_NAME, DAYLEDGER_NAME
from ..records.atomic import atomic_write_bytes, sha256_bytes, sha256_file
from ..records.impressions import ImpressionBuilder
from ..simulator.engine import SimulationEngine
from ..simulator.market import MarketIndex
from .chunkstore import CHUNK_DIR, chunk_to_bytes
from .manifest import MANIFEST_NAME, RunManifest
from .runner import MARKET_NAME, PHASE1_NAME, rebuild_ledger, snapshot_bytes

__all__ = [
    "QUARANTINE_DIR",
    "Issue",
    "VerifyReport",
    "RepairReport",
    "verify_run",
    "repair_run",
    "render_verify",
    "render_repair",
]

QUARANTINE_DIR = "quarantine"

#: Files legitimately left in a run directory without a manifest
#: checksum: best-effort telemetry, the live progress sidecar, and the
#: derived validation and ``obs analyze`` reports (the doctor's own
#: quarantine is a directory, so the file scan skips it).
_UNVOUCHED_OK = frozenset(
    {TELEMETRY_NAME, PROGRESS_NAME, "validation.json", ANALYZE_NAME}
)

_REPAIRS = obs.counter("doctor.repairs")
_QUARANTINED = obs.counter("doctor.quarantined")


@dataclass
class Issue:
    """One problem (or informational note) found by ``verify``."""

    kind: str  #: "missing" | "checksum" | "stray" | "tmp" | "note"
    path: str  #: run-dir-relative path
    detail: str
    #: Fatal issues make ``verify`` exit nonzero and are what
    #: ``doctor --repair`` fixes; notes are informational only.
    fatal: bool = True


@dataclass
class VerifyReport:
    run_dir: Path
    phase: str
    checked: int = 0  #: artifacts whose checksum verified clean
    issues: list[Issue] = field(default_factory=list)

    @property
    def damage(self) -> list[Issue]:
        return [issue for issue in self.issues if issue.fatal]

    @property
    def ok(self) -> bool:
        return not self.damage


@dataclass
class RepairReport:
    run_dir: Path
    #: "none" | "chunk-replay" | "full-replay" | "quarantine-only"
    strategy: str
    quarantined: list[str] = field(default_factory=list)
    rewritten: list[str] = field(default_factory=list)
    verify: VerifyReport | None = None


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _iter_tmp_files(run_dir: Path) -> list[Path]:
    """Every ``*.tmp.*`` orphan under the run dir (quarantine excluded)."""
    strays = []
    for path in sorted(run_dir.rglob("*")):
        if QUARANTINE_DIR in path.relative_to(run_dir).parts:
            continue
        if path.is_file() and path.name.endswith(".tmp"):
            strays.append(path)
    return strays


def verify_run(run_dir: str | Path) -> VerifyReport:
    """Audit ``run_dir`` against its manifest.

    Raises :class:`SimulationError` if the manifest itself is missing
    or unreadable (there is nothing trustworthy to verify against);
    every other problem lands in the report's ``issues``.
    """
    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir / MANIFEST_NAME)
    report = VerifyReport(run_dir=run_dir, phase=manifest.phase)

    def check(relative: str, recorded: str) -> None:
        path = run_dir / relative
        if not path.exists():
            report.issues.append(
                Issue("missing", relative, "vouched file is missing")
            )
        elif sha256_file(path) != recorded:
            report.issues.append(
                Issue("checksum", relative, "does not match manifest")
            )
        else:
            report.checked += 1

    for relative, recorded in sorted(manifest.artifacts.items()):
        check(relative, recorded)

    for entry in manifest.chunks:
        # A damaged tail chunk of an incomplete run is still damage --
        # verify reports facts -- but resume discards and re-simulates
        # it, so the doctor treats it exactly like any other chunk.
        check(entry.file, entry.sha256)

    vouched = {entry.file for entry in manifest.chunks}
    chunk_dir = run_dir / CHUNK_DIR
    if chunk_dir.is_dir():
        for path in sorted(chunk_dir.iterdir()):
            relative = f"{CHUNK_DIR}/{path.name}"
            if relative not in vouched and not path.name.endswith(".tmp"):
                report.issues.append(
                    Issue(
                        "stray",
                        relative,
                        "chunk file the manifest does not vouch for",
                    )
                )

    for path in _iter_tmp_files(run_dir):
        report.issues.append(
            Issue(
                "tmp",
                str(path.relative_to(run_dir)),
                "orphaned temporary file from an interrupted write",
            )
        )

    for path in sorted(run_dir.iterdir()):
        if (
            path.is_file()
            and path.name not in manifest.artifacts
            and path.name != MANIFEST_NAME
            and path.name not in _UNVOUCHED_OK
            and not path.name.endswith(".tmp")
        ):
            report.issues.append(
                Issue("note", path.name, "unvouched file", fatal=False)
            )
    return report


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------


def _quarantine(run_dir: Path, relative: str, report: RepairReport) -> None:
    source = run_dir / relative
    if not source.exists():
        return
    target = run_dir / QUARANTINE_DIR / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    suffix = 0
    while target.exists():
        suffix += 1
        target = target.with_name(f"{target.name}.{suffix}")
    shutil.move(str(source), str(target))
    _QUARANTINED.inc()
    obs.event("doctor.quarantine", file=relative)
    report.quarantined.append(relative)


def _rewrite(
    run_dir: Path,
    relative: str,
    data: bytes,
    recorded: str,
    report: RepairReport,
) -> None:
    actual = sha256_bytes(data)
    if actual != recorded:
        raise SimulationError(
            f"{relative}: re-simulated bytes hash to {actual[:12]}..., "
            f"manifest vouches {recorded[:12]}...; the run is not "
            f"reproducible on this interpreter -- refusing to repair"
        )
    atomic_write_bytes(run_dir / relative, data)
    _REPAIRS.inc()
    obs.event("doctor.repaired", file=relative)
    report.rewritten.append(relative)


def _replay_chunks(
    engine: SimulationEngine,
    market: MarketIndex,
    manifest: RunManifest,
    damaged: set[str],
    run_dir: Path,
    report: RepairReport,
) -> None:
    """Re-simulate the damaged chunks' day ranges, each from its
    predecessor's recorded RNG states, and rewrite them."""
    for index, entry in enumerate(manifest.chunks):
        if entry.file not in damaged:
            continue
        if index == 0:
            states = manifest.phase3_start_rng
        else:
            states = manifest.chunks[index - 1].rng_after
        if states is None:
            raise SimulationError(
                f"{MANIFEST_NAME}: no RNG snapshot precedes "
                f"{entry.file}; cannot replay it"
            )
        engine.set_rng_state(states)
        builder = ImpressionBuilder()
        obs.event(
            "doctor.replay",
            file=entry.file,
            day_start=entry.day_start,
            day_end=entry.day_end,
        )
        engine.run_auctions(
            market, builder, start_day=entry.day_start, end_day=entry.day_end
        )
        if engine.rng_state() != entry.rng_after:
            raise SimulationError(
                f"{entry.file}: RNG streams after replaying days "
                f"[{entry.day_start}, {entry.day_end}) do not match the "
                f"manifest; the run is not reproducible -- refusing to "
                f"repair"
            )
        _rewrite(
            run_dir,
            entry.file,
            chunk_to_bytes(builder.drain(), entry.day_start, entry.day_end),
            entry.sha256,
            report,
        )


def _full_replay(
    engine: SimulationEngine,
    manifest: RunManifest,
    damaged: set[str],
    run_dir: Path,
    report: RepairReport,
) -> MarketIndex:
    """Re-run Phases 1 and 2, rewrite the damaged snapshots and ledger,
    and return the market."""
    obs.event("doctor.replay", phases="1-2")
    summaries, records, market = engine.build_phase1()
    if engine.rng_state() != manifest.phase3_start_rng:
        raise SimulationError(
            "RNG streams after Phase 1 do not match the manifest; "
            "the run is not reproducible -- refusing to repair"
        )
    for name, blob in snapshot_bytes(summaries, records, market):
        if name in damaged:
            _rewrite(run_dir, name, blob, manifest.artifacts[name], report)
        del blob  # freed before the next snapshot is pickled
    if DAYLEDGER_NAME in damaged:
        ledger = rebuild_ledger(
            manifest, summaries, records, engine.pipeline.policy.changes
        )
        _rewrite(
            run_dir,
            DAYLEDGER_NAME,
            ledger.to_jsonl().encode("utf-8"),
            manifest.artifacts[DAYLEDGER_NAME],
            report,
        )
    return market


def repair_run(run_dir: str | Path) -> RepairReport:
    """Quarantine damage and re-simulate it back to vouched bytes.

    Only *completed* runs are repaired -- an incomplete run's cheapest
    path back to health is ``run --resume``, which already knows how to
    discard a damaged tail.  Returns a :class:`RepairReport` whose
    ``verify`` field holds a fresh post-repair audit.
    """
    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir / MANIFEST_NAME)
    before = verify_run(run_dir)
    report = RepairReport(run_dir=run_dir, strategy="none")

    if not before.damage:
        report.verify = before
        return report
    if manifest.phase != "complete":
        raise SimulationError(
            f"{run_dir}: run is in phase {manifest.phase!r}; resume it "
            f"(python -m repro.runner run --resume) instead of doctoring"
        )
    config = manifest.simulation_config()

    damaged: set[str] = set()
    for issue in before.damage:
        # Quarantining a "stray" or "tmp" file is its whole repair.
        if issue.kind in ("missing", "checksum"):
            damaged.add(issue.path)
        _quarantine(run_dir, issue.path, report)

    if not damaged:
        report.strategy = "quarantine-only"
    else:
        engine = SimulationEngine(config)
        if damaged & {PHASE1_NAME, MARKET_NAME, DAYLEDGER_NAME}:
            report.strategy = "full-replay"
            market = _full_replay(engine, manifest, damaged, run_dir, report)
        else:
            report.strategy = "chunk-replay"
            market = pickle.loads((run_dir / MARKET_NAME).read_bytes())
        _replay_chunks(engine, market, manifest, damaged, run_dir, report)

    report.verify = verify_run(run_dir)
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def render_verify(report: VerifyReport) -> str:
    lines = [
        f"verify {report.run_dir}",
        f"  phase: {report.phase}",
        f"  artifacts verified: {report.checked}",
    ]
    for issue in report.issues:
        marker = "DAMAGE" if issue.fatal else "note"
        lines.append(f"  {marker}: {issue.path} [{issue.kind}] {issue.detail}")
    lines.append("  result: " + ("HEALTHY" if report.ok else "DAMAGED"))
    return "\n".join(lines)


def render_repair(report: RepairReport) -> str:
    lines = [f"doctor {report.run_dir}", f"  strategy: {report.strategy}"]
    for name in report.quarantined:
        lines.append(f"  quarantined: {name} -> {QUARANTINE_DIR}/{name}")
    for name in report.rewritten:
        lines.append(f"  re-simulated: {name}")
    if report.verify is not None:
        lines.append(render_verify(report.verify))
    return "\n".join(lines)
