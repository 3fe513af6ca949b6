"""The run-directory manifest.

One JSON document (``MANIFEST.json``, format ``repro-run/3``) is the
single source of truth for what a run directory durably contains: the
configuration the run was started with (embedded in full, plus its
hash), the package version, a SHA-256 checksum for every artifact, the
per-chunk impression index, and the serialized ``bit_generator`` states
of all five named RNG streams at each checkpoint.  The manifest is
always rewritten atomically *after* the artifacts it references are
durable, so resume can trust exactly what it lists and nothing else.

:meth:`RunManifest.load` refuses any other format -- a run directory
written under an older one (``repro-run/2`` pickled the whole detection
pipeline into ``phase1.pkl``; ``/3`` holds only the account summaries
and detection records) is re-run, not read (runs are
seed-deterministic, so the re-run reproduces its output) -- and any
manifest naming a file outside the canonical layout: every chunk entry
must be ``chunks/`` plus the :func:`~repro.runner.chunkstore.chunk_file_name`
of its day range, and every artifact a plain file name in the run
directory, so no manifest can point resume or the doctor elsewhere.

PCG64 states are plain nested dicts of ints, so they round-trip through
JSON losslessly -- restoring them reproduces the exact draw sequence,
which is what makes a resumed run bit-identical to an uninterrupted
one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .._version import __version__
from ..config import SimulationConfig, config_from_dict
from ..errors import ConfigError, SimulationError
from ..records.atomic import atomic_write_text
from .chunkstore import CHUNK_DIR, chunk_file_name

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
    "ChunkEntry",
    "RunManifest",
    "config_sha256",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-run/3"

#: Phases a run directory can durably be in.  ``phase1`` means the
#: population is still being generated (nothing durable yet beyond the
#: manifest itself); ``phase3`` means population + market snapshots are
#: durable and auction chunks are accumulating; ``complete`` means the
#: run finished, and resuming it only reloads (it writes nothing).
PHASES = ("phase1", "phase3", "complete")


def config_sha256(config: SimulationConfig) -> str:
    """Stable hash of the full configuration (all knobs, seed, days)."""
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ChunkEntry:
    """One durable impression chunk covering days [day_start, day_end)."""

    file: str
    sha256: str
    day_start: int
    day_end: int
    rows: int
    #: RNG states of all five streams *after* day ``day_end - 1`` --
    #: restoring them resumes the simulation at ``day_end`` exactly.
    rng_after: dict

    @classmethod
    def from_dict(cls, payload: dict) -> "ChunkEntry":
        try:
            return cls(
                file=str(payload["file"]),
                sha256=str(payload["sha256"]),
                day_start=int(payload["day_start"]),
                day_end=int(payload["day_end"]),
                rows=int(payload["rows"]),
                rng_after=dict(payload["rng_after"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed chunk entry: {exc}") from None


@dataclass
class RunManifest:
    """Durable progress record for one checkpointed run."""

    config_sha256: str
    seed: int
    days: int
    checkpoint_every: int
    #: The full configuration (``dataclasses.asdict`` form), embedded
    #: so ``verify``/``doctor`` can re-simulate damaged artifacts
    #: without the caller re-supplying CLI flags.
    config: dict
    phase: str = "phase1"
    format: str = MANIFEST_FORMAT
    package_version: str = __version__
    #: Artifact file name -> hex SHA-256: the phase1/market
    #: snapshots plus the day ledger at its last durable flush -- every
    #: non-chunk artifact the doctor can vouch for.
    artifacts: dict[str, str] = field(default_factory=dict)
    #: RNG states at the start of Phase 3 (right after the market
    #: snapshot became durable); the resume point when no chunk exists.
    phase3_start_rng: dict | None = None
    chunks: list[ChunkEntry] = field(default_factory=list)

    @classmethod
    def fresh(cls, config: SimulationConfig, checkpoint_every: int) -> "RunManifest":
        """Manifest for a run that has not generated anything yet."""
        return cls(
            config_sha256=config_sha256(config),
            seed=config.seed,
            days=config.days,
            checkpoint_every=checkpoint_every,
            config=dataclasses.asdict(config),
        )

    def simulation_config(self) -> SimulationConfig:
        """Rebuild the embedded configuration, verifying its hash.

        Raises :class:`SimulationError` if the embedded config no
        longer matches ``config_sha256`` (a hand-edited manifest must
        not smuggle in a different run).
        """
        try:
            config = config_from_dict(self.config)
        except ConfigError as exc:
            raise SimulationError(f"embedded config is invalid: {exc}") from None
        if config_sha256(config) != self.config_sha256:
            raise SimulationError(
                "embedded config does not match config_sha256; the "
                "manifest has been tampered with"
            )
        return config

    @property
    def next_day(self) -> int:
        """First Phase-3 day not covered by a durable chunk."""
        return self.chunks[-1].day_end if self.chunks else 0

    def resume_rng(self) -> dict | None:
        """RNG states to restore when resuming Phase 3."""
        if self.chunks:
            return self.chunks[-1].rng_after
        return self.phase3_start_rng

    def to_json(self) -> str:
        """Compact, key-sorted JSON; each field is encoded once, with no
        intermediate copy (every checkpoint rewrites the whole manifest)."""
        return json.dumps(
            dict(vars(self), chunks=[vars(chunk) for chunk in self.chunks]),
            sort_keys=True,
            separators=(",", ":"),
        )

    def save(self, path: str | Path) -> None:
        """Atomically persist the manifest."""
        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Load and structurally validate a manifest.

        Raises :class:`SimulationError` (never raw ``json`` errors) on
        unreadable or malformed content.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise SimulationError(f"cannot read manifest {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SimulationError(
                f"manifest {path} is not valid JSON: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise SimulationError(f"manifest {path} is not a JSON object")
        if payload.get("format") != MANIFEST_FORMAT:
            raise SimulationError(
                f"manifest {path} has format {payload.get('format')!r}, "
                f"expected {MANIFEST_FORMAT!r}; re-run the simulation into "
                f"a fresh directory (runs are seed-deterministic, so the "
                f"re-run reproduces its output exactly)"
            )
        try:
            manifest = cls(
                config_sha256=str(payload["config_sha256"]),
                seed=int(payload["seed"]),
                days=int(payload["days"]),
                checkpoint_every=int(payload["checkpoint_every"]),
                config=dict(payload["config"]),
                phase=str(payload["phase"]),
                format=str(payload["format"]),
                package_version=str(payload["package_version"]),
                artifacts=dict(payload["artifacts"]),
                phase3_start_rng=payload.get("phase3_start_rng"),
                chunks=[
                    ChunkEntry.from_dict(chunk) for chunk in payload["chunks"]
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed manifest {path}: {exc}") from None
        if manifest.phase not in PHASES:
            raise SimulationError(
                f"manifest {path} has unknown phase {manifest.phase!r}"
            )
        for name in manifest.artifacts:
            if name in ("", ".", "..") or "/" in name:
                raise SimulationError(
                    f"manifest {path}: artifact {name!r} is not a file "
                    f"name in the run directory"
                )
        previous_end = 0
        for chunk in manifest.chunks:
            expected = f"{CHUNK_DIR}/{chunk_file_name(chunk.day_start, chunk.day_end)}"
            if chunk.file != expected:
                raise SimulationError(
                    f"manifest {path}: chunk file {chunk.file!r} for days "
                    f"[{chunk.day_start}, {chunk.day_end}) is not {expected!r}"
                )
            if chunk.day_start != previous_end or chunk.day_end <= chunk.day_start:
                raise SimulationError(
                    f"manifest {path}: chunk index is not a contiguous "
                    f"tiling of days (at {chunk.file})"
                )
            previous_end = chunk.day_end
        return manifest
