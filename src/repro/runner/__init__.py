"""Crash-safe checkpoint/resume runner with deterministic fault injection.

:class:`CheckpointRunner` persists simulation progress at phase
boundaries and per-N-day impression chunks, all written atomically, so
a minutes-long full-scale run survives crashes and resumes
bit-identically.  :class:`FaultPlan` injects crashes at exact, named
points and filesystem damage (errors, torn writes, bitrot: a
:class:`WriteFault`) at exact writes, so every recovery path is
testable.  :func:`verify_run` audits a run directory against its
manifest and :func:`repair_run` re-simulates damage back to vouched
bytes.  CLI::

    python -m repro.runner run --checkpoint-dir RUNS/x [--resume]
    python -m repro.runner verify RUNS/x
    python -m repro.runner doctor RUNS/x --repair
"""

from .chunkstore import chunk_to_bytes, load_chunk
from .doctor import RepairReport, VerifyReport, repair_run, verify_run
from .faults import (
    IO_BITROT,
    IO_ERROR,
    IO_TORN,
    Fault,
    FaultPlan,
    InjectedCrash,
    WriteFault,
)
from .manifest import ChunkEntry, RunManifest, config_sha256
from .runner import CheckpointRunner

__all__ = [
    "CheckpointRunner",
    "chunk_to_bytes",
    "load_chunk",
    "RunManifest",
    "ChunkEntry",
    "config_sha256",
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "WriteFault",
    "IO_ERROR",
    "IO_TORN",
    "IO_BITROT",
    "VerifyReport",
    "RepairReport",
    "verify_run",
    "repair_run",
]
