"""Atomic, durable file writes -- with deterministic IO fault injection
and bounded retry.

Run artifacts (checkpoint manifests, impression chunks, snapshots,
telemetry), reports and the CSV/JSONL dataset exports all land through
one function, :func:`atomic_write_bytes` (or :func:`atomic_write_text`),
with the same crash-safe protocol: write the full payload to
``<name>.tmp`` in the destination directory, flush and ``fsync`` the
file, then ``os.replace`` it over the destination and ``fsync`` the
directory.  A crash at any point leaves either the old file or the new
file -- never a truncated hybrid.  The checkpoint runner
(:mod:`repro.runner`) builds its recovery guarantees on exactly this
property.

Two robustness layers sit on top of that protocol:

* **Fault injection** -- an :class:`IoShim` installed with
  :func:`set_io_shim` intercepts every write and executes planned
  :class:`WriteFault` s: raise ``ENOSPC``/``EIO`` before anything
  lands (``io-error``), let only a prefix of the payload land while
  reporting success (``io-torn``), or flip a byte after a successful
  write (``io-bitrot``).  Faults fire at the Nth write whose path
  matches a glob pattern, so tests declare exactly which artifact the
  disk lies about.  The checkpoint runner threads its
  :class:`~repro.runner.faults.FaultPlan`'s IO faults through here.

* **Retry on a fixed schedule** -- an ``OSError`` whose errno can clear
  (:data:`TRANSIENT_ERRNOS`) is retried once per entry of
  :data:`RETRY_DELAYS`, after sleeping that long; the clock only
  *waits*, it never decides.  Every retry bumps the ``io.retries``
  counter.  A write that exhausts the schedule, or fails with any other
  errno (``ENOTDIR``, ``EACCES``, ...), bumps ``io.giveups`` once and
  re-raises for the caller to treat as fatal or degrade (the runner
  degrades auxiliary sinks, keeps chunk/manifest writes fatal).  The
  error names the path the caller passed, never the temporary file.
"""

from __future__ import annotations

import errno as _errno
import fnmatch
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .. import obs

__all__ = [
    "IO_ERROR",
    "IO_TORN",
    "IO_BITROT",
    "IoShim",
    "RETRY_DELAYS",
    "TRANSIENT_ERRNOS",
    "WriteFault",
    "atomic_write_bytes",
    "atomic_write_text",
    "set_io_shim",
    "sha256_bytes",
    "sha256_file",
]

# IO telemetry (repro.obs).  Counter bumps are plain attribute adds;
# nothing here touches the named RNG streams.
_RETRIES = obs.counter("io.retries")
_GIVEUPS = obs.counter("io.giveups")
_FSYNC_FAILURES = obs.counter("io.fsync_failures")

_log = obs.get_logger("records.atomic")

# ----------------------------------------------------------------------
# Fault injection: the disk lies, deterministically
# ----------------------------------------------------------------------

#: The write call raises ``OSError(err)`` before anything lands
#: (retried when ``err`` is in :data:`TRANSIENT_ERRNOS`, as the default
#: ``ENOSPC`` is: the shim counts attempts, so a once-only fault clears).
IO_ERROR = "io-error"
#: The write reports success but only ``len(data) - detail`` bytes
#: landed -- a torn write on a filesystem that lied about durability.
IO_TORN = "io-torn"
#: The write succeeds, then the byte at offset ``detail`` is flipped --
#: silent media corruption only a checksum scan can see.
IO_BITROT = "io-bitrot"

_IO_ACTIONS = (IO_ERROR, IO_TORN, IO_BITROT)


@dataclass
class WriteFault:
    """One planned IO fault: fire ``action`` at the ``nth`` write whose
    target path matches ``pattern`` (fnmatch against the file name and
    the full posix path), for ``times`` consecutive matching writes."""

    pattern: str
    action: str = IO_ERROR
    #: ``errno`` raised for :data:`IO_ERROR` faults.
    err: int = _errno.ENOSPC
    #: 1-based index of the first matching write affected.
    nth: int = 1
    #: Number of consecutive matching writes affected (use a large
    #: value to simulate a persistently failing device).
    times: int = 1
    #: Bytes torn off the tail (:data:`IO_TORN`) or the byte offset
    #: flipped (:data:`IO_BITROT`).
    detail: int = 64
    #: Matching writes seen so far (mutated by the shim).
    seen: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _IO_ACTIONS:
            raise ValueError(f"unknown IO fault action {self.action!r}")
        if self.nth < 1 or self.times < 1:
            raise ValueError("nth and times must be >= 1")

    def matches(self, path: Path) -> bool:
        return fnmatch.fnmatch(path.name, self.pattern) or fnmatch.fnmatch(
            path.as_posix(), f"*{self.pattern}"
        )


class IoShim:
    """Deterministic fault layer the atomic-write path consults.

    Stateless apart from per-fault match counters, so one shim instance
    describes one run's worth of planned damage.  ``fired`` records
    every (fault, path) hit for test assertions.
    """

    def __init__(self, faults: Iterable[WriteFault] = ()) -> None:
        self.faults: list[WriteFault] = list(faults)
        self.fired: list[tuple[WriteFault, str]] = []

    def take(self, path: Path) -> WriteFault | None:
        """The fault (if any) to execute for this write attempt."""
        for fault in self.faults:
            if not fault.matches(path):
                continue
            fault.seen += 1
            if fault.nth <= fault.seen < fault.nth + fault.times:
                self.fired.append((fault, str(path)))
                obs.event(
                    "io.fault",
                    path=path.name,
                    action=fault.action,
                    attempt=fault.seen,
                )
                return fault
        return None


_IO_SHIM: IoShim | None = None


def set_io_shim(shim: IoShim | None) -> IoShim | None:
    """Install (or with ``None`` remove) the process-global IO shim.

    Returns the previously installed shim so callers can restore it --
    the checkpoint runner installs its fault plan's shim for the
    duration of a run.  Production runs install nothing and pay one
    global read per write.
    """
    global _IO_SHIM
    previous = _IO_SHIM
    _IO_SHIM = shim
    return previous


# ----------------------------------------------------------------------
# Retry schedule
# ----------------------------------------------------------------------

#: Seconds to wait before each retry of a transient failure; one retry
#: per entry.  A fixed tuple -- no wall-clock reads, no jitter -- so two
#: same-seed runs that hit the same injected faults retry identically,
#: and a failing disk costs a run well under a second, not minutes.
RETRY_DELAYS: tuple[float, ...] = (0.01, 0.05, 0.25)

#: Errnos a retry can clear (a full or flaky device, an interrupted or
#: busy call).  Any other ``OSError`` -- a missing or non-directory
#: parent, a permission error -- fails the same way every time, so it
#: raises on the first attempt.
TRANSIENT_ERRNOS = frozenset(
    {_errno.EIO, _errno.ENOSPC, _errno.EAGAIN, _errno.EINTR, _errno.EBUSY}
)


# ----------------------------------------------------------------------
# fsync helpers
# ----------------------------------------------------------------------

_fsync_dir_warned = False


def _note_fsync_failure(path: str | Path, exc: OSError) -> None:
    """Count a directory-fsync failure and warn exactly once.

    Some filesystems (and most CI sandboxes) reject directory fsync;
    the rename is still atomic, only its *durability* across power loss
    is weaker.  That is worth one warning and a counter -- not a
    per-write log storm, and never a crashed simulation.
    """
    global _fsync_dir_warned
    _FSYNC_FAILURES.inc()
    if not _fsync_dir_warned:
        _fsync_dir_warned = True
        _log.warning(
            "directory fsync failed for %s (%s); renames remain atomic "
            "but may not survive power loss on this filesystem",
            path,
            exc,
        )


def _fsync_dir(path: str | Path) -> None:
    """Best-effort fsync of a directory (persists renames within it).

    Failures are surfaced through the ``io.fsync_failures`` counter and
    a one-time warning rather than silently swallowed.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        _note_fsync_failure(path, exc)
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        _note_fsync_failure(path, exc)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Atomic writers
# ----------------------------------------------------------------------


def _flip_byte(path: Path, offset: int) -> None:
    """Invert one byte of ``path`` in place (injected bitrot)."""
    data = bytearray(path.read_bytes())
    if not data:
        return
    index = offset % len(data)
    data[index] ^= 0xFF
    path.write_bytes(bytes(data))


def _write_once(target: Path, data: bytes) -> None:
    """One attempt of the tmp + fsync + replace protocol, shim applied."""
    shim = _IO_SHIM
    fault = shim.take(target) if shim is not None else None
    if fault is not None and fault.action == IO_ERROR:
        raise OSError(fault.err, os.strerror(fault.err), str(target))
    payload = data
    if fault is not None and fault.action == IO_TORN:
        payload = data[: max(0, len(data) - fault.detail)]
    tmp = target.with_name(target.name + ".tmp")
    handle = open(tmp, "wb")
    try:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise
    handle.close()
    try:
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(target.parent)
    if fault is not None and fault.action == IO_BITROT:
        _flip_byte(target, fault.detail)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically write ``data`` to ``path``, retrying transient errors.

    A transient ``OSError`` (:data:`TRANSIENT_ERRNOS`) is retried on the
    :data:`RETRY_DELAYS` schedule, each retry bumping ``io.retries``.
    When the schedule is exhausted, or at once for any other error, the
    write bumps ``io.giveups`` and raises; an error that names the
    temporary file is re-raised naming ``path`` (same errno, same
    ``OSError`` subclass).
    """
    target = Path(path)
    attempt = 0
    while True:
        try:
            _write_once(target, data)
            return
        except OSError as exc:
            if exc.errno in TRANSIENT_ERRNOS and attempt < len(RETRY_DELAYS):
                _RETRIES.inc()
                time.sleep(RETRY_DELAYS[attempt])
                attempt += 1
                continue
            error = exc
            if exc.filename is not None and os.fspath(exc.filename) != str(target):
                error = OSError(exc.errno, exc.strerror, str(target))
            _GIVEUPS.inc()
            obs.event(
                "io.giveup",
                path=target.name,
                attempts=attempt + 1,
                error=str(error),
            )
            if error is exc:
                raise
            raise error from exc


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically write ``text`` to ``path`` (UTF-8), with retries."""
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 of a byte string."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Hex SHA-256 of a file's contents (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_size)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()
