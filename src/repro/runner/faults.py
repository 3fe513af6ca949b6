"""Deterministic fault injection for the checkpoint runner.

A :class:`FaultPlan` is an explicit, ordered list of faults to inject
at named instrumentation sites inside :class:`~repro.runner.runner.
CheckpointRunner`.  Nothing here is random: tests declare exactly where
a run dies and what damage is left behind, so every recovery path
(clean resume, corrupt-tail fallback, config-mismatch refusal) is
exercised reproducibly.

Sites fired by the runner:

``phase1:day``
    After each Phase-1 day's registrations are generated (``day=``).
``phase1:end``
    After the population + market snapshots became durable.
``phase3:day``
    After each Phase-3 day's impressions are in the builder, *before*
    any checkpoint for it is written (``day=``).
``phase3:checkpoint``
    After a checkpoint (chunk + manifest) became durable (``day=``).
``finalize``
    Just before the manifest is marked ``complete``.

Actions:

``crash``
    Raise :class:`InjectedCrash` -- simulates the process dying.
``truncate-chunk``
    Cut ``detail`` bytes (default 64) off the end of the most recent
    durable chunk file, then crash -- simulates post-checkpoint media
    corruption / a torn write on a non-atomic filesystem.  Resume must
    detect the checksum mismatch and discard the tail chunk.
``corrupt-manifest``
    Damage one manifest entry, then crash.  ``detail`` selects the
    entry: ``"config_sha256"`` (resume must refuse with
    :class:`~repro.errors.SimulationError`) or ``"tail-chunk-sha256"``
    (resume must discard the tail chunk and re-simulate its days).

Beyond the site faults, a plan can carry **IO faults**
(:class:`~repro.records.atomic.WriteFault`): declarative "the disk
lies" scenarios -- ``ENOSPC``/``EIO`` raised at the Nth write matching
a path pattern, a torn write that silently drops the payload tail, or
a flipped byte after a successful write.  The checkpoint runner
installs the plan's :class:`~repro.records.atomic.IoShim` into the
atomic-write layer for the duration of the run, so the same
:class:`FaultPlan` object describes both *when the process dies* and
*when the filesystem lies*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .. import obs
from ..records.atomic import IO_BITROT, IO_ERROR, IO_TORN, IoShim, WriteFault

__all__ = [
    "CRASH",
    "TRUNCATE_CHUNK",
    "CORRUPT_MANIFEST",
    "IO_ERROR",
    "IO_TORN",
    "IO_BITROT",
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "IoShim",
    "WriteFault",
]

CRASH = "crash"
TRUNCATE_CHUNK = "truncate-chunk"
CORRUPT_MANIFEST = "corrupt-manifest"
_ACTIONS = (CRASH, TRUNCATE_CHUNK, CORRUPT_MANIFEST)


class InjectedCrash(RuntimeError):
    """A simulated process death.

    Deliberately *not* a :class:`~repro.errors.ReproError`: real
    crashes (OOM kill, power loss) are not catchable package errors,
    and nothing in the package may swallow this.
    """


@dataclass(frozen=True)
class Fault:
    """One planned fault: fire ``action`` the first time ``site`` matches."""

    site: str
    day: int | None = None
    action: str = CRASH
    detail: object = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")

    def matches(self, site: str, day: int | None) -> bool:
        return self.site == site and (self.day is None or self.day == day)


class FaultPlan:
    """An ordered set of faults; each fires at most once.

    The runner calls :meth:`fire` at every instrumentation site; the
    plan executes (and consumes) the first pending fault whose site and
    day match.  ``io_faults`` additionally plan filesystem-level damage
    (see :class:`~repro.records.atomic.WriteFault`); the runner
    installs :meth:`io_shim` into the atomic-write layer for the
    duration of the run.  An empty plan is inert, so production runs
    pass no plan at all.
    """

    def __init__(
        self,
        faults: Iterable[Fault] = (),
        io_faults: Iterable[WriteFault] = (),
    ) -> None:
        self._pending: list[Fault] = list(faults)
        self.fired: list[Fault] = []
        self._io_shim = IoShim(io_faults) if io_faults else None

    def io_shim(self) -> IoShim | None:
        """The shim carrying this plan's IO faults (``None`` if none)."""
        return self._io_shim

    @classmethod
    def crash_at(cls, site: str, day: int | None = None) -> "FaultPlan":
        """Shorthand for a single process-death fault."""
        return cls([Fault(site=site, day=day)])

    @property
    def pending(self) -> tuple[Fault, ...]:
        """Faults that have not fired yet."""
        return tuple(self._pending)

    def fire(self, site: str, day: int | None = None, runner=None) -> None:
        """Execute the first pending fault matching this site, if any."""
        for index, fault in enumerate(self._pending):
            if fault.matches(site, day):
                del self._pending[index]
                self.fired.append(fault)
                self._execute(fault, site, day, runner)
                return

    def _execute(self, fault: Fault, site: str, day, runner) -> None:
        where = f"{site}" + (f" day={day}" if day is not None else "")
        if fault.action == TRUNCATE_CHUNK:
            _truncate_tail_chunk(runner, int(fault.detail or 64))
        elif fault.action == CORRUPT_MANIFEST:
            _corrupt_manifest(runner, str(fault.detail or "config_sha256"))
        # Make the injected fault itself durable: real crashes leave no
        # trace, but *injected* ones are the tool that debugs recovery,
        # so flush the attached sinks before dying.  Best-effort only:
        # a plan that also breaks the telemetry device must still die
        # of the *injected* crash, not of the flush.
        obs.event("runner.fault", site=site, day=day, action=fault.action)
        try:
            obs.tracer().flush()
        except OSError:
            pass
        raise InjectedCrash(f"injected {fault.action} at {where}")


def _truncate_tail_chunk(runner, n_bytes: int) -> None:
    """Chop the end off the newest durable chunk file (in place)."""
    manifest = json.loads(runner.manifest_path.read_text())
    chunks = manifest["chunks"]
    if not chunks:
        raise ValueError("no durable chunk to truncate")
    path = runner.run_dir / chunks[-1]["file"]
    data = path.read_bytes()
    path.write_bytes(data[: max(0, len(data) - n_bytes)])


def _corrupt_manifest(runner, key: str) -> None:
    """Flip one manifest entry to a bogus value (non-atomically)."""
    payload = json.loads(runner.manifest_path.read_text())
    if key == "config_sha256":
        payload["config_sha256"] = "0" * 64
    elif key == "tail-chunk-sha256":
        if not payload["chunks"]:
            raise ValueError("no chunk entry to corrupt")
        payload["chunks"][-1]["sha256"] = "0" * 64
    else:
        raise ValueError(f"unknown manifest corruption target {key!r}")
    runner.manifest_path.write_text(json.dumps(payload))
