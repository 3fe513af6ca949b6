"""Deterministic fault injection for the checkpoint runner.

A :class:`FaultPlan` says two things about a run: *when the process
dies* and *when the disk lies*.  Nothing here is random: tests declare
exactly where a run dies and what damage its writes leave behind, so
every recovery path (clean resume, corrupt-tail fallback, repair) is
exercised reproducibly.

**Site faults** (:class:`Fault`) are crashes.  The runner fires these
sites; the first pending fault that matches raises
:class:`InjectedCrash` -- the process dying there:

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

**IO faults** (:class:`~repro.records.atomic.WriteFault`) are damage:
``ENOSPC``/``EIO`` raised at the Nth write matching a path pattern, a
torn write that silently drops the payload tail, or a flipped byte
after a successful write.  The checkpoint runner installs the plan's
:class:`~repro.records.atomic.IoShim` into the atomic-write layer for
the duration of the run.  Damage left on disk is one of these plus a
crash: an ``io-torn`` or ``io-bitrot`` on a chunk's write followed by
``Fault("phase3:checkpoint", day=d)`` leaves a tail chunk whose bytes
do not match its manifest entry, which resume must discard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .. import obs
from ..records.atomic import IO_BITROT, IO_ERROR, IO_TORN, IoShim, WriteFault

__all__ = [
    "IO_ERROR",
    "IO_TORN",
    "IO_BITROT",
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "IoShim",
    "WriteFault",
]


class InjectedCrash(RuntimeError):
    """A simulated process death.

    Deliberately *not* a :class:`~repro.errors.ReproError`: real
    crashes (OOM kill, power loss) are not catchable package errors,
    and nothing in the package may swallow this.
    """


@dataclass(frozen=True)
class Fault:
    """One planned crash: die the first time ``site`` matches."""

    site: str
    day: int | None = None

    def matches(self, site: str, day: int | None) -> bool:
        return self.site == site and (self.day is None or self.day == day)


class FaultPlan:
    """An ordered set of crashes, each firing at most once, plus IO faults.

    The runner calls :meth:`fire` at every instrumentation site; the
    plan consumes the first pending fault whose site and day match and
    crashes.  ``io_faults`` additionally plan filesystem-level damage
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

    def fire(self, site: str, day: int | None = None) -> None:
        """Crash on the first pending fault matching this site, if any."""
        for index, fault in enumerate(self._pending):
            if fault.matches(site, day):
                break
        else:
            return
        del self._pending[index]
        self.fired.append(fault)
        where = f"{site}" + (f" day={day}" if day is not None else "")
        # Make the injected fault itself durable: real crashes leave no
        # trace, but *injected* ones are the tool that debugs recovery,
        # so flush the attached sinks before dying.  Best-effort only:
        # a plan that also breaks the telemetry device must still die
        # of the *injected* crash, not of the flush.
        obs.event("runner.fault", site=site, day=day)
        try:
            obs.tracer().flush()
        except OSError:
            pass
        raise InjectedCrash(f"injected crash at {where}")
