"""Resource profiler: RSS, CPU, and GC pauses per phase.

Performance work needs the resource *envelope* of a run
-- how much resident memory each phase holds, how close to one core
the process runs, how much time cyclic GC steals -- not just wall-clock
spans.  :class:`ResourceSampler` measures exactly that with three
zero-RNG instruments:

* a **background thread** samples resident-set size from
  ``/proc/self/statm`` (falling back to ``resource.getrusage`` peak
  RSS where ``/proc`` is absent) on a wall-clock timer;
* **CPU time** comes from ``os.times()`` deltas at phase boundaries,
  giving per-phase utilization (CPU seconds / wall seconds);
* **GC pauses** are measured by a ``gc.callbacks`` pair timing each
  collection with the monotonic clock.

Nothing here touches the named RNG streams -- the sampler thread only
reads ``/proc`` and clocks, the GC callbacks only do float arithmetic
-- so a sampled run is bit-identical to an unsampled one
(``tests/obs/test_determinism.py`` pins this with the sampler active).
The sampling interval is coarse (default 50 ms) and the thread sleeps
on an :class:`threading.Event`, so total overhead stays far inside the
3% telemetry budget (``benchmarks/test_obs_overhead.py``).

The summary lands in two places: a ``{"kind": "resources"}`` event in
``telemetry.jsonl`` (rendered by ``repro.obs report``), and notebooks
via :meth:`ResourceSampler.summary` directly.  Comparing memory across
commits is the repository benchmark's job (``bench/run.py``,
``peak_rss_mb``), not a run-directory diff's.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from pathlib import Path

__all__ = ["ResourceSampler", "read_rss_kb"]

#: Default wall-clock seconds between RSS samples.
DEFAULT_INTERVAL_S = 0.05

_STATM = Path("/proc/self/statm")


def _page_kb() -> float:
    try:
        return os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return 4.0


_PAGE_KB = _page_kb()


def read_rss_kb() -> float:
    """Current resident-set size in KiB (peak RSS where /proc is absent).

    ``/proc/self/statm`` is one short read with no allocation to speak
    of; platforms without it (macOS) fall back to ``getrusage`` peak
    RSS, which only ever grows -- still useful for the peak statistic.
    """
    try:
        fields = _STATM.read_text().split()
        return float(fields[1]) * _PAGE_KB
    except (OSError, IndexError, ValueError):
        try:
            import resource

            return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except Exception:  # pragma: no cover - no resource module
            return 0.0


class _PhaseStats:
    """Accumulators for one phase (or the whole run)."""

    __slots__ = (
        "samples",
        "rss_sum_kb",
        "rss_peak_kb",
        "cpu_s",
        "wall_s",
        "gc_collections",
        "gc_pause_total_s",
        "gc_pause_max_s",
    )

    def __init__(self) -> None:
        self.samples = 0
        self.rss_sum_kb = 0.0
        self.rss_peak_kb = 0.0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.gc_collections = 0
        self.gc_pause_total_s = 0.0
        self.gc_pause_max_s = 0.0

    def add_sample(self, rss_kb: float) -> None:
        self.samples += 1
        self.rss_sum_kb += rss_kb
        if rss_kb > self.rss_peak_kb:
            self.rss_peak_kb = rss_kb

    def add_gc_pause(self, pause_s: float) -> None:
        self.gc_collections += 1
        self.gc_pause_total_s += pause_s
        if pause_s > self.gc_pause_max_s:
            self.gc_pause_max_s = pause_s

    def to_dict(self) -> dict:
        mean = self.rss_sum_kb / self.samples if self.samples else 0.0
        util = self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0
        return {
            "samples": self.samples,
            "rss_peak_kb": round(self.rss_peak_kb, 1),
            "rss_mean_kb": round(mean, 1),
            "cpu_s": round(self.cpu_s, 4),
            "wall_s": round(self.wall_s, 4),
            "cpu_utilization": round(util, 4),
            "gc": {
                "collections": self.gc_collections,
                "pause_total_s": round(self.gc_pause_total_s, 6),
                "pause_max_s": round(self.gc_pause_max_s, 6),
            },
        }


class ResourceSampler:
    """Background RSS/CPU/GC sampler with per-phase attribution.

    Usage (the checkpoint runner does this automatically)::

        sampler = ResourceSampler()
        sampler.start()
        sampler.set_phase("phase1"); ...run phase 1...
        sampler.set_phase("phase3"); ...run phase 3...
        summary = sampler.stop()

    ``start``/``stop`` are idempotent and the sampler is single-use:
    build a fresh one per run.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        clock=time.perf_counter,
    ) -> None:
        self.interval_s = max(0.005, float(interval_s))
        self._clock = clock
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._overall = _PhaseStats()
        self._phases: dict[str, _PhaseStats] = {}
        self._phase: str | None = None
        self._phase_t0 = 0.0
        self._phase_cpu0 = 0.0
        self._t0 = 0.0
        self._cpu0 = 0.0
        self._gc_t0: float | None = None
        self._gc_callback_installed = False

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _cpu_now(self) -> float:
        times = os.times()
        return float(times.user + times.system)

    def start(self) -> None:
        """Start the sampler thread and install the GC timing hooks."""
        if self.running:
            return
        self._t0 = self._clock()
        self._cpu0 = self._cpu_now()
        self._stop_event.clear()
        if not self._gc_callback_installed:
            gc.callbacks.append(self._on_gc)
            self._gc_callback_installed = True
        self._sample_once()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-obs-resources", daemon=True
        )
        self._thread.start()

    def stop(self) -> dict:
        """Stop sampling, close the open phase, return the summary."""
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        if self._gc_callback_installed:
            try:
                gc.callbacks.remove(self._on_gc)
            except ValueError:  # pragma: no cover - already removed
                pass
            self._gc_callback_installed = False
        self._sample_once()
        with self._lock:
            self._close_phase_locked()
            self._overall.cpu_s = self._cpu_now() - self._cpu0
            self._overall.wall_s = self._clock() - self._t0
        return self.summary()

    # -- phase attribution ---------------------------------------------

    def set_phase(self, name: str | None) -> None:
        """Attribute subsequent samples/pauses/CPU to phase ``name``
        (``None`` closes the current phase without opening another)."""
        now = self._clock()
        cpu = self._cpu_now()
        with self._lock:
            self._close_phase_locked(now, cpu)
            self._phase = name
            self._phase_t0 = now
            self._phase_cpu0 = cpu
            if name is not None and name not in self._phases:
                self._phases[name] = _PhaseStats()

    def _close_phase_locked(
        self, now: float | None = None, cpu: float | None = None
    ) -> None:
        if self._phase is None:
            return
        stats = self._phases[self._phase]
        stats.wall_s += (now if now is not None else self._clock()) - self._phase_t0
        stats.cpu_s += (cpu if cpu is not None else self._cpu_now()) - self._phase_cpu0
        self._phase = None

    # -- sampling ------------------------------------------------------

    def _sample_once(self) -> None:
        rss = read_rss_kb()
        with self._lock:
            self._overall.add_sample(rss)
            if self._phase is not None:
                self._phases[self._phase].add_sample(rss)

    def _sample_loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self._sample_once()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = self._clock()
        elif phase == "stop" and self._gc_t0 is not None:
            pause = self._clock() - self._gc_t0
            self._gc_t0 = None
            with self._lock:
                self._overall.add_gc_pause(pause)
                if self._phase is not None:
                    self._phases[self._phase].add_gc_pause(pause)

    # -- output --------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready summary: overall + per-phase envelopes."""
        with self._lock:
            return {
                "interval_s": self.interval_s,
                "overall": self._overall.to_dict(),
                "phases": {
                    name: stats.to_dict()
                    for name, stats in sorted(self._phases.items())
                },
            }
