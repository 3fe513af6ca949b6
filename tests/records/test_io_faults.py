"""Deterministic IO fault injection and bounded retry in records.atomic."""

from __future__ import annotations

import errno
import os

import pytest

import repro.records.atomic as atomic
from repro import obs
from repro.records.atomic import (
    IO_BITROT,
    IO_ERROR,
    IO_TORN,
    IoShim,
    WriteFault,
    atomic_write_bytes,
    atomic_write_text,
    set_io_shim,
    sha256_bytes,
    sha256_file,
)

_RETRIES = obs.counter("io.retries")
_GIVEUPS = obs.counter("io.giveups")
_FSYNC = obs.counter("io.fsync_failures")


@pytest.fixture
def shim():
    """Install a fresh shim; always restore the previous one."""
    installed = []

    def install(*faults):
        new = IoShim(faults)
        installed.append((new, set_io_shim(new)))
        return new

    yield install
    while installed:
        _, previous = installed.pop()
        set_io_shim(previous)


@pytest.fixture
def retry_delays(monkeypatch):
    """Set the retry schedule: ``retry_delays(n)`` retries ``n`` times
    without waiting (``0`` disables retry)."""

    def set_retries(retries):
        monkeypatch.setattr(atomic, "RETRY_DELAYS", (0.0,) * retries)

    return set_retries


class TestWriteFault:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown IO fault action"):
            WriteFault("x", action="set-on-fire")

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            WriteFault("x", nth=0)
        with pytest.raises(ValueError):
            WriteFault("x", times=0)

    def test_matches_name_and_path_globs(self, tmp_path):
        by_name = WriteFault("chunk-*.npz")
        by_path = WriteFault("chunks/chunk-*.npz")
        path = tmp_path / "chunks" / "chunk-00000-00007.npz"
        assert by_name.matches(path)
        assert by_path.matches(path)
        assert not by_name.matches(tmp_path / "MANIFEST.json")

    def test_nth_and_times_window(self, tmp_path):
        fault = WriteFault("*.bin", nth=2, times=2)
        shim = IoShim([fault])
        hits = [shim.take(tmp_path / "a.bin") is not None for _ in range(5)]
        assert hits == [False, True, True, False, False]


class TestShimInstall:
    def test_set_returns_previous(self):
        first = IoShim()
        second = IoShim()
        assert set_io_shim(first) is None
        try:
            assert set_io_shim(second) is first
        finally:
            assert set_io_shim(None) is second
        assert set_io_shim(None) is None


class TestIoError:
    def test_raises_planned_errno_without_retry(
        self, tmp_path, shim, retry_delays
    ):
        retry_delays(0)
        shim(WriteFault("out.bin", action=IO_ERROR, err=errno.ENOSPC))
        with pytest.raises(OSError) as excinfo:
            atomic_write_bytes(tmp_path / "out.bin", b"data")
        assert excinfo.value.errno == errno.ENOSPC
        # Nothing landed, and no tmp orphan survived the failure.
        assert list(tmp_path.iterdir()) == []

    def test_transient_fault_is_retried_away(self, tmp_path, shim, retry_delays):
        retry_delays(3)
        installed = shim(WriteFault("out.bin", action=IO_ERROR, times=2))
        before = _RETRIES.value
        atomic_write_bytes(tmp_path / "out.bin", b"data")
        assert (tmp_path / "out.bin").read_bytes() == b"data"
        assert _RETRIES.value - before == 2
        assert len(installed.fired) == 2

    def test_persistent_fault_gives_up(self, tmp_path, shim, retry_delays):
        retry_delays(2)
        installed = shim(
            WriteFault("out.bin", action=IO_ERROR, err=errno.EIO, times=10**6)
        )
        retries, giveups = _RETRIES.value, _GIVEUPS.value
        with pytest.raises(OSError) as excinfo:
            atomic_write_bytes(tmp_path / "out.bin", b"data")
        assert excinfo.value.errno == errno.EIO
        assert _GIVEUPS.value - giveups == 1
        assert _RETRIES.value - retries == 2  # retries, then the give-up
        assert len(installed.fired) == 3
        assert list(tmp_path.iterdir()) == []

    def test_permanent_error_is_not_retried(self, tmp_path, retry_delays):
        # A path under a regular file fails the same way every time:
        # one attempt, one give-up, and the error names the path the
        # caller passed -- not the ``.tmp`` file the write opened.
        retry_delays(3)
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")
        target = blocker / "out.bin"
        retries, giveups = _RETRIES.value, _GIVEUPS.value
        with pytest.raises(NotADirectoryError) as excinfo:
            atomic_write_bytes(target, b"data")
        assert _RETRIES.value == retries
        assert _GIVEUPS.value - giveups == 1
        assert excinfo.value.filename == str(target)
        assert ".tmp" not in str(excinfo.value)

    def test_untargeted_paths_are_untouched(self, tmp_path, shim):
        shim(WriteFault("other.bin", action=IO_ERROR, times=10**6))
        atomic_write_text(tmp_path / "safe.txt", "fine")
        assert (tmp_path / "safe.txt").read_text() == "fine"


class TestTornAndBitrot:
    def test_torn_write_loses_the_tail_silently(self, tmp_path, shim):
        payload = bytes(range(200))
        shim(WriteFault("out.bin", action=IO_TORN, detail=64))
        atomic_write_bytes(tmp_path / "out.bin", payload)
        landed = (tmp_path / "out.bin").read_bytes()
        assert landed == payload[:-64]
        assert sha256_bytes(landed) != sha256_bytes(payload)

    def test_bitrot_flips_exactly_one_byte(self, tmp_path, shim):
        payload = bytes(200)
        shim(WriteFault("out.bin", action=IO_BITROT, detail=10))
        atomic_write_bytes(tmp_path / "out.bin", payload)
        landed = (tmp_path / "out.bin").read_bytes()
        assert len(landed) == len(payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, landed)) if a != b]
        assert diffs == [10]
        assert sha256_file(tmp_path / "out.bin") != sha256_bytes(payload)

    def test_faults_are_deterministic_across_identical_shims(self, tmp_path, shim):
        for attempt in ("a", "b"):
            shim(WriteFault("*.bin", action=IO_TORN, nth=2, detail=3))
            for i in range(3):
                atomic_write_bytes(tmp_path / f"{attempt}{i}.bin", b"0123456789")
            set_io_shim(None)
        # Same plan, same write sequence -> the same (second) write torn.
        for attempt in ("a", "b"):
            sizes = [
                len((tmp_path / f"{attempt}{i}.bin").read_bytes())
                for i in range(3)
            ]
            assert sizes == [10, 7, 10]


class TestFsyncFailures:
    def test_directory_fsync_failure_counts_not_raises(self, tmp_path, monkeypatch):
        real_fsync = os.fsync

        def failing_fsync(fd):
            # Only directory fds fail: the payload file fsync must
            # still run, or the test would pass for the wrong reason.
            import stat

            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EINVAL, "fsync not supported")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        before = _FSYNC.value
        atomic_write_bytes(tmp_path / "out.bin", b"data")
        assert (tmp_path / "out.bin").read_bytes() == b"data"
        assert _FSYNC.value - before == 1
