"""Package-wide logging setup.

One idempotent entry point, :func:`setup_logging`, configures the
``repro`` logger tree with a stderr handler so every CLI's diagnostics
share a single, consistent channel.  Telemetry does not go through
logging: spans, events and metrics reach only the attached sinks
(:mod:`repro.obs.sink`).  User-facing CLI *output* (reports,
summaries) stays on stdout via ``print``; everything diagnostic goes
through ``logging`` to stderr -- that is the package convention the
``__main__`` modules follow.

The handler resolves ``sys.stderr`` at emit time rather than capturing
it at construction, so redirection (including pytest's ``capsys``)
always sees the messages.  The default level is INFO, overridable with
the ``REPRO_LOG_LEVEL`` environment variable or the ``level``
argument.
"""

from __future__ import annotations

import logging
import os
import sys

__all__ = ["LOG_LEVEL_ENV", "setup_logging", "get_logger"]

LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Marker attribute identifying the handler this module installed.
_HANDLER_MARK = "_repro_obs_handler"


class _DynamicStderrHandler(logging.StreamHandler):
    """StreamHandler bound to the *current* ``sys.stderr``."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler.setStream compatibility
        pass


def _resolve_level(level: int | str | None) -> int:
    if level is None:
        level = os.environ.get(LOG_LEVEL_ENV, "INFO")
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            resolved = logging.INFO
        return resolved
    return int(level)


def setup_logging(level: int | str | None = None) -> logging.Logger:
    """Configure (once) and return the root ``repro`` logger.

    Safe to call from every CLI entry point: the first call installs
    the stderr handler, later calls only adjust the level.
    """
    logger = logging.getLogger("repro")
    resolved = _resolve_level(level)
    for handler in logger.handlers:
        if getattr(handler, _HANDLER_MARK, False):
            logger.setLevel(resolved)
            return logger
    handler = _DynamicStderrHandler()
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    logger.setLevel(resolved)
    logger.propagate = False
    return logger


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` tree (``get_logger("runner.cli")``)."""
    return logging.getLogger(f"repro.{name}")
