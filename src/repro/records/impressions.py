"""Columnar impression/click records.

Each row is one (auction, shown ad) pair.  A row carries a volume
``weight``: the sampled query stands in for ``weight`` real queries, so
``weight`` is the row's impression count, and ``clicks``/``spend`` are
the realized totals for those impressions.

This is the reproduction of the paper's "ad impression and click
records" dataset: ad information, matching information (match type, the
price charged), and query information (vertical, market), plus the
competition context (how many ads were shown, how many belonged to
eventually-labeled-fraud accounts) needed for Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RecordError

__all__ = ["ImpressionBuilder", "ImpressionTable"]

_FIELDS: tuple[tuple[str, str], ...] = (
    ("day", "f8"),
    ("advertiser_id", "i8"),
    ("ad_id", "i8"),
    ("vertical", "i2"),
    ("country", "i2"),
    ("match_type", "i1"),
    ("position", "i2"),
    ("mainline", "?"),
    ("weight", "f8"),
    ("clicks", "f8"),
    ("spend", "f8"),
    ("price", "f8"),
    ("n_shown", "i2"),
    ("n_fraud_shown", "i2"),
    ("fraud_labeled", "?"),
)


class ImpressionBuilder:
    """Accumulates impression rows cheaply during simulation.

    Rows arrive in chunks through :meth:`add_batch`: the vectorized
    auction loop adds one chunk per simulated day, and so does the
    scalar oracle, from one list per field.  Chunks are only
    concatenated once, at :meth:`drain` or :meth:`build`.
    """

    def __init__(self) -> None:
        self._chunks: dict[str, list[np.ndarray]] = {
            name: [] for name, _ in _FIELDS
        }
        self._chunk_rows = 0

    def add_batch(self, **arrays: np.ndarray) -> None:
        """Append one chunk of rows, given as parallel arrays per field.

        Every impression field must be present and all arrays (or
        lists) must share one length.  Arrays are cast to the storage
        dtype on ingestion so :meth:`build` is a pure concatenation.
        """
        expected = {name for name, _ in _FIELDS}
        if set(arrays) != expected:
            missing = expected - set(arrays)
            extra = set(arrays) - expected
            raise RecordError(
                f"impression batch fields: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        lengths = {name: len(arrays[name]) for name, _ in _FIELDS}
        if len(set(lengths.values())) != 1:
            raise RecordError(f"ragged impression batch: {lengths}")
        if lengths["day"] == 0:
            return
        for name, dtype in _FIELDS:
            self._chunks[name].append(np.asarray(arrays[name], dtype=dtype))
        self._chunk_rows += lengths["day"]

    def __len__(self) -> int:
        return self._chunk_rows

    def drain(self) -> dict[str, np.ndarray]:
        """Remove and return every pending row as per-field arrays.

        The checkpoint runner calls this at each checkpoint boundary to
        persist the rows accumulated since the previous one; feeding the
        returned mapping back through :meth:`add_batch` (in drain order)
        reconstructs the original row stream exactly.
        """
        arrays = {
            name: (
                np.concatenate(self._chunks[name])
                if self._chunks[name]
                else np.zeros(0, dtype=dtype)
            )
            for name, dtype in _FIELDS
        }
        for chunks in self._chunks.values():
            chunks.clear()
        self._chunk_rows = 0
        return arrays

    def build(self) -> "ImpressionTable":
        """Drain the accumulated rows into an :class:`ImpressionTable`."""
        return ImpressionTable(**self.drain())


@dataclass(frozen=True)
class ImpressionTable:
    """Finalized impression records as parallel numpy arrays."""

    day: np.ndarray
    advertiser_id: np.ndarray
    ad_id: np.ndarray
    vertical: np.ndarray
    country: np.ndarray
    match_type: np.ndarray
    position: np.ndarray
    mainline: np.ndarray
    weight: np.ndarray
    clicks: np.ndarray
    spend: np.ndarray
    price: np.ndarray
    n_shown: np.ndarray
    n_fraud_shown: np.ndarray
    fraud_labeled: np.ndarray

    def __post_init__(self) -> None:
        lengths = {name: len(getattr(self, name)) for name, _ in _FIELDS}
        if len(set(lengths.values())) != 1:
            raise RecordError(f"ragged impression table: {lengths}")

    def __len__(self) -> int:
        return len(self.day)

    @staticmethod
    def field_names() -> tuple[str, ...]:
        """Column names, in storage order."""
        return tuple(name for name, _ in _FIELDS)

    @staticmethod
    def field_dtypes() -> dict[str, str]:
        """Storage dtype per column, in storage order."""
        return {name: dtype for name, dtype in _FIELDS}

    def select(self, mask: np.ndarray) -> "ImpressionTable":
        """Row subset by boolean mask or index array."""
        return ImpressionTable(
            **{name: getattr(self, name)[mask] for name, _ in _FIELDS}
        )

    def in_window(self, start: float, end: float) -> "ImpressionTable":
        """Rows with ``start <= day < end``."""
        return self.select((self.day >= start) & (self.day < end))

    @property
    def has_fraud_competition(self) -> np.ndarray:
        """Per-row: a *different* fraud-labeled advertiser's ad was shown.

        For rows belonging to fraud-labeled advertisers, one of the
        ``n_fraud_shown`` ads is their own.
        """
        others = self.n_fraud_shown - self.fraud_labeled.astype(np.int16)
        return others > 0

    def total_clicks(self) -> float:
        """Sum of clicks across all rows."""
        return float(self.clicks.sum())

    def total_spend(self) -> float:
        """Sum of spend across all rows."""
        return float(self.spend.sum())
