"""Exact per-position margin computation and margin summary statistics.

The margin at a position is the gap between the two largest logits.  Ties
are broken deterministically: the lower token id wins, so results are
reproducible across platforms and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

__all__ = [
    "Audit",
    "MarginRecord",
    "MarginQuantiles",
    "compute_margins",
    "topk_ids",
    "top2_stats",
    "column_margins",
    "margin_quantiles",
    "unique_value_count",
    "nearest_rank_quantile",
]


@dataclass(frozen=True)
class MarginRecord:
    """One audited position: a row of an ``Audit``.

    Invariants: margin is finite and >= 0, top1_id != top2_id, and correct
    is exactly (top1_id == target_id).
    """

    position_index: int
    target_id: int
    top1_id: int
    top2_id: int
    margin: float
    correct: bool


# Audit columns in MarginRecord field order: (name, accepted dtype kinds, dtype).
_COLUMNS = (
    ("position", "iu", np.int64),
    ("target", "iu", np.int64),
    ("top1", "iu", np.int64),
    ("top2", "iu", np.int64),
    ("margin", "fiu", np.float64),
    ("correct", "b", np.bool_),
)


@dataclass(frozen=True, eq=False)
class Audit:
    """A margin audit as six aligned columns, one entry per position:
    int64 ids (``position``, ``target``, ``top1``, ``top2``), float64
    ``margin`` and bool ``correct`` (other kinds raise ``UsageError``).

    ``len``, iteration and integer indexing give ``MarginRecord`` rows, a
    slice gives an ``Audit``, and ``==`` (against an ``Audit`` or a
    sequence of records) compares every column and returns one bool.
    """

    position: np.ndarray
    target: np.ndarray
    top1: np.ndarray
    top2: np.ndarray
    margin: np.ndarray
    correct: np.ndarray

    def __post_init__(self):
        for name, kinds, dtype in _COLUMNS:
            col = np.asarray(getattr(self, name))
            if col.shape != np.shape(self.position) or col.ndim != 1 or (
                col.size and not (col.dtype.kind in kinds and np.can_cast(col.dtype, dtype))
            ):
                raise UsageError(
                    f"audit column {name!r} must be 1-D {np.dtype(dtype).name} with "
                    f"one entry per position, got {col.dtype} of shape {col.shape}"
                )
            object.__setattr__(self, name, col.astype(dtype, copy=False))

    @classmethod
    def from_records(cls, records) -> "Audit":
        """The audit of a sequence of ``MarginRecord``; an ``Audit`` is
        returned as it is."""
        if isinstance(records, Audit):
            return records
        rows = [
            (r.position_index, r.target_id, r.top1_id, r.top2_id, r.margin, r.correct)
            for r in records
        ]
        return cls(*(zip(*rows) if rows else [()] * len(_COLUMNS)))

    @classmethod
    def concat(cls, parts) -> "Audit":
        """The rows of every part, in order; positions are kept as they are."""
        parts = [cls.from_records(p) for p in parts]
        return cls(*(np.concatenate(cols) for cols in zip(*(p.columns() for p in parts))))

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.position, self.target, self.top1, self.top2, self.margin, self.correct)

    def first_invalid(self) -> int | None:
        """Index of the first row that breaks a ``MarginRecord`` invariant
        (margin finite and >= 0, top1 != top2, correct == (top1 == target)),
        or None."""
        bad = (
            ~np.isfinite(self.margin)
            | (self.margin < 0)
            | (self.top1 == self.top2)
            | (self.correct != (self.top1 == self.target))
        )
        return int(np.argmax(bad)) if bad.any() else None

    def __len__(self) -> int:
        return self.position.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Audit(*(c[index] for c in self.columns()))
        return MarginRecord(*(c[index].item() for c in self.columns()))

    def __iter__(self):
        return map(MarginRecord, *(c.tolist() for c in self.columns()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Audit, list, tuple)):
            return NotImplemented
        try:
            other = Audit.from_records(other)
        except (AttributeError, UsageError):
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))

    def __radd__(self, other) -> "Audit":
        """``records + audit``, so ``[record] + audit[1:]`` works as on a list."""
        return Audit.concat([other, self])


@dataclass(frozen=True)
class MarginQuantiles:
    """Nearest-rank quantile summary of a margin sample."""

    q05: float
    q25: float
    median: float
    q75: float
    q95: float
    pr_below_half: float


def topk_ids(rows: np.ndarray, k: int) -> np.ndarray:
    """Ids of each row's k largest entries, largest first, as a [rows, k]
    array; the lower id wins ties.

    Repeated masked ``argmax``, which returns the first maximum, so each
    row is read k times instead of sorted.  For finite rows this equals the
    first k columns of a stable argsort of ``-rows``; chosen entries are
    masked with -inf, so non-finite rows are not supported.
    """
    ids = np.empty((rows.shape[0], k), dtype=np.intp)
    ids[:, 0] = rows.argmax(axis=1)
    work = rows.astype(rows.dtype if rows.dtype.kind == "f" else np.float64)
    r = np.arange(rows.shape[0])
    for j in range(1, k):
        work[r, ids[:, j - 1]] = -np.inf
        ids[:, j] = work.argmax(axis=1)
    return ids


def top2_stats(logit_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-1/top-2 ids and margins for a batch of logit rows.

    Lower token id wins ties.  Returns (top1_ids, top2_ids, margins) as
    arrays of length ``rows``.

    Raises:
        UsageError: fewer than 2 columns.
        DataError: any non-finite logit (the message names the position).
    """
    rows = np.atleast_2d(np.asarray(logit_rows))
    if rows.ndim != 2:
        raise UsageError(f"logit rows must be 2-D, got shape {rows.shape}")
    if rows.shape[1] < 2:
        raise UsageError(f"need at least 2 logits per row, got V={rows.shape[1]}")
    finite = np.isfinite(rows)
    if not finite.all():
        pos = int(np.nonzero(~finite.all(axis=1))[0][0])
        raise DataError(f"non-finite logit at position {pos}")

    if rows.shape[1] == 2:
        # Closed form: column 1 wins only when strictly larger.
        x0, x1 = rows[:, 0], rows[:, 1]
        second_wins = x1 > x0
        top1 = second_wins.astype(np.intp)
        return top1, 1 - top1, np.where(second_wins, x1 - x0, x0 - x1)
    top1, top2 = topk_ids(rows, 2).T
    idx = np.arange(rows.shape[0])
    return top1, top2, rows[idx, top1] - rows[idx, top2]


def column_margins(logits: np.ndarray, start: int = 0) -> np.ndarray:
    """Margins of column-major logits ``[V, n]`` without ids: ``|x1 - x0|``
    at V = 2, else a running top and runner-up over the V rows.  Equal
    under ``==`` to ``top2_stats(logits.T)[2]`` (a zero margin between
    -0.0 and +0.0 logits may differ in sign).  Raises ``UsageError`` unless
    2-D with V >= 2, and ``DataError`` naming the column (counted from
    ``start``) of a non-finite logit.
    """
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[0] < 2:
        raise UsageError(f"need column-major logits [V >= 2, n], got shape {logits.shape}")
    if not np.isfinite(logits).all():
        pos = int(np.nonzero(~np.isfinite(logits).all(axis=0))[0][0])
        raise DataError(f"non-finite logit at position {start + pos}")
    if logits.shape[0] == 2:
        return np.abs(logits[1] - logits[0])
    top, second = np.maximum(logits[0], logits[1]), np.minimum(logits[0], logits[1])
    for row in logits[2:]:
        np.maximum(second, np.minimum(top, row), out=second)
        np.maximum(top, row, out=top)
    return np.subtract(top, second, out=top)


def compute_margins(logit_rows: np.ndarray, targets: np.ndarray) -> Audit:
    """The audit of a batch of logit rows, positions numbered from 0.

    ``targets[i]`` is the reference token id for row ``i``; ``correct`` is
    whether the top-1 token equals it.
    """
    rows = np.atleast_2d(np.asarray(logit_rows))
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != rows.shape[0]:
        raise UsageError(
            f"targets length {targets.shape} does not match {rows.shape[0]} rows"
        )
    top1, top2, margins = top2_stats(rows)
    return Audit(
        position=np.arange(rows.shape[0]),
        target=targets,
        top1=top1,
        top2=top2,
        margin=margins,
        correct=top1 == targets,
    )


def nearest_rank_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of an already-sorted 1-D array.

    For level q in (0, 1], the value at rank ceil(q * n).  Exact and
    interpolation-free, so results are reproducible bit for bit.
    """
    n = sorted_values.shape[0]
    if n == 0:
        raise UsageError("quantile of empty sample")
    rank = int(np.ceil(q * n))
    rank = min(max(rank, 1), n)
    return float(sorted_values[rank - 1])


def margin_quantiles(margins: np.ndarray) -> MarginQuantiles:
    """Nearest-rank quantiles plus Pr(margin < 0.5).

    Raises:
        UsageError: empty input.
    """
    m = np.asarray(margins, dtype=np.float64).ravel()
    if m.size == 0:
        raise UsageError("margin_quantiles requires a non-empty sample")
    s = np.sort(m)
    return MarginQuantiles(
        q05=nearest_rank_quantile(s, 0.05),
        q25=nearest_rank_quantile(s, 0.25),
        median=nearest_rank_quantile(s, 0.50),
        q75=nearest_rank_quantile(s, 0.75),
        q95=nearest_rank_quantile(s, 0.95),
        pr_below_half=float(np.count_nonzero(m < 0.5)) / m.size,
    )


def unique_value_count(values) -> int:
    """Number of distinct bit patterns in a float sample.

    Negative zero is canonicalized to +0.0 first so that +-0 count as one
    value.  Distinct NaN payloads count separately (bit-pattern semantics).
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return 0
    if arr.dtype == np.float32:
        view_dtype = np.uint32
    else:
        arr = arr.astype(np.float64)
        view_dtype = np.uint64
    arr = arr.copy().ravel()
    arr[arr == 0.0] = 0.0  # -0.0 == 0.0, so this rewrites both to +0.0
    return int(np.unique(arr.view(view_dtype)).size)
