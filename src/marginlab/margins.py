"""Exact per-position margin computation and margin summary statistics.

The margin at a position is the gap between the two largest logits.  Ties
are broken deterministically: the lower token id wins, so results are
reproducible across platforms and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError


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
    slice gives an ``Audit``, and ``==`` against another ``Audit``
    compares every column and returns one bool.
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
    def concat(cls, parts) -> "Audit":
        """The rows of every ``Audit`` in ``parts``, in order; positions are
        kept as they are."""
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
        if not isinstance(other, Audit):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


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
    masked with -inf, so non-finite rows are not supported.  The masks go
    into ``rows`` itself and every masked entry is put back before this
    returns, so ``rows`` ends bit for bit as it was but must not be read
    by another thread meanwhile; only a read-only or non-float input is
    copied first.
    """
    if rows.dtype.kind != "f" or not rows.flags.writeable:
        rows = rows.astype(rows.dtype if rows.dtype.kind == "f" else np.float64)
    ids = np.empty((rows.shape[0], k), dtype=np.intp)
    ids[:, 0] = rows.argmax(axis=1)
    r = np.arange(rows.shape[0])
    saved, masked = np.empty((k - 1, rows.shape[0]), rows.dtype), 0
    try:
        for j in range(1, k):
            saved[j - 1] = rows[r, ids[:, j - 1]]
            masked = j
            rows[r, ids[:, j - 1]] = -np.inf
            ids[:, j] = rows.argmax(axis=1)
    finally:
        # Backwards, so an entry chosen twice (when a row has only -inf left)
        # gets its own value, not its mask.
        for j in range(masked, 0, -1):
            rows[r, ids[:, j - 1]] = saved[j - 1]
    return ids


def top2_stats(logit_rows: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-1/top-2 ids and margins for a batch of logit rows.

    Lower token id wins ties.  Returns (top1_ids, top2_ids, margins) as
    arrays of length ``rows``.  Selects in place as ``topk_ids`` does: a
    writable float ``logit_rows`` briefly holds -inf masks and ends bit for
    bit as it was, so no other thread may use it during the call (a
    writable memmap's file briefly holds the masks too).  Pass a read-only
    view or a copy to leave the array untouched throughout.

    Raises:
        UsageError: fewer than 2 columns.
        DataError: any non-finite logit (the message names its row + ``start``).
    """
    rows = np.atleast_2d(np.asarray(logit_rows))
    if rows.ndim != 2:
        raise UsageError(f"logit rows must be 2-D, got shape {rows.shape}")
    if rows.shape[1] < 2:
        raise UsageError(f"need at least 2 logits per row, got V={rows.shape[1]}")
    top1, top2 = topk_ids(rows, 2).T
    idx = np.arange(rows.shape[0])
    first = rows[idx, top1]
    # argmax picks a NaN or +inf when a row holds one, and the minimum of
    # the rows is -inf or NaN when one holds either.
    if rows.size and not (np.isfinite(first).all() and np.isfinite(rows.min())):
        pos = int(np.nonzero(~np.isfinite(rows).all(axis=1))[0][0])
        raise DataError(f"non-finite logit at position {start + pos}")
    return top1, top2, first - rows[idx, top2]


def column_margins(logits: np.ndarray, start: int | np.ndarray = 0) -> np.ndarray:
    """Margins of column-major logits ``[V, n]`` without ids: a running top
    and runner-up over the V rows.  Equal under ``==`` to
    ``top2_stats(logits.T)[2]`` (a zero margin between -0.0 and +0.0 logits
    may differ in sign).  Raises ``UsageError`` unless 2-D with V >= 2, and
    ``DataError`` naming the column (counted from ``start``, or
    ``start[column]`` when ``start`` is an array) of a non-finite logit.
    """
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[0] < 2:
        raise UsageError(f"need column-major logits [V >= 2, n], got shape {logits.shape}")
    # NaN fails both comparisons; the finiteness mask is built only to name the column.
    if logits.size and not (logits.min() > -np.inf and logits.max() < np.inf):
        pos = int(np.nonzero(~np.isfinite(logits).all(axis=0))[0][0])
        name = start[pos] if np.ndim(start) else start + pos
        raise DataError(f"non-finite logit at position {name}")
    top, second = np.maximum(logits[0], logits[1]), np.minimum(logits[0], logits[1])
    for row in logits[2:]:
        np.maximum(second, np.minimum(top, row), out=second)
        np.maximum(top, row, out=top)
    return np.subtract(top, second, out=top)


def compute_margins(logit_rows: np.ndarray, targets: np.ndarray, start: int = 0) -> Audit:
    """The audit of a batch of logit rows, positions numbered from ``start``.

    ``targets[i]`` is the reference token id for row ``i``; ``correct`` is
    whether the top-1 token equals it.  Selects in place: a writable float
    ``logit_rows`` is masked and restored during the call, as in
    ``top2_stats``, so no other thread may use it meanwhile.
    """
    rows = np.atleast_2d(np.asarray(logit_rows))
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != rows.shape[0]:
        raise UsageError(
            f"targets length {targets.shape} does not match {rows.shape[0]} rows"
        )
    top1, top2, margins = top2_stats(rows, start)
    return Audit(
        position=np.arange(start, start + rows.shape[0]),
        target=targets,
        top1=top1,
        top2=top2,
        margin=margins,
        correct=top1 == targets,
    )


def nearest_rank(q: float, n: int) -> int:
    """The nearest rank of level q in (0, 1] among n values: ceil(q * n),
    clamped to [1, n]."""
    return min(max(int(np.ceil(q * n)), 1), n)


def nearest_rank_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of an already-sorted 1-D array.

    For level q in (0, 1], the value at rank ceil(q * n).  Exact and
    interpolation-free, so results are reproducible bit for bit.
    """
    n = sorted_values.shape[0]
    if n == 0:
        raise UsageError("quantile of empty sample")
    return float(sorted_values[nearest_rank(q, n) - 1])


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
