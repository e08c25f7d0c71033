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
    "MarginRecord",
    "MarginQuantiles",
    "compute_margins",
    "topk_ids",
    "top2_stats",
    "margin_quantiles",
    "unique_value_count",
    "nearest_rank_quantile",
]


@dataclass(frozen=True)
class MarginRecord:
    """One audited position.

    Invariants: margin >= 0, top1_id != top2_id, and correct is exactly
    (top1_id == target_id).
    """

    position_index: int
    target_id: int
    top1_id: int
    top2_id: int
    margin: float
    correct: bool


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


def compute_margins(logit_rows: np.ndarray, targets: np.ndarray) -> list[MarginRecord]:
    """Build one MarginRecord per logit row.

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
    return [
        MarginRecord(
            position_index=i,
            target_id=int(targets[i]),
            top1_id=int(top1[i]),
            top2_id=int(top2[i]),
            margin=float(margins[i]),
            correct=bool(top1[i] == targets[i]),
        )
        for i in range(rows.shape[0])
    ]


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
