"""Spearman rank correlation with mid-rank tie handling."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, UsageError


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the mean of the ranks they span."""
    v = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sv = v[order]
    # Group equal values; each group gets the average of its rank range.
    boundaries = np.nonzero(np.diff(sv))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [v.size]))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def spearman(x, y) -> float:
    """Spearman rho of two equal-length samples (n >= 3).

    Invariant under strictly increasing transforms of either argument.

    Raises:
        UsageError: length mismatch or n < 3.
        NumericalError: a constant input vector (rho is undefined).
    """
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.size != ya.size:
        raise UsageError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 3:
        raise UsageError(f"need at least 3 pairs, got {xa.size}")
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise NumericalError("spearman undefined for a constant vector")
    rx = midranks(xa)
    ry = midranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0.0:
        raise NumericalError("spearman undefined: zero rank variance")
    return float(np.sum(rx * ry) / denom)
