"""Per-position comparison machinery between two margin audits.

All operations take a baseline and a polished audit of the *same*
positions (equal counts, matching position indices and targets) and
aggregate position-level changes.  Each report takes ``Audit`` objects
and works on their columns:

* churn: top-1 prediction changed, split into wrong-to-right and
  right-to-wrong flips;
* runner-up rotation: top-1 kept, top-2 changed;
* band accuracy: accuracy within half-open margin bands;
* expansion: the distribution of per-position margin deltas;
* frequency buckets: flips stratified by target-token frequency.

Every report is a pure aggregate, invariant under permuting positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .margins import Audit, nearest_rank_quantile

BAND_EDGES = (0.5, 1.0, 2.0, 5.0)

# Buckets by target-token occurrence count: 1, 2-4, 5-19, 20-99, 100+.
FREQUENCY_EDGES = ((1, 1), (2, 4), (5, 19), (20, 99), (100, None))


@dataclass(frozen=True)
class ChurnReport:
    total: int
    churned: int
    w2r: int
    r2w: int
    flip_ratio: float | None  # None when r2w == 0
    net_corrected: int


@dataclass(frozen=True)
class RotationReport:
    rotated: int
    rotated_wider: int
    mean_margin_delta: float | None  # None when nothing rotated


@dataclass(frozen=True)
class BandRow:
    lo: float
    hi: float | None  # None for the unbounded top band
    count: int
    accuracy: float | None  # None for an empty band


@dataclass(frozen=True)
class BandTable:
    bands: tuple[BandRow, ...]
    total: int
    overall_accuracy: float


@dataclass(frozen=True)
class ExpansionReport:
    pct_wider: float
    mean_delta: float
    median_delta: float


@dataclass(frozen=True)
class FrequencyBucket:
    label: str
    count: int
    baseline_accuracy: float | None
    polished_accuracy: float | None
    delta: float | None
    net_corrected: int
    share_of_net: float | None  # None when total net corrected is 0


@dataclass(frozen=True)
class FrequencyBuckets:
    buckets: tuple[FrequencyBucket, ...]
    total_net_corrected: int


def _check_aligned(baseline: Audit, polished: Audit) -> None:
    """``DataError`` unless both audits cover the same positions with the
    same targets."""
    if len(baseline) != len(polished):
        raise DataError(
            f"audit size mismatch: {len(baseline)} vs {len(polished)} positions"
        )
    off = (baseline.position != polished.position) | (baseline.target != polished.target)
    if off.any():
        b, p = baseline[int(np.argmax(off))], polished[int(np.argmax(off))]
        raise DataError(
            f"audit position mismatch at index {b.position_index}: "
            f"({b.position_index}, target {b.target_id}) vs "
            f"({p.position_index}, target {p.target_id})"
        )


def _tally(baseline: Audit, polished: Audit, group: np.ndarray, n_groups: int) -> list[list[int]]:
    """Per group, the positions counted by (baseline correct, polished
    correct) as [wrong->wrong, wrong->right, right->wrong, right->right].
    Positions whose group is outside [0, n_groups) are not counted."""
    keep = (group >= 0) & (group < n_groups)
    code = group[keep] * 4 + baseline.correct[keep] * 2 + polished.correct[keep]
    return np.bincount(code, minlength=4 * n_groups).reshape(n_groups, 4).tolist()


def _share(net: int, total: int) -> float | None:
    return net / total if total != 0 else None


def churn_report(baseline: Audit, polished: Audit) -> ChurnReport:
    """Count top-1 changes and their correctness flips."""
    _check_aligned(baseline, polished)
    ww, w2r, r2w, rr = _tally(baseline, polished, baseline.top1 != polished.top1, 2)[1]
    return ChurnReport(
        total=len(baseline),
        churned=ww + w2r + r2w + rr,
        w2r=w2r,
        r2w=r2w,
        flip_ratio=(w2r / r2w) if r2w else None,
        net_corrected=w2r - r2w,
    )


def rotation_report(baseline: Audit, polished: Audit) -> RotationReport:
    """Positions whose top-1 held but whose runner-up changed."""
    _check_aligned(baseline, polished)
    rotated = (baseline.top1 == polished.top1) & (baseline.top2 != polished.top2)
    deltas = polished.margin[rotated] - baseline.margin[rotated]
    return RotationReport(
        rotated=deltas.size,
        rotated_wider=int(np.count_nonzero(deltas > 0)),
        mean_margin_delta=float(deltas.mean()) if deltas.size else None,
    )


def band_accuracy(audit: Audit) -> BandTable:
    """Accuracy within the half-open margin bands
    [0, 0.5), [0.5, 1), [1, 2), [2, 5), [5, inf)."""
    if not len(audit):
        raise UsageError("band_accuracy requires a non-empty audit")
    lows = (0.0,) + BAND_EDGES
    # Index of the last band start each margin reaches: -1 (no band) for a
    # negative or NaN margin.
    band = np.count_nonzero(audit.margin[:, None] >= np.asarray(lows), axis=1) - 1
    rows = []
    for lo, hi, (wrong, _, _, right) in zip(
        lows, BAND_EDGES + (None,), _tally(audit, audit, band, len(lows))
    ):
        n = wrong + right
        rows.append(BandRow(lo=lo, hi=hi, count=n, accuracy=right / n if n else None))
    return BandTable(
        bands=tuple(rows),
        total=len(audit),
        overall_accuracy=int(np.count_nonzero(audit.correct)) / len(audit),
    )


def expansion_report(baseline: Audit, polished: Audit) -> ExpansionReport:
    """Margin delta (polished minus baseline) over all positions."""
    _check_aligned(baseline, polished)
    deltas = polished.margin - baseline.margin
    return ExpansionReport(
        pct_wider=float(np.count_nonzero(deltas > 0)) / deltas.size,
        mean_delta=float(deltas.mean()),
        median_delta=nearest_rank_quantile(np.sort(deltas), 0.5),
    )


def _bucket_label(lo: int, hi: int | None) -> str:
    if hi is None:
        return f"{lo}+"
    if lo == hi:
        return str(lo)
    return f"{lo}-{hi}"


def frequency_audit(
    baseline: Audit, polished: Audit, target_counts: dict[int, int]
) -> FrequencyBuckets:
    """Per-frequency-bucket accuracy deltas and shares of net corrections.

    ``target_counts`` maps each target token id to its occurrence count in
    the audit corpus; a missing target, or a count below 1, is a data error.
    """
    overall = churn_report(baseline, polished)  # checks alignment
    ids, inverse = np.unique(baseline.target, return_inverse=True)
    try:
        counts = [target_counts[t] for t in ids.tolist()]
    except KeyError as e:  # the lowest target without a count: ids ascend
        raise DataError(f"no frequency count for target token {e.args[0]}") from None
    below = [t for t, c in zip(ids.tolist(), counts) if c < 1]
    if below:
        raise DataError(f"frequency count below 1 for target token {below[0]}")
    lows = [lo for lo, _ in FREQUENCY_EDGES]
    # Bucket of each distinct target, in Python: counts may exceed int64.
    bucket = [sum(c >= lo for lo in lows) - 1 for c in counts]

    buckets = []
    for (lo, hi), (ww, w2r, r2w, rr) in zip(
        FREQUENCY_EDGES,
        _tally(baseline, polished, np.array(bucket, dtype=np.intp)[inverse], len(lows)),
    ):
        n = ww + w2r + r2w + rr
        base_acc = (r2w + rr) / n if n else None
        pol_acc = (w2r + rr) / n if n else None
        buckets.append(
            FrequencyBucket(
                label=_bucket_label(lo, hi),
                count=n,
                baseline_accuracy=base_acc,
                polished_accuracy=pol_acc,
                delta=pol_acc - base_acc if n else None,
                net_corrected=w2r - r2w,
                share_of_net=_share(w2r - r2w, overall.net_corrected) if n else None,
            )
        )
    return FrequencyBuckets(
        buckets=tuple(buckets), total_net_corrected=overall.net_corrected
    )
