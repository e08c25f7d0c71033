"""Margin-refinement objectives and the combined training loss.

Two refinement losses are provided:

* ``margin_loss``: mean margin over the low-margin gate, negated.  Cheap;
  pushes directly along the current top1-top2 axis.
* ``fisher_loss``: probability-weighted sum of pairwise Fisher
  information distances among the top-k tokens, negated.  The Fisher
  metric restricted to the renormalized top-k distribution is
  diag(p_k) - p_k p_k^T; token embedding rows are L2-normalized so the
  distance measures directional separation rather than norm differences.

Each objective is one tape node with a hand-written backward, and
``combined_loss`` feeds whichever is active from one top-k selection,
which also gives the logged margins.

Gradient semantics are hard throughout: top-k index sets and the margin
gate are frozen at forward time, so gradients flow only through the
selected values, never through the discrete choice itself, and
sqrt(clamp(., floor)) keeps gradients finite at near-zero distances.

Pair sums run over ordered pairs (i != j), so each unordered pair counts
twice; its weight is 2 p_i p_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accumulate, _make
from .errors import DataError, UsageError, check_finite, check_int
from .margins import topk_ids

__all__ = [
    "MrpConfig",
    "LossParts",
    "margin_loss",
    "cross_entropy",
    "fisher_distance",
    "fisher_loss",
    "combined_loss",
]

OBJECTIVES = ("margin", "fisher")


@dataclass(frozen=True)
class MrpConfig:
    """Refinement objective configuration.

    ``objective="margin"`` uses ``tau`` and ignores ``k``;
    ``objective="fisher"`` uses ``k``.  ``ce_weight=0`` gives pure-MRP
    training with no cross-entropy supervision.
    """

    objective: str = "margin"
    lambda_mrp: float = 0.0
    tau: float = 0.5
    k: int = 5
    clamp_floor: float = 1e-8
    ce_weight: float = 1.0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise UsageError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        check_finite(lambda_mrp=self.lambda_mrp, tau=self.tau, clamp_floor=self.clamp_floor,
                     ce_weight=self.ce_weight)
        check_int(k=self.k)
        if self.lambda_mrp < 0:
            raise UsageError("lambda_mrp must be nonnegative")
        if self.tau <= 0:
            raise UsageError("tau must be positive")
        if self.k < 2:
            raise UsageError("k must be at least 2")
        if self.clamp_floor <= 0:
            raise UsageError("clamp_floor must be positive")
        if self.ce_weight < 0:
            raise UsageError("ce_weight must be nonnegative")


@dataclass(frozen=True)
class LossParts:
    """The values one ``combined_loss`` call computed, for logging.

    ``objective`` is evaluated even when ``lambda_mrp`` is 0, and
    ``margins`` (each row's top1 - top2 logit) come from the objective's
    own top-k selection.
    """

    ce: float
    objective: float
    margins: np.ndarray


def _check_logits(logits: Tensor) -> None:
    if logits.values.ndim != 2:
        raise UsageError(f"logit rows must be 2-D, got shape {logits.shape}")
    if logits.values.shape[1] < 2:
        raise UsageError(f"need V >= 2, got V={logits.values.shape[1]}")
    if not np.isfinite(logits.values).all():
        raise DataError("non-finite logits")


def _top_ids(values: np.ndarray, k: int, top_ids, *, wider: bool = False) -> np.ndarray:
    """The rows' own top-k ids, or a caller's ``top_ids`` checked to be
    [rows, k] integers (at least k columns when ``wider``) that are
    distinct within each row and lie in [0, V)."""
    if top_ids is None:
        return topk_ids(values, k)
    ids = np.asarray(top_ids)
    n, v = values.shape
    if (ids.ndim != 2 or ids.shape[0] != n or ids.dtype.kind not in "iu"
            or not (ids.shape[1] >= k if wider else ids.shape[1] == k)):
        raise UsageError(f"top_ids {ids.dtype} {ids.shape} do not match {n} rows and k={k}")
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise UsageError(f"top_ids outside [0, {v})")
    ordered = np.sort(ids, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise UsageError("top_ids repeat an id within a row")
    return ids


def margin_loss(logit_rows, tau: float, segments: int = 1, *, top_ids=None) -> Tensor:
    """Negative mean margin (top1 - top2 logit) over rows whose margin is
    below tau.

    The rows may be ``segments`` equal-length blocks; each block's gated
    mean is taken on its own (an empty gate counts 0) and the blocks'
    values are averaged.  The gate is a hard boolean mask, so ungated
    rows get exactly zero gradient.  ``top_ids`` ([rows, >= 2], largest
    first) passes in a selection the caller already made; malformed ids
    are a ``UsageError``.  Recorded as one tape node.
    """
    logits = ad.as_tensor(logit_rows)
    _check_logits(logits)
    if tau <= 0:
        raise UsageError("tau must be positive")
    n_rows = logits.values.shape[0]
    if segments < 1 or n_rows % segments:
        raise UsageError(f"{n_rows} rows do not split into {segments} segments")
    ids = _top_ids(logits.values, 2, top_ids, wider=True)
    rows, top1, top2 = np.arange(n_rows), ids[:, 0], ids[:, 1]
    m = logits.values[rows, top1] - logits.values[rows, top2]
    gate = m < tau
    mg, gg = m.reshape(segments, -1), gate.reshape(segments, -1)
    counts = np.count_nonzero(gg, axis=1)
    value = float(np.mean([mg[s][gg[s]].mean() if n else 0.0 for s, n in enumerate(counts)]))

    def backward(g):
        if counts.any():
            w = float(g * -1.0) / segments / np.maximum(counts, 1)
            r = rows[gate]
            w_r = w[r // (n_rows // segments)]
            dx = np.zeros_like(logits.values)
            dx[r, top1[r]] = w_r
            dx[r, top2[r]] = -w_r
            _accumulate(logits, dx)

    return _make(value * -1.0, (logits,), backward)


def cross_entropy(logit_rows, targets) -> Tensor:
    """Mean negative log-softmax probability of the target ids."""
    logits = ad.as_tensor(logit_rows)
    _check_logits(logits)
    idx = np.asarray(targets, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != logits.values.shape[0]:
        raise UsageError(f"targets shape {idx.shape} does not match rows")
    if (idx < 0).any() or (idx >= logits.values.shape[1]).any():
        raise DataError("target id out of vocabulary range")
    return ad.scale(ad.mean(ad.log_softmax_gather(logits, idx)), -1.0)


def fisher_distance(
    p_k: np.ndarray,
    normalized_rows: np.ndarray,
    i: int,
    j: int,
    clamp_floor: float = 1e-8,
) -> float:
    """Fisher information distance between tokens i and j of a top-k set.

    ``p_k`` is the renormalized top-k probability vector and
    ``normalized_rows`` the k x d matrix of unit-norm embedding rows.  The
    squared distance is proj^T (diag(p) - p p^T) proj with
    proj = rows @ (rows_i - rows_j); the result is sqrt of the square
    clamped at ``clamp_floor``, hence symmetric in (i, j) and never zero.
    """
    p = np.asarray(p_k, dtype=np.float64).ravel()
    rows = np.asarray(normalized_rows, dtype=np.float64)
    k = p.size
    if rows.ndim != 2 or rows.shape[0] != k:
        raise UsageError(f"rows shape {rows.shape} does not match k={k}")
    if abs(p.sum() - 1.0) > 1e-6:
        raise UsageError(f"p_k must sum to 1, got {p.sum()}")
    norms = np.sqrt((rows * rows).sum(axis=1))
    if np.abs(norms - 1.0).max() > 1e-6:
        raise UsageError("rows must be unit-norm")
    if not (0 <= i < k and 0 <= j < k):
        raise UsageError(f"pair ({i}, {j}) out of range for k={k}")
    if clamp_floor <= 0:
        raise UsageError("clamp_floor must be positive")
    delta = rows[i] - rows[j]
    proj = rows @ delta
    sigma = np.diag(p) - np.outer(p, p)
    dsq = float(proj @ sigma @ proj)
    return math.sqrt(max(dsq, clamp_floor))


def fisher_loss(
    logit_rows, unembedding, k: int, clamp_floor: float = 1e-8, *, top_ids=None
) -> Tensor:
    """Negative mean (over rows) of the probability-weighted pairwise
    Fisher-distance sum among each row's top-k tokens.

    Per row: the top-k logits are renormalized by softmax, the embedding
    rows at the top-k ids are gathered and L2-normalized, and the penalty
    is sum over ordered pairs i != j of p_i p_j d_F(i, j).  Gradients flow
    through the probabilities, the normalized rows, and the quadratic
    form; the top-k index set itself is frozen.  ``top_ids`` ([rows, k],
    largest first) passes in a selection the caller already made;
    malformed ids are a ``UsageError``.

    All rows are computed as one [rows, k, k] batch and recorded as one
    tape node with a hand-written backward.
    """
    logits = ad.as_tensor(logit_rows)
    _check_logits(logits)
    w = ad.as_tensor(unembedding)
    if w.values.ndim != 2:
        raise UsageError("unembedding must be 2-D")
    if w.values.shape[0] != logits.values.shape[1]:
        raise UsageError(
            f"unembedding rows ({w.values.shape[0]}) must equal V "
            f"({logits.values.shape[1]})"
        )
    if k > logits.values.shape[1]:
        raise UsageError(f"k={k} exceeds V={logits.values.shape[1]}")
    if k < 2:
        raise UsageError("k must be at least 2")
    ids = _top_ids(logits.values, k, top_ids)

    n_rows = ids.shape[0]
    rows, diag = np.arange(n_rows)[:, None], np.arange(k)
    z = logits.values[rows, ids]
    p = np.exp(z - z[:, :1])  # column 0 holds the row maximum
    p /= p.sum(axis=1, keepdims=True)
    emb = w.values[ids]
    norms = np.maximum(np.sqrt(np.sum(emb * emb, axis=2, keepdims=True)), 1e-30)
    u = emb / norms
    gram = u @ u.transpose(0, 2, 1)
    pp = p[:, :, None] * p[:, None, :]
    sigma = -pp
    sigma[:, diag, diag] += p  # diag(p) - p p^T
    gs = gram @ sigma
    form = gs @ gram
    d = np.diagonal(form, axis1=1, axis2=2)
    # Pairwise squared distances from the symmetric form matrix:
    # dsq[i, j] = form[i, i] + form[j, j] - 2 form[i, j].
    dsq = (d[:, :, None] + d[:, None, :]) - form * 2.0
    dist = np.sqrt(np.maximum(dsq, clamp_floor))
    off_diagonal = 1.0 - np.eye(k)
    weights = pp * off_diagonal
    penalty = (weights * dist).reshape(n_rows, k * k).sum(axis=1)

    def backward(g):
        # Every [k, k] matrix here is symmetric, which halves the algebra.
        c = float(g) * (-1.0 / n_rows)
        d_dsq = c * weights * (dsq > clamp_floor) * 0.5 / dist
        d_form = d_dsq * -2.0
        d_form[:, diag, diag] += 2.0 * d_dsq.sum(axis=2)
        d_sigma = gram @ d_form @ gram
        d_pp = c * dist * off_diagonal - d_sigma
        dp = np.diagonal(d_sigma, axis1=1, axis2=2) + 2.0 * (d_pp @ p[:, :, None])[:, :, 0]
        dx = np.zeros_like(logits.values)
        dx[rows, ids] = p * (dp - np.sum(p * dp, axis=1, keepdims=True))
        _accumulate(logits, dx)
        # form = G S G, so d_gram = dF G S + S G dF, and gram = u u^T.
        dfgs = d_form @ gs
        d_u = 2.0 * (dfgs + dfgs.transpose(0, 2, 1)) @ u
        d_emb = (d_u - u * np.sum(d_u * u, axis=2, keepdims=True)) / norms
        dw = np.zeros_like(w.values)
        np.add.at(dw, ids.ravel(), d_emb.reshape(-1, dw.shape[1]))
        _accumulate(w, dw)

    return _make(penalty.sum() * (-1.0 / n_rows), (logits, w), backward)


def combined_loss(
    logit_rows, targets, config: MrpConfig, unembedding=None, *, with_parts=False, segments=1
):
    """ce_weight * cross-entropy + lambda_mrp * refinement objective.

    ``unembedding`` is required for the fisher objective whenever
    lambda_mrp > 0 or ``with_parts`` is set.  With ``with_parts`` the
    result is ``(loss, LossParts)``.  A term whose weight is 0 is
    evaluated on constants (cross-entropy always, the objective only for
    the parts), so it records no tape node.

    The rows may be ``segments`` equal-length sequences stacked in order;
    the loss is then the mean of their losses.  Row means already are, and
    the margin objective gates and averages each segment on its own.
    """
    logits = ad.as_tensor(logit_rows)
    frozen = ad.constant(logits.values)
    ce = cross_entropy(logits if config.ce_weight else frozen, targets)
    objective = margins = None
    if config.lambda_mrp != 0.0 or with_parts:
        source = logits if config.lambda_mrp else frozen
        fisher = config.objective == "fisher"
        if fisher and unembedding is None:
            raise UsageError("fisher objective requires the unembedding matrix")
        ids = topk_ids(source.values, config.k if fisher else 2)
        if fisher:
            w = ad.as_tensor(unembedding)
            w = w if config.lambda_mrp else ad.constant(w.values)
            objective = fisher_loss(source, w, config.k, config.clamp_floor, top_ids=ids)
        else:
            objective = margin_loss(source, config.tau, segments, top_ids=ids)
        r = np.arange(ids.shape[0])
        margins = source.values[r, ids[:, 0]] - source.values[r, ids[:, 1]]
    terms = [
        t if c == 1.0 else ad.scale(t, c)
        for t, c in ((ce, config.ce_weight), (objective, config.lambda_mrp))
        if c != 0.0
    ]
    out = terms[0] if terms else ad.constant(0.0)
    for t in terms[1:]:
        out = ad.add(out, t)
    if not with_parts:
        return out
    return out, LossParts(ce=ce.item(), objective=objective.item(), margins=margins)
