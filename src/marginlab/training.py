"""Training harness: AdamW refinement runs, dose-response sweeps, and the
layer-wise virtual-margin scan.

Every run is deterministic given its seed: batch order comes from a
seeded generator, the optimizer is plain float64 numpy, and reductions
use a fixed association order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .audit import ChurnReport, churn_report
from .errors import NumericalError, UsageError, check_finite, check_int, check_size
from .gapfit import GapFit, fit_gap_curve
from .margins import Audit, compute_margins, margin_quantiles, nearest_rank_quantile, top2_stats
# cross_entropy and fisher_loss are unused here but patched here by bench/tracing.py.
from .objectives import MrpConfig, combined_loss, cross_entropy, fisher_loss  # noqa: F401
from .objectives import _log_softmax_at
from .rankstats import spearman
from .toylm import ToyLm


# AdamW's decoupled weight decay and the share of a run spent warming up.
WEIGHT_DECAY = 0.01
WARMUP_FRACTION = 0.05


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 200
    learning_rate: float = 3e-4
    batch_size: int = 1
    seed: int = 0
    mrp: MrpConfig = field(default_factory=MrpConfig)

    def __post_init__(self):
        check_finite(learning_rate=self.learning_rate)
        check_int(steps=self.steps, batch_size=self.batch_size, seed=self.seed)
        if self.steps < 1:
            raise UsageError("steps must be >= 1")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        check_size(batch_size=self.batch_size)
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be positive")


@dataclass(frozen=True)
class StepMetrics:
    step: int
    ce: float
    mrp: float
    median_margin: float


@dataclass(frozen=True)
class SweepRow:
    lambda_mrp: float
    median_margin: float
    pr_below_half: float
    gap_fit: GapFit
    churn: ChurnReport


@dataclass(frozen=True)
class LayerScanRow:
    layer_index: int
    spearman_ce_mrp: float | None


def make_chunks(token_ids: np.ndarray, context: int) -> list[np.ndarray]:
    """Split a token stream into non-overlapping context-length chunks.

    A trailing remainder of at least 2 tokens is kept as a short chunk.
    """
    ids = np.asarray(token_ids, dtype=np.int64).ravel()
    if ids.size < 2:
        raise UsageError("corpus must contain at least 2 tokens")
    chunks = (ids[start : start + context] for start in range(0, ids.size, context))
    return [c for c in chunks if c.size >= 2]


class _AdamW:
    """Decoupled-weight-decay Adam in float64, its moments laid out as the model's
    parameters, updating in place through two scratch arrays per parameter."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model: ToyLm):
        # Allocating these at the first step instead gains nothing: the backward
        # frees each step's temporaries as it walks, so glibc trims the heap top
        # after every CE step wherever these sit (about 10-11K minor faults per
        # refine pass with either placement, at the same speed).
        views, values = model.config.views, model.values
        self.model, self.t = model, 0
        self.m, self.v = views(np.zeros_like(values)), views(np.zeros_like(values))

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.model.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            a, b = np.empty_like(m), np.empty_like(m)
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
            # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p), operation for
            # operation, so the parameters match the out-of-place form bit for bit.
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - b2, out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), self.EPS, out=a)
            np.divide(np.divide(m, bc1, out=b), a, out=b)
            b += np.multiply(p.values, WEIGHT_DECAY, out=a)
            p.values -= np.multiply(b, lr, out=b)


def train(model: ToyLm, corpus_tokens, config: TrainConfig) -> list[StepMetrics]:
    """Refine ``model`` in place; returns the per-step metric log.

    Loss rows at step t come from ``batch_size`` corpus chunks drawn by a
    generator seeded with ``config.seed``; the loss is
    ce_weight * CE + lambda_mrp * objective per chunk, averaged over the
    batch.  Learning rate warms up linearly over
    ``WARMUP_FRACTION * steps`` steps, then stays flat.

    Raises:
        NumericalError: non-finite loss, naming the step.
    """
    chunks = make_chunks(corpus_tokens, model.config.context)
    sizes = np.array([c.size for c in chunks])
    rng = np.random.default_rng(config.seed)
    opt = _AdamW(model)
    warmup_steps = max(1, int(round(WARMUP_FRACTION * config.steps)))
    log: list[StepMetrics] = []

    for step in range(config.steps):
        picks = rng.integers(0, len(chunks), size=config.batch_size)
        model.zero_grad()
        ce = mrp = 0.0
        margin_pool = []
        with ad.Tape() as tape:
            loss_acc = None
            # Only the corpus remainder is short, so grouping the picks by
            # length gives at most two [b, T] batches, one pass each.
            lengths = sizes[picks]
            for size in np.unique(lengths):
                batch = np.stack([chunks[i] for i in picks[lengths == size]])
                logits, _ = model.forward(batch)
                if not np.isfinite(logits.values).all():
                    raise NumericalError(f"non-finite logits at step {step}")
                loss, parts = combined_loss(
                    logits, batch[:, 1:].ravel(), config.mrp, model.unembedding,
                    segments=len(batch),
                )
                # A batch's loss is the mean of its chunks' losses, so
                # weighting it by its share of the picks keeps the step's
                # loss the mean of per-chunk losses.
                weight = len(batch) / config.batch_size
                if weight != 1.0:
                    loss = ad.scale(loss, weight)
                loss_acc = loss if loss_acc is None else ad.add(loss_acc, loss)
                ce += weight * parts.ce
                mrp += weight * parts.objective
                margin_pool.append(parts.margins)
            if not np.isfinite(loss_acc.values).all():
                raise NumericalError(f"non-finite loss at step {step}")
            tape.backward(loss_acc)

        lr = config.learning_rate * min(1.0, (step + 1) / warmup_steps)
        opt.step(lr)

        margins = np.sort(np.concatenate(margin_pool))
        log.append(
            StepMetrics(
                step=step, ce=ce, mrp=mrp, median_margin=nearest_rank_quantile(margins, 0.5)
            )
        )
    return log


# Full-length chunks per ToyLm.evaluate pass in audit_model and layer_scan,
# a CE batch's worth; larger blocks ran barely faster and cost more peak
# memory.  A call's blocks (at most three shapes) share one scratch dict.
_AUDIT_BLOCK = 4


def _blocks(corpus_tokens, context: int) -> list[np.ndarray]:
    """The corpus chunks in order as [b, T] id blocks of at most
    ``_AUDIT_BLOCK`` full-length chunks, then the short remainder alone."""
    chunks = make_chunks(corpus_tokens, context)
    full = [c for c in chunks if c.size == context]
    blocks = [np.stack(full[i : i + _AUDIT_BLOCK]) for i in range(0, len(full), _AUDIT_BLOCK)]
    return blocks + [c[None] for c in chunks[len(full) :]]


def audit_model(model: ToyLm, corpus_tokens) -> Audit:
    """Full-precision margin audit of every loss position in the corpus.

    Positions are numbered sequentially across chunks, so two audits of
    the same corpus align position by position.
    """
    blocks = _blocks(corpus_tokens, model.config.context)
    starts = np.cumsum([0] + [block[:, 1:].size for block in blocks])
    scratch: dict = {}
    return Audit.concat(
        compute_margins(model.evaluate(block, scratch)[0], block[:, 1:].ravel(), start)
        for block, start in zip(blocks, starts)
    )


def check_lambdas(values) -> list[float]:
    """A sweep's lambdas as floats: non-empty, ascending, and each a valid
    ``MrpConfig.lambda_mrp``, or ``UsageError``."""
    lambdas = [float(v) for v in values]
    for lam in lambdas:
        MrpConfig(lambda_mrp=lam)
    if not lambdas or any(b < a for a, b in zip(lambdas, lambdas[1:])):
        raise UsageError("lambda list must be non-empty and sorted ascending")
    return lambdas


def dose_response(
    base_model: ToyLm, corpus_tokens, lambda_list, train_config: TrainConfig
) -> tuple[list[SweepRow], Audit]:
    """Train one run per lambda from the same base checkpoint and seed,
    audit each run, and compare it against the base model's audit.

    Returns ``(rows, baseline_audit)``.  All runs share the training
    corpus, seed, schedule and ``train_config.mrp`` objective; only
    lambda varies.
    """
    lambdas = check_lambdas(lambda_list)
    baseline_audit = audit_model(base_model, corpus_tokens)
    rows: list[SweepRow] = []
    for lam in lambdas:
        run = base_model.clone()
        cfg = replace(train_config, mrp=replace(train_config.mrp, lambda_mrp=lam))
        train(run, corpus_tokens, cfg)
        audit = audit_model(run, corpus_tokens)
        q = margin_quantiles(audit.margin)
        rows.append(
            SweepRow(
                lambda_mrp=lam,
                median_margin=q.median,
                pr_below_half=q.pr_below_half,
                gap_fit=fit_gap_curve(audit.margin),
                churn=churn_report(baseline_audit, audit),
            )
        )
    return rows, baseline_audit


def virtual_penalty_ce_rho(virtual_margins, final_ce, tau: float) -> float | None:
    """Spearman rho between final CE and the virtual refinement penalty
    max(0, tau - margin); None when the penalty vector is constant."""
    penalty = np.maximum(0.0, tau - np.asarray(virtual_margins, dtype=np.float64))
    try:
        return spearman(np.asarray(final_ce, dtype=np.float64), penalty)
    except NumericalError:
        return None


def layer_scan(model: ToyLm, corpus_tokens, tau: float = MrpConfig.tau) -> list[LayerScanRow]:
    """Correlation between final cross-entropy and each layer's virtual
    refinement penalty, pooled over every loss position in the corpus.

    A layer's hidden states are projected through the final output head
    to get virtual margins; the penalty is the margin deficit below tau.
    """
    MrpConfig(tau=tau)  # the same tau checks as training's
    ce, margins, scratch = [], [], {}
    for block in _blocks(corpus_tokens, model.config.context):
        logits, hiddens = model.evaluate(block, scratch, hidden=True)
        ce.append(-_log_softmax_at(logits, block[:, 1:].ravel())[2])
        margins.append([top2_stats(model.project_hidden(h, scratch))[2] for h in hiddens])
    ce = np.concatenate(ce)
    return [
        LayerScanRow(li, virtual_penalty_ce_rho(np.concatenate(layer), ce, tau))
        for li, layer in enumerate(zip(*margins))
    ]
