"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import os
import time

import numpy as np
import pytest

from marginlab import autodiff as ad
from marginlab import fileio
from marginlab.audit import (
    band_accuracy,
    churn_report,
    expansion_report,
    frequency_audit,
    rotation_report,
)
from marginlab.cli import main as cli_main
from marginlab.manifold import circle_two_sites, validate_scaling
from marginlab.margins import compute_margins, top2_stats, unique_value_count
from marginlab.objectives import MrpConfig, fisher_loss, margin_loss
from marginlab.precision import emulate_bf16, recompute_fp32_logits
from marginlab.rankstats import spearman
from marginlab.tokenclass import TokenClass, class_audit, classify_token
from marginlab.tokenizer import Vocab, tokenize
from marginlab.toylm import ToyLm, ToyLmConfig
from marginlab.training import TrainConfig, dose_response, train

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst_margin = 0.0
    for _ in range(100):
        rows = int(rng.integers(2, 5))
        v = int(rng.integers(4, 51))
        logits = rng.normal(scale=1.5, size=(rows, v))
        tau = float(rng.uniform(0.3, 1.5))
        err = ad.grad_check(lambda p: margin_loss(p[0], tau), [logits])
        worst_margin = max(worst_margin, err)
    worst_fisher = 0.0
    for _ in range(100):
        rows = int(rng.integers(1, 4))
        v = int(rng.integers(6, 25))
        d = int(rng.integers(4, 12))
        k = int(rng.integers(2, 6))
        logits = rng.normal(scale=1.5, size=(rows, v))
        w = rng.normal(size=(v, d))
        err = ad.grad_check(
            lambda p: fisher_loss(p[0], p[1], k), [logits, w], step=1e-6
        )
        worst_fisher = max(worst_fisher, err)
    elapsed = time.time() - t0
    report(
        1,
        "gradient correctness",
        worst_margin < 1e-4 and worst_fisher < 1e-4 and elapsed < 120,
        f"margin err {worst_margin:.2e}, fisher err {worst_fisher:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Fisher/KL second-order equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_fisher_kl_equivalence():
    rng = np.random.default_rng(2002)
    s = 1e-3
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(6, 20))
        rows = rng.normal(size=(k, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        p = np.exp(rng.normal(scale=1.0, size=k))
        p /= p.sum()
        i, j = rng.choice(k, size=2, replace=False)
        delta = rows[i] - rows[j]
        proj = rows @ delta
        sigma = np.diag(p) - np.outer(p, p)
        dsq = float(proj @ sigma @ proj)
        q = np.exp(np.log(p) + s * proj)
        q /= q.sum()
        kl = float(np.sum(p * (np.log(p) - np.log(q))))
        ratio = 2.0 * kl / s**2
        rel = abs(ratio - dsq) / dsq
        worst = max(worst, rel)
    report(2, "fisher/KL equivalence", worst < 0.01, f"worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. scaling-law validation on the antipodal circle
# ---------------------------------------------------------------------------


def test_criterion_3_scaling_law():
    # The analytic coefficient is 1/pi: the margin field |2 cos(theta)| is
    # V-shaped at both boundary points, so each contributes an interval of
    # length eps, and eta(eps) = 2 eps / (2 pi).  The dense counting
    # oracle agrees; see notes in the manifold module.
    t0 = time.time()
    verdict = validate_scaling(circle_two_sites(sample_count=1_000_000), seed=0)
    elapsed = time.time() - t0
    analytic = 1.0 / math.pi
    alpha_err = abs(verdict.fit.alpha_constrained - analytic) / analytic
    ok = (
        0.98 <= verdict.fit.beta <= 1.02
        and verdict.fit.r2 > 0.995
        and alpha_err < 0.05
        and verdict.relative_alpha_error < 0.05
        and elapsed < 60
    )
    report(
        3,
        "scaling-law validation",
        ok,
        f"beta {verdict.fit.beta:.4f}, r2 {verdict.fit.r2:.5f}, "
        f"alpha err {alpha_err:.3f} vs 1/pi, oracle err "
        f"{verdict.relative_alpha_error:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. bf16 artifact reproduction
# ---------------------------------------------------------------------------


def test_criterion_4_bf16_artifact():
    rng = np.random.default_rng(2026)
    n, d, v = 10_000, 32, 64
    hidden = rng.uniform(0.15, 0.85, size=(n, d))
    unemb = rng.uniform(0.0, 0.55, size=(v, d))
    fp32_logits = recompute_fp32_logits(hidden, unemb)
    assert 0.5 < fp32_logits.min() and fp32_logits.max() < 9.0  # the 1-8 regime

    _, _, m_fp32 = top2_stats(fp32_logits)
    _, _, m_bf16 = top2_stats(emulate_bf16(fp32_logits))
    full = unique_value_count(m_fp32.astype(np.float32))
    collapsed = unique_value_count(m_bf16.astype(np.float32))

    # recomputation from the unrounded hidden states is the fp32 pipeline:
    # running it again must reproduce the full count exactly
    again = recompute_fp32_logits(hidden, unemb)
    _, _, m_again = top2_stats(again)
    restored = unique_value_count(m_again.astype(np.float32))

    ok = collapsed <= 0.05 * full and restored == full and full > n // 2
    report(
        4,
        "bf16 artifact",
        ok,
        f"fp32 unique {full}, bf16 unique {collapsed} "
        f"({collapsed / full:.4f}), restored {restored}",
    )


# ---------------------------------------------------------------------------
# 5. dose-response monotonicity
# ---------------------------------------------------------------------------


def test_criterion_5_dose_response_monotonicity():
    """Fisher sweep over lambda in {0, 0.15, 0.3, 0.6} from one converged
    base checkpoint: median margin must be non-decreasing and Pr(m < 0.5)
    non-increasing across lambda (ties allowed)."""
    from importlib import resources

    t0 = time.time()
    text = resources.files("marginlab").joinpath("data/corpus.txt").read_text()
    tokens = tokenize(text)
    vocab = Vocab.from_tokens(tokens, 512)
    ids = vocab.encode(tokens)[:16_000]

    base = ToyLm(ToyLmConfig(), seed=0)
    train(
        base,
        ids,
        TrainConfig(steps=2000, learning_rate=1e-3, batch_size=4, seed=0,
                    mrp=MrpConfig(objective="fisher", lambda_mrp=0.0)),
    )
    sweep_cfg = TrainConfig(steps=200, learning_rate=1e-4, batch_size=1, seed=0,
                            mrp=MrpConfig(objective="fisher", lambda_mrp=0.0))
    rows, _ = dose_response(base, ids, [0.0, 0.15, 0.3, 0.6], sweep_cfg)
    elapsed = time.time() - t0

    medians = [r.median_margin for r in rows]
    prs = [r.pr_below_half for r in rows]
    median_ok = all(b >= a for a, b in zip(medians, medians[1:]))
    pr_ok = all(b <= a for a, b in zip(prs, prs[1:]))
    report(
        5,
        "dose-response monotonicity",
        median_ok and pr_ok and elapsed < 600,
        f"medians {[f'{m:.4f}' for m in medians]}, "
        f"pr {[f'{p:.4f}' for p in prs]}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. audit-suite oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_6_audit_oracle_equivalence():
    baseline, _ = fileio.read_audit(os.path.join(FIXTURES, "baseline_6.jsonl"))
    polished, _ = fileio.read_audit(os.path.join(FIXTURES, "polished_6.jsonl"))

    churn = churn_report(baseline, polished)
    fixture_ok = (
        churn.total == 6
        and churn.churned == 4
        and churn.w2r == 2
        and churn.r2w == 1
        and churn.flip_ratio == 2.0
        and churn.net_corrected == 1
    )
    rot = rotation_report(baseline, polished)
    fixture_ok &= rot.rotated == 1 and rot.rotated_wider == 1
    fixture_ok &= rot.mean_margin_delta == pytest.approx(0.5)
    exp = expansion_report(baseline, polished)
    deltas = [p.margin - b.margin for b, p in zip(baseline, polished)]
    fixture_ok &= exp.pct_wider == pytest.approx(
        sum(d > 0 for d in deltas) / 6
    ) and exp.mean_delta == pytest.approx(float(np.mean(deltas)))
    # baseline margins 0.30, 0.10, 0.80, 0.20, 1.00, 2.00
    bands = band_accuracy(baseline)
    fixture_ok &= [b.count for b in bands.bands] == [3, 1, 1, 1, 0]
    freq = frequency_audit(baseline, polished, {r.target_id: 1 + r.target_id * 30 for r in baseline})
    fixture_ok &= sum(b.count for b in freq.buckets) == 6
    texts = {2: ",", 3: "the", 4: "Paris", 5: "word", 6: "3.14", 7: "x3"}
    classes = class_audit(baseline, polished, texts)
    fixture_ok &= sum(r.count for r in classes.rows) == 6
    fixture_ok &= sum(r.net_corrected for r in classes.rows) == churn.net_corrected

    # seeded 10^4-position pair vs brute-force recomputation
    rng = np.random.default_rng(6006)
    vocab = 40
    base_l = rng.normal(size=(10_000, vocab))
    pol_l = base_l + 0.35 * rng.normal(size=(10_000, vocab))
    targets = rng.integers(0, vocab, size=10_000)
    base_a = compute_margins(base_l, targets)
    pol_a = compute_margins(pol_l, targets)

    churn2 = churn_report(base_a, pol_a)
    brute_churned = sum(b.top1_id != p.top1_id for b, p in zip(base_a, pol_a))
    brute_w2r = sum(
        b.top1_id != p.top1_id and not b.correct and p.correct
        for b, p in zip(base_a, pol_a)
    )
    brute_r2w = sum(
        b.top1_id != p.top1_id and b.correct and not p.correct
        for b, p in zip(base_a, pol_a)
    )
    big_ok = (churn2.churned, churn2.w2r, churn2.r2w) == (
        brute_churned,
        brute_w2r,
        brute_r2w,
    )
    rot2 = rotation_report(base_a, pol_a)
    big_ok &= rot2.rotated == sum(
        b.top1_id == p.top1_id and b.top2_id != p.top2_id
        for b, p in zip(base_a, pol_a)
    )
    table = band_accuracy(base_a)
    edges = [0.0, 0.5, 1.0, 2.0, 5.0, float("inf")]
    for row, (lo, hi) in zip(table.bands, zip(edges[:-1], edges[1:])):
        members = [r for r in base_a if lo <= r.margin < hi]
        big_ok &= row.count == len(members)
    exp2 = expansion_report(base_a, pol_a)
    d2 = np.array([p.margin - b.margin for b, p in zip(base_a, pol_a)])
    big_ok &= abs(exp2.mean_delta - d2.mean()) < 1e-12
    counts = {int(t): int(c) for t, c in zip(*np.unique(targets, return_counts=True))}
    freq2 = frequency_audit(base_a, pol_a, counts)
    big_ok &= sum(b.count for b in freq2.buckets) == 10_000
    big_ok &= sum(b.net_corrected for b in freq2.buckets) == churn2.net_corrected
    token_texts = {t: str(t) for t in range(vocab)}  # numeric class for all
    cls2 = class_audit(base_a, pol_a, token_texts)
    numeric_row = next(r for r in cls2.rows if r.token_class == TokenClass.NUMERIC)
    big_ok &= numeric_row.count == 10_000
    big_ok &= numeric_row.net_corrected == churn2.net_corrected

    report(6, "audit-suite oracle equivalence", bool(fixture_ok and big_ok))


# ---------------------------------------------------------------------------
# 7. token-class conformance
# ---------------------------------------------------------------------------


def test_criterion_7_token_class_conformance():
    expectations = {
        ",": TokenClass.STRUCTURAL,
        "123": TokenClass.NUMERIC,
        "2023": TokenClass.NUMERIC,
        "3.14": TokenClass.NUMERIC,
        "50%": TokenClass.NUMERIC,
        "the": TokenClass.FUNCTION_WORD,
        "of": TokenClass.FUNCTION_WORD,
        "is": TokenClass.FUNCTION_WORD,
        "they": TokenClass.FUNCTION_WORD,
        "which": TokenClass.FUNCTION_WORD,
        "Paris": TokenClass.ENTITY_LIKE,
        "John": TokenClass.ENTITY_LIKE,
        "USA": TokenClass.ENTITY_LIKE,
        "NLP": TokenClass.ENTITY_LIKE,
    }
    failures = [
        (tok, classify_token(tok), want)
        for tok, want in expectations.items()
        if classify_token(tok) != want
    ]
    report(7, "token-class conformance", not failures, f"failures: {failures}")


# ---------------------------------------------------------------------------
# 8. spearman oracle
# ---------------------------------------------------------------------------


def test_criterion_8_spearman_oracle():
    def brute(x, y):
        def ranks(v):
            return [
                sum(1 for u in v if u < w) + (sum(1 for u in v if u == w) + 1) / 2.0
                for w in v
            ]

        rx = np.array(ranks(list(x)))
        ry = np.array(ranks(list(y)))
        rx -= rx.mean()
        ry -= ry.mean()
        return float(np.sum(rx * ry) / math.sqrt(np.sum(rx**2) * np.sum(ry**2)))

    rng = np.random.default_rng(8008)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(5, 200))
        # mix continuous and heavily tied vectors
        if rng.random() < 0.5:
            x = rng.integers(0, 6, size=n).astype(float)
        else:
            x = rng.normal(size=n)
        if rng.random() < 0.5:
            y = rng.integers(0, 6, size=n).astype(float)
        else:
            y = rng.normal(size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        worst = max(worst, abs(spearman(x, y) - brute(x, y)))
        done += 1
    report(8, "spearman oracle", worst < 1e-12, f"worst |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1754600000")
    rng = np.random.default_rng(9009)
    corpus = " ".join(
        ["alpha beta gamma delta".split()[int(rng.integers(0, 4))] for _ in range(1200)]
    )
    corpus_path = str(tmp_path / "corpus.txt")
    with open(corpus_path, "w") as f:
        f.write(corpus)

    logits = rng.normal(size=(50, 9)).astype(np.float32)
    lp = str(tmp_path / "logits.bin")
    fileio.write_logits(lp, logits)
    tp = str(tmp_path / "targets.json")
    import json

    with open(tp, "w") as f:
        json.dump([int(x) for x in rng.integers(0, 9, size=50)], f)

    outs = []
    for run in (1, 2):
        audit = str(tmp_path / f"audit{run}.jsonl")
        ckpt = str(tmp_path / f"model{run}.ckpt")
        scan = str(tmp_path / f"scan{run}.csv")
        fit = str(tmp_path / f"fit{run}.json")
        assert cli_main(["audit", lp, tp, audit, "--seed", "0"]) == 0
        assert (
            cli_main(
                [
                    "train", corpus_path, ckpt, "--steps", "6", "--seed", "0",
                    "--vocab-size", "8", "--hidden-dim", "16", "--layers", "2",
                    "--heads", "2", "--context", "12",
                ]
            )
            == 0
        )
        assert cli_main(["layer-scan", ckpt, corpus_path, scan]) == 0
        margins = (np.arange(2000) + 0.5) / 2000
        from marginlab.margins import Audit

        n = margins.size
        recs = Audit(np.arange(n), np.zeros(n, int), np.ones(n, int), np.full(n, 2), margins,
                     np.zeros(n, bool))
        ap = str(tmp_path / f"uniform{run}.jsonl")
        fileio.write_audit(ap, recs, created="2026-08-08T00:00:00Z")
        assert cli_main(["gap-fit", ap, "--out", fit]) == 0

        def slurp(path):
            with open(path, "rb") as f:
                return f.read()

        outs.append(tuple(slurp(p) for p in (audit, ckpt, scan, fit)))
    ok = all(a == b for a, b in zip(outs[0], outs[1]))
    report(9, "determinism", ok)
