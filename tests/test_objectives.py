"""Refinement objectives against dense brute-force oracles."""

import math

import numpy as np
import pytest

from marginlab import autodiff as ad
from marginlab.errors import DataError, UsageError
from marginlab.objectives import (
    MrpConfig,
    combined_loss,
    cross_entropy,
    fisher_distance,
    fisher_loss,
    margin_loss,
)
from marginlab.margins import top2_stats, topk_ids

FLOOR = 1e-8


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def oracle_margin_loss(rows, tau):
    """Brute force: sort each row, gate, average."""
    margins = []
    for row in rows:
        s = sorted(row, reverse=True)
        margins.append(s[0] - s[1])
    gated = [m for m in margins if m < tau]
    return -float(np.mean(gated)) if gated else 0.0


def oracle_fisher_pair(p, rows, i, j, floor=FLOOR):
    """Dense matrix-product oracle for one pair."""
    delta = rows[i] - rows[j]
    proj = rows @ delta
    sigma = np.diag(p) - np.outer(p, p)
    dsq = float(proj @ sigma @ proj)
    return math.sqrt(max(dsq, floor)), dsq


def oracle_fisher_loss(logits, w, k, floor=FLOOR):
    """Dense brute-force implementation with explicit per-pair loops."""
    total = 0.0
    for row in logits:
        idx = np.argsort(-row, kind="stable")[:k]
        p = softmax_np(row[idx])
        rows = w[idx]
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        pen = 0.0
        for i in range(k):
            for j in range(k):
                if i != j:
                    d, _ = oracle_fisher_pair(p, rows, i, j, floor)
                    pen += p[i] * p[j] * d
        total += pen
    return -total / logits.shape[0]


def oracle_cross_entropy(rows, targets):
    """log-sum-exp oracle in float64."""
    out = []
    for row, t in zip(rows, targets):
        lse = math.log(np.sum(np.exp(row - row.max()))) + row.max()
        out.append(lse - row[t])
    return float(np.mean(out))


def unit_rows(rng, k, d):
    rows = rng.normal(size=(k, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def bad_top_ids(rows, k, case):
    """A [rows, k] top-k selection of ``rows`` spoiled in one way."""
    ids = topk_ids(rows, k)
    if case == "rows":
        return ids[:-1]
    if case == "columns":
        return ids[:, :1]
    if case == "negative":
        ids[1, 0] = -1
    elif case == "beyond_v":
        ids[2, 1] = rows.shape[1]
    elif case == "repeat":
        ids[3, 1] = ids[3, 0]
    elif case == "float":
        return ids.astype(float)
    return ids


class TestMarginLoss:
    def test_single_gated_row(self):
        rows = np.array([[1.0, 0.8, 0.0], [2.0, 1.2, 0.0]])  # margins 0.2, 0.8
        assert margin_loss(rows, tau=0.5).item() == pytest.approx(-0.2, abs=1e-12)

    def test_empty_gate_zero(self):
        rows = np.array([[2.0, 1.0], [3.0, 1.5]])  # margins 1.0, 1.5
        assert margin_loss(rows, tau=0.5).item() == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rows = rng.normal(size=(50, 12))
            tau = float(rng.uniform(0.2, 2.0))
            assert margin_loss(rows, tau).item() == pytest.approx(
                oracle_margin_loss(rows, tau), abs=1e-12
            )

    def test_row_margins_exact_with_ties(self):
        # Each segment's gated rows get -+1 / (segments * count) times the
        # upstream gradient on their top pair; every other entry is +0.0.
        rows = np.round(np.random.default_rng(5).normal(size=(300, 6)), 1)
        rows[:3] = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]  # tied top pair
        x = ad.parameter(rows)
        with ad.Tape() as tape:
            out = margin_loss(x, 0.4, 3)
            tape.backward(ad.scale(out, 2.0))
        top1, top2, margin = top2_stats(rows)
        assert (top1[:3] == 0).all() and (top2[:3] == 1).all()
        gate = margin < 0.4
        counts = gate.reshape(3, 100).sum(axis=1)
        assert counts.all() and not gate.all()
        r = np.nonzero(gate)[0]
        w = (-2.0 / 3 / counts)[r // 100]
        expected = np.zeros_like(rows)
        expected[r, top1[r]] = w
        expected[r, top2[r]] = -w
        assert np.array_equal(x.grad, expected)
        assert not np.signbit(x.grad[~gate]).any()
        segment_means = [margin[s * 100 : (s + 1) * 100][gate.reshape(3, 100)[s]].mean()
                         for s in range(3)]
        assert out.item() == -float(np.mean(segment_means))

    def test_segments_with_an_empty_gate(self):
        # the mean of per-segment gated means; a segment whose gate is empty counts 0
        rows = np.random.default_rng(14).normal(size=(12, 5))
        rows[8:, 0] += 10.0
        gated = top2_stats(rows)[2] < 1.0
        assert gated[:4].any() and gated[4:8].any() and not gated[8:].any()
        want = np.mean([oracle_margin_loss(rows[:4], 1.0), oracle_margin_loss(rows[4:8], 1.0), 0.0])
        assert margin_loss(rows, 1.0, 3).item() == pytest.approx(want, rel=1e-15)
        assert ad.grad_check(lambda p: margin_loss(p[0], 1.0, 3), [rows]) < 1e-4

    @pytest.mark.parametrize("tau,segments", [(0.5, 5), (0.5, 0), (0.5, -2), (0.0, 1)])
    def test_bad_arguments_are_usage_errors(self, tau, segments):
        with pytest.raises(UsageError):
            margin_loss(np.ones((12, 3)), tau, segments)

    def test_top_ids_passed_in(self):
        rows = np.round(np.random.default_rng(8).normal(size=(40, 7)), 1)
        results = []
        for top_ids in (None, topk_ids(rows, 2), topk_ids(rows, 5)):
            x = ad.parameter(rows)
            with ad.Tape() as tape:
                out = margin_loss(x, 0.6, 4, top_ids=top_ids)
                tape.backward(out)
            results.append((out.item(), x.grad))
        for value, grad in results[1:]:
            assert value == results[0][0]
            assert np.array_equal(grad, results[0][1])

    def test_one_tape_node(self):
        rows = np.random.default_rng(3).normal(size=(6, 5))
        with ad.Tape() as tape:
            margin_loss(ad.parameter(rows), 1.0, 2)
        assert len(tape) == 1

    @pytest.mark.parametrize("case", ["rows", "columns", "negative", "beyond_v", "repeat", "float"])
    def test_malformed_top_ids_are_usage_errors(self, case):
        rows = np.random.default_rng(9).normal(size=(4, 5))
        ids = bad_top_ids(rows, 2, case)
        with pytest.raises(UsageError, match="top_ids"):
            margin_loss(rows, 0.5, top_ids=ids)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 8))
        a = margin_loss(rows, 0.7).item()
        b = margin_loss(rows + 123.0, 0.7).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_nonfinite_is_data_error(self):
        rows = np.ones((2, 3))
        rows[0, 0] = np.inf
        with pytest.raises(DataError):
            margin_loss(rows, 0.5)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(6, 10))
        err = ad.grad_check(lambda p: margin_loss(p[0], 0.8), [rows])
        assert err < 1e-4


class TestFisherDistance:
    def test_identical_pair_hits_floor(self):
        rng = np.random.default_rng(3)
        rows = unit_rows(rng, 3, 8)
        p = np.array([0.5, 0.3, 0.2])
        assert fisher_distance(p, rows, 1, 1) == pytest.approx(1e-4)

    def test_two_orthogonal_closed_form(self):
        # k=2, p uniform, orthogonal unit rows: proj = (1, -1),
        # sigma = [[.25, -.25], [-.25, .25]], d^2 = 1.
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([0.5, 0.5])
        assert fisher_distance(p, rows, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(4)
        rows = unit_rows(rng, 5, 16)
        p = softmax_np(rng.normal(size=5))
        for i in range(5):
            for j in range(5):
                assert fisher_distance(p, rows, i, j) == fisher_distance(p, rows, j, i)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = unit_rows(rng, 5, 12)
            p = softmax_np(rng.normal(size=5))
            i, j = rng.integers(0, 5, size=2)
            want, _ = oracle_fisher_pair(p, rows, i, j)
            assert fisher_distance(p, rows, int(i), int(j)) == pytest.approx(
                want, abs=1e-10
            )

    def test_psd_nonnegative_before_clamp(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rows = unit_rows(rng, 4, 6)
            p = softmax_np(rng.normal(size=4))
            i, j = rng.integers(0, 4, size=2)
            _, dsq = oracle_fisher_pair(p, rows, int(i), int(j))
            assert dsq >= -1e-12

    def test_validation(self):
        rows = unit_rows(np.random.default_rng(0), 3, 4)
        with pytest.raises(UsageError):
            fisher_distance(np.array([0.9, 0.9, 0.9]), rows, 0, 1)  # bad sum
        with pytest.raises(UsageError):
            fisher_distance(np.array([0.5, 0.3, 0.2]), rows * 2.0, 0, 1)  # not unit
        with pytest.raises(UsageError):
            fisher_distance(np.array([0.5, 0.3, 0.2]), rows, 0, 3)  # out of range


class TestFisherLoss:
    def test_saturated_row_vanishes(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(10, 6))
        row = np.zeros((1, 10))
        row[0, 4] = 30.0
        assert abs(fisher_loss(row, w, k=3).item()) < 1e-10

    def test_two_token_closed_form(self):
        # Orthogonal embeddings, equal logits: penalty = 2 * 0.25 * 1 = 0.5.
        w = np.eye(2)
        rows = np.zeros((1, 2))
        assert fisher_loss(rows, w, k=2).item() == pytest.approx(-0.5, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(20, 15))
        w = rng.normal(size=(15, 10))
        got = fisher_loss(logits, w, k=3).item()
        want = oracle_fisher_loss(logits, w, 3)
        assert got == pytest.approx(want, abs=1e-8)

    def test_shift_invariance_small(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(10, 12))
        w = rng.normal(size=(12, 8))
        a = fisher_loss(logits, w, k=4).item()
        b = fisher_loss(logits + 50.0, w, k=4).item()
        assert abs(a - b) < 1e-6

    def test_k_exceeds_v(self):
        with pytest.raises(UsageError):
            fisher_loss(np.zeros((1, 3)), np.zeros((3, 4)), k=4)

    @pytest.mark.parametrize(
        "case", ["rows", "columns", "wide", "negative", "beyond_v", "repeat", "float"])
    def test_malformed_top_ids_are_usage_errors(self, case):
        rng = np.random.default_rng(11)
        rows, w = rng.normal(size=(4, 6)), rng.normal(size=(6, 5))
        ids = topk_ids(rows, 4) if case == "wide" else bad_top_ids(rows, 3, case)
        with pytest.raises(UsageError, match="top_ids"):
            fisher_loss(rows, w, k=3, top_ids=ids)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(4, 8))
        w = rng.normal(size=(8, 6))
        err = ad.grad_check(
            lambda p: fisher_loss(p[0], p[1], k=3), [logits, w], step=1e-6
        )
        assert err < 1e-4


class TestFusedFisherGradient:
    """The batched fisher node's hand-written backward against central
    differences, with a clamped pair and a token shared across rows."""

    @staticmethod
    def inputs(k):
        rng = np.random.default_rng(20 + k)
        w = rng.normal(size=(9, 4))
        # Nearly identical rows: their pair distance stays clamped at every
        # finite-difference step, where the gradient must be exactly zero.
        w[2] = w[1] + 1e-6 * rng.normal(size=4)
        logits = rng.normal(size=(3, 9)) * 0.1 - 5.0
        # Well separated top-k sets, so no finite-difference step reorders
        # them.  Token 1 is in every row's top k; 1 and 2 share row 0.
        logits[0, [1, 2, 3, 4, 5][:k]] = [3.0, 2.5, 2.0, 1.5, 1.0][:k]
        logits[1, [6, 1, 7, 8, 0][:k]] = [2.0, 1.2, 0.6, 0.3, 0.0][:k]
        logits[2, [1, 3, 6, 8, 7][:k]] = [1.0, 0.5, 0.0, -0.5, -1.0][:k]
        return logits, w

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_grad_check(self, k):
        logits, w = self.inputs(k)
        rows = w / np.linalg.norm(w, axis=1, keepdims=True)
        ids = np.argsort(-logits[0], kind="stable")[:k]
        assert ids[0] == 1 and ids[1] == 2
        p = softmax_np(logits[0, ids])
        assert fisher_distance(p, rows[ids], 0, 1) == math.sqrt(FLOOR)
        err = ad.grad_check(lambda t: fisher_loss(t[0], t[1], k), [logits, w])
        assert err < 1e-4

    @pytest.mark.parametrize("k", [2, 5])
    def test_matches_dense_oracle(self, k):
        logits, w = self.inputs(k)
        assert fisher_loss(logits, w, k).item() == pytest.approx(
            oracle_fisher_loss(logits, w, k), rel=1e-12
        )

    def test_one_tape_node(self):
        logits, w = self.inputs(5)
        with ad.Tape() as tape:
            fisher_loss(ad.parameter(logits), ad.parameter(w), 5)
        assert len(tape) == 1


class TestKlEquivalence:
    """The squared distance equals twice the KL divergence of the
    renormalized top-k distribution under the projected perturbation,
    to second order in the step size."""

    @staticmethod
    def kl_ratio(p, rows, i, j, s):
        delta = rows[i] - rows[j]
        proj = rows @ delta
        q = softmax_np(np.log(p) + s * proj)
        kl = float(np.sum(p * (np.log(p) - np.log(q))))
        return 2.0 * kl / s**2

    def test_second_order_match(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            k = int(rng.integers(2, 6))
            rows = unit_rows(rng, k, 12)
            p = softmax_np(rng.normal(size=k))
            i, j = rng.choice(k, size=2, replace=False)
            _, dsq = oracle_fisher_pair(p, rows, int(i), int(j))
            if dsq < 1e-4:
                continue
            ratio = self.kl_ratio(p, rows, int(i), int(j), s=1e-3)
            assert ratio == pytest.approx(dsq, rel=0.01)
            checked += 1


class TestCrossEntropy:
    def test_uniform_two_way(self):
        assert cross_entropy(np.zeros((1, 2)), [0]).item() == pytest.approx(math.log(2))

    def test_saturated(self):
        row = np.zeros((1, 5))
        row[0, 2] = 30.0
        assert cross_entropy(row, [2]).item() == pytest.approx(0.0, abs=1e-10)

    def test_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(40, 20)) * 3
        targets = rng.integers(0, 20, size=40)
        assert cross_entropy(rows, targets).item() == pytest.approx(
            oracle_cross_entropy(rows, targets), abs=1e-10
        )

    def test_bad_target_is_data_error(self):
        with pytest.raises(DataError):
            cross_entropy(np.zeros((1, 3)), [5])


class TestCombinedLoss:
    def test_lambda_zero_is_exactly_ce(self):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(10, 6))
        targets = rng.integers(0, 6, size=10)
        cfg = MrpConfig(objective="margin", lambda_mrp=0.0)
        assert combined_loss(rows, targets, cfg).item() == cross_entropy(rows, targets).item()

    def test_pure_mrp_empty_gate_zero(self):
        rows = np.array([[3.0, 1.0], [4.0, 1.0]])
        cfg = MrpConfig(objective="margin", lambda_mrp=1.0, tau=0.5, ce_weight=0.0)
        assert combined_loss(rows, [0, 0], cfg).item() == 0.0

    def test_compositional(self):
        rng = np.random.default_rng(14)
        rows = rng.normal(size=(8, 10))
        targets = rng.integers(0, 10, size=8)
        w = rng.normal(size=(10, 6))
        for objective in ("margin", "fisher"):
            cfg = MrpConfig(objective=objective, lambda_mrp=0.37, tau=0.9, k=3, ce_weight=0.8)
            got = combined_loss(rows, targets, cfg, unembedding=w).item()
            ce = cross_entropy(rows, targets).item()
            if objective == "margin":
                obj = margin_loss(rows, 0.9).item()
            else:
                obj = fisher_loss(rows, w, 3).item()
            assert got == pytest.approx(0.8 * ce + 0.37 * obj, abs=1e-12)

    @pytest.mark.parametrize("objective", ["margin", "fisher"])
    def test_parts_come_from_one_selection(self, objective):
        rng = np.random.default_rng(15)
        rows = np.round(rng.normal(size=(12, 8)), 1)  # exact ties occur
        w = rng.normal(size=(8, 4))
        cfg = MrpConfig(objective=objective, lambda_mrp=0.5, tau=0.7, k=3)
        _, parts = combined_loss(rows, rng.integers(0, 8, size=12), cfg, unembedding=w,
                                 with_parts=True, segments=3)
        assert np.array_equal(parts.margins, top2_stats(rows)[2])
        want = margin_loss(rows, 0.7, 3) if objective == "margin" else fisher_loss(rows, w, 3)
        assert parts.objective == want.item()

    def test_fisher_requires_unembedding(self):
        cfg = MrpConfig(objective="fisher", lambda_mrp=0.5)
        with pytest.raises(UsageError):
            combined_loss(np.zeros((2, 4)), [0, 1], cfg)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            MrpConfig(objective="entropy")
        with pytest.raises(UsageError):
            MrpConfig(lambda_mrp=-0.1)
        with pytest.raises(UsageError):
            MrpConfig(tau=0.0)
        with pytest.raises(UsageError):
            MrpConfig(k=1)
        with pytest.raises(UsageError):
            MrpConfig(ce_weight=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lambda_mrp", "tau", "clamp_floor", "ce_weight"])
    def test_config_rejects_non_finite(self, field, value):
        # NaN passes every x < 0 check; inf passes x > 0.
        with pytest.raises(UsageError, match=f"{field} must be finite"):
            MrpConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, 2.5, 5.0, True])
    def test_config_k_must_be_an_integer(self, value):
        with pytest.raises(UsageError, match="k must be an integer"):
            MrpConfig(k=value)
        assert MrpConfig(k=np.int8(3)).k == 3
