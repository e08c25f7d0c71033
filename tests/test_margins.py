"""Margin computation against a full-sort brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import autodiff as ad
from marginlab.errors import DataError, UsageError
from marginlab.margins import (
    compute_margins,
    margin_quantiles,
    nearest_rank_quantile,
    top2_stats,
    unique_value_count,
)
from marginlab.precision import emulate_bf16


def oracle_top2(row):
    """Independent oracle: full sort with (value desc, id asc) ordering."""
    order = sorted(range(len(row)), key=lambda i: (-row[i], i))
    return order[0], order[1], row[order[0]] - row[order[1]]


class TestComputeMargins:
    def test_simple_row(self):
        rec = compute_margins([[3.0, 1.0, 0.0]], [0])[0]
        assert rec.top1_id == 0
        assert rec.top2_id == 1
        assert rec.margin == 2.0
        assert rec.correct is True

    def test_tie_lower_id_wins(self):
        rec = compute_margins([[1.0, 1.0, 0.0]], [2])[0]
        assert rec.top1_id == 0
        assert rec.top2_id == 1
        assert rec.margin == 0.0
        assert rec.correct is False

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(42)
        rows = rng.normal(size=(100, 50))
        # inject exact ties to exercise the tie-break
        rows[10, 3] = rows[10, 17]
        rows[20, 0] = rows[20, 1] = rows[20].max() + 1.0
        targets = rng.integers(0, 50, size=100)
        records = compute_margins(rows, targets)
        for i, rec in enumerate(records):
            t1, t2, m = oracle_top2(list(rows[i]))
            assert rec.top1_id == t1
            assert rec.top2_id == t2
            assert rec.margin == pytest.approx(m, abs=0.0)
            assert rec.correct == (t1 == targets[i])
            assert rec.position_index == i

    def test_margin_nonnegative_and_distinct_ids(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(200, 8))
        for rec in compute_margins(rows, np.zeros(200, dtype=int)):
            assert rec.margin >= 0.0
            assert rec.top1_id != rec.top2_id

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(50, 12))
        base = top2_stats(rows)
        shifted = top2_stats(rows + 100.0)
        assert np.array_equal(base[0], shifted[0])
        assert np.array_equal(base[1], shifted[1])
        np.testing.assert_allclose(base[2], shifted[2], atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(5, 6))
        c = float(rng.uniform(-5, 5))
        t1a, t2a, _ = top2_stats(rows)
        t1b, t2b, _ = top2_stats(rows + c)
        assert np.array_equal(t1a, t1b)
        assert np.array_equal(t2a, t2b)

    def test_nonfinite_names_position(self):
        rows = np.ones((3, 4))
        rows[1, 2] = np.nan
        with pytest.raises(DataError, match="position 1"):
            compute_margins(rows, [0, 0, 0])

    def test_too_few_logits(self):
        with pytest.raises(UsageError):
            compute_margins([[1.0]], [0])

    def test_target_length_mismatch(self):
        with pytest.raises(UsageError):
            compute_margins([[1.0, 2.0]], [0, 1])


def _bits(x):
    return np.asarray(x).astype(np.float64).view(np.uint64)


def _selection_inputs(v):
    """Rows that stress the tie-break: plain random, bf16-rounded (exact
    ties), and signed zeros at or below the row maximum."""
    rng = np.random.default_rng(v)
    plain = rng.normal(size=(300, v))
    tied = emulate_bf16(rng.normal(size=(300, v)) * 0.05)
    zeros = rng.choice([0.0, -0.0, -1.0, -2.0], size=(300, v))
    zeros[:10] = 0.0
    zeros[:5, 0] = -0.0  # margin -0.0 - 0.0 = -0.0; rows 5-9 give +0.0
    return {"plain": plain, "tied": tied, "zeros": zeros}


class TestSelectionMatchesStableSort:
    """The argmax selection equals a stable argsort of every full row, bit
    for bit: lower id wins ties, and a zero margin keeps its sign."""

    @pytest.mark.parametrize("v", [2, 8, 512])
    def test_top2_stats(self, v):
        for kind, rows in _selection_inputs(v).items():
            order = np.argsort(-rows, axis=1, kind="stable")
            idx = np.arange(rows.shape[0])
            top1, top2, margins = top2_stats(rows)
            assert np.array_equal(top1, order[:, 0]), kind
            assert np.array_equal(top2, order[:, 1]), kind
            want = rows[idx, order[:, 0]] - rows[idx, order[:, 1]]
            assert margins.dtype == want.dtype, kind
            assert np.array_equal(_bits(margins), _bits(want)), kind

    @pytest.mark.parametrize("v", [2, 8, 512])
    def test_topk_values_gather(self, v):
        for kind, rows in _selection_inputs(v).items():
            order = np.argsort(-rows, axis=1, kind="stable")
            for k in range(2, min(v, 5) + 1):
                values, ids = ad.topk_values_gather(ad.constant(rows), k)
                assert np.array_equal(ids, order[:, :k]), (kind, k)
                want = np.take_along_axis(rows, order[:, :k], axis=1)
                assert np.array_equal(_bits(values.values), _bits(want)), (kind, k)

    def test_ties_and_signed_zeros_occur(self):
        rows = _selection_inputs(512)
        assert (top2_stats(rows["tied"])[2] == 0.0).any()
        margins = top2_stats(rows["zeros"])[2]
        assert np.signbit(margins[:10]).any() and not np.signbit(margins[:10]).all()


class TestMarginQuantiles:
    def test_median_of_five(self):
        assert margin_quantiles([0, 1, 2, 3, 4]).median == 2.0

    def test_all_below_half(self):
        assert margin_quantiles([0.4] * 10).pr_below_half == 1.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.exponential(size=10_000)
        q = margin_quantiles(m)
        s = np.sort(m)
        # nearest-rank oracle: value at index ceil(q*n) - 1
        for level, got in [
            (0.05, q.q05),
            (0.25, q.q25),
            (0.50, q.median),
            (0.75, q.q75),
            (0.95, q.q95),
        ]:
            assert got == s[int(np.ceil(level * m.size)) - 1]
        assert q.pr_below_half == np.count_nonzero(m < 0.5) / m.size
        assert q.q05 <= q.q25 <= q.median <= q.q75 <= q.q95

    def test_exactly_at_half_not_counted(self):
        assert margin_quantiles([0.5, 0.6]).pr_below_half == 0.0

    def test_empty_raises(self):
        with pytest.raises(UsageError):
            margin_quantiles([])

    def test_nearest_rank_clamps(self):
        s = np.array([1.0, 2.0])
        assert nearest_rank_quantile(s, 1e-9) == 1.0
        assert nearest_rank_quantile(s, 1.0) == 2.0


class TestUniqueValueCount:
    def test_basic(self):
        assert unique_value_count([1.0, 1.0, 2.0]) == 2

    def test_empty(self):
        assert unique_value_count([]) == 0

    def test_negative_zero_canonicalized(self):
        assert unique_value_count([0.0, -0.0]) == 1
        assert unique_value_count(np.array([0.0, -0.0, 1.0], dtype=np.float32)) == 2

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(5)
        vals = rng.choice([0.1, 0.2, 0.3, 1.5, 2.5], size=1000)
        assert unique_value_count(vals) == len(set(vals.tolist()))
