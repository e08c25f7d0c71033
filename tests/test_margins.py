"""Margin computation against a full-sort brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.errors import DataError, UsageError
from marginlab.margins import (
    Audit,
    MarginRecord,
    column_margins,
    compute_margins,
    margin_quantiles,
    nearest_rank_quantile,
    top2_stats,
    topk_ids,
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
    def test_topk_ids(self, v):
        for kind, rows in _selection_inputs(v).items():
            order = np.argsort(-rows, axis=1, kind="stable")
            for k in range(2, min(v, 5) + 1):
                ids = topk_ids(rows, k)
                assert np.array_equal(ids, order[:, :k]), (kind, k)
                got = np.take_along_axis(rows, ids, axis=1)
                want = np.take_along_axis(rows, order[:, :k], axis=1)
                assert np.array_equal(_bits(got), _bits(want)), (kind, k)

    def test_ties_and_signed_zeros_occur(self):
        rows = _selection_inputs(512)
        assert (top2_stats(rows["tied"])[2] == 0.0).any()
        margins = top2_stats(rows["zeros"])[2]
        assert np.signbit(margins[:10]).any() and not np.signbit(margins[:10]).all()



class TestSelectionLeavesInputAlone:
    """topk_ids and top2_stats mask chosen entries in the caller's array and
    put them back: the input ends bit for bit as it began, also when they
    raise, and a read-only input is selected from a copy."""

    @staticmethod
    def bad_rows(dtype):
        rows = np.random.default_rng(3).normal(size=(8, 6)).astype(dtype)
        rows[1, 1:] = -np.inf  # once id 0 is masked, argmax picks it again
        rows[2, 4] = np.nan
        rows[3, :2] = (np.inf, -0.0)
        rows[5] = np.float32(-0.0)
        return rows

    @pytest.mark.parametrize("v", [2, 8, 512])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_rows_unchanged(self, v, dtype):
        for kind, rows in _selection_inputs(v).items():
            rows = rows.astype(dtype)
            before = rows.copy()
            top2_stats(rows)
            for k in range(1, min(v, 5) + 1):
                topk_ids(rows, k)
            assert rows.tobytes() == before.tobytes(), kind

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_that_raise_unchanged(self, dtype):
        rows = self.bad_rows(dtype)
        before = rows.tobytes()
        for k in (2, 5, 6):
            topk_ids(rows, k)
            assert rows.tobytes() == before, k
        with pytest.raises(DataError, match="position 11"):
            top2_stats(rows, start=10)
        assert rows.tobytes() == before

    @pytest.mark.parametrize("bad, row", [(np.nan, 4), (np.inf, 2), (-np.inf, 6)])
    def test_first_non_finite_row_is_named(self, bad, row):
        rows = np.zeros((9, 5), np.float32)
        rows[row, 3] = bad
        rows[7, 0] = np.nan
        with pytest.raises(DataError, match=f"non-finite logit at position {row}$"):
            top2_stats(rows)

    def test_read_only_and_integer_input(self):
        rows = _selection_inputs(8)["tied"]
        locked = rows.copy()
        locked.flags.writeable = False
        assert all(np.array_equal(a, b) for a, b in zip(top2_stats(locked), top2_stats(rows)))
        assert np.array_equal(topk_ids(locked, 3), topk_ids(rows, 3))
        whole = np.random.default_rng(4).integers(-9, 9, (50, 7))
        before = whole.copy()
        assert np.array_equal(topk_ids(whole, 3), topk_ids(whole.astype(float), 3))
        assert np.array_equal(whole, before)
        locked = self.bad_rows(np.float32)
        locked.flags.writeable = False
        with pytest.raises(DataError, match="position 1"):
            top2_stats(locked)


class TestColumnMargins:
    """The margins-only helper equals top2_stats' margins on the transposed
    logits: random rows, exact ties and signed zeros, V from 2 to 50."""

    @pytest.mark.parametrize("v", [2, 3, 8, 50])
    def test_equals_top2_stats(self, v):
        for kind, rows in _selection_inputs(v).items():
            got, want = column_margins(np.ascontiguousarray(rows.T)), top2_stats(rows)[2]
            assert got.dtype == want.dtype, kind
            assert np.array_equal(got, want), kind

    def test_two_rows(self):
        # V = 2 runs the general running top and runner-up: every ordered pair
        # of tied, signed-zero and distinct values, and 65,536 random pairs.
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e300])
        pairs = np.stack(np.meshgrid(values, values)).reshape(2, -1)
        rand = np.random.default_rng(2).normal(size=(2, 65_536))
        for logits in (pairs, rand, emulate_bf16(rand * 0.05)):
            assert np.array_equal(column_margins(logits), top2_stats(logits.T)[2])
        assert (column_margins(pairs) == 0.0).sum() == 9  # 7 ties and (0, -0) both ways

    @pytest.mark.parametrize("v", [8, 50])
    def test_ties_and_zeros_occur(self, v):
        rows = _selection_inputs(v)
        assert (column_margins(rows["tied"].T) == 0.0).any()
        assert (column_margins(rows["zeros"].T) == 0.0).any()

    def test_integer_and_strided_logits(self):
        rows = np.random.default_rng(5).integers(-3, 4, size=(200, 6))
        assert np.array_equal(column_margins(rows.T), top2_stats(rows)[2])
        assert np.array_equal(column_margins(rows.T[:, ::3]), top2_stats(rows[::3])[2])

    @pytest.mark.parametrize("shape", [(1, 5), (5,), (2, 3, 4)])
    def test_bad_shape_is_usage_error(self, shape):
        with pytest.raises(UsageError):
            column_margins(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("v", [2, 8])
    def test_nonfinite_names_column_from_start(self, bad, v):
        logits = np.ones((v, 10))
        logits[v - 1, 7] = bad
        logits[0, 9] = bad
        with pytest.raises(DataError, match=r"position 7$"):
            column_margins(logits)
        with pytest.raises(DataError, match=r"position 1007$"):
            column_margins(logits, start=1000)

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


def audit_of(rows):
    """The audit of (position, target, top1, top2, margin, correct) rows."""
    return Audit(*zip(*rows)) if rows else Audit(*[()] * 6)


def sample_rows(n=7):
    rng = np.random.default_rng(21)
    out = []
    for i in range(n):
        t1 = int(rng.integers(0, 9))
        target = int(rng.integers(0, 9))
        out.append((i, target, t1, (t1 + 1) % 9, float(rng.exponential()), t1 == target))
    return out


class TestAudit:
    def test_round_trip_through_records(self):
        rows = sample_rows()
        assert list(audit_of(rows)) == [MarginRecord(*row) for row in rows]

    def test_column_dtypes(self):
        audit = audit_of(sample_rows())
        assert [c.dtype for c in audit.columns()] == [np.int64] * 4 + [np.float64, np.bool_]
        empty = audit_of([])
        assert len(empty) == 0 and empty.target.dtype == np.int64

    def test_indexing_gives_plain_python_rows(self):
        rows = sample_rows()
        audit = audit_of(rows)
        assert audit[0] == MarginRecord(*rows[0]) and audit[-1] == MarginRecord(*rows[-1])
        row = audit[2]
        assert (type(row.top1_id), type(row.margin), type(row.correct)) == (int, float, bool)
        with pytest.raises(IndexError):
            audit[len(rows)]

    def test_slice_and_concatenation(self):
        rows = sample_rows()
        audit = audit_of(rows)
        assert isinstance(audit[1:3], Audit) and audit[1:3] == audit_of(rows[1:3])
        assert Audit.concat([audit[:1], audit[1:]]) == audit
        assert Audit.concat([audit[:3], audit_of(rows[3:])]) == audit

    def test_eq_is_one_bool(self):
        rows = sample_rows()
        audit = audit_of(rows)
        assert (audit == audit_of(rows)) is True
        assert (audit == audit[:-1]) is False
        assert audit.__eq__(list(audit)) is NotImplemented
        assert (audit == [1, 2, 3]) is False
        assert (audit == 3) is False

    @pytest.mark.parametrize("column", ["position", "target", "top1", "top2", "margin", "correct"])
    def test_unequal_in_any_column(self, column):
        audit = audit_of(sample_rows())
        cols = {name: getattr(audit, name).copy() for name in
                ("position", "target", "top1", "top2", "margin", "correct")}
        cols[column][3] = not cols[column][3] if column == "correct" else cols[column][3] + 1
        assert (Audit(**cols) == audit) is False

    @pytest.mark.parametrize("change", [
        {"target": [0.5, 1.0]}, {"top1": [True, False]}, {"correct": [1, 0]},
        {"margin": ["a", "b"]}, {"position": [0]}, {"top2": [[1, 2]]},
    ])
    def test_bad_columns_are_usage_errors(self, change):
        cols = dict(position=[0, 1], target=[1, 2], top1=[1, 0], top2=[2, 1],
                    margin=[0.5, 0.25], correct=[True, False])
        with pytest.raises(UsageError):
            Audit(**dict(cols, **change))

    def test_first_invalid(self):
        rows = sample_rows()
        assert audit_of(rows).first_invalid() is None
        broken = rows[:4] + [(4, 1, 2, 2, 0.5, False)] + rows[5:]
        assert audit_of(broken).first_invalid() == 4

    def test_compute_margins_columns(self):
        rows = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 2.0]], dtype=np.float32)
        audit = compute_margins(rows, [0, 0])
        assert list(audit) == [MarginRecord(0, 0, 0, 1, 2.0, True), MarginRecord(1, 0, 1, 2, 0.0, False)]
