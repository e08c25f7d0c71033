"""Audit comparisons against hand enumeration and brute-force recomputation."""

import os

import numpy as np
import pytest

from marginlab.audit import (
    band_accuracy,
    churn_report,
    expansion_report,
    frequency_audit,
    rotation_report,
)
from marginlab.errors import DataError, UsageError
from marginlab.fileio import read_audit
from marginlab.margins import Audit

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def rec(pos, target, top1, top2, margin):
    return (pos, target, top1, top2, margin, top1 == target)


def audit_of(rows):
    """The audit of (position, target, top1, top2, margin, correct) rows."""
    return Audit(*zip(*rows)) if rows else Audit(*[()] * 6)


def random_audit_pair(rng, n, vocab=30):
    """Aligned baseline/polished audits with plenty of flips and rotations."""
    baseline, polished = [], []
    for i in range(n):
        target = int(rng.integers(0, vocab))
        b_top1 = target if rng.random() < 0.5 else int(rng.integers(0, vocab))
        b_top2 = (b_top1 + 1 + int(rng.integers(0, vocab - 1))) % vocab
        baseline.append(rec(i, target, b_top1, b_top2, float(rng.exponential())))
        if rng.random() < 0.3:  # churn
            p_top1 = (b_top1 + 1 + int(rng.integers(0, vocab - 1))) % vocab
        else:
            p_top1 = b_top1
        if rng.random() < 0.4:  # rotation candidates
            p_top2 = (p_top1 + 1 + int(rng.integers(0, vocab - 1))) % vocab
        else:
            p_top2 = b_top2 if b_top2 != p_top1 else (p_top1 + 1) % vocab
        polished.append(rec(i, target, p_top1, p_top2, float(rng.exponential())))
    return audit_of(baseline), audit_of(polished)


# The shipped 6-position fixture pair: 2 W->R, 1 R->W, 1 W->W', 2 unchanged
# (one of which rotates its runner-up wider by 0.5).
FIXTURE_BASELINE, _ = read_audit(os.path.join(FIXTURES, "baseline_6.jsonl"))
FIXTURE_POLISHED, _ = read_audit(os.path.join(FIXTURES, "polished_6.jsonl"))


class TestChurn:
    def test_identical_audits(self):
        r = churn_report(FIXTURE_BASELINE, FIXTURE_BASELINE)
        assert (r.churned, r.w2r, r.r2w) == (0, 0, 0)
        assert r.flip_ratio is None
        assert r.net_corrected == 0

    def test_fixture_hand_enumeration(self):
        r = churn_report(FIXTURE_BASELINE, FIXTURE_POLISHED)
        assert r.total == 6
        assert r.churned == 4
        assert r.w2r == 2
        assert r.r2w == 1
        assert r.flip_ratio == pytest.approx(2.0)
        assert r.net_corrected == 1

    def test_matches_bruteforce_on_large_pair(self):
        rng = np.random.default_rng(42)
        baseline, polished = random_audit_pair(rng, 10_000)
        r = churn_report(baseline, polished)
        churned = sum(b.top1_id != p.top1_id for b, p in zip(baseline, polished))
        w2r = sum(
            b.top1_id != p.top1_id and not b.correct and p.correct
            for b, p in zip(baseline, polished)
        )
        r2w = sum(
            b.top1_id != p.top1_id and b.correct and not p.correct
            for b, p in zip(baseline, polished)
        )
        assert (r.churned, r.w2r, r.r2w) == (churned, w2r, r2w)
        assert r.w2r + r.r2w <= r.churned

    def test_misalignment_is_data_error(self):
        with pytest.raises(DataError):
            churn_report(FIXTURE_BASELINE, FIXTURE_POLISHED[:-1])
        moved = Audit.concat([audit_of([rec(9, 5, 9, 5, 0.3)]), FIXTURE_POLISHED[1:]])
        with pytest.raises(DataError):
            churn_report(FIXTURE_BASELINE, moved)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        baseline, polished = random_audit_pair(rng, 500)
        perm = rng.permutation(500)
        pb = Audit(*(c[perm] for c in baseline.columns()))
        pp = Audit(*(c[perm] for c in polished.columns()))
        assert churn_report(baseline, polished) == churn_report(pb, pp)
        r1, r2 = rotation_report(baseline, polished), rotation_report(pb, pp)
        assert (r1.rotated, r1.rotated_wider) == (r2.rotated, r2.rotated_wider)
        assert r1.mean_margin_delta == pytest.approx(r2.mean_margin_delta, abs=1e-12)
        e1, e2 = expansion_report(baseline, polished), expansion_report(pb, pp)
        assert e1.pct_wider == e2.pct_wider
        assert e1.median_delta == e2.median_delta  # nearest-rank: exact
        assert e1.mean_delta == pytest.approx(e2.mean_delta, abs=1e-12)
        assert band_accuracy(baseline) == band_accuracy(pb)


class TestRotation:
    def test_identical_audits(self):
        r = rotation_report(FIXTURE_BASELINE, FIXTURE_BASELINE)
        assert r.rotated == 0
        assert r.mean_margin_delta is None

    def test_fixture_hand_enumeration(self):
        r = rotation_report(FIXTURE_BASELINE, FIXTURE_POLISHED)
        assert r.rotated == 1
        assert r.rotated_wider == 1
        assert r.mean_margin_delta == pytest.approx(0.5)

    def test_rotation_disjoint_from_churn(self):
        rng = np.random.default_rng(5)
        baseline, polished = random_audit_pair(rng, 2000)
        rot = sum(
            b.top1_id == p.top1_id and b.top2_id != p.top2_id
            for b, p in zip(baseline, polished)
        )
        churned = churn_report(baseline, polished).churned
        assert rotation_report(baseline, polished).rotated == rot
        assert rot + churned <= len(baseline)


class TestBands:
    def test_single_low_margin_position(self):
        table = band_accuracy(audit_of([rec(0, 1, 1, 2, 0.3)]))
        assert table.bands[0].count == 1
        assert table.bands[0].accuracy == 1.0
        assert table.overall_accuracy == 1.0

    def test_boundary_half_open(self):
        table = band_accuracy(audit_of([rec(0, 1, 1, 2, 0.5)]))
        assert table.bands[0].count == 0
        assert table.bands[1].count == 1  # 0.5 lands in [0.5, 1)

    def test_partition_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        rows = [
            rec(i, int(rng.integers(0, 5)), int(rng.integers(0, 5)), 0, float(rng.exponential() * 2))
            for i in range(10_000)
        ]
        audit = audit_of([r for r in rows if r[2] != r[3]] or rows)
        table = band_accuracy(audit)
        edges = [0.0, 0.5, 1.0, 2.0, 5.0, float("inf")]
        for row, (lo, hi) in zip(table.bands, zip(edges[:-1], edges[1:])):
            members = [r for r in audit if lo <= r.margin < hi]
            assert row.count == len(members)
            if members:
                assert row.accuracy == pytest.approx(
                    sum(r.correct for r in members) / len(members)
                )
        assert sum(b.count for b in table.bands) == table.total

    def test_empty_audit_raises(self):
        with pytest.raises(UsageError):
            band_accuracy(audit_of([]))


class TestExpansion:
    def test_identical_audits(self):
        r = expansion_report(FIXTURE_BASELINE, FIXTURE_BASELINE)
        assert r.pct_wider == 0.0
        assert r.mean_delta == 0.0
        assert r.median_delta == 0.0

    def test_half_wider(self):
        base = audit_of([rec(0, 1, 1, 2, 1.0), rec(1, 1, 1, 2, 1.0)])
        pol = audit_of([rec(0, 1, 1, 2, 2.0), rec(1, 1, 1, 2, 1.0)])
        r = expansion_report(base, pol)
        assert r.pct_wider == 0.5
        assert r.mean_delta == pytest.approx(0.5)

    def test_matches_subtraction_oracle(self):
        rng = np.random.default_rng(9)
        baseline, polished = random_audit_pair(rng, 5000)
        r = expansion_report(baseline, polished)
        deltas = np.array([p.margin - b.margin for b, p in zip(baseline, polished)])
        assert r.mean_delta == pytest.approx(deltas.mean(), abs=1e-12)
        assert r.pct_wider == pytest.approx(np.mean(deltas > 0), abs=1e-12)
        assert r.median_delta == np.sort(deltas)[int(np.ceil(0.5 * deltas.size)) - 1]


class TestFrequency:
    def test_all_singletons_one_bucket(self):
        base = audit_of([rec(i, i, i, i + 1, 0.5) for i in range(5)])
        counts = {i: 1 for i in range(5)}
        fb = frequency_audit(base, base, counts)
        assert fb.buckets[0].label == "1"
        assert fb.buckets[0].count == 5
        assert all(b.count == 0 for b in fb.buckets[1:])

    def test_bucket_edges(self):
        base = audit_of([rec(0, 10, 11, 12, 0.1), rec(1, 20, 20, 12, 0.2)])
        pol = audit_of([rec(0, 10, 10, 12, 0.3), rec(1, 20, 20, 12, 0.2)])
        counts = {10: 5, 20: 150}
        fb = frequency_audit(base, pol, counts)
        by_label = {b.label: b for b in fb.buckets}
        assert by_label["5-19"].count == 1
        assert by_label["100+"].count == 1
        assert by_label["5-19"].net_corrected == 1
        assert by_label["5-19"].share_of_net == pytest.approx(1.0)
        assert by_label["1"].count == 0

    def test_every_position_in_exactly_one_bucket(self):
        rng = np.random.default_rng(11)
        baseline, polished = random_audit_pair(rng, 3000)
        counts = {r.target_id: int(rng.integers(1, 500)) for r in baseline}
        fb = frequency_audit(baseline, polished, counts)
        assert sum(b.count for b in fb.buckets) == len(baseline)

    def test_missing_count_is_data_error(self):
        base = audit_of([rec(0, 1, 1, 2, 0.5)])
        with pytest.raises(DataError):
            frequency_audit(base, base, {2: 1})

    def test_count_below_one_is_data_error(self):
        base = audit_of([rec(0, 1, 1, 2, 0.5), rec(1, 3, 3, 2, 0.5)])
        with pytest.raises(DataError, match="token 3"):
            frequency_audit(base, base, {1: 4, 3: 0})

    def test_count_beyond_int64_is_top_bucket(self):
        base = audit_of([rec(0, 1, 1, 2, 0.5)])
        fb = frequency_audit(base, base, {1: 10**20})
        assert fb.buckets[-1].count == 1

