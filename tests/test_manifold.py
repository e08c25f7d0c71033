"""Synthetic-manifold margins and the scaling-law oracle.

The two-antipodal-site circle has margin field |2 cos(theta)|, so the
linear gap coefficient has the closed form 1/pi: each boundary point
contributes a two-sided interval {|theta - theta*| < eps/2} of length
eps, giving eta(eps) = 2 eps / (2 pi).
"""

import math
import warnings

import numpy as np
import pytest

from marginlab import manifold
from marginlab.errors import DataError, UsageError
from marginlab.manifold import (
    ManifoldSpec,
    circle_three_sites,
    circle_two_sites,
    generate,
    gradient_floor,
    oracle_alpha,
    square_eight_sites,
)

ANALYTIC_ALPHA_CIRCLE2 = 1.0 / math.pi
ANALYTIC_ALPHA_CIRCLE3 = math.sqrt(3.0) / math.pi  # 3 points, slope sqrt(3)


class TestGenerate:
    def test_circle_two_sites_margin_form(self):
        spec = circle_two_sites(sample_count=50_000)
        points, margins = generate(spec, seed=0)
        theta = np.arctan2(points[:, 1], points[:, 0])
        np.testing.assert_allclose(margins, np.abs(2.0 * np.cos(theta)), atol=1e-12)
        assert margins.min() >= 0.0

    def test_circle_three_sites_three_boundaries(self):
        # margin vanishes at the three mid-angles by symmetry
        spec = circle_three_sites(sample_count=10)
        for boundary in (math.pi / 3, math.pi, 5 * math.pi / 3):
            pt = np.array([[math.cos(boundary), math.sin(boundary)]])
            logits = pt @ spec.sites.T
            top = np.sort(logits[0])[::-1]
            assert top[0] - top[1] == pytest.approx(0.0, abs=1e-12)

    def test_square_margins_match_bruteforce(self):
        rng = np.random.default_rng(3)
        sites = rng.normal(size=(4, 2))
        spec = ManifoldSpec(2, 2, sites, "square_uniform", 5000)
        points, margins = generate(spec, seed=1)
        for i in range(0, 5000, 500):
            logits = sorted(sites @ points[i], reverse=True)
            assert margins[i] == pytest.approx(logits[0] - logits[1], abs=1e-12)

    def test_homogeneity_and_argmax_invariance(self):
        rng = np.random.default_rng(4)
        sites = rng.normal(size=(5, 2))
        spec1 = ManifoldSpec(2, 2, sites, "square_uniform", 2000)
        spec2 = ManifoldSpec(2, 2, 2.0 * sites, "square_uniform", 2000)
        pts1, m1 = generate(spec1, seed=9)
        pts2, m2 = generate(spec2, seed=9)
        np.testing.assert_array_equal(pts1, pts2)
        np.testing.assert_allclose(m2, 2.0 * m1, rtol=1e-6)
        from marginlab.margins import top2_stats

        t1a, _, _ = top2_stats(pts1 @ sites.T)
        t1b, _, _ = top2_stats(pts1 @ (2.0 * sites).T)
        assert np.array_equal(t1a, t1b)

    def test_duplicate_sites_rejected(self):
        sites = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DataError):
            ManifoldSpec(1, 2, sites, "circle_uniform", 1000)
        # Points are zero-padded: sites equal in their first two coordinates
        # have identical logits everywhere.
        sites = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        for k, sampler in ((1, "circle_uniform"), (2, "square_uniform")):
            with pytest.raises(DataError, match="duplicate"):
                ManifoldSpec(k, 3, sites, sampler, 1000)

    def test_sampler_dim_consistency(self):
        sites = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(UsageError):
            ManifoldSpec(2, 2, sites, "circle_uniform", 1000)

    @pytest.mark.parametrize("value", [math.nan, 2.5, 1e12, True, "1000"])
    @pytest.mark.parametrize("field", ["intrinsic_dim", "ambient_dim", "sample_count"])
    def test_counts_must_be_integers(self, field, value):
        # NaN passes ``sample_count < 1`` and 2.0 passes the sites' shape
        # check; both would fail later inside numpy, so nothing is built.
        args = {"intrinsic_dim": 1, "ambient_dim": 2, "sample_count": 1000}
        with pytest.raises(UsageError, match=f"{field} must be an integer"):
            ManifoldSpec(sites=np.eye(2), sampler="circle_uniform", **{**args, field: value})
        spec = ManifoldSpec(np.int64(1), np.int32(2), np.eye(2), "circle_uniform", np.uint64(1000))
        assert spec.sample_count == 1000


class TestOracleAlpha:
    def test_circle_two_sites_closed_form(self):
        alpha = oracle_alpha(circle_two_sites())
        assert alpha == pytest.approx(ANALYTIC_ALPHA_CIRCLE2, rel=0.01)

    def test_circle_three_sites_closed_form(self):
        alpha = oracle_alpha(circle_three_sites())
        assert alpha == pytest.approx(ANALYTIC_ALPHA_CIRCLE3, rel=0.01)

    def test_homogeneity_scales_alpha_inversely(self):
        spec1 = circle_two_sites()
        sites2 = 2.0 * spec1.sites
        spec2 = ManifoldSpec(1, 2, sites2, "circle_uniform", spec1.sample_count)
        a1 = oracle_alpha(spec1)
        a2 = oracle_alpha(spec2)
        assert a2 == pytest.approx(a1 / 2.0, rel=0.01)


class TestStreamedGrid:
    """The oracle's grid is built block by block from index ranges; its
    count must equal brute force over the fully built grid."""

    @staticmethod
    def full_grid(spec, n_points):
        d = spec.ambient_dim
        if spec.intrinsic_dim == 1:
            theta = (np.arange(n_points) + 0.5) * (2.0 * math.pi / n_points)
            pts = np.zeros((n_points, d))
            pts[:, 0], pts[:, 1] = np.cos(theta), np.sin(theta)
            return pts
        m = int(math.ceil(math.sqrt(n_points)))
        axis = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
        uu, vv = np.meshgrid(axis, axis, indexing="ij")
        pts = np.zeros((m * m, d))
        pts[:, 0], pts[:, 1] = uu.ravel(), vv.ravel()
        return pts

    @pytest.mark.parametrize("v", [2, 5])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("sampler", ["circle_uniform", "square_uniform"])
    def test_count_matches_bruteforce(self, monkeypatch, sampler, d, v):
        monkeypatch.setattr(manifold, "_CHUNK", 997)
        k = 1 if sampler == "circle_uniform" else 2
        sites = np.random.default_rng(10 * d + v).normal(size=(v, d))
        spec = ManifoldSpec(k, d, sites, sampler, 1000)
        n_points, eps = 5000, 0.05
        logits = np.sort(self.full_grid(spec, n_points) @ sites.T, axis=1)
        margins = logits[:, -1] - logits[:, -2]
        count = np.count_nonzero(margins < eps)
        assert margins.size > 997 and margins.size % 997 and count > 0
        assert manifold._alpha_estimate(spec, n_points, eps) == count / (margins.size * eps)

    @pytest.mark.parametrize(
        "factory, alpha",
        [(circle_two_sites, 0.3184), (circle_three_sites, 0.5513),
         (square_eight_sites, 3.38909259203816)],
        ids=["circle2", "circle3", "square8"],
    )
    def test_preset_oracle_values_pinned(self, factory, alpha):
        assert oracle_alpha(factory()) == alpha

    def test_overflow_names_grid_index(self, monkeypatch):
        monkeypatch.setattr(manifold, "_CHUNK", 97)
        sites = np.array([[1.5e308, 1.5e308], [-1.5e308, 1e308]])
        spec = ManifoldSpec(1, 2, sites, "circle_uniform", 1000)
        with np.errstate(over="ignore"):
            logits = self.full_grid(spec, 20_000) @ sites.T
        first = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        assert first >= 97
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=rf"position {first}$"):
                manifold._alpha_estimate(spec, 20_000, 1e-3)


class TestCertifiedOracle:
    """The oracle evaluates only the tiles its Lipschitz certificate cannot
    clear; the count must still equal brute force over the whole grid."""

    @staticmethod
    def bruteforce(spec, n_points, eps):
        logits = np.sort(TestStreamedGrid.full_grid(spec, n_points) @ spec.sites.T, axis=1)
        margins = logits[:, -1] - logits[:, -2]
        return np.count_nonzero(margins < eps), margins.size

    @pytest.mark.parametrize("chunk", [65_536, 5])
    @pytest.mark.parametrize("n_points", [37, 5003])
    @pytest.mark.parametrize("v", [2, 5, 8])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("sampler", ["circle_uniform", "square_uniform"])
    def test_count_matches_bruteforce_over_scales(self, monkeypatch, sampler, d, v, n_points,
                                                  chunk):
        # 37 points is under one tile; 5003 is no multiple of 64, and its
        # 71 x 71 square is no multiple of 8.
        monkeypatch.setattr(manifold, "_CHUNK", chunk)
        k = 1 if sampler == "circle_uniform" else 2
        rng = np.random.default_rng([d, v, n_points, k])
        for scale, eps in zip(10.0 ** rng.uniform(-3, 3, 4), 10.0 ** rng.uniform(-4, math.log10(0.5), 4)):
            spec = ManifoldSpec(k, d, scale * rng.normal(size=(v, d)), sampler, 1000)
            count, size = self.bruteforce(spec, n_points, eps)
            assert manifold._alpha_estimate(spec, n_points, eps) == count / (size * eps)

    def test_counts_match_where_tiles_are_skipped(self, monkeypatch):
        # One grid per sampler with both skipped and evaluated tiles.
        evaluated = []
        real = manifold.column_margins
        monkeypatch.setattr(manifold, "column_margins",
                            lambda x, start=0: evaluated.append(x.shape[1]) or real(x, start))
        for k, sampler in ((1, "circle_uniform"), (2, "square_uniform")):
            spec = ManifoldSpec(k, 3, np.random.default_rng(k).normal(size=(5, 3)), sampler, 1000)
            count, size = self.bruteforce(spec, 250_000, 0.01)
            evaluated.clear()
            assert manifold._alpha_estimate(spec, 250_000, 0.01) == count / (size * 0.01)
            assert count < sum(evaluated) < size / 2

    @staticmethod
    def evaluated_fractions(monkeypatch, spec):
        """Fraction of the grid passed to ``column_margins`` on each of the
        oracle's two grids."""
        evaluated, fractions = [], []
        real = manifold.column_margins
        monkeypatch.setattr(manifold, "column_margins",
                            lambda x, start=0: evaluated.append(x.shape[1]) or real(x, start))
        base = 10_000_000 if spec.intrinsic_dim == 1 else 9_000_000
        for n_points in (base, 2 * base):
            evaluated.clear()
            manifold._alpha_estimate(spec, n_points, 1e-3)
            size = n_points if spec.intrinsic_dim == 1 else math.ceil(math.sqrt(n_points)) ** 2
            fractions.append(sum(evaluated) / size)
        return fractions

    @pytest.mark.parametrize("factory", [circle_two_sites, circle_three_sites, square_eight_sites],
                             ids=["circle2", "circle3", "square8"])
    def test_preset_oracle_evaluates_under_5_percent(self, monkeypatch, factory):
        assert max(self.evaluated_fractions(monkeypatch, factory())) < 0.05

    @pytest.mark.parametrize(
        "factory, limit",
        [(circle_two_sites, 0.002), (circle_three_sites, 0.002), (square_eight_sites, 0.02)],
        ids=["circle2", "circle3", "square8"],
    )
    def test_preset_oracle_evaluates_under_two_level_limit(self, monkeypatch, factory, limit):
        # Super-tiles and the per-pair bound evaluate about 0.05% (circles)
        # and 1.2% (square8); one global bound over tiles alone cannot.
        assert max(self.evaluated_fractions(monkeypatch, factory())) < limit

    @pytest.mark.parametrize("n_points", [5003, 70_001])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("sampler", ["circle_uniform", "square_uniform"])
    def test_count_matches_bruteforce_with_close_and_far_pairs(self, monkeypatch, sampler, d,
                                                               n_points):
        # Pair distances from ~1e-3 (sites 0 and 1) to ~10 (site 4) make each
        # pair's bound differ from the largest one.  Neither grid fills its
        # super-tiles: 5003 = 4096 + 907 and 70,001 = 17 * 4096 + 369 points on
        # the circle, 71 x 71 and 265 x 265 points on the square.
        evaluated = []
        real = manifold.column_margins
        monkeypatch.setattr(manifold, "column_margins",
                            lambda x, start=0: evaluated.append(x.shape[1]) or real(x, start))
        k = 1 if sampler == "circle_uniform" else 2
        rng = np.random.default_rng([d, n_points, k, 13])
        total = below = 0
        for scale, eps in zip(10.0 ** rng.uniform(-2, 2, 3), 10.0 ** rng.uniform(-4, -1, 3)):
            sites = rng.normal(size=(5, d))
            sites[1] = sites[0] + 1e-3 * rng.normal(size=d)
            sites[4] *= 10.0 / np.linalg.norm(sites[4])
            dist = np.linalg.norm(sites[:, None] - sites[None], axis=2)
            assert dist.max() >= 1e3 * dist[dist > 0].min()
            spec = ManifoldSpec(k, d, scale * sites, sampler, 1000)
            count, size = self.bruteforce(spec, n_points, eps)
            evaluated.clear()
            assert manifold._alpha_estimate(spec, n_points, eps) == count / (size * eps)
            total, below = total + sum(evaluated) / size, below + count
        assert below > 0 and total < 3  # some points counted, some tiles skipped

    @pytest.mark.parametrize("k, sampler", [(1, "circle_uniform"), (2, "square_uniform")])
    def test_memory_is_bounded_when_no_tile_clears(self, k, sampler):
        import tracemalloc

        # Margins of at most 2e-3 everywhere: every tile is evaluated.
        spec = ManifoldSpec(k, 2, 1e-3 * square_eight_sites().sites, sampler, 1000)
        tracemalloc.start()
        try:
            alpha = manifold._alpha_estimate(spec, 4_000_000, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alpha == 100.0
        assert peak < 16 * 2**20  # gathering a whole 65,536-tile block at once takes ~50 MiB

    def test_overflow_on_square_names_grid_index(self, monkeypatch):
        monkeypatch.setattr(manifold, "_CHUNK", 97)
        # Only the corners near (-1, 1) and (1, -1) overflow.
        sites = np.array([[0.95e308, -0.95e308], [0.1e308, 0.2e308]])
        spec = ManifoldSpec(2, 2, sites, "square_uniform", 1000)
        with np.errstate(over="ignore"):
            logits = TestStreamedGrid.full_grid(spec, 20_000) @ sites.T
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        assert bad[0] > 97 and bad[0] % 142 % 8  # past the first piece, inside a tile
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=rf"position {bad[0]}$"):
                manifold._alpha_estimate(spec, 20_000, 1e-3)


class TestShippedConfigVerdicts:
    """Fitted slope within [0.9, 1.1] and solid r2 for every shipped
    configuration (the acceptance suite pins the tighter antipodal-circle
    bounds separately)."""

    @pytest.mark.parametrize(
        "factory", [circle_three_sites, square_eight_sites], ids=["circle3", "square8"]
    )
    def test_beta_and_r2_bounds(self, factory):
        from marginlab.manifold import validate_scaling

        verdict = validate_scaling(factory(300_000), seed=0)
        assert 0.9 <= verdict.fit.beta <= 1.1
        assert verdict.fit.r2 > 0.99
        assert verdict.gradient_floor > 0

    def test_generated_gap_reaches_one(self):
        from marginlab.gapfit import empirical_gap

        _, margins = generate(circle_two_sites(50_000), seed=2)
        eps = np.geomspace(1e-4, margins.max() + 1.0, 12)
        gaps = empirical_gap(margins, eps)
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == 1.0


class TestGradientFloor:
    """The floor is exact: the smallest |s_top - s_runner-up| over the pairs
    whose region meets {m < epsilon} for every epsilon > 0."""

    def test_circle_two_sites_slope(self):
        # |dm/dtheta| = |2 sin(theta)| = 2 at the boundary angles
        assert gradient_floor(circle_two_sites()) == 2.0

    def test_circle_three_sites_slope(self):
        assert gradient_floor(circle_three_sites()) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_square_eight_sites_closest_pair(self):
        spec = square_eight_sites()
        floor = gradient_floor(spec)
        assert floor == np.linalg.norm(spec.sites[2] - spec.sites[1]) == 0.2068917456540654

    @staticmethod
    def walk(sites, n=1 << 20):
        """(circle, square) floors from a stable argsort of the logits at n
        directions: on the circle the pairs on both sides of each change of
        the top token, on the square every pair seen."""
        s = sites[:, :2]
        theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        u = np.column_stack((np.cos(theta), np.sin(theta)))
        order = [np.argsort(-(u[a : a + 65_536] @ s.T), axis=1, kind="stable")[:, :2]
                 for a in range(0, n, 65_536)]
        top, run = np.concatenate(order).T
        dist = np.linalg.norm(s[top] - s[run], axis=1)
        change = np.flatnonzero(top != np.roll(top, -1))
        return dist[np.concatenate((change, (change + 1) % n))].min(), dist.min()

    def assert_matches_walk(self, sites):
        circle, square = self.walk(sites)
        d = sites.shape[1]
        assert gradient_floor(ManifoldSpec(1, d, sites, "circle_uniform", 1000)) == pytest.approx(
            circle, rel=1e-12)
        assert gradient_floor(ManifoldSpec(2, d, sites, "square_uniform", 1000)) == pytest.approx(
            square, rel=1e-12)
        return circle, square

    @pytest.mark.parametrize("v", range(2, 10))
    def test_random_sites_match_walk(self, v):
        rng = np.random.default_rng(v)
        for d in (2 + v % 3, 2 + (v + 1) % 3):
            self.assert_matches_walk(rng.normal(size=(v, d)))

    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_regular_polygons_match_walk(self, n, interior):
        angles = 2.0 * math.pi * np.arange(n) / n
        sites = np.column_stack((np.cos(angles), np.sin(angles)))
        circle, square = self.assert_matches_walk(
            np.vstack((sites, [[0.0, 0.0]])) if interior else sites)
        side = 2.0 * math.sin(math.pi / n)
        assert circle == pytest.approx(side, rel=1e-12)
        # Only beside a triangle is the centre ever runner-up (1 from each vertex).
        assert square == pytest.approx(1.0 if interior and n == 3 else side, rel=1e-12)

    def test_collinear_tie_uses_runner_up(self):
        # Sites 1 and 2 swap the top at theta = 0, where all three tie; on
        # either side site 0 is runner-up, so the margin's slope is 1, not
        # |s_1 - s_2| = 2.
        sites = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        assert self.assert_matches_walk(sites)[0] == 1.0

    def test_overflowing_distance_is_data_error(self):
        spec = ManifoldSpec(1, 2, np.array([[1e308, 0.0], [-1e308, 0.0]]), "circle_uniform", 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflows"):
                gradient_floor(spec)
