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

    def test_sampler_dim_consistency(self):
        sites = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(UsageError):
            ManifoldSpec(2, 2, sites, "circle_uniform", 1000)


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
    def test_circle_two_sites_slope(self):
        # |dm/dtheta| = |2 sin(theta)| = 2 at the boundary angles
        floor = gradient_floor(circle_two_sites(), probe_points=200_000)
        assert floor == pytest.approx(2.0, rel=0.01)

    def test_circle_three_sites_slope(self):
        floor = gradient_floor(circle_three_sites(), probe_points=200_000)
        assert floor == pytest.approx(math.sqrt(3.0), rel=0.01)

    def test_square_positive(self):
        floor = gradient_floor(square_eight_sites(), probe_points=250_000)
        assert floor > 0.0
