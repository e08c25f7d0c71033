"""Gap-curve estimation against direct counting oracles."""

import numpy as np
import pytest

from marginlab.errors import NumericalError, UsageError
from marginlab.gapfit import GridSpec, empirical_gap, fit_gap_curve


class TestFitGapCurve:
    def test_uniform_margins_linear(self):
        m = (np.arange(100_000) + 0.5) / 1e5
        fit = fit_gap_curve(m)
        assert fit.beta == pytest.approx(1.0, abs=1e-3)
        assert fit.r2 > 0.9999
        assert fit.alpha_intercept == pytest.approx(1.0, rel=0.02)
        assert fit.alpha_constrained == pytest.approx(1.0, rel=0.02)

    def test_double_scale_halves_alpha(self):
        m = 2.0 * (np.arange(100_000) + 0.5) / 1e5
        fit = fit_gap_curve(m)
        assert fit.alpha_constrained == pytest.approx(0.5, rel=0.02)
        assert fit.beta == pytest.approx(1.0, abs=1e-3)

    def test_eta_matches_counting_oracle_bit_exact(self):
        rng = np.random.default_rng(42)
        m = rng.lognormal(mean=-1.0, sigma=1.0, size=50_000)
        fit = fit_gap_curve(m)
        for eps, eta in zip(fit.epsilon_grid, fit.eta_hat):
            oracle = np.count_nonzero(m < eps) / m.size
            assert eta == oracle  # bit-exact: same counting definition

    def test_eta_monotone_and_reaches_one(self):
        rng = np.random.default_rng(1)
        m = rng.exponential(size=20_000)
        fit = fit_gap_curve(m)
        assert all(b >= a for a, b in zip(fit.eta_hat, fit.eta_hat[1:]))
        assert empirical_gap(m, np.array([m.max() + 1.0]))[0] == 1.0

    def test_too_few_margins(self):
        with pytest.raises(UsageError):
            fit_gap_curve(np.ones(999))

    def test_all_zero_margins_degenerate(self):
        with pytest.raises(NumericalError):
            fit_gap_curve(np.zeros(5000))

    def test_negative_margins_rejected(self):
        m = np.ones(2000)
        m[0] = -1e-9
        with pytest.raises(UsageError):
            fit_gap_curve(m)

    def test_custom_grid_spec(self):
        m = (np.arange(10_000) + 0.5) / 1e4
        fit = fit_gap_curve(m, GridSpec(count=10, quantile_lo=1e-3, quantile_hi=0.5))
        assert len(fit.epsilon_grid) <= 10
        assert fit.beta == pytest.approx(1.0, abs=5e-3)

    def test_bad_grid_spec(self):
        with pytest.raises(UsageError):
            GridSpec(count=3)
        with pytest.raises(UsageError):
            GridSpec(quantile_lo=0.5, quantile_hi=0.1)

    @pytest.mark.parametrize("count", [float("nan"), 7.5, 20.0, True, np.float64(8)])
    def test_grid_count_must_be_an_integer(self, count):
        # NaN passes ``count < 5``; a float count would fail later inside numpy.
        with pytest.raises(UsageError, match="count must be an integer"):
            GridSpec(count=count)
        assert GridSpec(count=np.int64(8)).count == 8


class TestEmpiricalGap:
    def test_strictly_below_semantics(self):
        m = np.array([0.1, 0.2, 0.3])
        assert empirical_gap(m, np.array([0.2]))[0] == pytest.approx(1 / 3)
        assert empirical_gap(m, np.array([0.2000001]))[0] == pytest.approx(2 / 3)
