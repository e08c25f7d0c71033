"""Gap-curve estimation against direct counting oracles."""

import warnings

import numpy as np
import pytest

from marginlab.errors import NumericalError, UsageError
from marginlab.gapfit import GapFit, GridSpec, fit_gap_curve
from marginlab.margins import nearest_rank, nearest_rank_quantile


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

    def test_eta_monotone_up_to_the_max_margin(self):
        rng = np.random.default_rng(1)
        m = rng.exponential(size=20_000)
        fit = fit_gap_curve(m)
        assert all(b >= a for a, b in zip(fit.eta_hat, fit.eta_hat[1:]))
        # A grid up to the 1.0 quantile ends at the largest margin, which it
        # does not count: every other margin is strictly below it.
        whole = fit_gap_curve(m, GridSpec(quantile_hi=1.0))
        assert whole.epsilon_grid[-1] == m.max()
        assert whole.eta_hat[-1] == (m.size - 1) / m.size

    def test_eta_counts_margins_strictly_below(self):
        # 100 values, 10 copies each: the grid ends on the 50th and 100th
        # values, and neither end counts its own 10 copies.
        m = np.repeat(0.001 * np.arange(1, 101), 10)
        fit = fit_gap_curve(m, GridSpec(count=5, quantile_lo=0.5, quantile_hi=1.0))
        assert (fit.epsilon_grid[0], fit.epsilon_grid[-1]) == (m[499], m[-1])
        assert (fit.eta_hat[0], fit.eta_hat[-1]) == (0.49, 0.99)

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


def full_sort_fit(margins: np.ndarray, spec: GridSpec) -> GapFit:
    """The fit from a sort of every margin and a direct count below each
    grid point."""
    s = np.sort(margins)
    grid = np.geomspace(nearest_rank_quantile(s, spec.quantile_lo),
                        nearest_rank_quantile(s, spec.quantile_hi), spec.count)
    eta = np.array([np.count_nonzero(margins < e) for e in grid]) / margins.size
    ge, gn = grid[eta > 0], eta[eta > 0]
    log_e, log_n = np.log(ge), np.log(gn)
    beta, intercept = np.polyfit(log_e, log_n, 1)
    ss_res = np.sum((log_n - (beta * log_e + intercept)) ** 2)
    ss_tot = np.sum((log_n - log_n.mean()) ** 2)
    half = slice(0, max(1, gn.size // 2))
    return GapFit(epsilon_grid=ge.tolist(), eta_hat=gn.tolist(), beta=float(beta),
                  alpha_intercept=float(np.exp(intercept)),
                  alpha_constrained=float(np.mean(gn[half] / ge[half])),
                  r2=float(1.0 - ss_res / ss_tot) if ss_tot > 0 else 0.0,
                  dropped_points=int(np.count_nonzero(eta == 0)))


class TestTailSort:
    """``fit_gap_curve`` sorts only the margins up to the ``quantile_hi``
    rank; the fit equals one from a sort of them all.  By default the input
    is left as it was; ``overwrite_input=True`` partitions it in place and
    fits the same."""

    @pytest.mark.parametrize("n", [10_000, 10_001])  # q * n integral, and not
    @pytest.mark.parametrize("spec", [GridSpec(), GridSpec(7, 0.01, 0.5), GridSpec(5, 0.1, 1.0)],
                             ids=["default", "median", "whole"])
    def test_ties_at_eps_hi_equal_full_sort(self, n, spec):
        rng = np.random.default_rng(n)
        m = np.round(0.001 + rng.exponential(0.2, n), 3)
        eps_hi = np.sort(m)[nearest_rank(spec.quantile_hi, n) - 1]
        above = np.flatnonzero(m > eps_hi)
        m[above[: above.size // 2]] = eps_hi
        assert np.count_nonzero(m == eps_hi) > n // 10 or spec.quantile_hi == 1.0
        before = m.copy()
        fit = fit_gap_curve(m, spec)
        assert m.tobytes() == before.tobytes()
        assert fit == full_sort_fit(m, spec)
        work = m.copy()
        assert fit_gap_curve(work, spec, overwrite_input=True) == fit
        # The copy was reordered in place, not copied: same values, new order.
        assert not np.array_equal(work, m) and np.array_equal(np.sort(work), np.sort(m))

    def test_grid_rounding_past_eps_hi_counts_every_margin(self):
        # eps_hi is 12 ulps above eps_lo, and geomspace rounds an interior
        # grid point above eps_hi: it counts the 900 margins equal to eps_hi.
        lo = 0.16527636512001456
        hi = lo
        for _ in range(12):
            hi = np.nextafter(hi, np.inf)
        m = np.array([lo] * 100 + [hi] * 900)
        assert np.geomspace(lo, hi, 20)[:-1].max() > hi
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            before = m.copy()
            fit, expected = fit_gap_curve(m), full_sort_fit(m, GridSpec())
            assert m.tobytes() == before.tobytes()
            assert fit_gap_curve(m.copy(), overwrite_input=True) == fit
        assert fit == expected and max(fit.eta_hat) == 1.0
