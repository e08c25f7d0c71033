"""Expressibility-gap curve estimation and log-log scaling fit.

The gap at threshold eps is the fraction of margins strictly below eps.
Linearity of the gap in eps is tested by ordinary least squares on
(log eps, log gap); the slope should sit near 1 when the scaling law
holds.  Two estimates of the linear coefficient are exposed:

* ``alpha_intercept``: exp of the unconstrained regression intercept.
* ``alpha_constrained``: mean of gap/eps over the lower half of the grid,
  i.e. the slope-1-constrained coefficient in the small-eps regime.

Both are reported because they answer slightly different questions and
neither dominates the other on finite samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, UsageError, check_int
from .margins import nearest_rank_quantile

__all__ = ["GridSpec", "GapFit", "fit_gap_curve", "empirical_gap"]


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced threshold grid between two margin quantiles.

    Defaults: 20 points between the 1e-4 and 0.3 margin quantiles, which
    spans the small-eps regime without producing empty bins.
    """

    count: int = 20
    quantile_lo: float = 1e-4
    quantile_hi: float = 0.3

    def __post_init__(self):
        check_int(count=self.count)
        if self.count < 5:
            raise UsageError("grid needs at least 5 points")
        if not (0 < self.quantile_lo < self.quantile_hi <= 1):
            raise UsageError(
                f"need 0 < quantile_lo < quantile_hi <= 1, got "
                f"({self.quantile_lo}, {self.quantile_hi})"
            )


@dataclass(frozen=True)
class GapFit:
    """Fitted gap curve: grid, empirical gap values, and fit parameters."""

    epsilon_grid: list[float]
    eta_hat: list[float]
    beta: float
    alpha_intercept: float
    alpha_constrained: float
    r2: float
    dropped_points: int = field(default=0)


def empirical_gap(margins: np.ndarray, epsilons: np.ndarray) -> np.ndarray:
    """Fraction of margins strictly below each threshold."""
    m = np.sort(np.asarray(margins, dtype=np.float64).ravel())
    counts = np.searchsorted(m, np.asarray(epsilons, dtype=np.float64), side="left")
    return counts / m.size


def fit_gap_curve(margins: np.ndarray, grid_spec: GridSpec | None = None) -> GapFit:
    """Fit the gap scaling curve on a margin sample.

    Requires at least 1000 margins.  Grid points whose empirical gap is
    zero are dropped before fitting; at least 5 usable points must remain.

    Raises:
        UsageError: too few margins.
        NumericalError: all-zero margins or a degenerate grid.
    """
    if grid_spec is None:
        grid_spec = GridSpec()
    m = np.asarray(margins, dtype=np.float64).ravel()
    if m.size < 1000:
        raise UsageError(f"need at least 1000 margins, got {m.size}")
    if not np.isfinite(m).all() or (m < 0).any():
        raise UsageError("margins must be finite and nonnegative")
    s = np.sort(m)
    eps_lo = nearest_rank_quantile(s, grid_spec.quantile_lo)
    eps_hi = nearest_rank_quantile(s, grid_spec.quantile_hi)
    if eps_lo <= 0.0 or eps_hi <= eps_lo:
        raise NumericalError(
            f"degenerate threshold grid [{eps_lo}, {eps_hi}]; margins may be "
            "all zero or nearly constant"
        )

    grid = np.geomspace(eps_lo, eps_hi, grid_spec.count)
    eta = np.searchsorted(s, grid, side="left") / s.size  # empirical_gap on sorted s

    usable = eta > 0.0
    dropped = int(np.count_nonzero(~usable))
    if np.count_nonzero(usable) < 5:
        raise NumericalError("fewer than 5 grid points with nonzero gap")
    ge, gn = grid[usable], eta[usable]

    log_e = np.log(ge)
    log_n = np.log(gn)
    beta, intercept = np.polyfit(log_e, log_n, 1)
    pred = beta * log_e + intercept
    ss_res = float(np.sum((log_n - pred) ** 2))
    ss_tot = float(np.sum((log_n - log_n.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    lower_half = slice(0, max(1, gn.size // 2))
    alpha_c = float(np.mean(gn[lower_half] / ge[lower_half]))

    return GapFit(
        epsilon_grid=[float(v) for v in ge],
        eta_hat=[float(v) for v in gn],
        beta=float(beta),
        alpha_intercept=float(np.exp(intercept)),
        alpha_constrained=alpha_c,
        r2=float(r2),
        dropped_points=dropped,
    )
