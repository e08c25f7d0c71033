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

from .errors import NumericalError, UsageError, check_int, check_size
from .margins import nearest_rank

MIN_MARGINS = 1000  # the fewest margins fit_gap_curve takes


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
        check_size(count=self.count)
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


def fit_gap_curve(margins: np.ndarray, grid_spec: GridSpec | None = None, *,
                  overwrite_input: bool = False) -> GapFit:
    """Fit the gap scaling curve on a margin sample.

    Requires at least MIN_MARGINS margins.  Grid points whose empirical gap is
    zero are dropped before fitting; at least 5 usable points must remain.

    As in ``np.median``, ``overwrite_input=True`` lets the fit reorder
    ``margins`` in place (a float64 array is partitioned at the
    ``quantile_hi`` rank and its lower part sorted, instead of a copy of
    it), leaving their order undefined; the fit is the same.  By default
    ``margins`` is not modified.

    Raises:
        UsageError: too few margins.
        NumericalError: all-zero margins or a degenerate grid.
    """
    if grid_spec is None:
        grid_spec = GridSpec()
    m = np.asarray(margins, dtype=np.float64).ravel()
    if m.size < MIN_MARGINS:
        raise UsageError(f"need at least {MIN_MARGINS} margins, got {m.size}")
    # NaN fails both comparisons; neither builds an array the size of m.
    if not (m.min() >= 0.0 and m.max() < np.inf):
        raise UsageError("margins must be finite and nonnegative")
    # Only the k_hi smallest margins are sorted, in place: they hold both
    # quantiles and every margin below a grid point no greater than eps_hi.
    # A sorted copy of them made glibc trim the heap and fault ~4,000 pages
    # back in per synth bench pass.
    k_lo, k_hi = (nearest_rank(q, m.size) for q in (grid_spec.quantile_lo, grid_spec.quantile_hi))
    work = m if overwrite_input else m.copy()
    work.partition(k_hi - 1)
    s = work[:k_hi]
    s.sort()
    eps_lo, eps_hi = float(s[k_lo - 1]), float(s[k_hi - 1])
    if eps_lo <= 0.0 or eps_hi <= eps_lo:
        zeros = int(np.count_nonzero(m == 0.0))
        raise NumericalError(
            f"degenerate threshold grid [{eps_lo}, {eps_hi}] between the "
            f"{grid_spec.quantile_lo} and {grid_spec.quantile_hi} margin quantiles: "
            f"{zeros} of {m.size} margins ({zeros / m.size:.2%}) are exactly 0"
        )

    grid = np.geomspace(eps_lo, eps_hi, grid_spec.count)
    if grid.max() > eps_hi:  # geomspace pins its ends; an inner point can round past
        s = np.sort(m)
    eta = np.searchsorted(s, grid, side="left") / m.size  # the share strictly below

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
