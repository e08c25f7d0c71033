"""Synthetic manifolds with known token sites, for validating the linear
gap scaling law against brute-force oracles.

Restricted to intrinsic dimension 1 (circle) and 2 (square): these are
the cases where a dense deterministic oracle for the linear coefficient
is tractable.  Points h on the manifold get logits ``sites @ h``; the
margin field is then fully known, so the fitted gap curve can be checked
against direct counting.

Points are ``[d, n]`` blocks, so logits ``sites @ points`` are column-major
and only their margins are kept.  The oracle streams its grid in blocks
of ``_CHUNK`` points, so its memory does not grow with grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, UsageError
from .gapfit import GapFit, GridSpec, fit_gap_curve
# top2_stats stays a name of this module: bench/tracing.py patches it here.
from .margins import column_margins, top2_stats  # noqa: F401

__all__ = [
    "ManifoldSpec",
    "ScalingVerdict",
    "generate",
    "oracle_alpha",
    "gradient_floor",
    "validate_scaling",
    "circle_two_sites",
    "circle_three_sites",
    "square_eight_sites",
    "PRESETS",
]

SAMPLERS = ("circle_uniform", "square_uniform")

# Points per block; blocks of a few MiB ran the oracle faster than 500K-point ones.
_CHUNK = 65_536


@dataclass(frozen=True)
class ManifoldSpec:
    """A sampled manifold plus the token directions that tessellate it."""

    intrinsic_dim: int
    ambient_dim: int
    sites: np.ndarray
    sampler: str
    sample_count: int

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise UsageError(f"sampler must be one of {SAMPLERS}")
        expected = 1 if self.sampler == "circle_uniform" else 2
        if self.intrinsic_dim != expected:
            raise UsageError(
                f"sampler {self.sampler} requires intrinsic_dim {expected}"
            )
        sites = np.asarray(self.sites, dtype=np.float64)
        object.__setattr__(self, "sites", sites)
        if sites.ndim != 2 or sites.shape != (sites.shape[0], self.ambient_dim):
            raise UsageError(
                f"sites shape {sites.shape} does not match ambient_dim {self.ambient_dim}"
            )
        if self.ambient_dim < 2 or sites.shape[0] < 2:
            raise UsageError("need ambient_dim >= 2 and at least 2 sites")
        if not np.isfinite(sites).all():
            raise DataError("sites must be finite")
        # Duplicate site rows make the margin field identically zero
        # between them; reject outright.
        uniq = np.unique(sites, axis=0)
        if uniq.shape[0] != sites.shape[0]:
            raise DataError("degenerate sites: duplicate rows")
        if self.sample_count < 1:
            raise UsageError("sample_count must be positive")


@dataclass(frozen=True)
class ScalingVerdict:
    fit: GapFit
    oracle_alpha: float
    relative_alpha_error: float
    gradient_floor: float


def _embed(spec: ManifoldSpec, coords: np.ndarray) -> np.ndarray:
    """Points ``[d, n]`` at intrinsic coordinates ``[k, n]``: rows (cos theta,
    sin theta) on the circle or (u, v) on the square, zero-padded to d."""
    pts = np.zeros((spec.ambient_dim, coords.shape[1]))
    pts[:2] = (np.cos(coords[0]), np.sin(coords[0])) if spec.intrinsic_dim == 1 else coords
    return pts


def _margins(spec: ManifoldSpec, points: np.ndarray, start: int = 0) -> np.ndarray:
    """Margins of points ``[d, n]``, ``_CHUNK`` columns at a time; a
    non-finite logit is named by its index counted from ``start``."""
    out = np.empty(points.shape[1])
    # Overflow gives a DataError (non-finite logit) or an inf margin, not a warning.
    with np.errstate(over="ignore"):
        for a in range(0, points.shape[1], _CHUNK):
            out[a : a + _CHUNK] = column_margins(spec.sites @ points[:, a : a + _CHUNK], start + a)
    return out


def generate(spec: ManifoldSpec, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sample the manifold; returns (points [n, d], margins [n]).

    Raises:
        DataError: a non-finite logit, or finite logits whose margin
            overflows, naming the first such sample.
    """
    rng = np.random.default_rng(seed)
    if spec.sampler == "circle_uniform":
        coords = rng.uniform(0.0, 2.0 * math.pi, (1, spec.sample_count))
    else:
        coords = rng.uniform(-1.0, 1.0, (spec.sample_count, 2)).T
    points = _embed(spec, coords)
    margins = _margins(spec, points)
    if margins.max() == np.inf:  # argmax finds the first inf
        raise DataError(f"margin overflows at sample {int(np.argmax(margins))}")
    return points.T, margins


def _grid_coords(spec: ManifoldSpec, n_points: int, idx: np.ndarray) -> np.ndarray:
    """Intrinsic coordinates of points ``idx`` of the midpoint grid: angles
    ``(i + 0.5) * 2 pi / n_points``, or the cell centres of an m x m square
    grid, m = ceil(sqrt(n_points)), in ``meshgrid(indexing="ij")`` order."""
    if spec.intrinsic_dim == 1:
        return ((idx + 0.5) * (2.0 * math.pi / n_points))[None]
    m = math.ceil(math.sqrt(n_points))
    axis = -1.0 + (np.arange(m) + 0.5) * (2.0 / m)
    return axis[np.stack(np.divmod(idx, m))]


def _grid_margins(spec: ManifoldSpec, n_points: int):
    """Yield the grid's margins in order, one block of at most ``_CHUNK``
    points at a time, each built from its index range."""
    size = n_points if spec.intrinsic_dim == 1 else math.ceil(math.sqrt(n_points)) ** 2
    for start in range(0, size, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, size))
        yield _margins(spec, _embed(spec, _grid_coords(spec, n_points, idx)), start)


def _alpha_estimate(spec: ManifoldSpec, n_points: int, epsilon: float) -> float:
    counts = [(np.count_nonzero(m < epsilon), m.size) for m in _grid_margins(spec, n_points)]
    return sum(int(c) for c, _ in counts) / (sum(n for _, n in counts) * epsilon)


def oracle_alpha(spec: ManifoldSpec, epsilon: float = 1e-3) -> float:
    """Linear gap coefficient by dense deterministic counting.

    Counts the fraction of grid points with margin below ``epsilon`` and
    divides by epsilon; the grid is then doubled in density and the two
    estimates must agree within 0.5%.

    Raises:
        NumericalError: the doubled grid does not confirm convergence.
    """
    base = 10_000_000 if spec.intrinsic_dim == 1 else 9_000_000
    coarse, fine = (_alpha_estimate(spec, n, epsilon) for n in (base, 2 * base))
    if fine <= 0:
        raise NumericalError("oracle found no sub-threshold margins")
    if abs(fine - coarse) / fine > 0.005:
        raise NumericalError(f"oracle did not converge: {coarse} vs {fine} after grid doubling")
    return fine


def gradient_floor(spec: ManifoldSpec, probe_points: int = 1_000_000, h: float = 1e-6) -> float:
    """Smallest margin-gradient magnitude near the Voronoi boundary,
    estimated by central differences along the manifold coordinates at
    the probe points closest to the boundary."""
    m = np.concatenate(list(_grid_margins(spec, probe_points)))
    near = _grid_coords(spec, probe_points, np.flatnonzero(m <= np.quantile(m, 1e-3)))
    squares = 0.0
    for step in np.eye(spec.intrinsic_dim)[:, :, None] * h:
        g = _margins(spec, _embed(spec, near + step)) - _margins(spec, _embed(spec, near - step))
        squares = squares + (g / (2.0 * h)) ** 2
    return float(np.sqrt(squares).min())


def validate_scaling(
    spec: ManifoldSpec, seed: int = 0, grid_spec: GridSpec | None = None
) -> ScalingVerdict:
    """Sample, fit the gap curve, and compare against the dense oracle.

    Requires sample_count >= 1e5 so the fit has stable small-threshold
    bins.
    """
    if spec.sample_count < 100_000:
        raise UsageError("validate_scaling needs sample_count >= 1e5")
    fit = fit_gap_curve(generate(spec, seed)[1], grid_spec)
    oracle = oracle_alpha(spec)
    return ScalingVerdict(fit=fit, oracle_alpha=oracle, gradient_floor=gradient_floor(spec),
                          relative_alpha_error=abs(fit.alpha_constrained - oracle) / oracle)


def circle_two_sites(sample_count: int = 1_000_000) -> ManifoldSpec:
    """Two antipodal sites on the sampled unit circle.

    The margin field is |2 cos(theta)|, so the gap coefficient has the
    closed form 1/pi: each of the two boundary points contributes a
    two-sided interval of length epsilon, and (2 epsilon)/(2 pi) / epsilon
    = 1/pi.
    """
    sites = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return ManifoldSpec(1, 2, sites, "circle_uniform", sample_count)


def circle_three_sites(sample_count: int = 1_000_000) -> ManifoldSpec:
    """Three symmetric sites at 0, 120, and 240 degrees."""
    angles = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    sites = np.column_stack([np.cos(angles), np.sin(angles)])
    return ManifoldSpec(1, 2, sites, "circle_uniform", sample_count)


def square_eight_sites(sample_count: int = 1_000_000) -> ManifoldSpec:
    """Eight pinned pseudo-random sites over the sampled square."""
    sites = np.random.default_rng(7).normal(0.0, 1.0, size=(8, 2))
    return ManifoldSpec(2, 2, sites, "square_uniform", sample_count)


PRESETS = {
    "circle2": circle_two_sites,
    "circle3": circle_three_sites,
    "square8": square_eight_sites,
}
