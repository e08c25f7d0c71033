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

The oracle skips what it can certify.  Let a be the top token at a point
c.  Every h within r of c has
``(x_a - x_j)(h) >= (x_a - x_j)(c) - |s_a - s_j| r``, so
``m(h) >= min_{j != a} (x_a - x_j)(c) - |s_a - s_j| r`` (where a is not
top at h, the right side is <= 0).  The grid is cut into tiles of
``_TILE`` = 64 points (runs of 64 on the circle, 8 x 8 blocks on the
square) and super-tiles of ``_TILE`` tiles (runs of 4096, 64 x 64 blocks).
A block whose bound exceeds epsilon by a rounding slack, and whose logits
are provably finite, holds no point below epsilon and is not evaluated:
first whole super-tiles are tried, then the tiles of those left.  The
points of the other tiles are evaluated exactly as a dense pass would, so
the count is unchanged.

The gradient floor is exact.  Logits have no bias and points are
zero-padded, so only ``sites[:, :2]`` matter and each (top, runner-up)
region is a cone from the origin, where ``m = (s_top - s_runner-up) . h``.
The order changes only at directions perpendicular to some ``s_i - s_j``,
so the midpoints of the arcs between them find every pair.  On the square
every cone reaches the origin, where m = 0.  On the circle ``{m < epsilon}``
shrinks to where the top changes; there each adjacent arc's pair ties, so
its gradient along the circle is ``|s_top - s_runner-up|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, UsageError, check_int
from .gapfit import GapFit, GridSpec, fit_gap_curve
from .margins import column_margins, top2_stats

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
# Grid points per tile, and tiles per super-tile, of the oracle's
# certificate: runs of 64 on the circle, 8 x 8 blocks on the square.
_TILE = 64


@dataclass(frozen=True)
class ManifoldSpec:
    """A sampled manifold plus the token directions that tessellate it."""

    intrinsic_dim: int
    ambient_dim: int
    sites: np.ndarray
    sampler: str
    sample_count: int

    def __post_init__(self):
        check_int(intrinsic_dim=self.intrinsic_dim, ambient_dim=self.ambient_dim,
                  sample_count=self.sample_count)
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
        # Points are zero-padded, so sites equal in their first two coordinates
        # have identical logits and a margin identically zero; reject outright.
        if np.unique(sites[:, :2], axis=0).shape[0] != sites.shape[0]:
            raise DataError("degenerate sites: duplicate rows in the first two coordinates")
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


def _margins(spec: ManifoldSpec, points: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
    """Margins of points ``[d, n]``, ``_CHUNK`` columns at a time; a
    non-finite logit is named by its grid index ``idx[column]``, or by its
    column when ``idx`` is None."""
    out = np.empty(points.shape[1])
    # Overflow gives a DataError (non-finite logit) or an inf margin, not a warning.
    with np.errstate(over="ignore"):
        for a in range(0, points.shape[1], _CHUNK):
            names = a if idx is None else idx[a : a + _CHUNK]
            out[a : a + _CHUNK] = column_margins(spec.sites @ points[:, a : a + _CHUNK], names)
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


def _tile_centres(tiles: np.ndarray, side: int, length: int) -> np.ndarray:
    """Centre index of each tile when ``range(length)`` is cut into runs of
    ``side`` (the last run may be short)."""
    starts = tiles * side
    return starts + (np.minimum(side, length - starts) - 1) / 2


def _cells(tr: np.ndarray, tc: np.ndarray, th: int, tw: int, rows: int, cols: int) -> np.ndarray:
    """Ascending flat indices ``a * cols + b`` of the cells of a ``rows x cols``
    grid in its ``th x tw`` blocks at (tr, tc); edge blocks are partial."""
    a = (tr * th)[:, None] + np.arange(th)
    b = (tc * tw)[:, None] + np.arange(tw)
    idx = a[:, :, None] * cols + b[:, None]
    if rows % th or cols % tw:
        idx = idx[(a < rows)[:, :, None] & (b < cols)[:, None]]
    return np.sort(idx, axis=None)


def _alpha_estimate(spec: ManifoldSpec, n_points: int, epsilon: float) -> float:
    """Fraction of grid margins below ``epsilon``, divided by epsilon.  The
    grid is ``rows x cols`` (1 x n on the circle, m x m on the square; point
    ``a * cols + b`` at row a, column b) in tiles of ``th x tw`` points and
    super-tiles of ``th x tw`` tiles.  Only the tiles the certificate cannot
    clear, inside super-tiles it cannot clear, are evaluated, in grid order."""
    d, circle = spec.ambient_dim, spec.intrinsic_dim == 1
    m = math.ceil(math.sqrt(n_points))
    rows, cols, step = (1, n_points, 2.0 * math.pi / n_points) if circle else (m, m, 2.0 / m)
    th, tw = (1, _TILE) if circle else (math.isqrt(_TILE),) * 2
    n_tr, n_tc = -(-rows // th), -(-cols // tw)
    n_sr, n_sc = -(-n_tr // th), -(-n_tc // tw)
    with np.errstate(over="ignore", invalid="ignore"):  # huge sites certify nothing
        s_max = float(np.linalg.norm(spec.sites, axis=1).max())
        dist = np.linalg.norm(spec.sites[:, None] - spec.sites[None], axis=2)
        lipschitz = float(dist.max())
        # Rounding, with u = 2^-53, X = s_max * max|h| the logit scale and L
        # the largest pair distance: a computed logit is within 1.01 d u X of
        # the exact dot product at the computed point (any summation order,
        # with or without FMA), and top and runner-up move no more than the
        # logits, so a computed margin is within (2.02 d + 2) u X of the exact
        # one.  Computed points and centres lie within 32 u of the grid (an
        # angle below 2 pi rounded, then cos/sin to a few ulps; or a square
        # coordinate rounded twice): 64 u L more per pair term.  A clearing
        # term is positive, so both its parts are below 2X; it rounds by
        # (2.02 d + 4) u X (logits, difference, subtraction) plus (d + 8) u 2X
        # (distance times radius).  All of it is below 64 (d + 1) u (X + L);
        # the slack is 16 times that.
        slack = (d + 1) * 2.0**-43 * (s_max * (1.0 if circle else math.sqrt(2.0)) + lipschitz)
    np.fill_diagonal(dist, -np.inf)  # the pair (a, a) bounds nothing
    # Super-tiles s = sr * n_sc + sc in blocks of at most _CHUNK // _TILE; on
    # the square a block is whole super-tile rows (more only if one row is),
    # so each block's points come after the previous block's.
    per_block = max(1, _CHUNK // _TILE) if th == 1 else max(1, _CHUNK // _TILE // n_sc) * n_sc

    def points(pos: np.ndarray) -> np.ndarray:
        """Points ``[d, n]`` at grid positions ``[2, n]`` (row, column)."""
        return _embed(spec, (pos[1:] + 0.5) * step if circle else -1.0 + (pos + 0.5) * step)

    def cleared(tr: np.ndarray, tc: np.ndarray, h: int, w: int) -> np.ndarray:
        """Which ``h x w``-point blocks at (tr, tc) the certificate clears
        (their centres' arrays are freed before any point is evaluated)."""
        # Every point of a block is within ``radius`` of its centre (on the
        # circle the chord is at most the arc).
        radius = step * math.hypot(h - 1, w - 1) / 2
        centres = points(np.stack((_tile_centres(tr, h, rows), _tile_centres(tc, w, cols))))
        with np.errstate(over="ignore", invalid="ignore"):
            x = spec.sites @ centres
            # Within a block |x_j(p)| <= |x_j(c)| + s_max * radius: all finite.
            finite = np.maximum(x.max(axis=0), -x.min(axis=0)) + s_max * radius < 2.0**1000
            x[:, ~finite] = 0.0
            top, reach = x.argmax(axis=0), dist * radius
            x_top, bound = x[top, np.arange(x.shape[1])], np.full(x.shape[1], np.inf)
            for j, row in enumerate(x):
                np.minimum(bound, x_top - row - reach[top, j], out=bound)
            return finite & (bound > epsilon + slack)

    below = 0
    for s0 in range(0, n_sr * n_sc, per_block):
        sr, sc = np.divmod(np.arange(s0, min(s0 + per_block, n_sr * n_sc)), n_sc)
        kept = ~cleared(sr, sc, th * th, tw * tw)
        tr, tc = np.divmod(_cells(sr[kept], sc[kept], th, tw, n_tr, n_tc), n_tc)
        kept = np.flatnonzero(~cleared(tr, tc, th, tw))
        # Kept tiles are gathered a group at a time: the whole tile rows (single
        # tiles on the circle) that start within one run of _CHUNK // _TILE
        # kept tiles, so at most _CHUNK points plus one tile row are held at
        # once even when few tiles clear.
        row = kept if th == 1 else tr[kept]
        group = np.searchsorted(row, row) // max(1, _CHUNK // _TILE)
        for tiles in np.split(kept, np.flatnonzero(np.diff(group)) + 1) if kept.size else ():
            idx = _cells(tr[tiles], tc[tiles], th, tw, rows, cols)
            for i in range(0, idx.size, _CHUNK):
                piece = idx[i : i + _CHUNK]
                margins = _margins(spec, points(np.stack(np.divmod(piece, cols))), piece)
                below += int(np.count_nonzero(margins < epsilon))
    return below / (rows * cols * epsilon)


def oracle_alpha(spec: ManifoldSpec, epsilon: float = 1e-3) -> float:
    """Linear gap coefficient by dense deterministic counting.

    Counts the fraction of grid points with margin below ``epsilon`` and
    divides by epsilon; the grid is then doubled in density and the two
    estimates must agree within 0.5%.  Super-tiles of 4096 points and tiles
    of 64 that the per-pair certificate (see the module notes) clears are
    counted unevaluated, so the count equals a dense pass; the presets
    evaluate 0.03-0.06% (circles) and 0.9-1.2% (square8) of their grids.

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


def gradient_floor(spec: ManifoldSpec) -> float:
    """Smallest margin-gradient magnitude at the Voronoi boundary: the limit
    as epsilon -> 0 of the smallest ``|grad m|`` over ``{m < epsilon}``,
    computed exactly from the sites (see the module notes).  Raises
    ``DataError`` when the distance between two sites overflows."""
    s = spec.sites[:, :2]
    with np.errstate(over="ignore"):
        w = s[:, None] - s[None]
        dist = np.hypot(w[..., 0], w[..., 1])
        if not np.isfinite(dist).all():
            raise DataError("sites too far apart: a distance between two sites overflows")
        # Directions perpendicular to s_i - s_j, both signs from both orders.
        cuts = np.unique((np.arctan2(w[..., 1], w[..., 0])[dist > 0] + math.pi / 2) % (2 * math.pi))
        mid = cuts + np.diff(cuts, append=cuts[0] + 2 * math.pi) / 2
        u = np.stack((np.cos(mid), np.sin(mid)), axis=1)
        pairs = [top2_stats(u[a : a + _CHUNK] @ s.T)[:2] for a in range(0, len(u), _CHUNK)]
    top, run = (np.concatenate(ids) for ids in zip(*pairs))
    # Every arc counts on the square; on the circle, those ending where the top changes.
    counted = (spec.intrinsic_dim == 2) | (top != np.roll(top, 1)) | (top != np.roll(top, -1))
    return float(dist[top, run][counted].min())


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
