"""Radial model of a solvable harmonic space with purely exponential volume growth.

The model is parametrized by a pair (sigma, tau) with sigma >= tau > -1/2,
or equivalently by integer dimensions (m, k) of the two root layers of the
group. All geometric quantities are radial: a density on (0, inf) whose
integral is the volume of a ball, a clamp model for the measure of the
intersection of two balls, and an annular discretization of the space on
which kernels and maximal operators act.

Conventions fixed here and relied on everywhere else:

* density(t) = (2 sinh(t/2))^(2 sigma + 1) * (2 cosh(t/2))^(2 tau + 1),
  which grows like exp(2 rho t) with rho = (sigma + tau + 1) / 2;
* every volume is read from one fixed panel rule on the density: unit
  panels [k, k + 1] (the last one of a ball possibly shorter), each summed
  by 24-node Gauss-Legendre, except the panel at the origin, which takes
  24-node Gauss-Jacobi with weight t^(2 sigma + 1) so that the branch point
  density ~ t^(2 sigma + 1) at 0 is integrated exactly.  Spaces growing by
  more than 32 e-folds per unit split each panel into equal sub-panels.
  All panels of a grid or ball are evaluated in one vectorized density call;
* annuli are indexed from j = 1, annulus j is the shell between radii
  j - 1 and j, and its representative distance is the midpoint j - 1/2;
* the intersection model clamps exp(rho (s + t - d)) by the two ball
  volumes and vanishes for d >= s + t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import DomainError, GridRangeError

__all__ = [
    "SpaceParams",
    "AnnularGrid",
    "ProductKernel",
    "density",
    "ball_volume",
    "ball_intersection",
    "annular_intersection",
    "product_kernel",
    "valid_upper",
]

_PANEL_NODES = 24
# Largest growth 2 rho h (in e-folds) one 24-node panel of width h takes. On
# exp(c t) over [0, 1] the rule is off by 6e-15 relative at c = 32, the
# rounding of exp at its nodes, but by 7e-14 at c = 64; faster-growing
# spaces split each panel into equal sub-panels.
_PANEL_MAX_EFOLDS = 32.0


@dataclass(frozen=True)
class SpaceParams:
    """Indices (sigma, tau) of the radial model and derived exponents.

    sigma controls the dimension-like small-scale behavior (topological
    dimension ell = 2 sigma + 2), the sum sigma + tau + 1 controls the
    exponential growth rate.
    """

    sigma: float
    tau: float

    def __post_init__(self):
        if not (self.sigma >= self.tau > -0.5):
            raise DomainError(
                f"need sigma >= tau > -1/2, got sigma={self.sigma}, tau={self.tau}"
            )

    @classmethod
    def from_mk(cls, m: int, k: int) -> "SpaceParams":
        """Build from layer dimensions: m positive and even, k >= 0 integer."""
        if m <= 0 or m % 2 != 0:
            raise DomainError(f"m must be a positive even integer, got {m}")
        if k < 0:
            raise DomainError(f"k must be a nonnegative integer, got {k}")
        return cls(sigma=(m + k - 1) / 2.0, tau=(k - 1) / 2.0)

    @property
    def homogeneous_dim(self) -> float:
        """Exponential volume growth rate; equals m/2 + k in layer terms."""
        return self.sigma + self.tau + 1.0

    @property
    def rho(self) -> float:
        """Half the growth rate; balls of radius r have volume ~ exp(2 rho r)."""
        return 0.5 * self.homogeneous_dim

    @property
    def ell(self) -> int | float:
        """Topological dimension; small balls have volume ~ r^ell."""
        ell = 2.0 * self.sigma + 2.0
        return int(ell) if float(ell).is_integer() else ell


DEFAULT_SPACE = SpaceParams.from_mk(2, 1)


def density(params: SpaceParams, t):
    """Radial volume density A(t); vectorized in t.

    A(t) ~ 2^(2 tau + 1) t^(ell - 1) as t -> 0 and ~ exp(2 rho t) as t -> inf.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("density is defined for t >= 0")
    s = 2.0 * np.sinh(t / 2.0)
    c = 2.0 * np.cosh(t / 2.0)
    out = s ** (2.0 * params.sigma + 1.0) * c ** (2.0 * params.tau + 1.0)
    return out if out.shape else float(out)


@functools.lru_cache(maxsize=16)
def _unit_rules(beta: float, splits: int):
    """Nodes and weights on [0, 1] for an inner panel and for the first panel.

    The inner rule is Gauss-Legendre on ``splits`` equal sub-panels.  The
    first rule replaces the first sub-panel by Gauss-Jacobi with weight
    t^beta, folded into the weights: sum(w * f(x)) over the first rule
    integrates f = t^beta * g over [0, 1] exactly whenever g is a
    polynomial of degree < 48 on the first sub-panel.
    Computed on first use: the root finders load scipy.linalg.
    """
    xl, wl = roots_legendre(_PANEL_NODES)
    xj, wj = roots_jacobi(_PANEL_NODES, 0.0, beta)
    lo = np.arange(splits)[:, None]
    x = ((lo + (xl + 1.0) / 2.0) / splits).ravel()
    w = np.tile(wl / (2.0 * splits), splits)
    x_first, w_first = x.copy(), w.copy()
    x_first[:_PANEL_NODES] = (xj + 1.0) / (2.0 * splits)
    w_first[:_PANEL_NODES] = wj / (2.0 * splits) / (1.0 + xj) ** beta
    rules = (x, w, x_first, w_first)
    for arr in rules:
        arr.setflags(write=False)
    return rules


def _panel_integrals(params: SpaceParams, widths: np.ndarray) -> np.ndarray:
    """Density integrals over the panels [k, k + widths[k]], k = 0, 1, ...

    One density call for all panels.  Panel 0 starts at the origin and takes
    the Gauss-Jacobi rule; entries overflow to inf for fast-growing spaces,
    without a floating-point warning, and callers gate on finiteness.
    """
    splits = max(1, math.ceil(2.0 * params.rho / _PANEL_MAX_EFOLDS))
    x, w, x_first, w_first = _unit_rules(2.0 * params.sigma + 1.0, splits)
    nodes = np.arange(len(widths), dtype=float)[:, None] + widths[:, None] * x
    weights = widths[:, None] * w
    nodes[0] = widths[0] * x_first
    weights[0] = widths[0] * w_first
    with np.errstate(over="ignore"):
        return (weights * density(params, nodes)).sum(axis=1)


def ball_volume(params: SpaceParams, r: float) -> float:
    """Volume V(r) of a ball of radius r, from the panel rule on the density.

    The panels have edges 0, 1, ..., ceil(r) - 1, r, so V(n) at integer n is
    the sum of the first n annulus measures of an ``AnnularGrid``; a radius
    r < 1 is one Gauss-Jacobi panel [0, r].  The tests hold it to 1e-13
    relative against mpmath's own quadrature.
    """
    if not 0 <= r < math.inf:
        raise DomainError(f"radius must be finite and nonnegative, got {r}")
    if r == 0:
        return 0.0
    lefts = np.arange(math.ceil(r), dtype=float)
    return float(_panel_integrals(params, np.minimum(1.0, r - lefts)).sum())


def ball_intersection(params: SpaceParams, s: float, t: float, d: float) -> float:
    """Model measure of the intersection of balls of radii s, t at center distance d.

    Zero when d >= s + t; otherwise exp(rho (s + t - d)) clamped by both
    ball volumes. Monotone nonincreasing in d, symmetric in (s, t).
    """
    if s < 0 or t < 0 or d < 0:
        raise DomainError("radii and distance must be nonnegative")
    if d >= s + t:
        return 0.0
    cap = math.exp(params.rho * (s + t - d))
    return min(ball_volume(params, s), ball_volume(params, t), cap)


class AnnularGrid:
    """Unit-width annular discretization of the radial model.

    Annulus j (1-based, j <= j_max) is the shell between radii j - 1 and j;
    ``measures[j-1]`` is its volume, ``midpoints[j-1] = j - 1/2`` its
    representative distance, ``volumes[j-1]`` the ball volume V(j).
    """

    def __init__(self, params: SpaceParams, j_max: int):
        if j_max < 1:
            raise GridRangeError(f"j_max must be >= 1, got {j_max}")
        self.params = params
        self.j_max = int(j_max)
        pieces = _panel_integrals(params, np.ones(self.j_max))
        if not np.all(np.isfinite(pieces)):
            raise DomainError(
                "annulus measures overflow float range; shrink j_max or the "
                "growth rate rho"
            )
        self.measures = pieces
        self.volumes = np.cumsum(pieces)
        self.midpoints = np.arange(1, j_max + 1) - 0.5
        self._kernel_cache: dict[tuple[int, bool], "ProductKernel"] = {}
        self._validate_growth_band()

    def _validate_growth_band(self):
        # model validity: measures must track exp(2 rho j) within 5% in log scale
        j = np.arange(15, self.j_max + 1)
        ratio = np.log(self.measures[14:]) / (2.0 * self.params.rho * j)
        bad = np.flatnonzero(~((ratio >= 0.95) & (ratio <= 1.05)))
        if bad.size:
            raise DomainError(
                f"annulus {j[bad[0]]} breaks the exponential growth band: "
                f"log-measure ratio {ratio[bad[0]]:.4f}"
            )

    def check_index(self, j: int):
        if not (1 <= j <= self.j_max):
            raise GridRangeError(f"annulus index {j} outside 1..{self.j_max}")

    def ball_volume_at(self, n: int) -> float:
        """V(n) for integer n within the grid."""
        if not (1 <= n <= self.j_max):
            raise GridRangeError(f"radius {n} outside 1..{self.j_max}")
        return float(self.volumes[n - 1])

    def __repr__(self):
        p = self.params
        return f"AnnularGrid(sigma={p.sigma}, tau={p.tau}, j_max={self.j_max})"


def valid_upper(j_max: int, n_max: int, iterations: int = 1) -> int:
    """Largest annulus index unaffected by grid truncation.

    Each maximal-operator pass at scales up to n_max reads n_max + 1 annuli
    above its argument, so the trustworthy window shrinks by that amount
    per pass.
    """
    if iterations < 0:
        raise GridRangeError("iterations must be nonnegative")
    return j_max - iterations * (n_max + 1)


def annular_intersection(grid: AnnularGrid, j, n: int, dist):
    """Model measure of (annulus j) intersected with a ball of radius n at distance dist.

    Vanishes when j - 1 >= dist + n (annulus entirely outside the ball) or
    dist >= j + n (ball entirely inside the annulus hole); otherwise the
    clamp model min(measure_j, V(n), exp(rho (n + j - dist))).
    Vectorized over j and dist jointly.
    """
    if not (1 <= n <= grid.j_max):
        raise GridRangeError(f"scale n={n} outside 1..{grid.j_max}")
    j_arr = np.asarray(j, dtype=int)
    d_arr = np.asarray(dist, dtype=float)
    if np.any(j_arr < 1) or np.any(j_arr > grid.j_max):
        raise GridRangeError("annulus index outside grid")
    if np.any(d_arr <= 0):
        raise DomainError("center distance must be positive")
    vn = grid.ball_volume_at(n)
    meas = grid.measures[j_arr - 1]
    cap = np.exp(grid.params.rho * (n + j_arr - d_arr))
    val = np.minimum(np.minimum(meas, vn), cap)
    empty = (j_arr - 1 >= d_arr + n) | (d_arr >= j_arr + n)
    out = np.where(empty, 0.0, val)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class ProductKernel:
    """Banded symmetric pair-mass kernel at scale n.

    matrix[i-1, j-1] models the mass of pairs (x, y) with x in annulus i,
    y in annulus j and d(x, y) <= n; zero outside the band |i - j| <= n + 1.
    A normalized kernel has been divided by ``scale`` so that no row sum of
    matrix / (V(n) measure_i) exceeds 1; a raw kernel has scale 1.
    """

    n: int
    matrix: np.ndarray
    scale: float


def product_kernel(grid: AnnularGrid, n: int, normalize: bool = True) -> ProductKernel:
    """Pair-mass kernel P_n(i, j) on the annular grid, cached per grid.

    P_n(i, j) = min(m_i m_j, m_i V(n), m_j V(n), exp(rho (n + i + j))) on the
    band |i - j| <= n + 1, where m_i is the measure of annulus i. The
    construction is exactly symmetric. Normalization divides by the largest
    row sum of P_n(i, .) / (V(n) m_i) over the whole grid, so averages of
    the constant function 1 land in (0, 1] everywhere; this keeps the
    power-mean comparison between maximal variants exact.
    """
    if not (1 <= n <= grid.j_max - 1):
        raise GridRangeError(f"kernel scale n={n} outside 1..{grid.j_max - 1}")
    key = (int(n), bool(normalize))
    cached = grid._kernel_cache.get(key)
    if cached is not None:
        return cached

    jm = grid.j_max
    idx = np.arange(1, jm + 1, dtype=float)
    m = grid.measures
    vn = grid.ball_volume_at(n)
    # m_i * m_j may overflow to inf for large rho; the min below always has a
    # finite competitor on the band, so the entry itself stays finite
    with np.errstate(over="ignore"):
        pair = np.minimum.outer(m * vn, m * vn)
        pair = np.minimum(pair, np.outer(m, m))
        expo = np.exp(grid.params.rho * (n + idx[:, None] + idx[None, :]))
        pair = np.minimum(pair, expo)
    band = np.abs(idx[:, None] - idx[None, :]) <= n + 1
    mat = np.where(band, pair, 0.0)

    scale = 1.0
    if normalize:
        if n + 2 > jm - n - 1:
            raise GridRangeError(
                f"no interior rows for n={n} on a grid with j_max={jm}"
            )
        # every row, not just interior: low-edge rows can exceed the interior
        # maximum and the power-mean guarantee needs row ratios <= 1 globally
        row_ratio = mat.sum(axis=1) / (vn * m)
        scale = float(row_ratio.max())
        mat = mat / scale

    kern = ProductKernel(n=int(n), matrix=mat, scale=scale)
    grid._kernel_cache[key] = kern
    return kern
