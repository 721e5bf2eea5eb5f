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
  volumes and vanishes for d >= s + t;
* the product kernels of scales 1..s live in one read-only stack per grid
  and normalization, built in one vectorized pass from two (j_max x j_max)
  tables, m_i m_j and min(m_i, m_j).  Per scale n the pass adds one row of
  exp(rho (n + k)) over the index sums k = i + j, read as a Hankel matrix,
  so a scale costs 2 j_max - 1 exponentials instead of j_max^2.  A request
  beyond s rebuilds the stack at max(n, 2 s) scales, capped at the largest
  scale the normalization allows, so ascending requests rebuild it
  O(log n) times.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, GridRangeError, require_integer

__all__ = [
    "SpaceParams",
    "AnnularGrid",
    "ProductKernel",
    "density",
    "ball_volume",
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
        # sigma >= tau > -1/2 bounds tau, so a finite sigma makes both finite
        if not (math.isfinite(self.sigma) and self.sigma >= self.tau > -0.5):
            raise DomainError(
                "need finite sigma >= tau > -1/2, "
                f"got sigma={self.sigma}, tau={self.tau}"
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


def _gauss_jacobi(n: int, beta: float):
    """n-node Gauss rule on [-1, 1] for the weight (1 + x)^beta; beta = 0 is Legendre.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix.  The weights are the Christoffel numbers 1 / sum_j p_j(x)^2
    of the orthonormal recurrence started at p_0 = 1 / sqrt(mu_0), mu_0 the
    weight's mass; weights read from the eigenvectors (mu_0 v_0^2) lose
    digits as beta grows.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta**2 / (s * (s + 2.0))))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    b = np.concatenate(([0.0], off))
    p_prev, p = 0.0, np.full(n, math.sqrt((beta + 1.0) / 2.0 ** (beta + 1.0)))
    total = p * p
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[j]) * p - b[j] * p_prev) / b[j + 1]
        total += p * p
    return x, 1.0 / total


@functools.lru_cache(maxsize=16)
def _unit_rules(beta: float, splits: int):
    """Nodes and weights on [0, 1] for an inner panel and for the first panel.

    The inner rule is Gauss-Legendre on ``splits`` equal sub-panels.  The
    first rule replaces the first sub-panel by Gauss-Jacobi with weight
    t^beta, folded into the weights: sum(w * f(x)) over the first rule
    integrates f = t^beta * g over [0, 1] exactly whenever g is a
    polynomial of degree < 48 on the first sub-panel.  Both rules come from
    the Golub-Welsch construction (Golub and Welsch, "Calculation of Gauss
    quadrature rules", Math. Comp. 23, 1969) in ``_gauss_jacobi``.
    """
    xl, wl = _gauss_jacobi(_PANEL_NODES, 0.0)
    xj, wj = _gauss_jacobi(_PANEL_NODES, beta)
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
        # normalize flag -> (kernel stack, scales); see _kernel_stack
        self._kernel_stacks: dict[bool, tuple] = {}
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
        """V(n) for integer n within the grid; a float or bool n is refused."""
        require_integer(n, "radius n")
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
    Vectorized over j and dist jointly.  Annulus indices and the scale must
    be integers, bools excluded, and distances positive and finite.
    """
    require_integer(n, "scale n")
    if not (1 <= n <= grid.j_max):
        raise GridRangeError(f"scale n={n} outside 1..{grid.j_max}")
    # numpy would store [5, True] as the integers [5, 1]
    if isinstance(j, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in j):
        raise DomainError("annulus indices must be integers, got a bool")
    j_arr = np.asarray(j)
    if j_arr.dtype.kind not in "iu":
        raise DomainError(f"annulus indices must be integers, got {j_arr.dtype}")
    d_arr = np.asarray(dist, dtype=float)
    if np.any(j_arr < 1) or np.any(j_arr > grid.j_max):
        raise GridRangeError("annulus index outside grid")
    # min and max propagate nan, so one pair of reductions refuses nan too
    if d_arr.size and not (d_arr.min() > 0 and d_arr.max() < math.inf):
        raise DomainError("center distance must be positive and finite")
    vn = grid.ball_volume_at(n)
    meas = grid.measures[j_arr - 1]
    cap = np.exp(grid.params.rho * (n + j_arr - d_arr))
    val = np.minimum(np.minimum(meas, vn), cap)
    empty = (j_arr - 1 >= d_arr + n) | (d_arr >= j_arr + n)
    out = np.where(empty, 0.0, val)
    return out if out.shape else float(out)


def _scale_denominators(grid: AnnularGrid, n_max: int) -> np.ndarray:
    """V(n) |Omega_i| for scales n = 1..n_max (rows) and annuli i (columns).

    Row n - 1 equals grid.ball_volume_at(n) * grid.measures bit for bit.
    Huge spaces overflow to inf; callers silence the warning.
    """
    return grid.volumes[:n_max, None] * grid.measures


@dataclass(frozen=True)
class ProductKernel:
    """Banded symmetric pair-mass kernel at scale n.

    matrix[i-1, j-1] models the mass of pairs (x, y) with x in annulus i,
    y in annulus j and d(x, y) <= n; zero outside the band |i - j| <= n + 1.
    A normalized kernel has been divided by ``scale`` so that no row sum of
    matrix / (V(n) measure_i) exceeds 1; a raw kernel has scale 1.  matrix
    is a read-only slice of its grid's kernel stack, the same memory for
    every caller.
    """

    n: int
    matrix: np.ndarray
    scale: float


def _build_kernel_stack(grid: AnnularGrid, s: int, normalize: bool) -> tuple:
    """The kernels P_1..P_s of a grid as one (s x j_max x j_max) array, and their scales.

    One vectorized pass over all scales, each entry computed as a per-scale
    build would, so slice n - 1 is bit for bit the kernel of scale n: the
    minima V(n) min(m_i, m_j), which equal min(m_i V(n), m_j V(n)) exactly
    because rounding is monotone; then the m_i m_j table; then an
    (s x (2 j_max - 1)) table of exp(rho (n + i + j)), read as one Hankel
    matrix per scale through a strided view, since the cap depends on i + j
    alone.  Off-band entries are zeroed by a minimum with a 0/inf Toeplitz
    view, since the band depends on |i - j| alone.  Normalization divides
    each scale by the largest ratio of its row sums to V(n) m_i, in place.
    Both arrays are returned read-only.
    """
    jm = grid.j_max
    if normalize and 2 * s + 3 > jm:
        raise GridRangeError(f"no interior rows for n={s} on a grid with j_max={jm}")
    m = grid.measures
    ns = np.arange(1.0, s + 1)
    # m_i * m_j and m_i * V(n) may overflow to inf for large rho; the min
    # always has a finite competitor on the band, so band entries stay finite
    with np.errstate(over="ignore"):
        products = np.multiply.outer(m, m)
        stack = np.minimum.outer(m, m) * grid.volumes[:s, None, None]
        caps = np.exp(grid.params.rho * (ns[:, None] + np.arange(2.0, 2 * jm + 1)))
    np.minimum(stack, products, out=stack)
    step = caps.itemsize
    hankel = as_strided(caps, (s, jm, jm), (caps.strides[0], step, step))
    np.minimum(stack, hankel, out=stack)
    # band[n - 1, jm - 1 + d] is inf for |d| <= n + 1 and 0 beyond; read with
    # strides (-1, +1) items it is the scale's band at offset d = j - i
    offsets = np.abs(np.arange(1 - jm, jm))
    band = np.where(offsets <= ns[:, None] + 1, np.inf, 0.0)
    toeplitz = as_strided(band[:, jm - 1 :], (s, jm, jm), (band.strides[0], -step, step))
    np.minimum(stack, toeplitz, out=stack)

    scales = np.ones(s)
    if normalize:
        # every row, not just interior: low-edge rows can exceed the interior
        # maximum and the power-mean guarantee needs row ratios <= 1 globally
        row_ratio = stack.sum(axis=2) / _scale_denominators(grid, s)
        scales = row_ratio.max(axis=1)
        stack /= scales[:, None, None]
    for arr in (stack, scales):
        arr.setflags(write=False)
    return stack, scales


def _kernel_stack(grid: AnnularGrid, n: int, normalize: bool = True) -> tuple:
    """The read-only kernels and scales of scales 1..n on a grid.

    Views of the first n entries of the grid's stack for this normalization;
    a stack of s < n scales is rebuilt at max(n, min(2 s, top)) scales, top
    the largest scale the normalization allows.  n must be an integer in
    1..j_max - 1, and 2n + 3 <= j_max when normalized: a float or bool n is
    refused before the stack is read.
    """
    require_integer(n, "kernel scale n")
    if not (1 <= n <= grid.j_max - 1):
        raise GridRangeError(f"kernel scale n={n} outside 1..{grid.j_max - 1}")
    normalize = bool(normalize)
    stack, scales = grid._kernel_stacks.get(normalize, ((), ()))
    if len(stack) < n:
        top = (grid.j_max - 3) // 2 if normalize else grid.j_max - 1
        size = max(int(n), min(2 * len(stack), top))
        stack, scales = _build_kernel_stack(grid, size, normalize)
        grid._kernel_stacks[normalize] = stack, scales
    return stack[:n], scales[:n]


def product_kernel(grid: AnnularGrid, n: int, normalize: bool = True) -> ProductKernel:
    """Pair-mass kernel P_n(i, j) on the annular grid: one slice of its kernel stack.

    P_n(i, j) = min(m_i m_j, m_i V(n), m_j V(n), exp(rho (n + i + j))) on the
    band |i - j| <= n + 1, where m_i is the measure of annulus i. The
    construction is exactly symmetric. Normalization divides by the largest
    row sum of P_n(i, .) / (V(n) m_i) over the whole grid, so averages of
    the constant function 1 land in (0, 1] everywhere; this keeps the
    power-mean comparison between maximal variants exact.

    The kernel is slice n - 1 of the grid's stack for this normalization
    (_build_kernel_stack), read-only; a scale beyond the stack rebuilds it
    (_kernel_stack), so loops over scales take _kernel_stack once instead.
    The scale must be an integer: a float or bool n is refused.
    """
    stack, scales = _kernel_stack(grid, n, normalize)
    return ProductKernel(n=int(n), matrix=stack[-1], scale=float(scales[-1]))
