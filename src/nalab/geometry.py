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
* the annulus tables and the pair masses P_n(i, j) are functions of (space,
  i, j, n) alone, never of j_max, so a grid of j_max j is the first j
  annuli of any larger one.  They live in one record per space
  (_geometry), kept for the last space asked for, as treelab keeps its
  last maximal function: read-only annulus measures, ball volumes and
  midpoints, grown to the largest j_max asked for, and the kernel slot
  below.  Every AnnularGrid of the space reads the first j_max entries of
  the record's memory, and a grid keeps its record after the memo lets it
  go; a refused j_max leaves the record as it was, so it is refused again
  on every construction;
* the raw product kernels of scales 1..s live in one read-only (s x J x J)
  stack per space, J the width of the record's tables when it was built,
  built from the record's own tables in three vectorized passes: a
  minimum of V(n) on the band with max(m_i, m_j), read as one Toeplitz
  matrix per scale; a product with min(m_i, m_j); and a minimum with
  exp(rho (n + i + j)), read as one Hankel matrix per scale, so a scale
  costs 2 J - 1 exponentials instead of J^2.  A grid of j_max j reads the
  view [:n, :j, :j].  The normalization scales belong to the grid's j_max
  and the stack: one vector per j_max, computed from the row sums of that
  view on its first normalized request after a build; the tables of
  indicator maxima (radialops._indicator_maxima) are kept the same way, one
  per (j_max, n_max).  A request beyond s
  rebuilds the stack at max(n, 2 s) scales, capped at the largest scale
  the request's normalization allows, so ascending requests rebuild it
  O(log n) times; a grid wider than the stack rebuilds it at s scales.
  Every entry is computed elementwise, so slice [n - 1, :j, :j] of any
  stack is bit for bit the kernel of scale n on a grid of j_max j, and
  what a grid reads does not depend on which grid of its space grew the
  stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, require_index

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
    without a floating-point warning, and callers gate on finiteness.  The
    rule itself needs the mass 2^(2 sigma + 2) of its weight as a float, so
    a space with 2 sigma + 2 >= 1024 (m + k >= 1023) raises DomainError.
    """
    beta = 2.0 * params.sigma + 1.0
    if beta + 1.0 >= 1024.0:  # 2.0 ** 1024 is past the largest float
        raise DomainError(
            f"space sigma={params.sigma:g}, tau={params.tau:g} leaves the float "
            f"range: the origin panel's Gauss-Jacobi weight t^{beta:g} has mass "
            f"2^{beta + 1.0:g}, and 2 sigma + 2 must stay below 1024"
        )
    splits = max(1, math.ceil(2.0 * params.rho / _PANEL_MAX_EFOLDS))
    x, w, x_first, w_first = _unit_rules(beta, splits)
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


def _validate_growth_band(params: SpaceParams, measures: np.ndarray):
    # model validity: measures must track exp(2 rho j) within 5% in log scale
    j = np.arange(15, len(measures) + 1)
    ratio = np.log(measures[14:]) / (2.0 * params.rho * j)
    bad = np.flatnonzero(~((ratio >= 0.95) & (ratio <= 1.05)))
    if bad.size:
        raise DomainError(
            f"annulus {j[bad[0]]} breaks the exponential growth band: "
            f"log-measure ratio {ratio[bad[0]]:.4f}"
        )


@dataclass(eq=False)
class _Geometry:
    """The tables and raw kernel stack of one space, shared by every grid of it.

    measures, volumes and midpoints are read-only and cover the first J
    annuli, J the largest j_max asked for (_grow_tables); a grid of j_max
    j reads their first j entries.  stack is the raw kernel stack that
    _kernel_stack grows, (s x J' x J') with J' <= J, built from this
    record's tables alone; scales maps a j_max to the normalization scales
    of the grids of it, over the current stack, and maxima maps a (j_max,
    n_max) to the read-only table of the maximal functions of the annulus
    indicators (radialops._indicator_maxima).  A rebuild of the stack
    empties both.
    """

    params: SpaceParams
    measures: np.ndarray = field(default_factory=lambda: np.empty(0))
    volumes: np.ndarray = field(default_factory=lambda: np.empty(0))
    midpoints: np.ndarray = field(default_factory=lambda: np.empty(0))
    stack: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0)))
    scales: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=1)
def _geometry(params: SpaceParams) -> _Geometry:
    """The record of the space params, kept for the last space asked for.

    It starts empty; AnnularGrid grows its tables to each j_max beyond them.
    """
    return _Geometry(params)


def _grow_tables(geo: _Geometry, j_max: int):
    """Rebuild the record's tables at j_max annuli, j_max a validated int.

    Every entry is the same float at any j_max (one panel per annulus, and
    a running sum), so the old tables are a prefix of the new ones and the
    stack built from them stays valid.  A DomainError (measures beyond the
    float range, or outside the exponential growth band) leaves the record
    as it was, so the j_max is refused again on every call.
    """
    measures = _panel_integrals(geo.params, np.ones(j_max))
    if not np.all(np.isfinite(measures)):
        raise DomainError(
            "annulus measures overflow float range; shrink j_max or the "
            "growth rate rho"
        )
    _validate_growth_band(geo.params, measures)
    tables = (measures, np.cumsum(measures), np.arange(1, j_max + 1) - 0.5)
    for arr in tables:
        arr.setflags(write=False)
    # a view of a read-only array cannot be made writable again
    geo.measures, geo.volumes, geo.midpoints = (arr.view() for arr in tables)


class AnnularGrid:
    """Unit-width annular discretization of the radial model.

    Annulus j (1-based, j <= j_max) is the shell between radii j - 1 and j;
    ``measures[j-1]`` is its volume, ``midpoints[j-1] = j - 1/2`` its
    representative distance, ``volumes[j-1]`` the ball volume V(j).  The
    three tables are read-only views of the first j_max entries of its
    space's tables, the same memory for every grid of the space, and so is
    the kernel stack (_kernel_stack); a grid keeps them for as long as it
    lives.
    """

    def __init__(self, params: SpaceParams, j_max: int):
        self.params = params
        j = self.j_max = require_index(j_max, 1, math.inf, "j_max")
        geo = self._geometry = _geometry(params)
        if len(geo.measures) < j:
            _grow_tables(geo, j)
        self.measures, self.volumes, self.midpoints = (
            geo.measures[:j], geo.volumes[:j], geo.midpoints[:j]
        )

    def ball_volume_at(self, n: int) -> float:
        """V(n) for integer n within the grid; a float or bool n is refused."""
        return float(self.volumes[require_index(n, 1, self.j_max, "radius n") - 1])

    def __repr__(self):
        p = self.params
        return f"AnnularGrid(sigma={p.sigma}, tau={p.tau}, j_max={self.j_max})"


def valid_upper(j_max: int, n_max: int, iterations: int = 1) -> int:
    """Largest annulus index unaffected by grid truncation.

    Each maximal-operator pass at scales up to n_max reads n_max + 1 annuli
    above its argument, so the trustworthy window shrinks by that amount
    per pass.
    """
    require_index(iterations, 0, math.inf, "iterations")
    return j_max - iterations * (n_max + 1)


def annular_intersection(grid: AnnularGrid, j, n, dist):
    """Model measure of (annulus j) intersected with a ball of radius n at distance dist.

    Vanishes when j - 1 >= dist + n (annulus entirely outside the ball) or
    dist >= j + n (ball entirely inside the annulus hole); otherwise the
    clamp model min(measure_j, V(n), exp(rho (n + j - dist))).
    Vectorized over j, n and dist, which broadcast jointly: j and n are
    each an index, a flat sequence of them or an integer array of any
    shape, as a column of scales against a row of annuli.  Every entry is
    computed as the scalar call at its (j, n, dist) computes it, bit for
    bit.  Annulus indices and scales must be integers, bools excluded, and
    distances positive and finite; an index outside the grid raises
    GridRangeError naming it.
    """
    n_arr = _require_indices(n, grid.j_max, "scale n")
    j_arr = _require_indices(j, grid.j_max, "annulus j")
    d_arr = np.asarray(dist, dtype=float)
    # min and max propagate nan, so one pair of reductions refuses nan too
    if d_arr.size and not (d_arr.min() > 0 and d_arr.max() < math.inf):
        raise DomainError("center distance must be positive and finite")
    vn = grid.volumes[n_arr - 1]
    meas = grid.measures[j_arr - 1]
    cap = np.exp(grid.params.rho * (n_arr + j_arr - d_arr))
    val = np.minimum(np.minimum(meas, vn), cap)
    empty = (j_arr - 1 >= d_arr + n_arr) | (d_arr >= j_arr + n_arr)
    out = np.where(empty, 0.0, val)
    return out if out.shape else float(out)


def _require_indices(x, j_max: int, name: str) -> np.ndarray:
    """x gated by require_index against 1..j_max, as an array; an integer
    array of more than one axis is gated flat and keeps its shape."""
    if isinstance(x, np.ndarray) and x.ndim > 1:
        return require_index(x.ravel(), 1, j_max, name).reshape(x.shape)
    return np.asarray(require_index(x, 1, j_max, name))


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
    matrix / (V(n) measure_i) exceeds 1; a raw kernel has scale 1.  A raw
    matrix is a read-only (j_max x j_max) slice of its space's kernel stack,
    the same memory for every grid of the space; a normalized matrix is a
    fresh read-only array, that slice divided by its scale.
    """

    n: int
    matrix: np.ndarray
    scale: float


def _build_kernel_stack(geo: _Geometry, s: int) -> np.ndarray:
    """The raw kernels P_1..P_s of a space as one read-only (s x J x J) array.

    J is the length of the record's tables.  Three vectorized passes over
    all scales, each entry computed as a per-scale build would, so slice
    [n - 1, :j, :j] is bit for bit the kernel of scale n on a grid of
    j_max j:

    1. the minimum of max(m_i, m_j) with an (s x (2 J - 1)) table that
       holds V(n) on the band |i - j| <= n + 1 and 0 off it, read as one
       Toeplitz matrix per scale through a strided view, since the band
       depends on |i - j| alone;
    2. a product with min(m_i, m_j), in place: for a > 0 rounding is
       monotone, so fl(a min(x, y)) = min(fl(a x), fl(a y)) and the band
       entries become min(m_i V(n), m_j V(n), m_i m_j) exactly;
    3. the minimum with an (s x (2 J - 1)) table of exp(rho (n + i + j)),
       in place, read as one Hankel matrix per scale, since the cap depends
       on i + j alone.

    On fast-growing spaces the products and caps overflow to inf without a
    warning, and band entries can be inf where all three competitors are;
    the pair checkers take such entries as infinite pair masses, and a
    normalized request refuses them (_kernel_stack).
    """
    m = geo.measures
    jm, step = len(m), m.itemsize
    # band[n - 1, jm - 1 + d] is V(n) for |d| <= n + 1 and 0 beyond; read
    # with strides (-1, +1) items it is the scale's band at offset d = j - i
    offsets = np.abs(np.arange(1 - jm, jm))
    ns = np.arange(1.0, s + 1)
    band = np.where(offsets <= ns[:, None] + 1, geo.volumes[:s, None], 0.0)
    toeplitz = as_strided(band[:, jm - 1 :], (s, jm, jm), (band.strides[0], -step, step))
    stack = np.minimum(toeplitz, np.maximum.outer(m, m))
    with np.errstate(over="ignore"):
        stack *= np.minimum.outer(m, m)
        caps = np.exp(geo.params.rho * (ns[:, None] + np.arange(2.0, 2 * jm + 1)))
    hankel = as_strided(caps, (s, jm, jm), (caps.strides[0], step, step))
    np.minimum(stack, hankel, out=stack)
    stack.setflags(write=False)
    return stack


def _normalization_scales(geo: _Geometry, stack: np.ndarray) -> np.ndarray:
    """The largest ratio of row sum to V(n) m_i of each raw kernel in stack, read-only.

    stack holds the kernels of one grid, (s x j x j), slices of the
    record's stack.  Every row counts, not just the interior ones: low-edge
    rows can exceed the interior maximum, and the power-mean guarantee
    needs row ratios <= 1 globally.  A row whose V(n) m_i overflows reads
    0; a row holding an inf entry, or whose sum overflows, makes its scale
    inf or nan, silently.
    """
    s, j = stack.shape[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = stack.sum(axis=2) / (geo.volumes[:s, None] * geo.measures[:j])
    scales = ratios.max(axis=1)
    scales.setflags(write=False)
    return scales


def _kernel_stack(grid: AnnularGrid, n: int, normalize: bool = True) -> tuple:
    """The read-only raw kernels of scales 1..n on a grid, and their normalization scales.

    Views [:n, :j, :j] of the one stack of the grid's space, j the grid's
    j_max, which every grid of the space reads and grows.  A stack of s < n
    scales is rebuilt at max(n, min(2 s, top)) scales, and one narrower
    than j at s scales, both at the width of the space's tables.  n must be
    an integer in 1..top, the largest scale the normalization allows:
    j_max - 1 raw, and (j_max - 3) // 2 normalized, since a normalized
    kernel needs an interior row (2n + 3 <= j_max).  A float or bool n is
    refused before the stack is read.  A raw request returns None for the
    scales.  A normalized request computes the scales of the grid's j_max
    over the whole stack on first use after a build, and refuses with
    DomainError when any of scales 1..n is not finite: its kernel holds an
    entry or a row sum beyond the float range.
    """
    normalize = bool(normalize)
    j = grid.j_max
    top = (j - 3) // 2 if normalize else j - 1
    n = require_index(n, 1, top, "kernel scale n")
    geo = grid._geometry
    s = len(geo.stack)
    if s < n or geo.stack.shape[1] < j:
        geo.stack = _build_kernel_stack(geo, max(n, min(2 * s, top)) if s < n else s)
        geo.scales, geo.maxima = {}, {}
    stack = geo.stack[:, :j, :j]
    if not normalize:
        return stack[:n], None
    scales = geo.scales.get(j)
    if scales is None:
        scales = geo.scales[j] = _normalization_scales(geo, stack[:top])
    bad = np.flatnonzero(~np.isfinite(scales[:n]))
    if bad.size:
        raise DomainError(
            f"the normalized kernel of scale n={bad[0] + 1} on {grid!r} is not "
            "finite: a pair mass or a row sum overflows the float range; "
            "shrink j_max, n_max or the growth rate rho"
        )
    return stack[:n], scales[:n]


def product_kernel(grid: AnnularGrid, n: int, normalize: bool = True) -> ProductKernel:
    """Pair-mass kernel P_n(i, j) on the annular grid, from its grid's kernel stack.

    P_n(i, j) = min(m_i m_j, m_i V(n), m_j V(n), exp(rho (n + i + j))) on the
    band |i - j| <= n + 1, where m_i is the measure of annulus i. The
    construction is exactly symmetric. Normalization divides by the largest
    row sum of P_n(i, .) / (V(n) m_i) over the whole grid, so averages of
    the constant function 1 land in (0, 1] everywhere; this keeps the
    power-mean comparison between maximal variants exact.

    A raw kernel is slice [n - 1, :j_max, :j_max] of the raw stack of the
    grid's space (_build_kernel_stack), read-only and the same memory for
    every grid of the space; a normalized kernel is that slice divided by
    its scale, a fresh read-only array.  A scale beyond the stack, or a grid
    wider than it, rebuilds it (_kernel_stack), so loops over scales take
    _kernel_stack once instead.
    The scale must be an integer: a float or bool n is refused.
    """
    stack, scales = _kernel_stack(grid, n, normalize)
    if not normalize:
        return ProductKernel(n=int(n), matrix=stack[-1], scale=1.0)
    matrix = stack[-1] / scales[-1]
    matrix.setflags(write=False)
    # a view of a read-only array cannot be made writable again
    return ProductKernel(n=int(n), matrix=matrix.view(), scale=float(scales[-1]))
