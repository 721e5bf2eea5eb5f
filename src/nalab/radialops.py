"""Averaging and maximal operators on the annular grid.

The ball average at integer scale n is one formula,
product_kernel(grid, n).matrix @ F / (V(n) measure), with the kernel
normalized so that averages of the constant 1 lie in (0, 1] everywhere; this
keeps the power-mean comparison between maximal variants exact.  The
maximal function takes the pointwise supremum over scales up to a truncation
n_max.  Truncation bias is deliberate and visible: results carry the window
of annuli unaffected by grid truncation, and the attaining scale on demand.

One private core serves every maximal function: _maximal_block takes a
(j_max x m) block whose columns are functions, makes one kernel product and
one division per scale, and folds each scale's averages into one running
maximum.  It returns values alone; MaximalResult.argmax recomputes the
averages of its own function on first read and takes the smallest scale
that attains the value, through the same expression, so the two agree bit
for bit.  maximal_dis is the core's m = 1 case, bit-identical to a
matrix-vector product; the other columns of a larger block agree with it to
rounding.  Superlevel masses have one core too: _superlevel_mass weighs the
masks of many functions at many levels in one masked sum, and
distribution_mass is its one-function, one-level case.

Scales, truncations and iteration counts must be integers: a float such as
2.0, a bool or nan raises DomainError.

Local averaging at sub-unit radii is not representable on a unit grid; the
tree backend and the 1D local surrogate in the condition checkers cover
that regime.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, GridRangeError, require_integer
from .geometry import AnnularGrid, product_kernel, valid_upper
from .weights import Weight


@dataclass
class RadialFunction:
    """Nonnegative data sampled per annulus.

    Operators act on moduli, so negative inputs are rejected rather than
    silently folded.
    """

    grid: AnnularGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.j_max,):
            raise DomainError("radial data must cover every annulus")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise DomainError("radial data must be finite and nonnegative")

    @classmethod
    def zeros(cls, grid: AnnularGrid) -> "RadialFunction":
        return cls(grid, np.zeros(grid.j_max))

    @classmethod
    def ones(cls, grid: AnnularGrid) -> "RadialFunction":
        return cls(grid, np.ones(grid.j_max))

    @classmethod
    def indicator(cls, grid: AnnularGrid, annuli: Sequence[int]) -> "RadialFunction":
        vals = np.zeros(grid.j_max)
        for j in annuli:
            grid.check_index(int(j))
            vals[int(j) - 1] = 1.0
        return cls(grid, vals)


@dataclass
class MaximalResult:
    """Maximal-function values, with the attaining scale per annulus on demand.

    window = (lo, hi) is the inclusive range of annulus indices whose values
    are unaffected by grid truncation; entries outside it are still computed
    but biased low near the outer edge.  data is a copy of the function the
    values are the maximal function of (for iterate_maximal, the argument
    of the final pass).  argmax, computed from data on first read, is the
    smallest scale in 1..n_max whose ball average equals values bit for
    bit: the scale a running maximum replaced only by strictly larger
    averages would keep.
    """

    grid: AnnularGrid
    values: np.ndarray
    n_max: int
    window: tuple
    data: np.ndarray

    def window_slice(self) -> slice:
        lo, hi = self.window
        return slice(lo - 1, hi)

    @functools.cached_property
    def argmax(self) -> np.ndarray:
        grid, block = self.grid, self.data[:, None]
        arg = np.zeros(grid.j_max, dtype=np.intp)
        with np.errstate(over="ignore"):
            dens = _scale_denominators(grid, self.n_max)
            for n in range(1, self.n_max + 1):
                hit = _ball_average(grid, block, n, dens[n - 1])[:, 0] == self.values
                np.copyto(arg, n, where=hit & (arg == 0))
        return arg


RadialData = Union[RadialFunction, Weight]


def _data_values(f: RadialData, grid: Optional[AnnularGrid] = None):
    if not hasattr(f, "grid") or not hasattr(f, "values"):
        raise DomainError("expected radial data with a grid and values")
    if grid is not None and f.grid is not grid:
        g = f.grid
        if g.params != grid.params or g.j_max != grid.j_max:
            raise DomainError("operands live on incompatible grids")
    return f.grid, np.asarray(f.values, dtype=float)


def _scale_denominators(grid: AnnularGrid, n_max: int) -> np.ndarray:
    """V(n) |Omega_i| for scales n = 1..n_max (rows) and annuli i (columns).

    Row n - 1 equals grid.ball_volume_at(n) * grid.measures bit for bit.
    Huge spaces overflow to inf; callers silence the warning.
    """
    return grid.volumes[:n_max, None] * grid.measures


def _ball_average(
    grid: AnnularGrid, block: np.ndarray, n: int, den: np.ndarray
) -> np.ndarray:
    """Ball averages at scale n of every column of a (j_max x m) block.

    den holds V(n) |Omega_i| per annulus.  This is the one expression for a
    scale's averages: avg, _maximal_block and MaximalResult.argmax all
    evaluate it.  Huge data overflows to inf; callers silence the warning
    and reject the result.
    """
    return product_kernel(grid, n).matrix @ block / den[:, None]


def avg(f: RadialData, n: int) -> RadialFunction:
    """Ball average at integer scale n.

    Linear and monotone in f.  Values at annuli above valid_upper(j_max, n)
    are biased by grid truncation.
    """
    grid, vals = _data_values(f)
    with np.errstate(over="ignore"):
        den = grid.ball_volume_at(n) * grid.measures
        return RadialFunction(grid, _ball_average(grid, vals[:, None], n, den)[:, 0])


def _maximal_block(grid: AnnularGrid, block: np.ndarray, n_max: int) -> np.ndarray:
    """Discrete maximal functions of the columns of a (j_max x m) block.

    Returns the (j_max x m) sup of the ball averages over scales 1..n_max,
    one running maximum folded over the scales; no scale is recorded
    (MaximalResult.argmax finds it on demand).
    """
    require_integer(n_max, "n_max")
    # the normalized kernel of scale n needs 2n + 3 <= j_max (product_kernel)
    top = (grid.j_max - 3) // 2
    if not (1 <= n_max <= top):
        raise GridRangeError(
            f"n_max={n_max} outside 1..{top}, the scales with a normalized "
            f"kernel on a grid with j_max={grid.j_max}"
        )
    with np.errstate(over="ignore"):
        dens = _scale_denominators(grid, n_max)
        best = _ball_average(grid, block, 1, dens[0])
        for n in range(2, n_max + 1):
            np.maximum(best, _ball_average(grid, block, n, dens[n - 1]), out=best)
    # a maximum propagates inf and nan, so one gate on it covers every scale
    if not np.all(np.isfinite(best)):
        raise DomainError("radial data must be finite and nonnegative")
    return best


def maximal_dis(f: RadialData, n_max: int) -> MaximalResult:
    """Discrete maximal function: sup of ball averages over scales 1..n_max.

    The attaining scale (ties to the smallest) is read on demand, from a
    copy of f's values taken here.
    """
    grid, vals = _data_values(f)
    values = _maximal_block(grid, vals[:, None], n_max)[:, 0]
    hi = valid_upper(grid.j_max, n_max)
    return MaximalResult(grid, values, int(n_max), (1, hi), vals.copy())


def maximal_s(w: RadialData, s: float, n_max: int) -> RadialFunction:
    """Power-adjusted maximal function (M^dis(w^s))^(1/s).

    For s >= 1 this dominates maximal_dis pointwise, since every average is
    a sub-probability mean; s = 1 is allowed and reduces to maximal_dis.
    """
    if s < 1.0:
        raise DomainError(f"power-adjusted maximal needs s >= 1, got {s}")
    grid, vals = _data_values(w)
    powered = RadialFunction(grid, vals**s)  # refuses w^s that overflows
    values = _maximal_block(grid, powered.values[:, None], n_max)[:, 0]
    return RadialFunction(grid, values ** (1.0 / s))


def iterate_maximal(w: RadialData, k: int, n_max: int) -> MaximalResult:
    """k-fold composition of the discrete maximal function.

    Each pass reads n_max + 1 annuli above its argument, so the trustworthy
    window shrinks by that amount per pass; the returned window reflects all
    k passes and the argmax refers to the final pass.
    """
    require_integer(k, "iteration count k")
    require_integer(n_max, "n_max")
    if k < 1:
        raise DomainError(f"iteration count must be >= 1, got {k}")
    grid, vals = _data_values(w)
    hi = valid_upper(grid.j_max, n_max, iterations=k)
    if hi < 1:
        raise GridRangeError(
            f"{k} maximal passes at n_max={n_max} exhaust a grid with "
            f"j_max={grid.j_max}"
        )
    values = vals
    for _ in range(k):
        data, values = values, _maximal_block(grid, values[:, None], n_max)[:, 0]
    return MaximalResult(grid, values, int(n_max), (1, hi), data.copy())


def _superlevel_mass(
    w: Weight, block: np.ndarray, window: tuple, levels: Sequence[float]
) -> np.ndarray:
    """Weighted masses of the superlevel sets {g > l} inside window.

    One row per column g of the (j_max x m) block, one column per level l:
    the (m x levels x window) masks weigh w |Omega| in one masked sum.
    Levels must be positive and finite.
    """
    levels = np.asarray(levels, dtype=float)
    bad = levels[~(np.isfinite(levels) & (levels > 0))]
    if bad.size:
        raise DomainError(f"level must be positive and finite, got {bad[0]}")
    lo, hi = window
    sl = slice(lo - 1, max(lo - 1, hi))  # a window with hi < lo is empty
    wmu = w.values[sl] * w.grid.measures[sl]
    # a masked sum, not a product with the 0/1 masks: w |Omega| may overflow
    # to inf, and a masked-out inf must add 0, not nan
    masks = block[sl].T[:, None, :] > levels[:, None]
    return np.where(masks, wmu, 0.0).sum(axis=-1)


def distribution_mass(
    w: Weight,
    g: Union[RadialFunction, MaximalResult],
    lam: float,
) -> float:
    """Weighted mass of the superlevel set {g > lam}.

    Maximal results restrict the sum to their valid window.  Nonincreasing
    in lam.
    """
    grid, gvals = _data_values(g, grid=w.grid)
    window = g.window if isinstance(g, MaximalResult) else (1, grid.j_max)
    lo, hi = int(window[0]), int(window[1])
    if lo < 1 or hi > grid.j_max:
        raise GridRangeError(f"window {window} outside 1..{grid.j_max}")
    return float(_superlevel_mass(w, gvals[:, None], (lo, hi), [lam])[0, 0])
