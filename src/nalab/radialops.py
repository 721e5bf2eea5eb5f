"""Averaging and maximal operators on the annular grid.

The ball average at integer scale n is one formula,
product_kernel(grid, n).matrix @ F / (V(n) measure), with the kernel
normalized so that averages of the constant 1 lie in (0, 1] everywhere; this
keeps the power-mean comparison between maximal variants exact.  The
maximal function takes the pointwise supremum over scales up to a truncation
n_max.  Truncation bias is deliberate and visible: results carry the window
of annuli unaffected by grid truncation, and the attaining scale on demand.

One private core serves every maximal function: _maximal_block takes a
(j_max x m) block whose columns are functions and evaluates the averages of
every scale at once, with the scale as an array axis: one batched product
of the grid's kernel stack with the block, one in-place division by the
V(n) measure table, and a maximum over the scale axis.  Each scale's slice
is bit for bit the 2-D product with that scale's kernel, so avg agrees with
it exactly.  The core returns values alone; MaximalResult.argmax evaluates
the same batched averages of its own function on first read and takes the
smallest scale that attains the value.  maximal_dis is the core's m = 1
case, bit-identical to a matrix-vector product, applied once per iteration
for the iterated maximal function; the other columns of a larger block
agree with it to rounding.  Superlevel masses have one core too:
_superlevel_mass weighs the masks of many functions at many levels in one
masked sum, and distribution_mass is its one-function, one-level case.

Scales, truncations and iteration counts must be integers: a float such as
2.0, a bool or nan raises DomainError.

Local averaging at sub-unit radii is not representable on a unit grid; the
tree backend and the 1D local surrogate in the condition checkers cover
that regime.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, GridRangeError, require_integer
from .geometry import (
    AnnularGrid,
    _kernel_stack,
    _scale_denominators,
    product_kernel,
    valid_upper,
)
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
    values are the maximal function of (for an iterated maximal function,
    the argument of the final pass).  argmax, computed from data on first
    read, is the smallest scale in 1..n_max whose ball average equals
    values bit for bit, read off the same batched averages _maximal_block
    takes its maximum of.
    """

    grid: AnnularGrid
    values: np.ndarray
    n_max: int
    window: tuple
    data: np.ndarray

    @functools.cached_property
    def argmax(self) -> np.ndarray:
        avgs = _scale_averages(self.grid, self.data[:, None], self.n_max)[:, :, 0]
        return np.argmax(avgs == self.values, axis=0) + 1


RadialData = Union[RadialFunction, Weight]


def _data_values(f: RadialData):
    if not hasattr(f, "grid") or not hasattr(f, "values"):
        raise DomainError("expected radial data with a grid and values")
    return f.grid, np.asarray(f.values, dtype=float)


def _scale_averages(grid: AnnularGrid, block: np.ndarray, n_max: int) -> np.ndarray:
    """Ball averages at scales 1..n_max of every column of a (j_max x m) block.

    An (n_max x j_max x m) array: one batched product of the normalized
    kernel stack with the block, divided in place by V(n) |Omega_i|.  This
    is the one expression for the averages of many scales: _maximal_block
    and MaximalResult.argmax both evaluate it.  Huge data overflows to inf
    without a warning; callers reject the result.
    """
    stack, _ = _kernel_stack(grid, n_max)
    with np.errstate(over="ignore"):
        avgs = np.matmul(stack, block)
        avgs /= _scale_denominators(grid, n_max)[:, :, None]
    return avgs


def avg(f: RadialData, n: int) -> RadialFunction:
    """Ball average at integer scale n.

    Linear and monotone in f, and bit for bit slice n - 1 of the batched
    averages the maximal functions take.  Values at annuli above
    valid_upper(j_max, n) are biased by grid truncation.
    """
    grid, vals = _data_values(f)
    kern = product_kernel(grid, n)
    with np.errstate(over="ignore"):
        den = grid.ball_volume_at(n) * grid.measures
        return RadialFunction(grid, (kern.matrix @ vals[:, None])[:, 0] / den)


def _maximal_block(grid: AnnularGrid, block: np.ndarray, n_max: int) -> np.ndarray:
    """Discrete maximal functions of the columns of a (j_max x m) block.

    Returns the (j_max x m) sup of the ball averages over scales 1..n_max:
    the maximum over the scale axis of _scale_averages; no scale is
    recorded (MaximalResult.argmax finds it on demand).
    """
    require_integer(n_max, "n_max")
    # the normalized kernel of scale n needs 2n + 3 <= j_max (product_kernel)
    top = (grid.j_max - 3) // 2
    if not (1 <= n_max <= top):
        raise GridRangeError(
            f"n_max={n_max} outside 1..{top}, the scales with a normalized "
            f"kernel on a grid with j_max={grid.j_max}"
        )
    best = _scale_averages(grid, block, n_max).max(axis=0)
    # a maximum propagates inf and nan, so one gate on it covers every scale
    if not np.all(np.isfinite(best)):
        raise DomainError("radial data must be finite and nonnegative")
    return best


def maximal_dis(f: RadialData, n_max: int, iterations: int = 1) -> MaximalResult:
    """Discrete maximal function: sup of ball averages over scales 1..n_max.

    iterations = k composes it k times.  Each pass reads n_max + 1 annuli
    above its argument, so the trustworthy window shrinks by that amount
    per pass; the returned window reflects all k passes, and the attaining
    scale (ties to the smallest), read on demand, refers to the final pass,
    from a copy of its argument taken here.
    """
    require_integer(iterations, "iteration count")
    require_integer(n_max, "n_max")
    if iterations < 1:
        raise DomainError(f"iteration count must be >= 1, got {iterations}")
    grid, vals = _data_values(f)
    hi = valid_upper(grid.j_max, n_max, iterations)
    # one pass at a valid n_max leaves a window, so this gates k >= 2 alone
    if iterations > 1 and hi < 1:
        raise GridRangeError(
            f"{iterations} maximal passes at n_max={n_max} exhaust a grid with "
            f"j_max={grid.j_max}"
        )
    values = vals
    for _ in range(iterations):
        data, values = values, _maximal_block(grid, values[:, None], n_max)[:, 0]
    return MaximalResult(grid, values, int(n_max), (1, hi), data.copy())


def maximal_s(w: RadialData, s: float, n_max: int) -> RadialFunction:
    """Power-adjusted maximal function (M^dis(w^s))^(1/s).

    For s >= 1 this dominates maximal_dis pointwise, since every average is
    a sub-probability mean; s = 1 is allowed and reduces to maximal_dis.
    s must be finite: at s = inf, w^s underflows to 0 wherever w < 1 and
    the root would read 0^0 = 1.
    """
    # the chained comparison is False for nan as well
    if not 1.0 <= s < math.inf:
        raise DomainError(f"power-adjusted maximal needs finite s >= 1, got s={s}")
    grid, vals = _data_values(w)
    powered = RadialFunction(grid, vals**s)  # refuses w^s that overflows
    values = _maximal_block(grid, powered.values[:, None], n_max)[:, 0]
    return RadialFunction(grid, values ** (1.0 / s))


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
    """Weighted mass of the superlevel set {g > lam}; nonincreasing in lam.

    Maximal results restrict the sum to their valid window.  This is the
    one-function, one-level case of _superlevel_mass, which nalab itself
    calls; the entry point stays while the benchmark's per-layer metrics
    name it.
    """
    grid, gvals = _data_values(g)
    if (grid.params, grid.j_max) != (w.grid.params, w.grid.j_max):
        raise DomainError("operands live on incompatible grids")
    window = g.window if isinstance(g, MaximalResult) else (1, grid.j_max)
    lo, hi = int(window[0]), int(window[1])
    if lo < 1 or hi > grid.j_max:
        raise GridRangeError(f"window {window} outside 1..{grid.j_max}")
    return float(_superlevel_mass(w, gvals[:, None], (lo, hi), [lam])[0, 0])
