"""Averaging and maximal operators on the annular grid.

The ball average at integer scale n is one formula,
(P_n @ F) / (V(n) measure) / scale_n, with P_n the raw kernel, a slice of
the one kernel stack of the grid's space, which every grid of that space
reads and grows, and scale_n its normalization scale, so that averages of
the constant 1 lie in (0, 1] everywhere; this keeps the power-mean
comparison between maximal variants exact.  A stack's slices do not depend
on its size, so an average does not depend on what ran before it.  The
maximal function takes the pointwise supremum over scales up to a
truncation n_max.  Truncation bias is deliberate and visible: results carry
the window of annuli unaffected by grid truncation, and the attaining scale
on demand.

One private core serves every average: _scale_averages takes a
(j_max x m) block whose columns are functions and evaluates the averages of
a range of scales at once, with the scale as an array axis: one batched
product of the raw kernel stack with the block, restricted to the kernel
columns lo..hi - 1 that meet the block's nonzero rows, then one in-place
division by the V(n) measure table and one by the scales.  Each scale's
slice is bit for bit the 2-D product with that scale's raw kernel, so avg,
the one-scale case, agrees with the maximal functions exactly.
_maximal_block takes the maximum over the scale axis and returns values
alone; MaximalResult.argmax evaluates the same batched averages of its own
function on first read and takes the smallest scale that attains the
value.  maximal_dis is the core's m = 1 case, bit-identical to a
matrix-vector product, applied once per iteration for the iterated maximal
function; the other columns of a larger block agree with it to rounding.
The maximal functions of the annulus indicators depend on the geometry
alone: _indicator_maxima keeps them as one read-only table per (j_max,
n_max) on the record of the space (geometry._Geometry), each column bit for
bit what _maximal_block gives on its one-hot column, so the divergence
sequences read them there instead of multiplying the kernel by an identity
block.  Superlevel masses have one core too: _superlevel_mass weighs the
masks of many functions at many levels in one masked sum, and
distribution_mass is its one-function, one-level case.

Every operator reads its data as f.grid and f.values of a RadialFunction;
weights.Weight is the subclass holding positive data, so a weight enters
each operator as it is.  Operands of one quotient must share a grid
(_require_same_grid).

Scales, truncations, annulus indices and iteration counts must be integers:
a float such as 2.0, a bool or nan raises DomainError, and an index outside
its range GridRangeError (errors.require_index).

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

from .errors import DomainError, GridRangeError, require_data, require_index, require_integer
from .geometry import AnnularGrid, _kernel_stack, _scale_denominators, valid_upper


@dataclass
class RadialFunction:
    """Nonnegative data sampled per annulus.

    Operators act on moduli, so negative inputs are rejected rather than
    silently folded.  weights.Weight narrows the gate to positive data.
    """

    grid: AnnularGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = require_data(self.values, self.grid.j_max, "radial data")

    @classmethod
    def zeros(cls, grid: AnnularGrid) -> "RadialFunction":
        return cls(grid, np.zeros(grid.j_max))

    @classmethod
    def ones(cls, grid: AnnularGrid) -> "RadialFunction":
        return cls(grid, np.ones(grid.j_max))

    @classmethod
    def indicator(cls, grid: AnnularGrid, annuli: Sequence[int]) -> "RadialFunction":
        vals = np.zeros(grid.j_max)
        vals[require_index(annuli, 1, grid.j_max, "annulus") - 1] = 1.0
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


def _require_same_grid(a, b) -> None:
    """DomainError unless the operands a and b, each with a grid, share one.

    Grids are the same when their space parameters and j_max agree.
    """
    if (a.grid.params, a.grid.j_max) != (b.grid.params, b.grid.j_max):
        raise DomainError(f"operands live on incompatible grids: {a.grid!r} and {b.grid!r}")


def _scale_averages(
    grid: AnnularGrid, block: np.ndarray, n_max: int, n_min: int = 1
) -> np.ndarray:
    """Ball averages at scales n_min..n_max of every column of a (j_max x m) block.

    An ((n_max - n_min + 1) x j_max x m) array: one batched product of the
    raw kernel stack with the block, divided in place by V(n) |Omega_i| and
    then by the normalization scales.  Only the rows lo..hi - 1 of the block
    that hold its nonzero entries enter the product, with the matching
    kernel columns as a view: products with zero rows add exact zeros, so
    the result equals the full product to rounding, and a block whose
    first and last rows are nonzero takes the full product itself.  This
    is the one expression for ball averages: avg, _maximal_block and
    MaximalResult.argmax all evaluate it.  Huge data overflows to inf
    without a warning, or to nan where V(n) |Omega_i| overflows too; callers
    reject the result.
    """
    stack, scales = _kernel_stack(grid, n_max)
    rows = np.flatnonzero(block.any(axis=1))
    lo, hi = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
    # inf / inf reads nan where both overflow; callers reject nan and inf alike
    with np.errstate(over="ignore", invalid="ignore"):
        avgs = np.matmul(stack[n_min - 1 :, :, lo:hi], block[lo:hi])
        avgs /= _scale_denominators(grid, n_max)[n_min - 1 :, :, None]
    avgs /= scales[n_min - 1 :, None, None]
    return avgs


def avg(f: RadialFunction, n: int) -> RadialFunction:
    """Ball average at integer scale n.

    Linear and monotone in f, and bit for bit slice n - 1 of the batched
    averages the maximal functions take.  Values at annuli above
    valid_upper(j_max, n) are biased by grid truncation.
    """
    block = f.values[:, None]
    avgs = _require_finite_averages(f.grid, block, _scale_averages(f.grid, block, n, n)[0])
    return RadialFunction(f.grid, avgs[:, 0])


def _require_finite_averages(
    grid: AnnularGrid, block: np.ndarray, avgs: np.ndarray
) -> np.ndarray:
    """avgs, ball averages of block, unless one of them is not finite.

    Finite, nonnegative data can still leave the float range: the product
    of a kernel row with the data overflows before the division by
    V(n) |Omega_i|.  Data that is not finite and nonnegative itself is
    named as such.
    """
    if not np.all(np.isfinite(avgs)):
        require_data(block.ravel(), block.size, "radial data")
        raise DomainError(
            f"ball averages of radial data with largest value {block.max():.6g} "
            f"leave the float range on {grid!r}"
        )
    return avgs


def _maximal_block(grid: AnnularGrid, block: np.ndarray, n_max: int) -> np.ndarray:
    """Discrete maximal functions of the columns of a (j_max x m) block.

    Returns the (j_max x m) sup of the ball averages over scales 1..n_max:
    the maximum over the scale axis of _scale_averages; no scale is
    recorded (MaximalResult.argmax finds it on demand).
    """
    # the normalized kernel of scale n needs 2n + 3 <= j_max (_kernel_stack)
    n_max = require_index(n_max, 1, (grid.j_max - 3) // 2, "n_max")
    # a maximum propagates inf and nan, so one gate on it covers every scale
    return _require_finite_averages(grid, block, _scale_averages(grid, block, n_max).max(axis=0))


def _indicator_maxima(grid: AnnularGrid, n_max: int) -> np.ndarray:
    """The read-only (j_max x j_max) table whose column j - 1 is M 1_(Omega_j).

    M is the maximal function at truncation n_max, and each column is bit
    for bit _maximal_block of its one-hot column: a product with a one-hot
    column reads each kernel entry exactly, so the table is a running max
    over scales of raw kernel / (V(n) |Omega_i|) / scale, taken in one
    (j_max x j_max) buffer per scale.  The table depends on the geometry
    alone: it is kept on the record of the grid's space per (j_max, n_max)
    until the kernel stack is rebuilt.  n_max and the kernels are refused
    as _maximal_block refuses them.
    """
    n_max = require_index(n_max, 1, (grid.j_max - 3) // 2, "n_max")
    stack, scales = _kernel_stack(grid, n_max)  # a rebuild empties the tables
    maxima = grid._geometry.maxima
    key = (grid.j_max, n_max)
    if key not in maxima:
        table, avgs = np.zeros(stack.shape[1:]), np.empty(stack.shape[1:])
        # V(n) |Omega_i| may overflow to inf; the kernel entries, finite
        # once the scales are (_kernel_stack), then average to 0
        with np.errstate(over="ignore"):
            dens = _scale_denominators(grid, n_max)
            for kernel, den, scale in zip(stack, dens, scales):
                np.divide(kernel, den[:, None], out=avgs)
                avgs /= scale
                np.maximum(table, avgs, out=table)
        table.setflags(write=False)
        maxima[key] = table.view()  # a view cannot be made writable again
    return maxima[key]


def maximal_dis(f: RadialFunction, n_max: int, iterations: int = 1) -> MaximalResult:
    """Discrete maximal function: sup of ball averages over scales 1..n_max.

    iterations = k composes it k times.  Each pass reads n_max + 1 annuli
    above its argument, so the trustworthy window shrinks by that amount
    per pass; the returned window reflects all k passes, and the attaining
    scale (ties to the smallest), read on demand, refers to the final pass,
    from a copy of its argument taken here.
    """
    require_integer(iterations, "iteration count")
    if iterations < 1:
        raise DomainError(f"iteration count must be >= 1, got {iterations}")
    grid = f.grid
    n_max = require_index(n_max, 1, (grid.j_max - 3) // 2, "n_max")
    hi = valid_upper(grid.j_max, n_max, iterations)
    if hi < 1:  # never at one pass: a valid n_max leaves annuli 1..j_max - n_max - 1
        raise GridRangeError(
            f"{iterations} maximal passes at n_max={n_max} exhaust a grid with "
            f"j_max={grid.j_max}"
        )
    values = f.values
    for _ in range(iterations):
        data, values = values, _maximal_block(grid, values[:, None], n_max)[:, 0]
    return MaximalResult(grid, values, n_max, (1, hi), data.copy())


def maximal_s(w: RadialFunction, s: float, n_max: int) -> RadialFunction:
    """Power-adjusted maximal function (M^dis(w^s))^(1/s).

    For s >= 1 this dominates maximal_dis pointwise, since every average is
    a sub-probability mean; s = 1 is allowed and reduces to maximal_dis.
    s must be finite: at s = inf, w^s underflows to 0 wherever w < 1 and
    the root would read 0^0 = 1.
    """
    # the chained comparison is False for nan as well
    if not 1.0 <= s < math.inf:
        raise DomainError(f"power-adjusted maximal needs finite s >= 1, got s={s}")
    powered = RadialFunction(w.grid, w.values**s)  # refuses w^s that overflows
    values = _maximal_block(w.grid, powered.values[:, None], n_max)[:, 0]
    return RadialFunction(w.grid, values ** (1.0 / s))


def _superlevel_mass(
    w: RadialFunction, block: np.ndarray, window: tuple, levels: Sequence[float]
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
    # the sum's rounding follows the block's memory layout: every block, a
    # table's columns too, enters in C order
    block = np.ascontiguousarray(block[sl])
    # a masked sum, not a product with the 0/1 masks: w |Omega| may overflow
    # to inf, and a masked-out inf must add 0, not nan
    masks = block.T[:, None, :] > levels[:, None]
    return np.where(masks, wmu, 0.0).sum(axis=-1)


def distribution_mass(
    w: RadialFunction,
    g: Union[RadialFunction, MaximalResult],
    lam: float,
) -> float:
    """Weighted mass of the superlevel set {g > lam}; nonincreasing in lam.

    Maximal results restrict the sum to their valid window.  This is the
    one-function, one-level case of _superlevel_mass, which nalab itself
    calls; the entry point stays while the benchmark's per-layer metrics
    name it.
    """
    _require_same_grid(w, g)
    window = g.window if isinstance(g, MaximalResult) else (1, g.grid.j_max)
    lo, hi = require_index(window, 1, g.grid.j_max, "window")
    return float(_superlevel_mass(w, g.values[:, None], (lo, hi), [lam])[0, 0])
