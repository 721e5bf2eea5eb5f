"""Averaging and maximal operators on the annular grid.

The ball average at integer scale n is a banded matrix acting on radial
data; the maximal function takes the pointwise supremum over scales up to a
truncation n_max and records the scale that attains it.  Truncation bias is
deliberate and visible: results carry the argmax scale and the window of
annuli unaffected by grid truncation.

Three evaluation modes:

* "normalized": the banded kernel is scaled once per scale so averages of
  the constant 1 lie in (0, 1] everywhere.  Default, and the mode in which
  the power-mean comparison between maximal variants is exact.
* "exact": each row is divided by its own mass, so the average of 1 is
  exactly 1.  Row scaling breaks kernel symmetry, so self-adjointness is
  only guaranteed in the other two modes.
* "raw": no scaling; used when comparing against direct-sum references.

Local averaging at sub-unit radii is not representable on a unit grid; the
tree backend and the 1D local surrogate in the condition checkers cover
that regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, GridRangeError, UnsupportedError
from .geometry import AnnularGrid, product_kernel, valid_upper
from .weights import Weight

_MODES = ("normalized", "raw", "exact")


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
    """Maximal-function values with the attaining scale per annulus.

    window = (lo, hi) is the inclusive range of annulus indices whose values
    are unaffected by grid truncation; entries outside it are still computed
    but biased low near the outer edge.
    """

    grid: AnnularGrid
    values: np.ndarray
    argmax: np.ndarray
    n_max: int
    window: tuple

    def window_slice(self) -> slice:
        lo, hi = self.window
        return slice(lo - 1, hi)


RadialData = Union[RadialFunction, Weight]


def _data_values(f: RadialData, grid: Optional[AnnularGrid] = None):
    if not hasattr(f, "grid") or not hasattr(f, "values"):
        raise DomainError("expected radial data with a grid and values")
    if grid is not None and f.grid is not grid:
        g = f.grid
        if g.params != grid.params or g.j_max != grid.j_max:
            raise DomainError("operands live on incompatible grids")
    return f.grid, np.asarray(f.values, dtype=float)


def _check_mode(mode: str):
    if mode not in _MODES:
        raise UnsupportedError(f"unknown averaging mode {mode!r}")


def avg(f: RadialData, n: int, mode: str = "normalized") -> RadialFunction:
    """Ball average at integer scale n.

    Linear and monotone in f.  Values at annuli above valid_upper(j_max, n)
    are biased by grid truncation.
    """
    _check_mode(mode)
    grid, vals = _data_values(f)
    kern = product_kernel(grid, n, normalize=(mode == "normalized"))
    num = kern.matrix @ vals
    if mode == "exact":
        denom = kern.matrix.sum(axis=1)
    else:
        denom = grid.ball_volume_at(n) * grid.measures
    return RadialFunction(grid, num / denom)


def maximal_dis(f: RadialData, n_max: int, mode: str = "normalized") -> MaximalResult:
    """Discrete maximal function: sup of ball averages over scales 1..n_max."""
    _check_mode(mode)
    grid, _ = _data_values(f)
    if not (1 <= n_max <= grid.j_max - 1):
        raise GridRangeError(
            f"n_max must lie in 1..{grid.j_max - 1}, got {n_max}"
        )
    best = np.full(grid.j_max, -np.inf)
    arg = np.zeros(grid.j_max, dtype=int)
    for n in range(1, n_max + 1):
        a = avg(f, n, mode=mode).values
        better = a > best
        best = np.where(better, a, best)
        arg = np.where(better, n, arg)
    hi = valid_upper(grid.j_max, n_max)
    return MaximalResult(grid, best, arg, int(n_max), (1, hi))


def maximal_s(
    w: RadialData, s: float, n_max: int, mode: str = "normalized"
) -> RadialFunction:
    """Power-adjusted maximal function (M^dis(w^s))^(1/s).

    For s >= 1 this dominates maximal_dis pointwise in the normalized and
    exact modes, where every average is a sub-probability mean; s = 1 is
    allowed and reduces to maximal_dis.
    """
    if s < 1.0:
        raise DomainError(f"power-adjusted maximal needs s >= 1, got {s}")
    grid, vals = _data_values(w)
    powered = RadialFunction(grid, vals**s)
    res = maximal_dis(powered, n_max, mode=mode)
    return RadialFunction(grid, res.values ** (1.0 / s))


def iterate_maximal(
    w: RadialData, k: int, n_max: int, mode: str = "normalized"
) -> MaximalResult:
    """k-fold composition of the discrete maximal function.

    Each pass reads n_max + 1 annuli above its argument, so the trustworthy
    window shrinks by that amount per pass; the returned window reflects all
    k passes and the argmax column refers to the final pass.
    """
    if k < 1:
        raise DomainError(f"iteration count must be >= 1, got {k}")
    grid, _ = _data_values(w)
    hi = valid_upper(grid.j_max, n_max, iterations=k)
    if hi < 1:
        raise GridRangeError(
            f"{k} maximal passes at n_max={n_max} exhaust a grid with "
            f"j_max={grid.j_max}"
        )
    current: RadialData = w
    res = None
    for _ in range(k):
        res = maximal_dis(current, n_max, mode=mode)
        current = RadialFunction(grid, res.values)
    return MaximalResult(grid, res.values, res.argmax, int(n_max), (1, hi))


def distribution_mass(
    w: Weight,
    g: Union[RadialFunction, MaximalResult],
    lam: float,
) -> float:
    """Weighted mass of the superlevel set {g > lam}.

    Maximal results restrict the sum to their valid window.  Nonincreasing
    in lam.
    """
    if lam <= 0:
        raise DomainError(f"level must be positive, got {lam}")
    grid, gvals = _data_values(g, grid=w.grid)
    window = g.window if isinstance(g, MaximalResult) else (1, grid.j_max)
    lo, hi = int(window[0]), int(window[1])
    if lo < 1 or hi > grid.j_max:
        raise GridRangeError(f"window {window} outside 1..{grid.j_max}")
    if hi < lo:
        return 0.0
    sl = slice(lo - 1, hi)
    mask = gvals[sl] > lam
    return float(np.dot(w.values[sl][mask], grid.measures[sl][mask]))
