"""Least-squares slope fits used to estimate asymptotic rates.

Every quantity in the model is known only up to bounded factors, so all
rate assertions are phrased through fitted slopes of log-transformed data
rather than absolute constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float


def _linear_fit(x: np.ndarray, y: np.ndarray) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least two points to fit a slope")
    dx, dy = x - x.mean(), y - y.mean()
    sxx, sxy, syy = float(np.dot(dx, dx)), float(np.dot(dx, dy)), float(np.dot(dy, dy))
    if sxx == 0.0:
        raise ValueError("need at least two distinct x to fit a slope")
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    # 1 - (residual sum of squares) / syy, which equals this for a fitted line
    r2 = 1.0 if syy == 0.0 else sxy * sxy / (sxx * syy)
    return FitResult(slope=slope, intercept=intercept, r2=r2)


def fit_linear(x, y) -> FitResult:
    """Fit y = intercept + slope * x; slope is a growth rate per unit x."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("linear fit requires finite y")
    return _linear_fit(np.asarray(x, dtype=float), y)


def fit_log_slope(x, y) -> FitResult:
    """Fit log(y) = intercept + slope * x.

    The slope estimates an exponential rate: y ~ C * exp(slope * x).
    All y must be strictly positive.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise ValueError("log-slope fit requires strictly positive finite y")
    return _linear_fit(np.asarray(x, dtype=float), np.log(y))

