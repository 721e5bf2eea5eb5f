"""Weight families on the annular grid.

Every weight the experiments use is radial: a positive profile of the
distance, sampled at annulus midpoints.  A profile takes a float or a
strictly increasing 1-d array of distances and returns values of the same
shape, and a weight's values are its profile at the midpoints.  Closed-form
families (constant and exponential) are evaluated through numpy; the
spherical-function families route through the Jacobi traces with per-point
error below 1e-8.

Midpoint sampling (rather than annular averaging) keeps pointwise powers
exact: (w^s)_j == (w_j)^s, which the power-mean comparisons rely on.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .errors import ConfigError, DomainError, GridRangeError
from .geometry import AnnularGrid
from .specfun import JacobiParams, jacobi_phi_second_trace, jacobi_phi_trace

# float -> float, or strictly increasing 1-d array -> array of its shape
Profile = Callable[[Union[float, np.ndarray]], Union[float, np.ndarray]]

_VARIANTS = (
    "constant",
    "exp_radial",
    "exp_strong",
    "spherical_u",
    "jacobi_v",
    "eta_product",
    "custom",
)


@dataclass(frozen=True)
class WeightSpec:
    """Declarative weight description, JSON-serializable except `custom`."""

    variant: str
    gamma: Optional[float] = None
    p: Optional[float] = None
    base: Optional["WeightSpec"] = None
    profile: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ConfigError(f"unknown weight variant {self.variant!r}")

    @classmethod
    def constant(cls) -> "WeightSpec":
        return cls("constant")

    @classmethod
    def exp_radial(cls, gamma: float) -> "WeightSpec":
        """w(t) = exp(2 rho gamma t)."""
        return cls("exp_radial", gamma=float(gamma))

    @classmethod
    def exp_strong(cls, p: float) -> "WeightSpec":
        """w(t) = exp(2 rho (p - 1) t), the strong-growth family."""
        return cls("exp_strong", p=float(p))

    @classmethod
    def spherical_u(cls, p: float) -> "WeightSpec":
        """Spherical-function weight with the growth rate of exp_strong(p)."""
        return cls("spherical_u", p=float(p))

    @classmethod
    def jacobi_v(cls, gamma: float) -> "WeightSpec":
        """Second-solution weight with the decay rate of exp_radial(gamma)."""
        return cls("jacobi_v", gamma=float(gamma))

    @classmethod
    def eta_product(cls, base: "WeightSpec") -> "WeightSpec":
        """base weight times the bounded perturbation exp(1/(1+t))."""
        return cls("eta_product", base=base)

    @classmethod
    def custom(cls, profile: Callable[[float], float]) -> "WeightSpec":
        """User profile taking one float distance and returning one float.

        materialize wraps it once with np.vectorize, so the resulting
        Weight.profile accepts arrays like every built-in family.
        """
        return cls("custom", profile=profile)

    def to_json(self) -> dict:
        if self.variant == "custom":
            raise ConfigError("custom weights are not serializable")
        out: dict = {"variant": self.variant}
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.p is not None:
            out["p"] = self.p
        if self.base is not None:
            out["base"] = self.base.to_json()
        return out

    @classmethod
    def from_json(cls, obj) -> "WeightSpec":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ConfigError("weight spec must be a JSON object")
        known = {"variant", "gamma", "p", "base"}
        extra = set(obj) - known
        if extra:
            raise ConfigError(f"unknown weight spec fields: {sorted(extra)}")
        if "variant" not in obj:
            raise ConfigError("weight spec needs a 'variant' field")
        for key in ("gamma", "p"):
            x = obj.get(key)
            # bool is an int subclass; comparing to float max rejects nan and
            # inf, and ints too large for a float, without converting them
            if x is not None and (
                isinstance(x, bool)
                or not isinstance(x, (int, float))
                or not abs(x) <= sys.float_info.max
            ):
                raise ConfigError(
                    f"weight spec {key!r} must be a finite number, got {x!r}"
                )
        base = cls.from_json(obj["base"]) if "base" in obj else None
        return cls(
            variant=obj["variant"],
            gamma=obj.get("gamma"),
            p=obj.get("p"),
            base=base,
        )


@dataclass
class Weight:
    """Positive radial weight sampled on a grid's annulus midpoints.

    profile, when present, is the continuum weight: it maps a float to a
    float and a strictly increasing 1-d array of distances to an array of
    the same shape.
    """

    grid: AnnularGrid
    values: np.ndarray
    profile: Optional[Profile] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.j_max,):
            raise DomainError("weight values must cover every annulus")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise DomainError("weight values must be positive and finite")


def _spherical_params(spec: WeightSpec, grid: AnnularGrid) -> JacobiParams:
    params = grid.params
    varrho = params.homogeneous_dim
    if spec.variant == "spherical_u":
        if spec.p is None:
            raise ConfigError("spherical_u needs p")
        kappa = 2.0 * params.rho * (spec.p - 1.0) + varrho
        return JacobiParams(params.sigma, params.tau, 1j * kappa)
    if spec.gamma is None:
        raise ConfigError("jacobi_v needs gamma")
    if not (-0.5 <= spec.gamma < 0.0):
        raise DomainError(
            f"jacobi_v gamma must lie in [-1/2, 0), got {spec.gamma}"
        )
    theta = -2.0 * params.rho * spec.gamma - varrho
    return JacobiParams(params.sigma, params.tau, 1j * theta)


def _evaluator(
    spec: WeightSpec, grid: AnnularGrid
) -> Callable[[np.ndarray], np.ndarray]:
    """Array-in, array-out evaluator of a spec on increasing 1-d distances."""
    two_rho = 2.0 * grid.params.rho
    if spec.variant == "constant":
        return np.ones_like
    if spec.variant == "exp_radial":
        if spec.gamma is None:
            raise ConfigError("exp_radial needs gamma")
        g = spec.gamma
        return lambda ts: np.exp(two_rho * g * ts)
    if spec.variant == "exp_strong":
        if spec.p is None:
            raise ConfigError("exp_strong needs p")
        q = spec.p - 1.0
        return lambda ts: np.exp(two_rho * q * ts)
    if spec.variant == "spherical_u":
        jp = _spherical_params(spec, grid)
        return lambda ts: jacobi_phi_trace(jp, ts).values.real
    if spec.variant == "jacobi_v":
        jp = _spherical_params(spec, grid)
        two_sigma = 2.0 * grid.params.sigma

        def jacobi_v(ts):
            damp = ts**two_sigma / (1.0 + ts**two_sigma)
            # the companion solution changes sign once at moderate t for the
            # spectral points this family uses; the weight takes its modulus,
            # which is what the defining asymptotic comparisons control
            return damp * np.abs(jacobi_phi_second_trace(jp, ts).values)

        return jacobi_v
    if spec.variant == "eta_product":
        if spec.base is None:
            raise ConfigError("eta_product needs a base spec")
        base = _evaluator(spec.base, grid)
        return lambda ts: base(ts) * np.exp(1.0 / (1.0 + ts))
    if spec.variant == "custom":
        if spec.profile is None:
            raise ConfigError("custom weight needs a profile callable")
        return np.vectorize(spec.profile, otypes=[float])
    raise ConfigError(f"unhandled weight variant {spec.variant!r}")


def materialize(spec: WeightSpec, grid: AnnularGrid) -> Weight:
    """Sample a weight spec at the grid's annulus midpoints.

    The stored profile is the one evaluation path: the values are
    profile(grid.midpoints), so the two agree exactly at midpoints.  The
    profile maps a float to a float and a strictly increasing 1-d array of
    distances to an array of its shape, through the same closed form,
    Jacobi trace or user callable.  For jacobi_v the innermost annulus sits
    closest to the singular origin and carries the largest (still sub-1e-8)
    error.
    """
    evaluate = _evaluator(spec, grid)

    def profile(t):
        ts = np.asarray(t, dtype=float)
        return evaluate(ts.reshape(-1)).reshape(ts.shape)[()]

    # a profile that overflows the float range reaches Weight as inf, which
    # it rejects with a DomainError; the overflow itself is not a warning
    with np.errstate(over="ignore"):
        values = profile(grid.midpoints)
    return Weight(grid, values, profile=profile)


def weight_mass(w: Weight, annuli: Iterable[int]) -> float:
    """Weighted measure of a union of annuli: sum of w_j |Omega_j|."""
    idx = np.asarray(sorted(set(int(j) for j in annuli)), dtype=int)
    if idx.size == 0:
        return 0.0
    if idx.min() < 1 or idx.max() > w.grid.j_max:
        raise GridRangeError(
            f"annulus indices must lie in 1..{w.grid.j_max}, got "
            f"{idx.min()}..{idx.max()}"
        )
    sel = idx - 1
    return float(np.dot(w.values[sel], w.grid.measures[sel]))


def weight_power(w: Weight, s: float) -> Weight:
    """Pointwise power of a weight; exact at midpoints by construction."""
    if s <= 0:
        raise DomainError(f"power must be positive, got {s}")
    profile = None
    if w.profile is not None:
        base = w.profile

        def profile(t):
            return base(t) ** s

    return Weight(w.grid, w.values**s, profile=profile)
