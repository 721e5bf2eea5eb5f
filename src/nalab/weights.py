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
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, DomainError, GridRangeError, finite_number
from .geometry import AnnularGrid
from .specfun import JacobiParams, jacobi_phi_second_trace, jacobi_phi_trace

# float -> float, or strictly increasing 1-d array -> array of its shape
Profile = Callable[[Union[float, np.ndarray]], Union[float, np.ndarray]]


@dataclass(frozen=True)
class WeightSpec:
    """Declarative weight description, JSON-serializable except `custom`.

    Each variant takes exactly the field _FAMILIES names for it (none for
    constant); a missing or foreign field is a ConfigError here.
    """

    variant: str
    gamma: Optional[float] = None
    p: Optional[float] = None
    base: Optional["WeightSpec"] = None
    profile: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in _FAMILIES:
            raise ConfigError(f"unknown weight variant {self.variant!r}")
        takes = _FAMILIES[self.variant].field
        for name in ("gamma", "p", "base", "profile"):
            given = getattr(self, name) is not None
            if given != (name == takes):
                need = "takes no" if given else "needs"
                raise ConfigError(f"{self.variant} weight {need} {name!r}")
        if takes in ("gamma", "p"):
            finite_number(getattr(self, takes), f"weight spec {takes!r}")

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
        takes = _FAMILIES[self.variant].field
        if takes == "profile":
            raise ConfigError("custom weights are not serializable")
        out: dict = {"variant": self.variant}
        if takes is not None:
            value = getattr(self, takes)
            out[takes] = value.to_json() if takes == "base" else value
        return out

    @classmethod
    def from_json(cls, obj) -> "WeightSpec":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"weight spec is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("weight spec must be a JSON object")
        extra = set(obj) - {"variant", "gamma", "p", "base"}
        if extra:
            raise ConfigError(f"unknown weight spec fields: {sorted(extra)}")
        if "variant" not in obj:
            raise ConfigError("weight spec needs a 'variant' field")
        fields = dict(obj)
        if "base" in fields:
            fields["base"] = cls.from_json(fields["base"])
        return cls(**fields)


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


# array-in, array-out evaluator of a spec on increasing 1-d distances
Evaluator = Callable[[np.ndarray], np.ndarray]


def _exp_rate(c: float, grid: AnnularGrid) -> Evaluator:
    """exp(2 rho c t)."""
    rate = 2.0 * grid.params.rho * c
    return lambda ts: np.exp(rate * ts)


def _spherical_u(p: float, grid: AnnularGrid) -> Evaluator:
    params = grid.params
    kappa = 2.0 * params.rho * (p - 1.0) + params.homogeneous_dim
    jp = JacobiParams(params.sigma, params.tau, 1j * kappa)
    return lambda ts: jacobi_phi_trace(jp, ts).values.real


def _jacobi_v(gamma: float, grid: AnnularGrid) -> Evaluator:
    if not (-0.5 <= gamma < 0.0):
        raise DomainError(f"jacobi_v gamma must lie in [-1/2, 0), got {gamma}")
    params = grid.params
    theta = -2.0 * params.rho * gamma - params.homogeneous_dim
    # the second solution has its poles at i*Z (specfun._check_second_pole)
    if abs(theta - round(theta)) <= 1e-12:
        raise DomainError(
            f"jacobi_v gamma={gamma} gives theta={theta:g}: the spectral point "
            "i*theta lies in i*Z, where the second solution is undefined"
        )
    jp = JacobiParams(params.sigma, params.tau, 1j * theta)
    two_sigma = 2.0 * params.sigma

    def jacobi_v(ts):
        damp = ts**two_sigma / (1.0 + ts**two_sigma)
        # the companion solution changes sign once at moderate t for the
        # spectral points this family uses; the weight takes its modulus,
        # which is what the defining asymptotic comparisons control
        return damp * np.abs(jacobi_phi_second_trace(jp, ts).values)

    return jacobi_v


def _eta_product(base: WeightSpec, grid: AnnularGrid) -> Evaluator:
    evaluate = _evaluator(base, grid)
    return lambda ts: evaluate(ts) * np.exp(1.0 / (1.0 + ts))


class _Family(NamedTuple):
    field: Optional[str]  # the one WeightSpec field the variant takes
    evaluator: Callable  # evaluator(value of that field, grid) -> Evaluator


_FAMILIES = {
    "constant": _Family(None, lambda _, grid: np.ones_like),
    "exp_radial": _Family("gamma", _exp_rate),
    "exp_strong": _Family("p", lambda p, grid: _exp_rate(p - 1.0, grid)),
    "spherical_u": _Family("p", _spherical_u),
    "jacobi_v": _Family("gamma", _jacobi_v),
    "eta_product": _Family("base", _eta_product),
    "custom": _Family("profile", lambda f, grid: np.vectorize(f, otypes=[float])),
}


def _evaluator(spec: WeightSpec, grid: AnnularGrid) -> Evaluator:
    family = _FAMILIES[spec.variant]
    value = None if family.field is None else getattr(spec, family.field)
    return family.evaluator(value, grid)


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

