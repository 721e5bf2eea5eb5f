"""Weight-condition checkers and inequality-ratio estimators.

Every checker returns a CheckReport: the extremal constant it found, the
witness configuration attaining it, an optional rate fit, and a verdict.
Reports re-evaluate their own witness, so a stored report can always be
audited against the code that produced it.

Constants here are model constants, not the constants of any continuum
statement: verdicts that assert boundedness do so through rate fits
(growth of per-scale sups) and drift under refinement, not through
absolute thresholds, except where a threshold is explicitly documented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, GridRangeError, UnsupportedError
from .fitting import fit_linear, fit_log_slope
from .geometry import annular_intersection, density, product_kernel, valid_upper
from .radialops import (
    RadialFunction,
    distribution_mass,
    iterate_maximal,
    maximal_dis,
    maximal_s,
)
from .treelab import VertexFunction, tree_maximal
from .weights import Weight, weight_mass

__all__ = [
    "SetFamily",
    "CheckReport",
    "default_lambda_grid",
    "check_ap_loc",
    "check_large_scale",
    "check_easy_check",
    "check_msw",
    "check_necessary",
    "check_classical_ap",
    "weak_type_ratio",
    "strong_type_ratio",
    "fs_ratio",
    "vector_valued_ratio",
]

# per-scale sups whose fitted exponential rate exceeds this are reported as
# divergent; genuine growth rates in the examples are O(rho), far above it
_GROWTH_SLOPE_TOL = 0.1

_AP_LOC_LENGTHS = (0.5, 1.0, 2.0)  # interval lengths of the local sweep
_CLASSICAL_AP_RADII = range(5, 31)  # ball radii j of the classical product
_STRONG_FIT_RANGE = (20, 60)  # J range of the strong-type rate fit
_STRONG_SLOPE_TOL = 0.5  # fitted rates at or above this are divergent


def default_lambda_grid() -> np.ndarray:
    """Geometric level grid 2^a, a = -40..10; resolves exponential scales."""
    return 2.0 ** np.arange(-40, 11, dtype=float)


@dataclass
class SetFamily:
    """Test sets of annulus indices, all inside a fixed window."""

    sets: List[np.ndarray]
    label: str
    window: tuple

    def __post_init__(self):
        lo, hi = self.window
        if not self.sets:
            raise UnsupportedError("set family is empty")
        cleaned = []
        for s in self.sets:
            arr = np.asarray(sorted(set(int(j) for j in s)), dtype=int)
            if arr.size == 0:
                raise UnsupportedError("set family contains an empty set")
            if arr.min() < lo or arr.max() > hi:
                raise GridRangeError(
                    f"family set {arr} leaves the window {self.window}"
                )
            cleaned.append(arr)
        self.sets = cleaned

    @classmethod
    def singletons(cls, window: tuple) -> "SetFamily":
        lo, hi = window
        return cls([np.array([j]) for j in range(lo, hi + 1)], "singletons", window)

    @classmethod
    def dyadic_blocks(cls, window: tuple) -> "SetFamily":
        """Contiguous blocks {j : 2^a <= j < 2^(a+1)} clipped to the window."""
        lo, hi = window
        sets = []
        a = 0
        while 2**a <= hi:
            block = np.arange(max(2**a, lo), min(2 ** (a + 1) - 1, hi) + 1)
            if block.size:
                sets.append(block)
            a += 1
        return cls(sets, "dyadic-blocks", window)

    @classmethod
    def random_unions(cls, window: tuple, seed: int, count: int) -> "SetFamily":
        lo, hi = window
        rng = np.random.default_rng(seed)
        sets = []
        for _ in range(count):
            size = int(rng.integers(1, min(12, hi - lo + 1) + 1))
            sets.append(rng.choice(np.arange(lo, hi + 1), size=size, replace=False))
        return cls(sets, f"random-unions(seed={seed})", window)

    @classmethod
    def standard(cls, window: tuple) -> "SetFamily":
        """Singletons plus dyadic blocks: the proof-side decomposition."""
        s = cls.singletons(window)
        d = cls.dyadic_blocks(window)
        return cls(s.sets + d.sets, "singletons+dyadic", window)

    def filter_by_mass(self, w: Weight, min_mass: float) -> "SetFamily":
        kept = [s for s in self.sets if weight_mass(w, s) >= min_mass]
        if not kept:
            raise UnsupportedError("mass filter removed every set")
        return SetFamily(kept, f"{self.label}|mass>={min_mass}", self.window)


@dataclass
class CheckReport:
    """Outcome of one condition check.

    reevaluate() recomputes the constant from the stored witness through
    the same code path; agreement to 1e-10 is part of the contract.
    """

    id: str
    constant: float
    witness: dict
    verdict: str
    slope: Optional[float] = None
    r2: Optional[float] = None
    meta: dict = field(default_factory=dict)
    _reeval: Optional[Callable[[dict], float]] = None

    def reevaluate(self) -> float:
        if self._reeval is None:
            raise UnsupportedError(f"report {self.id} carries no reevaluator")
        return float(self._reeval(self.witness))

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "constant": self.constant,
            "witness": _jsonable(self.witness),
            "slope": self.slope,
            "r2": self.r2,
            "verdict": self.verdict,
            "meta": _jsonable(self.meta),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _growth_verdict(
    sup_by_n: Sequence[float], ns: Optional[Sequence[float]] = None
) -> tuple:
    """Fit the exponential rate of per-scale sups; positive rate = divergent.

    ns are the scales of the sups, 1, 2, ... unless given.
    """
    arr = np.asarray(sup_by_n, dtype=float)
    if np.isinf(arr).any():
        # an infinite per-scale sup: the condition is unbounded, no rate to fit
        return None, None, "fail"
    if ns is None:
        ns = np.arange(1, arr.size + 1)
    ns = np.asarray(ns, dtype=float)
    pos = arr > 0
    if pos.sum() < 2:
        return None, None, "info"
    fit = fit_log_slope(ns[pos], arr[pos])
    verdict = "fail" if fit.slope > _GROWTH_SLOPE_TOL else "pass"
    return fit.slope, fit.r2, verdict


# ---------------------------------------------------------------------------
# local condition (1D surrogate)
# ---------------------------------------------------------------------------


def _ap_loc_sweep(w: Weight, p: float, step: float) -> tuple:
    """One interval sweep at quadrature resolution step/8; returns (sup, witness)."""
    grid = w.grid
    t_hi = float(grid.j_max)
    h = step / 8.0
    n_cells = int(round(t_hi / h))
    ts = (np.arange(n_cells) + 0.5) * h
    wv = w.profile(ts)
    if np.any(~np.isfinite(wv)) or np.any(wv <= 0):
        raise DomainError("profile must be positive and finite on the ray")
    dmu = density(grid.params, ts) * h
    dual = wv ** (-1.0 / (p - 1.0))
    cum_w = np.concatenate([[0.0], np.cumsum(wv * dmu)])
    cum_d = np.concatenate([[0.0], np.cumsum(dual * dmu)])
    cum_m = np.concatenate([[0.0], np.cumsum(dmu)])

    stride = max(1, int(round(step / h)))
    best, best_witness = -np.inf, None
    for length in _AP_LOC_LENGTHS:
        span = int(round(length / h))
        if span < 1 or span > n_cells:
            continue
        starts = np.arange(0, n_cells - span + 1, stride)
        mass = cum_m[starts + span] - cum_m[starts]
        iw = cum_w[starts + span] - cum_w[starts]
        idual = cum_d[starts + span] - cum_d[starts]
        prod = (iw / mass) * (idual / mass) ** (p - 1.0)
        k = int(np.argmax(prod))
        if prod[k] > best:
            best = float(prod[k])
            best_witness = {
                "start": float(starts[k] * h),
                "length": float(length),
                "step": float(step),
            }
    return best, best_witness


def check_ap_loc(
    w: Weight,
    p: float,
    step: float = 0.1,
    refinements: int = 3,
) -> CheckReport:
    """Local Muckenhoupt-type product over short intervals of the ray.

    Surrogate: sup over intervals I of length 0.5, 1 or 2 inside [0, j_max]
    of (avg_I w dmu) * (avg_I w^(-1/(p-1)) dmu)^(p-1), dmu = density(t) dt,
    by midpoint quadrature and a sweep of interval starts at the given
    step.  The sweep is repeated at halved steps; the verdict is the
    drift between coarsest and finest sup (a locally integrable profile
    converges, a singular one keeps growing as the quadrature resolves
    the singularity).  Requires a continuum profile.
    """
    if p <= 1:
        raise DomainError(f"local condition needs p > 1, got {p}")
    if w.profile is None:
        raise UnsupportedError("local condition needs a continuum profile")
    steps = [step / 2**a for a in range(refinements + 1)]
    sups, witness = [], None
    for st in steps:
        sup, wit = _ap_loc_sweep(w, p, st)
        sups.append(sup)
        witness = wit
    best = sups[-1]
    drift = abs(sups[-1] - sups[0]) / abs(sups[-1])
    verdict = "pass" if np.isfinite(best) and drift <= 0.2 else "fail"

    def reeval(wit: dict) -> float:
        grid = w.grid
        h = wit["step"] / 8.0
        span = int(round(wit["length"] / h))
        i0 = int(round(wit["start"] / h))
        ts = (np.arange(i0, i0 + span) + 0.5) * h
        wv = w.profile(ts)
        dmu = density(grid.params, ts) * h
        mass = float(dmu.sum())
        iw = float(np.dot(wv, dmu))
        idual = float(np.dot(wv ** (-1.0 / (p - 1.0)), dmu))
        return (iw / mass) * (idual / mass) ** (p - 1.0)

    return CheckReport(
        id="ap-loc",
        constant=best,
        witness=witness,
        verdict=verdict,
        meta={
            "p": p,
            "lengths": list(_AP_LOC_LENGTHS),
            "steps": steps,
            "sup_by_step": sups,
            "drift": drift,
        },
        _reeval=reeval,
    )


# ---------------------------------------------------------------------------
# pair-measure conditions
# ---------------------------------------------------------------------------


def _pair_mass_matrix(w: Weight, n: int) -> np.ndarray:
    """Q contributions w_j P_n(i, j) on the raw (unscaled) kernel."""
    kern = product_kernel(w.grid, n, normalize=False)
    return kern.matrix * w.values[None, :]


def _nonneg_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for nonnegative a and b, with 0 * inf = 0 as in a direct sum.

    An infinite entry makes every product entry it enters infinite; left in
    a plain product, its 0 * inf terms would make those entries nan.
    """
    a_inf, b_inf = np.isinf(a), np.isinf(b)
    if not (a_inf.any() or b_inf.any()):
        return a @ b
    out = np.where(a_inf, 0.0, a) @ np.where(b_inf, 0.0, b)
    out[(a_inf @ (b > 0)) | ((a > 0) @ b_inf)] = np.inf
    return out


def _pair_measure_check(
    report_id: str,
    w: Weight,
    p: float,
    alpha: float,
    beta: float,
    n_max: int,
    family: Optional[SetFamily],
    meta: dict,
) -> CheckReport:
    """Shared body of the pair-measure checks at exponents (alpha, beta).

    With S the 0/1 indicator matrix of the family (sets x annuli), every
    Q_n(E, F) at one scale is an entry of S (P_n o w) S^T, and the
    denominators are the outer product of e^(2 rho beta n) w(E)^(alpha/p)
    with w(F)^(1 - alpha/p), multiplied in that order.  Pairs whose
    denominator is zero or not finite are left out and counted in
    skipped_pairs.  The witness is the first strict maximum in (n, E, F)
    order: the first row-major maximum of a scale replaces the best only
    when it is strictly larger.  reevaluate() recomputes the witness pair
    by a direct gather and sum, independently of the matrix product.
    """
    grid = w.grid
    if family is None:
        family = SetFamily.standard((1, valid_upper(grid.j_max, n_max)))
    two_rho = 2.0 * grid.params.rho
    sets = family.sets
    ind = np.zeros((len(sets), w.values.size))
    rows = np.repeat(np.arange(len(sets)), [s.size for s in sets])
    ind[rows, np.concatenate(sets) - 1] = 1.0
    # the scalar pow that reevaluate() uses: numpy's vectorized pow can
    # differ from it in the last bit, enough to reorder exact ties
    mass = [weight_mass(w, s) for s in sets]
    m_e = np.array([m ** (alpha / p) for m in mass])
    m_f = np.array([m ** (1.0 - alpha / p) for m in mass])

    best, witness = -np.inf, None
    sup_by_n = []
    skipped = 0
    for n in range(1, n_max + 1):
        # an overflowed pair mass, or a sum of them, makes its pairs infinite
        q = _nonneg_matmul(_nonneg_matmul(ind, _pair_mass_matrix(w, n)), ind.T)
        d = (math.exp(two_rho * beta * n) * m_e)[:, None] * m_f[None, :]
        ok = (d != 0.0) & np.isfinite(d)
        skipped += int(d.size - ok.sum())
        vals = np.full(d.shape, -np.inf)
        np.divide(q, d, out=vals, where=ok)
        e, f = np.unravel_index(int(np.argmax(vals)), vals.shape)
        sup_by_n.append(max(0.0, float(vals[e, f])))
        if vals[e, f] > best:
            best = float(vals[e, f])
            witness = {"n": n, "E": sets[e].tolist(), "F": sets[f].tolist()}
    slope, r2, verdict = _growth_verdict(sup_by_n)

    def reeval(wit: dict) -> float:
        E = np.asarray(wit["E"], dtype=int)
        F = np.asarray(wit["F"], dtype=int)
        n = int(wit["n"])
        q = float(_pair_mass_matrix(w, n)[np.ix_(E - 1, F - 1)].sum())
        return q / (
            math.exp(two_rho * beta * n)
            * weight_mass(w, E) ** (alpha / p)
            * weight_mass(w, F) ** (1.0 - alpha / p)
        )

    return CheckReport(
        id=report_id,
        constant=best,
        witness=witness,
        verdict=verdict,
        slope=slope,
        r2=r2,
        meta={
            **meta,
            "n_max": n_max,
            "family": family.label,
            "sup_by_n": sup_by_n,
            "skipped_pairs": skipped,
        },
        _reeval=reeval,
    )


def check_large_scale(
    w: Weight,
    p: float,
    alpha: float,
    beta: float,
    n_max: int = 25,
    family: Optional[SetFamily] = None,
) -> CheckReport:
    """Pair-measure condition with exponents (alpha, beta).

    sup over scales n <= n_max and set pairs (E, F) of
    Q_n^w(E, F) / (e^(2 rho beta n) w(E)^(alpha/p) w(F)^(1-alpha/p)),
    Q_n^w(E, F) = sum_{i in E, j in F} w_j P_n(i, j) on the raw kernel.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"need 0 < beta < 1, got beta={beta}")
    if not (beta <= alpha < p):
        raise DomainError(f"need beta <= alpha < p, got alpha={alpha}, p={p}")
    meta = {"p": p, "alpha": alpha, "beta": beta}
    return _pair_measure_check("large-scale", w, p, alpha, beta, n_max, family, meta)


def check_necessary(
    w: Weight,
    p: float,
    n_max: int = 25,
    family: Optional[SetFamily] = None,
) -> CheckReport:
    """Necessary pair-measure condition: alpha = beta = 1 exponents."""
    if p <= 1:
        raise DomainError(f"need p > 1, got {p}")
    return _pair_measure_check("necessary", w, p, 1.0, 1.0, n_max, family, {"p": p})


def check_easy_check(w: Weight, p: float, eta: float, n_max: int = 25) -> CheckReport:
    """Sufficient single-pair condition with tilt parameter eta < 1.

    sup over scales n and annulus pairs |i - j| <= n of
    w_i * itsc(i, n, D_j) / (e^(rho (n+i-j)(p-eta)) e^(2 rho n eta) w_j)
    with D_j the midpoint distance of annulus j.  A finite, scale-stable
    sup certifies the pair-measure condition at exponents
    (p/(p+1-eta), p/(p+1-eta)).
    """
    if eta >= 1.0:
        raise DomainError(f"tilt must satisfy eta < 1, got {eta}")
    grid = w.grid
    rho = grid.params.rho
    jm = grid.j_max
    ii = np.arange(1, jm + 1)
    I = ii[:, None] * np.ones((1, jm), dtype=int)
    J = np.ones((jm, 1), dtype=int) * ii[None, :]
    D = J - 0.5

    best, witness = -np.inf, None
    sup_by_n = []
    for n in range(1, n_max + 1):
        band = np.abs(I - J) <= n
        itsc = annular_intersection(grid, I[band], n, D[band])
        with np.errstate(over="ignore"):
            den = np.exp(rho * (n + I[band] - J[band]) * (p - eta)) * math.exp(
                2.0 * rho * n * eta
            )
            vals = w.values[I[band] - 1] * itsc / (den * w.values[J[band] - 1])
        vals = np.where(np.isfinite(vals), vals, 0.0)
        kbest = int(np.argmax(vals))
        sup_by_n.append(float(vals[kbest]))
        if vals[kbest] > best:
            best = float(vals[kbest])
            witness = {
                "n": n,
                "i": int(I[band][kbest]),
                "j": int(J[band][kbest]),
            }
    slope, r2, verdict = _growth_verdict(sup_by_n)

    def reeval(wit: dict) -> float:
        n, i, j = int(wit["n"]), int(wit["i"]), int(wit["j"])
        itsc = annular_intersection(grid, i, n, j - 0.5)
        den = math.exp(rho * (n + i - j) * (p - eta)) * math.exp(
            2.0 * rho * n * eta
        )
        return w.values[i - 1] * itsc / (den * w.values[j - 1])

    return CheckReport(
        id="easy-check",
        constant=best,
        witness=witness,
        verdict=verdict,
        slope=slope,
        r2=r2,
        meta={
            "p": p,
            "eta": eta,
            "n_max": n_max,
            "sup_by_n": sup_by_n,
            "certified_exponents": (p / (p + 1 - eta), p / (p + 1 - eta)),
        },
        _reeval=reeval,
    )


def check_msw(w: Weight, s: float, n_max: int = 25) -> CheckReport:
    """Pointwise domination of the power-adjusted maximal function.

    constant = sup over the valid window of M_s w / w; finite values
    certify the pair-measure condition at exponents
    (s' p/(s'+1), s'/(s'+1)) with 1/s + 1/s' = 1.  s = 1 is the plain
    maximal function, the admissible choice at the decay edge.  The
    checker reports the observed sup at this grid; stability under grid
    growth is the caller's comparison (outside the guaranteed parameter
    range the sup genuinely grows with the grid).
    """
    if s < 1.0:
        raise DomainError(f"power-adjusted domination needs s >= 1, got {s}")
    grid = w.grid
    ms = maximal_s(w, s, n_max)
    hi = valid_upper(grid.j_max, n_max)
    ratios = ms.values[:hi] / w.values[:hi]
    k = int(np.argmax(ratios))
    best = float(ratios[k])

    def reeval(wit: dict) -> float:
        i = int(wit["i"])
        return float(maximal_s(w, s, n_max).values[i - 1] / w.values[i - 1])

    return CheckReport(
        id="msw",
        constant=best,
        witness={"i": k + 1},
        verdict="pass" if np.isfinite(best) else "fail",
        meta={
            "s": s,
            "n_max": n_max,
            "window": (1, hi),
            "s_conjugate": s / (s - 1.0) if s > 1.0 else math.inf,
        },
        _reeval=reeval,
    )


def check_classical_ap(w: Weight, p: float) -> CheckReport:
    """Classical two-factor product along growing model balls.

    For each j = 5 .. 30 the ball B(x_j, j) with x_j at midpoint distance
    of annulus j is decomposed into annular slices; the product
    (avg_B w) * (avg_B w^(-1/(p-1)))^(p-1) is evaluated through
    intersection measures, and its exponential rate in j is fitted.
    A positive rate is the classical-condition failure detector.
    """
    if p <= 1:
        raise DomainError(f"need p > 1, got {p}")
    grid = w.grid
    cols = np.arange(1, grid.j_max + 1)
    dual = w.values ** (-1.0 / (p - 1.0))

    def product_at(j: int) -> float:
        pieces = annular_intersection(grid, cols, j, j - 0.5)
        vol = grid.ball_volume_at(j)
        avg_w = float(np.dot(pieces, w.values)) / vol
        # annuli outside the ball add nothing, also where the dual overflowed
        avg_d = float(np.dot(pieces, np.where(pieces > 0, dual, 0.0))) / vol
        return avg_w * avg_d ** (p - 1.0)

    js = list(_CLASSICAL_AP_RADII)
    if js[-1] > grid.j_max:
        raise GridRangeError("ball radius leaves the grid")
    prods = np.array([product_at(j) for j in js])
    k = int(np.argmax(prods))
    slope, r2, verdict = _growth_verdict(prods, js)

    def reeval(wit: dict) -> float:
        return product_at(int(wit["j"]))

    return CheckReport(
        id="classical-ap",
        constant=float(prods[k]),
        witness={"j": js[k]},
        verdict=verdict,
        slope=slope,
        r2=r2,
        meta={"p": p, "j_range": js, "products": prods.tolist()},
        _reeval=reeval,
    )


# ---------------------------------------------------------------------------
# inequality-ratio estimators
# ---------------------------------------------------------------------------


def _zero_report(report_id: str, witness: dict, verdict: str, meta: dict) -> CheckReport:
    """Report of a quotient whose denominator vanishes: constant 0."""
    return CheckReport(report_id, 0.0, witness, verdict, meta=meta, _reeval=lambda wit: 0.0)


def _level_set_ratio(
    report_id: str,
    w: Weight,
    f: RadialFunction,
    power: float,
    den: float,
    n_max: int,
    meta: Callable,
) -> CheckReport:
    """Shared body of the level-set quotients sup_l l^power w({Mf > l}) / den.

    The sup runs over default_lambda_grid() and its first maximizer is the
    witness; meta(res) builds the report's meta from the maximal result res
    of f.
    """
    lambda_grid = default_lambda_grid()
    res = maximal_dis(f, n_max)

    def ratio_at(lam: float) -> float:
        return lam**power * distribution_mass(w, res, lam) / den

    vals = np.array([ratio_at(float(l)) for l in lambda_grid])
    k = int(np.argmax(vals))
    return CheckReport(
        id=report_id,
        constant=float(vals[k]),
        witness={"lambda": float(lambda_grid[k])},
        verdict="pass" if np.isfinite(vals[k]) else "fail",
        meta=meta(res),
        _reeval=lambda wit: ratio_at(float(wit["lambda"])),
    )


def weak_type_ratio(
    w: Weight,
    p: float,
    f: RadialFunction,
    n_max: int = 25,
) -> CheckReport:
    """Weak-(p,p) quotient sup_l l^p w({Mf > l}) / ||f||_{L^p(w)}^p."""
    if p < 1:
        raise DomainError(f"need p >= 1, got {p}")
    norm_p = float(np.dot(w.values * w.grid.measures, f.values**p))
    if norm_p == 0.0:
        meta = {"p": p, "degenerate": "zero function"}
        return _zero_report("weak-type", {"lambda": None}, "pass", meta)
    return _level_set_ratio(
        "weak-type", w, f, p, norm_p, n_max,
        lambda res: {"p": p, "n_max": n_max, "window": res.window},
    )


def strong_type_ratio(
    w: Weight,
    p: float,
    f: RadialFunction,
    j_cut: int = 60,
    n_max: int = 25,
) -> CheckReport:
    """Partial strong-(p,p) quotients and their linear growth rate.

    Partial sums S(J) = sum_{j <= J} (Mf)_j^p w_j |Omega_j| are fitted
    linearly in J over 20 .. 60, measured in units of the per-annulus
    term at the start of the fit range so that model constants cancel:
    annulus terms of constant size fit a rate near 1 (one term per unit
    J), a convergent tail fits a rate near 0, and a rate at or above 0.5
    is reported as divergence.  The reported constant is the quotient
    S(j_cut) / ||f||_{L^p(w)}^p.
    """
    grid = w.grid
    norm_p = float(np.dot(w.values * grid.measures, f.values**p))
    if norm_p == 0.0:
        meta = {"p": p, "degenerate": "zero function"}
        return _zero_report("strong-type", {"j_cut": j_cut}, "pass", meta)

    def terms_upto(j: int, mf: np.ndarray) -> np.ndarray:
        return mf[:j] ** p * w.values[:j] * grid.measures[:j]

    res = maximal_dis(f, n_max)
    hi = min(j_cut, res.window[1])
    terms = terms_upto(hi, res.values)
    partial = np.cumsum(terms) / norm_p
    lo_fit = max(2, _STRONG_FIT_RANGE[0])
    hi_fit = min(hi, _STRONG_FIT_RANGE[1])
    js = np.arange(lo_fit, hi_fit + 1, dtype=float)
    t_ref = terms[lo_fit - 1] / norm_p
    if t_ref > 0:
        # growth accumulated inside the fit window only; mass below the
        # window would otherwise drown the unit-term rescaling
        seg = (partial[lo_fit - 1 : hi_fit] - partial[lo_fit - 2]) / t_ref
        fit = fit_linear(js, seg)
        verdict = "fail" if fit.slope >= _STRONG_SLOPE_TOL else "pass"
        slope, r2 = fit.slope, fit.r2
    else:  # maximal function already zero at the fit window
        slope, r2, verdict = None, None, "info"

    def reeval(wit: dict) -> float:
        j = min(int(wit["j_cut"]), hi)
        partial_j = np.cumsum(terms_upto(j, maximal_dis(f, n_max).values))[-1]
        return float(partial_j / norm_p)

    return CheckReport(
        id="strong-type",
        constant=float(partial[hi - 1]),
        witness={"j_cut": hi},
        verdict=verdict,
        slope=slope,
        r2=r2,
        meta={
            "p": p,
            "n_max": n_max,
            "fit_range": (lo_fit, hi_fit),
            "term_unit": float(t_ref),
            "partial_sums": partial[lo_fit - 1 : hi_fit].tolist(),
        },
        _reeval=reeval,
    )


def fs_ratio(
    w: Weight,
    s: float,
    f: RadialFunction,
    k: int = 1,
    n_max: int = 25,
) -> CheckReport:
    """Two-weight quotient sup_l l w({Mf > l}) / sum_j |f_j| G_j |Omega_j|.

    The comparison weight G is M_s w for s > 1 and the k-fold iterate
    M^(k) w at s = 1; the denominator runs over G's valid window, and
    configurations whose denominator vanishes are recorded, not passed.
    """
    if s < 1.0:
        raise DomainError(f"need s >= 1, got {s}")
    grid = w.grid
    if s > 1.0:
        g_vals = maximal_s(w, s, n_max).values
        g_hi = valid_upper(grid.j_max, n_max)
    else:
        it = iterate_maximal(w, k, n_max)
        g_vals = it.values
        g_hi = it.window[1]
    support_hi = int(np.max(np.nonzero(f.values)[0]) + 1) if np.any(f.values) else 0
    den = float(
        np.dot(f.values[:g_hi] * g_vals[:g_hi], grid.measures[:g_hi])
    )
    if den == 0.0:
        verdict = "pass" if support_hi == 0 else "info"
        meta = {"s": s, "k": k, "degenerate": "zero denominator"}
        return _zero_report("fs-ratio", {"lambda": None}, verdict, meta)
    return _level_set_ratio(
        "fs-ratio", w, f, 1.0, den, n_max,
        lambda res: {"s": s, "k": k, "n_max": n_max, "g_window": (1, g_hi),
                     "support_inside_window": support_hi <= g_hi},
    )


def vector_valued_ratio(
    p: float,
    r: float,
    functions: Sequence[Union[VertexFunction, RadialFunction]],
    backend: str = "tree",
    n_max: int = 25,
) -> CheckReport:
    """Norm quotient of the square-function style vector inequality.

    ||(sum_n (M f_n)^r)^(1/r)||_p / ||(sum_n f_n^r)^(1/r)||_p with the
    unweighted measure of the backend (counting on the tree, annulus
    measures on the grid).  The tree backend evaluates M exactly at
    every vertex; on the grid the numerator is restricted to annuli
    whose maximal values are unaffected by truncation.
    """
    if not (1.0 < r <= p):
        raise DomainError(f"need 1 < r <= p, got r={r}, p={p}")
    if len(functions) == 0:
        raise UnsupportedError("empty function list")
    if backend not in ("tree", "radial"):
        raise UnsupportedError(f"unknown backend {backend!r}")

    fmat = np.stack([f.values for f in functions])
    mu = np.ones(fmat.shape[1]) if backend == "tree" else functions[0].grid.measures

    def norm(mat: np.ndarray, keep: slice = slice(None)) -> float:
        """||(sum_n g_n^r)^(1/r)||_p over the annuli or vertices kept."""
        body = (mat**r).sum(axis=0) ** (1.0 / r)
        return float(np.dot(mu[keep], body[keep] ** p)) ** (1.0 / p)

    def maximal_norm() -> float:
        """The numerator, from freshly computed maximal functions."""
        if backend == "tree":
            return norm(np.stack([tree_maximal(f).values for f in functions]))
        results = [maximal_dis(f, n_max) for f in functions]
        mmat = np.stack([res.values for res in results])
        return norm(mmat, slice(0, results[0].window[1]))

    denom = norm(fmat)
    if denom == 0.0:
        meta = {"p": p, "r": r, "backend": backend, "degenerate": "zero input"}
        return _zero_report("vector-valued", {"count": len(functions)}, "pass", meta)
    constant = maximal_norm() / denom
    return CheckReport(
        id="vector-valued",
        constant=constant,
        witness={"count": len(functions)},
        verdict="pass" if np.isfinite(constant) else "fail",
        meta={"p": p, "r": r, "backend": backend},
        _reeval=lambda wit: maximal_norm() / norm(fmat),
    )
