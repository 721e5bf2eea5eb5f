"""Weight-condition checkers and inequality-ratio estimators.

Every checker returns a CheckReport: the extremal constant it found, the
witness configuration attaining it, an optional rate fit, and a verdict.
Reports re-evaluate their own witness, so a stored report can always be
audited against the code that produced it.

Constants here are model constants, not the constants of any continuum
statement: verdicts that assert boundedness do so through rate fits
(growth of per-scale sups) and drift under refinement, not through
absolute thresholds, except where a threshold is explicitly documented.

Witnesses are stable: where ratios tie to rounding, a checker names the
first configuration within _TIE_REL (relative) of the sup, so a last-bit
change in the data does not move the witness; the constant stays the sup.

The level-set quotients (weak-type, fs-ratio) are built on blocks: a block
helper takes a (j_max x m) block whose columns are functions, computes
their maximal functions in one radialops._maximal_block call and the
masses of their superlevel sets at every level of _LAMBDA_GRID in one
masked sum, and returns numerators and denominators per column.
weak_type_ratio and fs_ratio are its m = 1 case; the divergence sequences
in experiments pass all their indicators as one block through
_level_set_sups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, GridRangeError, UnsupportedError, require_integer
from .fitting import fit_linear, fit_log_slope
from .geometry import _kernel_stack, annular_intersection, density, valid_upper
from .radialops import (
    RadialFunction,
    _maximal_block,
    _superlevel_mass,
    maximal_dis,
    maximal_s,
)
from .treelab import VertexFunction, _tree_maximal_block
from .weights import Weight, weight_mass

__all__ = [
    "SetFamily",
    "CheckReport",
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
_TIE_REL = 1e-12  # ratios this close (relative) to the sup tie for the witness
# levels of the level-set quotients: 2^a, a = -40..10, resolving exponential scales
_LAMBDA_GRID = 2.0 ** np.arange(-40, 11, dtype=float)
_LAMBDA_GRID.setflags(write=False)


def _require(ok: bool, condition: str, **values: float) -> None:
    """Domain gate: DomainError unless ok holds and every value is finite."""
    if not (ok and all(math.isfinite(v) for v in values.values())):
        got = ", ".join(f"{name}={v}" for name, v in values.items())
        raise DomainError(f"need finite {condition}, got {got}")


def _near_max_floor(top: float) -> float:
    """Least value within _TIE_REL (relative) of a maximum top."""
    return top - _TIE_REL * abs(top) if math.isfinite(top) else top


def _first_near_max(vals: np.ndarray) -> int:
    """Index of the first entry within _TIE_REL (relative) of the maximum."""
    return int(np.argmax(vals >= _near_max_floor(float(np.max(vals)))))


def _require_n_max(grid, n_max: int, top: Optional[int] = None) -> None:
    """Refuse an n_max that is not an integer, or outside 1..top (default j_max)."""
    require_integer(n_max, "n_max")
    top = grid.j_max if top is None else top
    if not 1 <= n_max <= top:
        raise GridRangeError(f"n_max={n_max} outside 1..{top}")


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
    _require(
        p > 1 and step > 0 and refinements >= 0,
        "p > 1, step > 0 and refinements >= 0",
        p=p, step=step, refinements=refinements,
    )
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
    when it is strictly larger.  reevaluate() recomputes the witness pair's
    w_j P_n(i, j) from the kernel formula on the gathered annuli and sums
    them, independently of the kernel stack and of the matrix product.
    """
    grid = w.grid
    # the default family fills the trusted window (1, j_max - n_max - 1)
    _require_n_max(grid, n_max, grid.j_max - 2 if family is None else grid.j_max)
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
    # the raw (unscaled) kernels, taken once; the loop keeps one scale's
    # temporaries at a time, which a product batched over scales would not
    raw, _ = _kernel_stack(grid, n_max, normalize=False)
    # an overflowed pair mass, or a sum of them, makes its pairs infinite,
    # and an overflowed denominator skips its pairs: both handled below
    with np.errstate(over="ignore"):
        for n in range(1, n_max + 1):
            # Q contributions w_j P_n(i, j)
            pair_w = raw[n - 1] * w.values
            q = _nonneg_matmul(_nonneg_matmul(ind, pair_w), ind.T)
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
        i, j = E[:, None], F[None, :]
        m_i, m_j = grid.measures[i - 1], grid.measures[j - 1]
        vn = grid.ball_volume_at(n)
        with np.errstate(over="ignore"):
            pair = np.minimum(
                np.minimum(m_i * m_j, m_i * vn),
                np.minimum(m_j * vn, np.exp(grid.params.rho * (n + i + j))),
            )
        pair = np.where(np.abs(i - j) <= n + 1, pair, 0.0)
        q = float((pair * w.values[j - 1]).sum())
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
    _require(0.0 < beta < 1.0, "0 < beta < 1", beta=beta)
    _require(beta <= alpha < p, "beta <= alpha < p", alpha=alpha, p=p)
    meta = {"p": p, "alpha": alpha, "beta": beta}
    return _pair_measure_check("large-scale", w, p, alpha, beta, n_max, family, meta)


def check_necessary(
    w: Weight,
    p: float,
    n_max: int = 25,
    family: Optional[SetFamily] = None,
) -> CheckReport:
    """Necessary pair-measure condition: alpha = beta = 1 exponents."""
    _require(p > 1, "p > 1", p=p)
    return _pair_measure_check("necessary", w, p, 1.0, 1.0, n_max, family, {"p": p})


def check_easy_check(w: Weight, p: float, eta: float, n_max: int = 25) -> CheckReport:
    """Sufficient single-pair condition with tilt parameter eta < 1.

    sup over scales n and annulus pairs |i - j| <= n of
    w_i * itsc(i, n, D_j) / (e^(rho (n+i-j)(p-eta)) e^(2 rho n eta) w_j)
    with D_j the midpoint distance of annulus j.  A finite, scale-stable
    sup certifies the pair-measure condition at exponents
    (p/(p+1-eta), p/(p+1-eta)).

    Scale n is one (j_max x (2n + 1)) array on the band's diagonals: row i,
    column c for j = i - n + c, w_j read through one window over the weight
    padded with nan off the grid.  In the band itsc is never empty (that
    needs |i - j| >= n + 1/2), and its cap e^(rho (n + i - j + 1/2)) and the
    denominator depend on (n, i - j) alone.  Ratios that are not finite
    score 0 and are counted in skipped_pairs.
    """
    _require(eta < 1.0, "p and tilt eta < 1", p=p, eta=eta)
    grid = w.grid
    _require_n_max(grid, n_max)
    rho = grid.params.rho
    pad = np.full(n_max, np.nan)
    w_js = sliding_window_view(np.concatenate((pad, w.values, pad)), 2 * n_max + 1)
    clamps = np.minimum(grid.measures, grid.volumes[:n_max, None])  # min(m_i, V(n))

    ratios, skipped = [], 0  # per scale n, nan off the grid
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            k = np.arange(2 * n, -1, -1)  # n + i - j by column
            itsc = np.minimum(clamps[n - 1, :, None], np.exp(rho * (k + 0.5)))
            den = np.exp(rho * k * (p - eta)) * math.exp(2.0 * rho * n * eta)
            w_j = w_js[:, n_max - n : n_max + n + 1]
            vals = w.values[:, None] * itsc / (den * w_j)
            finite = np.isfinite(vals)  # never in the n (n + 1) cells off the grid
            dropped = vals.size - n * (n + 1) - np.count_nonzero(finite)
            if dropped:
                skipped += dropped
                vals[~finite & ~np.isnan(w_j)] = 0.0
            ratios.append(vals)
    sup_by_n = [float(np.fmax.reduce(r, axis=None)) for r in ratios]
    best = max(sup_by_n)
    floor = _near_max_floor(best)
    n = next(n for n, s in enumerate(sup_by_n, 1) if s >= floor)
    row, c = divmod(int(np.argmax(ratios[n - 1] >= floor)), 2 * n + 1)
    slope, r2, verdict = _growth_verdict(sup_by_n)

    def reeval(wit: dict) -> float:
        n, i, j = int(wit["n"]), int(wit["i"]), int(wit["j"])
        itsc = annular_intersection(grid, i, n, j - 0.5)
        den = math.exp(rho * (n + i - j) * (p - eta)) * math.exp(2.0 * rho * n * eta)
        return w.values[i - 1] * itsc / (den * w.values[j - 1])

    return CheckReport(
        id="easy-check",
        constant=best,
        witness={"n": n, "i": row + 1, "j": row + 1 - n + c},
        verdict=verdict,
        slope=slope,
        r2=r2,
        meta={
            "p": p,
            "eta": eta,
            "n_max": n_max,
            "sup_by_n": sup_by_n,
            "certified_exponents": (p / (p + 1 - eta), p / (p + 1 - eta)),
            "skipped_pairs": skipped,
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
    _require(s >= 1.0, "s >= 1", s=s)
    grid = w.grid
    ms = maximal_s(w, s, n_max)
    hi = valid_upper(grid.j_max, n_max)
    ratios = ms.values[:hi] / w.values[:hi]
    k = _first_near_max(ratios)
    best = float(ratios.max())

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
    _require(p > 1, "p > 1", p=p)
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


def _level_set_numerators(
    w: Weight, block: np.ndarray, power: float, n_max: int, levels: np.ndarray
) -> np.ndarray:
    """l^power w({M f > l}) over M's valid window, for every column f of the
    (j_max x m) block (rows) and level l (columns)."""
    mf = _maximal_block(w.grid, block, n_max)
    window = (1, valid_upper(w.grid.j_max, n_max))
    return levels**power * _superlevel_mass(w, mf, window, levels)


def _weak_type_block(
    w: Weight, p: float, block: np.ndarray, n_max: int, levels: np.ndarray
) -> tuple:
    """weak_type_ratio's numerators l^p w({M f > l}) and denominators
    ||f||_{L^p(w)}^p for every column f of the block."""
    norms = (w.values * w.grid.measures) @ block**p
    return _level_set_numerators(w, block, p, n_max, levels), norms


def _fs_block(
    w: Weight, s: float, block: np.ndarray, k: int, n_max: int, levels: np.ndarray
) -> tuple:
    """fs_ratio's numerators l w({M f > l}) and denominators
    sum_j f_j G_j |Omega_j| over G's valid window, for every column f of the
    block; the comparison weight G is computed once for the block."""
    grid = w.grid
    if s > 1.0:
        g_vals = maximal_s(w, s, n_max).values
    else:
        g_vals = maximal_dis(w, n_max, iterations=k).values
    g_hi = valid_upper(grid.j_max, n_max, iterations=1 if s > 1.0 else k)
    dens = (g_vals[:g_hi] * grid.measures[:g_hi]) @ block[:g_hi]
    return _level_set_numerators(w, block, 1.0, n_max, levels), dens


def _level_set_sups(block_fn: Callable) -> np.ndarray:
    """Level-set quotient constants of every column of a block.

    block_fn(levels) is a block helper with all but its levels bound; the
    sup runs over _LAMBDA_GRID, and every denominator must be positive.
    """
    nums, dens = block_fn(_LAMBDA_GRID)
    return (nums / dens[:, None]).max(axis=1)


def _level_set_ratio(
    report_id: str, block_fn: Callable, ratios: np.ndarray, meta: dict
) -> CheckReport:
    """Report of a level-set quotient of one function.

    ratios are its quotients over _LAMBDA_GRID, from block_fn, a
    block helper bound to the one-column block of the function; the first
    maximizer is the witness.  reevaluate() calls block_fn at the witness
    level, recomputing every maximal function the quotient needs.
    """
    k = int(np.argmax(ratios))

    def reeval(wit: dict) -> float:
        nums, dens = block_fn(np.array([float(wit["lambda"])]))
        return float(nums[0, 0] / dens[0])

    return CheckReport(
        id=report_id,
        constant=float(ratios[k]),
        witness={"lambda": float(_LAMBDA_GRID[k])},
        verdict="pass" if np.isfinite(ratios[k]) else "fail",
        meta=meta,
        _reeval=reeval,
    )


def weak_type_ratio(
    w: Weight,
    p: float,
    f: RadialFunction,
    n_max: int = 25,
) -> CheckReport:
    """Weak-(p,p) quotient sup_l l^p w({Mf > l}) / ||f||_{L^p(w)}^p.

    The sup runs over _LAMBDA_GRID; the first maximizing level is the
    witness.
    """
    _require(p >= 1, "p >= 1", p=p)
    block_fn = partial(_weak_type_block, w, p, f.values[:, None], n_max)
    nums, norm_p = block_fn(_LAMBDA_GRID)
    if norm_p[0] == 0.0:
        meta = {"p": p, "degenerate": "zero function"}
        return _zero_report("weak-type", {"lambda": None}, "pass", meta)
    meta = {"p": p, "n_max": n_max, "window": (1, valid_upper(w.grid.j_max, n_max))}
    return _level_set_ratio("weak-type", block_fn, nums[0] / norm_p[0], meta)


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
    _require(p >= 1, "p >= 1", p=p)
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
    _require(s >= 1.0, "s >= 1", s=s)
    block_fn = partial(_fs_block, w, s, f.values[:, None], k, n_max)
    nums, den = block_fn(_LAMBDA_GRID)
    support_hi = int(np.max(np.nonzero(f.values)[0]) + 1) if np.any(f.values) else 0
    if den[0] == 0.0:
        verdict = "pass" if support_hi == 0 else "info"
        meta = {"s": s, "k": k, "degenerate": "zero denominator"}
        return _zero_report("fs-ratio", {"lambda": None}, verdict, meta)
    g_hi = valid_upper(w.grid.j_max, n_max, iterations=1 if s > 1.0 else k)
    meta = {"s": s, "k": k, "n_max": n_max, "g_window": (1, g_hi),
            "support_inside_window": support_hi <= g_hi}
    return _level_set_ratio("fs-ratio", block_fn, nums[0] / den[0], meta)


def _space_of(f: Union[VertexFunction, RadialFunction]) -> tuple:
    """The tree shape or grid a function lives on, as a comparable key."""
    if isinstance(f, VertexFunction):
        return (f.tree.k, f.tree.depth)
    return (f.grid.params, f.grid.j_max)


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
    whose maximal values are unaffected by truncation.  Every function
    must fit the backend and live on one tree shape or one grid (same space
    parameters and j_max), else UnsupportedError.
    """
    _require(1.0 < r <= p, "1 < r <= p", r=r, p=p)
    if len(functions) == 0:
        raise UnsupportedError("empty function list")
    if backend not in ("tree", "radial"):
        raise UnsupportedError(f"unknown backend {backend!r}")
    kind = VertexFunction if backend == "tree" else RadialFunction
    if not all(isinstance(f, kind) for f in functions):
        raise UnsupportedError(f"the {backend} backend takes {kind.__name__} inputs")
    if len({_space_of(f) for f in functions}) > 1:
        raise UnsupportedError("the functions must live on one tree shape or one grid")

    fmat = np.stack([f.values for f in functions])
    mu = np.ones(fmat.shape[1]) if backend == "tree" else functions[0].grid.measures

    def norm(mat: np.ndarray, keep: slice = slice(None)) -> float:
        """||(sum_n g_n^r)^(1/r)||_p over the annuli or vertices kept."""
        body = (mat**r).sum(axis=0) ** (1.0 / r)
        return float(np.dot(mu[keep], body[keep] ** p)) ** (1.0 / p)

    def maximal_norm() -> float:
        """The numerator, from freshly computed maximal functions."""
        if backend == "tree":
            mf, _ = _tree_maximal_block(functions[0].tree, fmat.T)
            # C order: norm then sums over the functions in list order
            return norm(np.ascontiguousarray(mf.T))
        grid = functions[0].grid
        mf = _maximal_block(grid, fmat.T, n_max)
        return norm(mf.T, slice(0, valid_upper(grid.j_max, n_max)))

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
