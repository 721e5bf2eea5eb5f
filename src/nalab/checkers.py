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

The level-set quotients l^p w({Mf > l}) / D(f) (weak-type, fs-ratio) have
one evaluation path, _level_set_quotients: it takes a (j_max x m) block
whose columns are maximal functions Mf and the denominators of their
functions f, computes the masses of their superlevel sets at every level in
one masked sum, and returns the quotients per column and level.  The
denominators come from _weak_type_dens (the L^p(w) norm to the p) and
_fs_dens (the pairing with the comparison weight G, computed once per
block).  weak_type_ratio and fs_ratio are its m = 1 case, with Mf from
radialops._maximal_block, which their reevaluate() calls again; the
divergence sequences in experiments pass all their indicators as one block,
with the maximal functions read from the geometry's table
(radialops._indicator_maxima).  weak_type_ratio, strong_type_ratio and
fs_ratio refuse an f on another grid than w's (radialops._require_same_grid).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, GridRangeError, UnsupportedError
from .errors import require_index, require_index_set, require_integer
from .fitting import fit_linear, fit_log_slope
from .geometry import SpaceParams, _kernel_stack, annular_intersection, density, valid_upper
from .radialops import (
    RadialFunction,
    _maximal_block,
    _require_same_grid,
    _superlevel_mass,
    maximal_dis,
    maximal_s,
)
from .treelab import VertexFunction, _tree_maximal_block
from .weights import Weight, _annuli_mass, weight_mass

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


@dataclass(frozen=True, eq=False)
class SetFamily:
    """Test sets of annulus indices, all inside a fixed window.

    Each set is gated once here and stored sorted, without repeats and
    read-only, so the checkers read its masses without gating it again.
    The family is immutable: sets is a tuple, and its support is computed
    on first use and kept.
    """

    sets: Sequence[np.ndarray]
    label: str
    window: tuple

    def __post_init__(self):
        lo, hi = self.window
        if not self.sets:
            raise UnsupportedError("set family is empty")
        sets = tuple(require_index_set(s, lo, hi, "annulus") for s in self.sets)
        if any(s.size == 0 for s in sets):
            raise UnsupportedError("set family contains an empty set")
        for s in sets:
            s.flags.writeable = False
        object.__setattr__(self, "sets", sets)

    @functools.cached_property
    def support(self) -> tuple:
        """(lo, hi, member, ind): the support columns lo..hi - 1, 0-based,
        from the least first annulus of the sets to the largest last one
        (sets are sorted), and the read-only (sets x columns) 0/1 membership
        matrix, as bools (member) and as floats (ind)."""
        lo, hi = min(s[0] for s in self.sets) - 1, max(s[-1] for s in self.sets)
        member = np.zeros((len(self.sets), hi - lo), dtype=bool)
        rows = np.repeat(np.arange(len(self.sets)), [s.size for s in self.sets])
        member[rows, np.concatenate(self.sets) - 1 - lo] = True
        ind = member.astype(float)
        for arr in (member, ind):
            arr.setflags(write=False)
        return int(lo), int(hi), member, ind

    @classmethod
    def singletons(cls, window: tuple) -> "SetFamily":
        return cls(_singleton_sets(*window), "singletons", window)

    @classmethod
    def dyadic_blocks(cls, window: tuple) -> "SetFamily":
        """Contiguous blocks {j : 2^a <= j < 2^(a+1)} clipped to the window."""
        return cls(_dyadic_sets(*window), "dyadic-blocks", window)

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
        sets = _singleton_sets(*window) + _dyadic_sets(*window)
        return cls(sets, "singletons+dyadic", window)


def _singleton_sets(lo: int, hi: int) -> List[np.ndarray]:
    return [np.array([j]) for j in range(lo, hi + 1)]


def _dyadic_sets(lo: int, hi: int) -> List[np.ndarray]:
    """The nonempty blocks [2^a, 2^(a+1)) clipped to lo..hi, for every 2^a <= hi."""
    ends = [(max(2**a, lo), min(2 ** (a + 1) - 1, hi)) for a in range(int(hi).bit_length())]
    return [np.arange(a, b + 1) for a, b in ends if a <= b]


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
    if isinstance(obj, (np.ndarray, np.generic)):
        # numpy arrays and scalars of every kind (bool included) as Python values
        return obj.tolist()
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


def _require_finite_mass(total: float, quantity: str, step: float, j_max: int):
    """Refuse a cell-mass total beyond the float range.

    The terms are nonnegative: a finite total bounds every partial sum.
    """
    if not math.isfinite(total):
        raise DomainError(
            f"ap-loc at step {step} on j_max {j_max}: the {quantity} mass of "
            f"[0, {j_max}] overflows the float range"
        )


class _ApLocCells(NamedTuple):
    """The geometry-only part of an ap-loc sweep at one step; arrays read-only.

    dmu holds the cell masses; bounds the cell boundaries the scan reads,
    ascending; lo and hi the positions in bounds of every interval's first
    and end boundary, one segment per interval length in _AP_LOC_LENGTHS
    order, and mass every interval's measure mass, the difference of the
    running measure at its two boundaries; cuts[b] and cuts[b + 1] the
    positions of the boundaries that end in cell block b, (b B, (b + 1) B]
    with B = _AP_LOC_BLOCK.
    """

    dmu: np.ndarray
    bounds: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mass: np.ndarray
    cuts: np.ndarray


# cells per block of ap-loc's per-weight arrays: 64 KB of floats, and 128 KB
# for the complex running sums, glibc's initial mmap threshold, which the
# first freed mapping raises: a warm call maps or faults in no block
_AP_LOC_BLOCK = 8192


# kept apart from the geometry record, which is one per space: a sweep's hot
# set is the 4 default steps at one j_max plus a cell on another grid, and a
# smaller LRU evicts, cyclically, exactly the step needed next
@functools.lru_cache(maxsize=8)
def _ap_loc_cells(params: SpaceParams, j_max: int, step: float) -> _ApLocCells:
    """Cell masses dmu = density(t) h at the midpoints t of width h = step/8
    on [0, j_max], the scan plan of the intervals of every length, whose
    starts are the multiples of step, and their measure masses (_ApLocCells).

    They depend on the geometry and the step alone, so every weight and p
    swept at one (space, j_max, step) shares them.  A DomainError (a mass
    beyond the float range) is not cached; a length that spans no cell or
    more than all of them has no segment, and the sweep refuses it.
    """
    h = step / 8.0
    n_cells = int(round(j_max / h))
    with np.errstate(over="ignore"):
        dmu = density(params, (np.arange(n_cells) + 0.5) * h) * h
        cum = np.zeros(n_cells + 1)
        np.cumsum(dmu, out=cum[1:])
    _require_finite_mass(cum[-1], "measure", step, j_max)
    stride = max(1, int(round(step / h)))
    starts = np.arange(0, n_cells + 1, stride)
    read = np.zeros(n_cells + 1, dtype=bool)
    firsts, ends = [starts[:0]], [starts[:0]]
    for length in _AP_LOC_LENGTHS:
        span = int(round(length / h))
        if 1 <= span <= n_cells:
            firsts.append(starts[: (n_cells - span) // stride + 1])
            ends.append(firsts[-1] + span)
            read[firsts[-1]] = read[ends[-1]] = True
    bounds = np.flatnonzero(read)
    first, end = np.concatenate(firsts), np.concatenate(ends)
    edges = np.append(np.arange(0, n_cells, _AP_LOC_BLOCK), n_cells)
    cells = _ApLocCells(
        dmu, bounds, np.searchsorted(bounds, first), np.searchsorted(bounds, end),
        cum[end] - cum[first], np.searchsorted(bounds, edges, "right"),
    )
    for arr in cells:
        arr.setflags(write=False)
    return cells


def _ap_loc_sweep(w: Weight, p: float, step: float) -> tuple:
    """One interval sweep at quadrature resolution step/8; returns (sup, witness).

    The weight's cell masses w dmu and w^(-1/(p-1)) dmu are the real and
    imaginary parts of one complex array, taken in blocks of _AP_LOC_BLOCK
    cells, so one complex running sum carries both (complex addition adds
    the parts apart, so each part is the real running sum bit for bit),
    kept only at the boundaries the scan reads; an interval's two sums are
    one complex difference there.  Refusals keep their order: the profile,
    then the w mass, then the dual mass, then each length's products, whose
    argmax finds a nan or an inf first.  The sup is the largest product;
    the witness the first interval within _TIE_REL of it, lengths in
    _AP_LOC_LENGTHS order and starts ascending.
    """
    grid = w.grid
    cells = _ap_loc_cells(grid.params, grid.j_max, step)
    h = step / 8.0
    n_cells = cells.dmu.size
    cum = np.zeros(cells.bounds.size, dtype=complex)
    z = np.empty(min(n_cells, _AP_LOC_BLOCK), dtype=complex)
    total = 0j
    bad_profile = False
    for b, first in enumerate(range(0, n_cells, _AP_LOC_BLOCK)):
        block = slice(first, min(first + _AP_LOC_BLOCK, n_cells))
        wv = w.profile(np.arange(block.start + 0.5, block.stop) * h)
        # refused once the whole profile is taken, so that its own errors
        # come first; until then its nan and inf pass silently.  min and max
        # propagate nan, so one pair of reductions refuses nan too
        bad_profile = bad_profile or not (wv.min() > 0 and wv.max() < math.inf)
        dmu = cells.dmu[block]
        zb = z[: dmu.size]
        out = slice(cells.cuts[b], cells.cuts[b + 1])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.multiply(wv, dmu, out=zb.real)
            np.multiply(wv ** (-1.0 / (p - 1.0)), dmu, out=zb.imag)
            # the carry joins the first cell before the sum, so block by
            # block the sums are those of one pass over all cells
            zb[0] += total
            np.cumsum(zb, out=zb)
        cum[out] = zb[cells.bounds[out] - (first + 1)]
        total = zb[-1]
    if bad_profile:
        raise DomainError("profile must be positive and finite on the ray")
    _require_finite_mass(total.real, "w", step, grid.j_max)
    _require_finite_mass(total.imag, "dual w^(-1/(p-1))", step, grid.j_max)

    stride = max(1, int(round(step / h)))
    prods, sups = [], []
    segment = 0
    for length in _AP_LOC_LENGTHS:
        span = int(round(length / h))
        if span < 1 or span > n_cells:
            raise DomainError(
                f"ap-loc at step {step} on j_max {grid.j_max} has no interval of "
                f"length {length}: it spans {span} of {n_cells} cells of width {h}"
            )
        count = (n_cells - span) // stride + 1
        part = slice(segment, segment + count)
        segment += count
        mass = cells.mass[part]
        with np.errstate(over="ignore", invalid="ignore"):
            d = cum[cells.hi[part]]
            d -= cum[cells.lo[part]]  # in place: one complex temporary fewer
            prod = (d.real / mass) * (d.imag / mass) ** (p - 1.0)
        k = int(np.argmax(prod))  # argmax picks the first nan, if any
        if not math.isfinite(prod[k]):
            start = k * stride * h
            raise DomainError(
                f"ap-loc at step {step} on j_max {grid.j_max}: the product on "
                f"[{start:.6g}, {start + length:.6g}] leaves the float range"
            )
        prods.append(prod)
        sups.append(float(prod[k]))
    best = max(sups)
    floor = _near_max_floor(best)
    i = next(i for i, s in enumerate(sups) if s >= floor)
    start = int(np.argmax(prods[i] >= floor)) * stride * h
    witness = {"start": float(start), "length": float(_AP_LOC_LENGTHS[i]), "step": float(step)}
    return best, witness


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
    the singularity).  Requires a continuum profile, and a step and grid at
    which every length spans at least one quadrature cell and fits on the
    ray, else DomainError.

    The cell masses density(t) h and every interval's measure mass depend
    on the geometry and the step alone: they are computed once per (space,
    j_max, step), with the scan plan, and shared by every weight and p
    (_ap_loc_cells).  The weight's own masses are recomputed per call, both
    in one complex running sum, in blocks of _AP_LOC_BLOCK cells whose sums
    carry over, so for a profile computed point by point the sweep equals
    two real passes over all cells bit for bit.  A mass of the measure, of
    w or of w^(-1/(p-1)) over [0, j_max] or an interval's product that
    leaves the float range is a DomainError, not a sup of inf or nan.
    reevaluate() recomputes the witness interval's masses, density
    included, without the shared cells.
    """
    require_integer(refinements, "refinements")
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
    verdict = "pass" if drift <= 0.2 else "fail"

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


def _split_inf(x: np.ndarray) -> tuple:
    """x with its infinite entries zeroed, and their mask (None if none).

    In a product with a 0/1 matrix an infinite entry must make the entries
    it enters inf; left in, its 0 * inf terms would make them nan instead.
    """
    inf = np.isinf(x)
    if not inf.any():
        return x, None
    return np.where(inf, 0.0, x), inf


# the default family of a window: it depends on the window alone, so every
# weight, p and exponent checked on it shares it and its support matrices; a
# pass of the reproduce ids and sweeps reads a handful of windows
@functools.lru_cache(maxsize=8)
def _standard_family(window: tuple) -> SetFamily:
    return SetFamily.standard(window)


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
    with w(F)^(1 - alpha/p), multiplied in that order.  S, the raw kernel
    and w are cut to the support columns lo..hi - 1, from the first to the
    last annulus any set holds: an entry outside them never enters a pair.
    S and the columns depend on the family alone and are read from its
    cached SetFamily.support.  Without a family the check takes the
    standard family of the trusted window (1, j_max - n_max - 1) from
    _standard_family, built and gated once per window and shared by every
    weight, p and exponent pair.
    Only the kernel-times-w slice and the intermediate product can hold
    inf (an overflowed pair mass or sum); each is scanned before it enters
    a product with S, and its inf entries make the entries they enter inf.
    Pairs whose denominator is zero or not finite are left out and counted
    in skipped_pairs.  The loop keeps one scale's temporaries at a time: a
    product batched over scales, measured against it, paged in more memory
    per call for a gain of a few percent.  The witness is the first strict
    maximum in (n, E, F) order: the first row-major maximum of a scale
    replaces the best only when it is strictly larger.  reevaluate()
    recomputes the witness pair's w_j P_n(i, j) from the kernel formula on
    the gathered annuli and sums them, independently of the kernel stack
    and of the matrix product.
    """
    grid = w.grid
    # the default family fills the trusted window (1, j_max - n_max - 1)
    n_max = require_index(n_max, 1, grid.j_max - (2 if family is None else 0), "n_max")
    if family is None:
        family = _standard_family((1, valid_upper(grid.j_max, n_max)))
    # SetFamily gated its sets against its window; the window must fit the grid
    require_index(family.window, 1, grid.j_max, "family window")
    two_rho = 2.0 * grid.params.rho
    sets = family.sets
    lo, hi, member, ind = family.support

    best, witness = -np.inf, None
    sup_by_n = []
    skipped = 0
    # the raw (unscaled) kernels on the support, taken once
    raw, _ = _kernel_stack(grid, n_max, normalize=False)
    raw, w_sup = raw[:, lo:hi, lo:hi], w.values[lo:hi]
    # an overflowed pair mass, or a sum of them, makes its pairs infinite;
    # a zero or overflowed denominator, as from a set mass that overflows,
    # skips its pairs, masked below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the scalar pow that reevaluate() uses: numpy's vectorized pow can
        # differ from it in the last bit, enough to reorder exact ties
        mass = [_annuli_mass(w, s) for s in sets]
        m_e = np.array([m ** (alpha / p) for m in mass])
        m_f = np.array([m ** (1.0 - alpha / p) for m in mass])
        e_lo, e_hi, f_lo, f_hi = (float(x) for x in (m_e.min(), m_e.max(), m_f.min(), m_f.max()))
        for n in range(1, n_max + 1):
            # Q contributions w_j P_n(i, j)
            pair_w, inf = _split_inf(raw[n - 1] * w_sup)
            q = ind @ pair_w
            if inf is not None:
                q[member @ inf] = np.inf
            q, inf = _split_inf(q)
            q = q @ ind.T
            if inf is not None:
                q[inf @ member.T] = np.inf
            grow = math.exp(two_rho * beta * n)
            d = np.multiply.outer(grow * m_e, m_f)
            vals = q / d
            # rounding is monotone, so the least and largest entries of d are
            # the products of the least and largest factors; a 0 * inf entry
            # needs a zero factor, which makes the least product 0 or nan
            if not (grow * e_lo * f_lo > 0.0 and grow * e_hi * f_hi < math.inf):
                bad = ~((d > 0.0) & (d < np.inf))
                skipped += int(np.count_nonzero(bad))
                vals[bad] = -np.inf
            e, f = divmod(int(np.argmax(vals)), len(sets))
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
    denominator's e^(rho (n + i - j)(p - eta)) depend on k = n + i - j
    alone: both are computed once per call over k = 2 n_max .. 0, and each
    scale slices its last 2n + 1 entries.  Ratios that are not finite score
    0 and are counted in skipped_pairs.
    """
    _require(eta < 1.0, "p and tilt eta < 1", p=p, eta=eta)
    grid = w.grid
    n_max = require_index(n_max, 1, grid.j_max, "n_max")
    rho = grid.params.rho
    pad = np.full(n_max, np.nan)
    w_js = sliding_window_view(np.concatenate((pad, w.values, pad)), 2 * n_max + 1)
    clamps = np.minimum(grid.measures, grid.volumes[:n_max, None])  # min(m_i, V(n))

    ratios, skipped = [], 0  # per scale n, nan off the grid
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the caps and tilts of k = n + i - j = 2 n_max .. 0; scale n reads
        # the last 2n + 1, its columns' k = 2n .. 0
        k = np.arange(2 * n_max, -1, -1)
        caps, tilts = np.exp(rho * (k + 0.5)), np.exp(rho * k * (p - eta))
        for n in range(1, n_max + 1):
            cols = slice(2 * (n_max - n), None)
            itsc = np.minimum(clamps[n - 1, :, None], caps[cols])
            den = tilts[cols] * math.exp(2.0 * rho * n * eta)
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
    A positive rate is the classical-condition failure detector.  The
    largest ball reaches annulus 60: a grid with j_max < 60 would truncate
    it, and is refused with GridRangeError.  The intersections of all 26
    balls come from one annular_intersection call, a (26 x j_max) table;
    reevaluate() recomputes the witness ball's row by a call of its own.
    """
    _require(p > 1, "p > 1", p=p)
    grid = w.grid
    js = list(_CLASSICAL_AP_RADII)
    # B(x_j, j) reaches distance 2j - 1/2, inside annulus 2j
    if grid.j_max < 2 * js[-1]:
        raise GridRangeError(
            f"classical-ap balls reach annulus {2 * js[-1]}, past j_max={grid.j_max}"
        )
    cols = np.arange(1, grid.j_max + 1)
    dual = w.values ** (-1.0 / (p - 1.0))

    def product(pieces: np.ndarray, j: int) -> float:
        """The product on B(x_j, j), from its intersections with the annuli."""
        vol = grid.ball_volume_at(j)
        avg_w = float(np.dot(pieces, w.values)) / vol
        # annuli outside the ball add nothing, also where the dual overflowed
        avg_d = float(np.dot(pieces, np.where(pieces > 0, dual, 0.0))) / vol
        return avg_w * avg_d ** (p - 1.0)

    # one row of intersections per ball
    radii = np.array(js)[:, None]
    table = annular_intersection(grid, cols, radii, radii - 0.5)
    prods = np.array([product(pieces, j) for pieces, j in zip(table, js)])
    k = _first_near_max(prods)
    slope, r2, verdict = _growth_verdict(prods, js)

    def reeval(wit: dict) -> float:
        j = int(wit["j"])
        return product(annular_intersection(grid, cols, j, j - 0.5), j)

    return CheckReport(
        id="classical-ap",
        constant=float(prods.max()),
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


def _level_set_quotients(
    w: Weight, mf: np.ndarray, power: float, n_max: int, dens: np.ndarray, levels=_LAMBDA_GRID
) -> np.ndarray:
    """l^power w({M f > l}) / den over M's valid window, for every column
    M f of the (j_max x m) block mf of maximal functions at truncation n_max
    (rows), with the denominator den of f in dens, and every level l
    (columns).

    A zero denominator gives inf or nan without a warning; callers report
    it before reading the quotients.
    """
    window = (1, valid_upper(w.grid.j_max, n_max))
    nums = levels**power * _superlevel_mass(w, mf, window, levels)
    with np.errstate(divide="ignore", invalid="ignore"):
        return nums / dens[:, None]


def _weak_type_dens(w: Weight, p: float, block: np.ndarray) -> np.ndarray:
    """weak_type_ratio's denominators ||f||_{L^p(w)}^p, one per column f."""
    return (w.values * w.grid.measures) @ block**p


def _fs_dens(w: Weight, s: float, block: np.ndarray, k: int, n_max: int) -> np.ndarray:
    """fs_ratio's denominators sum_j f_j G_j |Omega_j| over G's valid window,
    one per column f; the comparison weight G is computed once per block."""
    grid = w.grid
    if s > 1.0:
        g_vals = maximal_s(w, s, n_max).values
    else:
        g_vals = maximal_dis(w, n_max, iterations=k).values
    g_hi = valid_upper(grid.j_max, n_max, iterations=k)
    return (g_vals[:g_hi] * grid.measures[:g_hi]) @ block[:g_hi]


def _level_set_ratio(
    report_id: str, ratios: np.ndarray, quotients: Callable, meta: dict
) -> CheckReport:
    """Report of a level-set quotient of one function.

    ratios are its quotients over _LAMBDA_GRID; the constant is their sup
    and the witness the first level within _TIE_REL of it.  quotients(levels)
    recomputes them at any positive levels through _level_set_quotients,
    and reevaluate() calls it at the witness level, recomputing every
    maximal function the quotient needs.
    """
    k = _first_near_max(ratios)
    best = float(ratios.max())

    def reeval(wit: dict) -> float:
        return float(quotients(np.array([float(wit["lambda"])]))[0, 0])

    return CheckReport(
        id=report_id,
        constant=best,
        witness={"lambda": float(_LAMBDA_GRID[k])},
        verdict="pass" if np.isfinite(best) else "fail",
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
    _require_same_grid(w, f)
    block = f.values[:, None]
    norm_p = _weak_type_dens(w, p, block)
    mf = _maximal_block(w.grid, block, n_max)  # gates n_max
    ratios = _level_set_quotients(w, mf, p, n_max, norm_p)[0]
    if norm_p[0] == 0.0:
        meta = {"p": p, "degenerate": "zero function"}
        return _zero_report("weak-type", {"lambda": None}, "pass", meta)
    meta = {"p": p, "n_max": n_max, "window": (1, valid_upper(w.grid.j_max, n_max))}
    return _level_set_ratio("weak-type", ratios, lambda levels: _level_set_quotients(
        w, _maximal_block(w.grid, block, n_max), p, n_max, _weak_type_dens(w, p, block),
        levels), meta)


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
    S(j_cut) / ||f||_{L^p(w)}^p.  The measured annuli 1 .. min(j_cut, the
    valid window's end) must reach past the start of the fit range, else
    GridRangeError.
    """
    _require(p >= 1, "p >= 1", p=p)
    require_integer(j_cut, "j_cut")
    _require_same_grid(w, f)
    grid = w.grid
    res = maximal_dis(f, n_max)
    hi = min(j_cut, res.window[1])
    lo_fit, hi_fit = _STRONG_FIT_RANGE[0], min(hi, _STRONG_FIT_RANGE[1])
    if hi_fit <= lo_fit:
        raise GridRangeError(
            f"strong-type measures annuli 1..{hi} (j_cut={j_cut}, window "
            f"{res.window}); the fit range {_STRONG_FIT_RANGE} needs 1..{lo_fit + 1}"
        )
    norm_p = float(np.dot(w.values * grid.measures, f.values**p))
    if norm_p == 0.0:
        meta = {"p": p, "degenerate": "zero function"}
        return _zero_report("strong-type", {"j_cut": j_cut}, "pass", meta)

    def terms_upto(j: int, mf: np.ndarray) -> np.ndarray:
        return mf[:j] ** p * w.values[:j] * grid.measures[:j]

    terms = terms_upto(hi, res.values)
    partial = np.cumsum(terms) / norm_p
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
    M^(k) w at s = 1, so k other than 1 is refused when s > 1; the
    denominator runs over G's valid window, and configurations whose
    denominator vanishes are recorded, not passed.
    """
    require_integer(k, "k")
    _require(
        s >= 1.0 and k >= 1 and (s == 1.0 or k == 1),
        "s >= 1 and k >= 1, with k = 1 when s > 1", s=s, k=k,
    )
    _require_same_grid(w, f)
    block = f.values[:, None]
    den = _fs_dens(w, s, block, k, n_max)
    ratios = _level_set_quotients(w, _maximal_block(w.grid, block, n_max), 1.0, n_max, den)[0]
    support_hi = int(np.max(np.nonzero(f.values)[0]) + 1) if np.any(f.values) else 0
    if den[0] == 0.0:
        verdict = "pass" if support_hi == 0 else "info"
        meta = {"s": s, "k": k, "degenerate": "zero denominator"}
        return _zero_report("fs-ratio", {"lambda": None}, verdict, meta)
    g_hi = valid_upper(w.grid.j_max, n_max, iterations=k)
    meta = {"s": s, "k": k, "n_max": n_max, "g_window": (1, g_hi),
            "support_inside_window": support_hi <= g_hi}
    return _level_set_ratio("fs-ratio", ratios, lambda levels: _level_set_quotients(
        w, _maximal_block(w.grid, block, n_max), 1.0, n_max, _fs_dens(w, s, block, k, n_max),
        levels), meta)


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
