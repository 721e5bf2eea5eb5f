"""Checker tests.  Every measured constant was frozen from an oracle run and
is asserted at the precision it was recorded with; qualitative facts
(preconditions, verdicts, monotonicity, witness reproduction) are asserted
outright."""
import json
import math
import warnings

import nalab.checkers

import numpy as np
import pytest

from nalab.checkers import (
    CheckReport,
    SetFamily,
    check_ap_loc,
    check_classical_ap,
    check_easy_check,
    check_large_scale,
    check_msw,
    check_necessary,
    fs_ratio,
    strong_type_ratio,
    vector_valued_ratio,
    weak_type_ratio,
)
from nalab.errors import DomainError, GridRangeError, UnsupportedError
from nalab.geometry import (
    DEFAULT_SPACE,
    AnnularGrid,
    SpaceParams,
    annular_intersection,
    product_kernel,
)
from nalab.radialops import RadialFunction, maximal_dis
from nalab.treelab import TreeSpace, VertexFunction
from nalab.weights import Weight, WeightSpec, materialize, weight_mass

GRID40 = AnnularGrid(DEFAULT_SPACE, 40)
GRID60 = AnnularGrid(DEFAULT_SPACE, 60)
GRID80 = AnnularGrid(DEFAULT_SPACE, 80)
GRID120 = AnnularGrid(DEFAULT_SPACE, 120)

FROZEN_REL = 2e-4  # pins carry the precision they were printed with


def approx_frozen(x):
    return pytest.approx(x, rel=FROZEN_REL)


@pytest.fixture(scope="module")
def notstrong_reports():
    # the [20,60] strong fit needs Mf nonzero out to j = 60, hence deep
    # scales (n_max = 62) on a grid whose valid window still covers 60
    spec = WeightSpec.eta_product(WeightSpec.exp_strong(2.0))
    grid130 = AnnularGrid(DEFAULT_SPACE, 130)
    wk = weak_type_ratio(
        materialize(spec, GRID60), 2.0, RadialFunction.indicator(GRID60, [1])
    )
    st = strong_type_ratio(
        materialize(spec, grid130), 2.0, RadialFunction.indicator(grid130, [1]), n_max=62
    )
    return wk, st


@pytest.fixture(scope="module")
def fs_s1_reports():
    w = materialize(WeightSpec.exp_radial(-1.0), GRID120)
    curves = {}
    for k in (1, 2):
        curves[k] = {
            j: fs_ratio(w, 1.0, RadialFunction.indicator(GRID120, [j]), k=k)
            for j in range(10, 41, 5)
        }
    return curves


# ---------------------------------------------------------------- msw


def test_msw_exp_family_pins_and_stability():
    pins = {-0.3: 0.804900, -0.5: 1.000000, -1.0: 1.000000}
    for gamma, s in [(-0.3, 2.0), (-0.5, 2.0), (-1.0, 1.0)]:
        spec = WeightSpec.exp_radial(gamma)
        c60 = check_msw(materialize(spec, GRID60), s).constant
        c120 = check_msw(materialize(spec, GRID120), s).constant
        assert abs(c120 - c60) / c60 < 0.20, gamma
        assert c60 == approx_frozen(pins[gamma])


def test_msw_constant_weight():
    rep = check_msw(materialize(WeightSpec.constant(), GRID60), 2.0)
    assert rep.constant <= 4.0 and rep.verdict == "pass"


def test_msw_blows_up_outside_admissible_range():
    # gamma * s = -1.5 < -1: the sup grows rapidly as the scales deepen
    w = materialize(WeightSpec.exp_radial(-0.75), GRID60)
    c15 = check_msw(w, 2.0, n_max=15).constant
    c25 = check_msw(w, 2.0, n_max=25).constant
    assert c25 > 100.0 * c15


def test_msw_jacobi_v_analogues():
    pins = {-0.3: 6.424618, -0.45: 1.232613}
    for gamma, pin in pins.items():
        spec = WeightSpec.jacobi_v(gamma)
        c60 = check_msw(materialize(spec, GRID60), 2.0).constant
        c120 = check_msw(materialize(spec, GRID120), 2.0).constant
        assert abs(c120 - c60) / c60 < 0.20
        assert c60 == approx_frozen(pin)


def test_msw_rejects_s_below_one():
    with pytest.raises(DomainError):
        check_msw(materialize(WeightSpec.constant(), GRID60), 0.5)


# exponential weights: M_s w / w and the easy-check ratios climb to their sup
# and then sit on plateaus of values equal up to the last bits, which a
# rescaling of w moves; the first argmax jumped with every rescaling
TIED_CHECKS = {
    "msw exp-0.5 s2": (WeightSpec.exp_radial(-0.5), lambda w: check_msw(w, 2.0)),
    "msw exp-1 s1": (WeightSpec.exp_radial(-1.0), lambda w: check_msw(w, 1.0)),
    "easy-check exp-strong2 eta0": (
        WeightSpec.exp_strong(2.0), lambda w: check_easy_check(w, 2.0, 0.0)
    ),
    "easy-check exp-0.3 eta-1": (
        WeightSpec.exp_radial(-0.3), lambda w: check_easy_check(w, 2.0, -1.0)
    ),
}


@pytest.mark.parametrize("case", list(TIED_CHECKS))
def test_witness_ignores_last_bit_ties(case):
    spec, check = TIED_CHECKS[case]
    w = materialize(spec, GRID80)
    reports = [check(Weight(GRID80, w.values * c)) for c in (1.0, 1 + 2**-40, 1 + 2**-30, 3.0, 0.7)]
    assert len({json.dumps(rep.witness) for rep in reports}) == 1
    for rep in reports:
        # the constant stays the sup; the witness lies within 1e-12 of it
        assert rep.constant == max(rep.meta.get("sup_by_n", [rep.constant]))
        assert abs(rep.reevaluate() - rep.constant) <= 1e-12 * rep.constant


def test_witness_is_the_first_near_maximum():
    first = nalab.checkers._first_near_max
    assert first(np.array([0.5, 1.0 - 1e-11, 1.0 - 1e-13, 1.0, 1.0 + 2e-16])) == 2
    assert first(np.array([0.0, 2.0, np.inf, np.inf])) == 2
    assert first(np.zeros(3)) == 0


# each gate with a value it once let through: nan and inf compare like
# admissible numbers, strong_type_ratio had no p gate, and ap-loc crashed
# on a step or refinement count outside its domain
LEAKY_GATES = {
    "fs-ratio s nan": lambda w, f: fs_ratio(w, math.nan, f),
    "msw s inf": lambda w, f: check_msw(w, math.inf),
    "ap-loc p nan": lambda w, f: check_ap_loc(w, math.nan),
    "ap-loc step 0": lambda w, f: check_ap_loc(w, 2.0, step=0.0),
    "ap-loc refinements -1": lambda w, f: check_ap_loc(w, 2.0, refinements=-1),
    "necessary p nan": lambda w, f: check_necessary(w, math.nan),
    "easy-check eta nan": lambda w, f: check_easy_check(w, 2.0, math.nan),
    "easy-check eta -inf": lambda w, f: check_easy_check(w, 2.0, -math.inf),
    "weak-type p nan": lambda w, f: weak_type_ratio(w, math.nan, f),
    "strong-type p 0.5": lambda w, f: strong_type_ratio(w, 0.5, f),
    "strong-type p inf": lambda w, f: strong_type_ratio(w, math.inf, f),
    "large-scale p inf": lambda w, f: check_large_scale(w, math.inf, 0.5, 0.5),
    "classical-ap p inf": lambda w, f: check_classical_ap(w, math.inf),
    "vector-valued p inf": lambda w, f: vector_valued_ratio(
        math.inf, 2.0, [f], backend="radial"
    ),
}


@pytest.mark.parametrize("case", list(LEAKY_GATES))
def test_gates_reject_values_they_let_through(case):
    w = materialize(WeightSpec.exp_radial(-0.3), GRID60)
    with pytest.raises(DomainError, match="need finite"):
        LEAKY_GATES[case](w, RadialFunction.indicator(GRID60, [5]))


# ---------------------------------------------------------------- easy_check


def test_easy_check_strong_weight():
    rep80 = check_easy_check(materialize(WeightSpec.exp_strong(2.0), GRID80), 2.0, -1.0)
    rep120 = check_easy_check(materialize(WeightSpec.exp_strong(2.0), GRID120), 2.0, -1.0)
    assert rep80.verdict == "pass"
    assert abs(rep120.constant - rep80.constant) / rep80.constant < 0.20
    assert rep80.constant == approx_frozen(1.648721)


def test_easy_check_constant_weight():
    rep = check_easy_check(materialize(WeightSpec.constant(), GRID80), 2.0, 0.0)
    assert rep.verdict == "pass"
    assert rep.constant == approx_frozen(1.648721)


def test_easy_check_flags_supercritical_growth():
    w = materialize(WeightSpec.exp_radial(5.0), GRID60)
    rep = check_easy_check(w, 2.0, 0.0)
    assert rep.verdict == "fail"
    assert rep.slope == approx_frozen(8.0242)


def test_easy_check_spherical_analogue():
    rep = check_easy_check(materialize(WeightSpec.spherical_u(2.0), GRID80), 2.0, -1.0)
    assert rep.verdict == "pass"
    assert rep.constant == approx_frozen(1.707531)


def _easy_check_band_oracle(w, p, eta, n_max):
    """The easy-check sup by j_max x j_max band masks: annular_intersection
    on each scale's band in row-major (i, j) order, non-finite ratios as 0,
    and the witness the first near maximum over all scales concatenated."""
    grid, rho = w.grid, w.grid.params.rho
    ii = np.arange(1, grid.j_max + 1)
    I, J = np.meshgrid(ii, ii, indexing="ij")
    ratios = []
    with np.errstate(all="ignore"):
        for n in range(1, n_max + 1):
            band = np.abs(I - J) <= n
            itsc = annular_intersection(grid, I[band], n, J[band] - 0.5)
            den = np.exp(rho * (n + I[band] - J[band]) * (p - eta)) * math.exp(
                2.0 * rho * n * eta
            )
            vals = w.values[I[band] - 1] * itsc / (den * w.values[J[band] - 1])
            ratios.append(np.where(np.isfinite(vals), vals, 0.0))
    sup_by_n = [float(r.max()) for r in ratios]
    k = nalab.checkers._first_near_max(np.concatenate(ratios))
    starts = np.cumsum([0] + [r.size for r in ratios])
    n = int(np.searchsorted(starts, k, side="right"))
    band = np.abs(I - J) <= n
    pos = k - starts[n - 1]
    witness = {"n": n, "i": int(I[band][pos]), "j": int(J[band][pos])}
    return max(sup_by_n), sup_by_n, witness


EASY_CHECK_WEIGHTS = {
    "exp-strong2": WeightSpec.exp_strong(2.0),
    "exp+0.3": WeightSpec.exp_radial(0.3),
    "exp-0.3": WeightSpec.exp_radial(-0.3),
    "constant": WeightSpec.constant(),
    "spherical-u2": WeightSpec.spherical_u(2.0),
}
EASY_CHECK_ETA_P = [(eta, p) for eta in (-1.0, 0.0, 0.5) for p in (1.5, 2.0, 3.0)]


@pytest.mark.parametrize("weight", list(EASY_CHECK_WEIGHTS))
@pytest.mark.parametrize(
    "space", [DEFAULT_SPACE, SpaceParams(3.5, 1.0)], ids=["default", "fast"]
)
def test_easy_check_matches_band_oracle(space, weight):
    # one weight on 120 annuli, cut to each grid (annulus midpoints do not
    # depend on j_max); the 12 (j_max, n_max) cases take the nine (eta, p)
    # pairs in turn, n_max capped at j_max
    values = materialize(EASY_CHECK_WEIGHTS[weight], AnnularGrid(space, 120)).values
    offset = list(EASY_CHECK_WEIGHTS).index(weight)
    cases = [(j_max, n_max) for j_max in (30, 80, 120) for n_max in (1, 2, 25, 40)]
    for k, (j_max, n_max) in enumerate(cases):
        w = Weight(AnnularGrid(space, j_max), values[:j_max])
        eta, p = EASY_CHECK_ETA_P[(k + offset) % len(EASY_CHECK_ETA_P)]
        n_max = min(n_max, j_max)
        rep = check_easy_check(w, p, eta, n_max)
        got = (rep.constant, rep.meta["sup_by_n"], rep.witness)
        assert got == _easy_check_band_oracle(w, p, eta, n_max), (j_max, n_max, eta, p)


def test_easy_check_tie_matches_band_oracle():
    # 54 ratios lie within 1e-12 of the sup, which one later pair attains
    # exactly: the witness is the first of them, 5e-15 below the sup
    w = materialize(WeightSpec.exp_radial(-0.3), GRID80)
    rep = check_easy_check(w, 2.0, -1.0)
    assert (rep.constant, rep.meta["sup_by_n"], rep.witness) == _easy_check_band_oracle(
        w, 2.0, -1.0, 25
    )
    assert rep.constant * (1 - 1e-12) <= rep.reevaluate() < rep.constant


def _easy_check_dropped_scalar(w, p, eta, n_max):
    """Band pairs whose easy-check ratio is not finite, one pair at a time."""
    grid, rho = w.grid, w.grid.params.rho

    def exp(x):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    dropped = 0
    for n in range(1, n_max + 1):
        vn = grid.ball_volume_at(n)
        for i in range(1, grid.j_max + 1):
            for j in range(max(1, i - n), min(grid.j_max, i + n) + 1):
                itsc = min(grid.measures[i - 1], vn, exp(rho * (n + i - j + 0.5)))
                den = exp(rho * (n + i - j) * (p - eta)) * exp(2.0 * rho * n * eta)
                w_i, w_j = float(w.values[i - 1]), float(w.values[j - 1])
                try:
                    ratio = w_i * itsc / (den * w_j)
                except ZeroDivisionError:
                    ratio = math.nan
                dropped += not math.isfinite(ratio)
    return dropped


def test_easy_check_counts_dropped_ratios_without_warning():
    # den * w_j underflows to 0 on 90 pairs; they score 0, as before
    w = materialize(WeightSpec.exp_radial(-3.0), GRID120)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = check_easy_check(w, 2.0, -1.0)
        dropped = _easy_check_dropped_scalar(w, 2.0, -1.0, 25)
    assert rep.meta["skipped_pairs"] == dropped == 90
    assert (rep.constant, rep.meta["sup_by_n"], rep.witness) == _easy_check_band_oracle(
        w, 2.0, -1.0, 25
    )
    constant = check_easy_check(materialize(WeightSpec.constant(), GRID80), 2.0, 0.0)
    assert constant.meta["skipped_pairs"] == 0


# n_max values the pair checkers once took: easy-check crashed in max() on
# 0 and in range() on 2.0 (as did necessary), ran True as 1, and refused
# j_max + 1 only deep in annular_intersection
N_MAX_CHECKS = {
    "easy-check": lambda w, n: check_easy_check(w, 2.0, 0.0, n_max=n),
    "necessary": lambda w, n: check_necessary(w, 2.0, n_max=n),
    "large-scale": lambda w, n: check_large_scale(w, 2.0, 0.5, 0.5, n_max=n),
}
BAD_N_MAX = {
    "0": (0, GridRangeError),
    "2.0": (2.0, DomainError),
    "True": (True, DomainError),
    "j_max + 1": (41, GridRangeError),
}


@pytest.mark.parametrize("n_max", list(BAD_N_MAX))
@pytest.mark.parametrize("check", list(N_MAX_CHECKS))
def test_pair_checkers_gate_n_max(check, n_max):
    value, error = BAD_N_MAX[n_max]
    with pytest.raises(error, match="n_max"):
        N_MAX_CHECKS[check](materialize(WeightSpec.constant(), GRID40), value)


@pytest.mark.parametrize("n_max", [39, 40])
@pytest.mark.parametrize("check", ["necessary", "large-scale"])
def test_default_family_gate_names_n_max(check, n_max):
    # the default family's window (1, j_max - n_max - 1) is empty here; the
    # refusal names n_max and its range, not the family
    with pytest.raises(GridRangeError, match=r"n_max=\d+ outside 1\.\.38"):
        N_MAX_CHECKS[check](materialize(WeightSpec.constant(), GRID40), n_max)
    N_MAX_CHECKS[check](materialize(WeightSpec.constant(), GRID40), 38)


# ---------------------------------------------------------------- classical Ap


def test_classical_ap_constant_weight():
    rep = check_classical_ap(materialize(WeightSpec.constant(), GRID80), 2.0)
    prods = np.array(rep.meta["products"])
    assert rep.verdict == "pass" and abs(rep.slope) < 0.05
    assert prods.min() >= 1.0 - 1e-12 and prods.max() <= 16.0


def test_classical_ap_decaying_weight_diverges():
    rep = check_classical_ap(materialize(WeightSpec.exp_radial(-0.75), GRID80), 2.0)
    target = -2.0 * DEFAULT_SPACE.rho * (2.0 * (-0.75) + 1.0)
    assert rep.verdict == "fail"
    assert rep.slope == pytest.approx(target, rel=0.10)
    assert rep.slope == approx_frozen(0.999866)


def test_classical_ap_mild_decay_passes():
    rep = check_classical_ap(materialize(WeightSpec.exp_radial(-0.25), GRID80), 2.0)
    assert rep.verdict == "pass" and rep.slope <= 0.0


def test_classical_ap_overflowed_dual_fails():
    # w^(-2) overflows on the outer annuli: the balls reaching them have an
    # infinite product, which is a failure with no rate to fit
    w = materialize(WeightSpec.exp_radial(-3.0), GRID80)
    with np.errstate(over="ignore"):
        rep = check_classical_ap(w, 1.5)
        again = rep.reevaluate()
    prods = np.array(rep.meta["products"])
    assert np.isinf(prods).any() and np.isfinite(prods[0])
    assert rep.constant == np.inf and rep.verdict == "fail"
    assert rep.slope is None and rep.r2 is None
    assert rep.witness == {"j": 5 + int(np.argmax(np.isinf(prods)))}
    assert again == np.inf


# ---------------------------------------------------------------- local Ap


def test_ap_loc_constant_weight_is_exact():
    rep = check_ap_loc(materialize(WeightSpec.constant(), GRID80), 2.0)
    assert rep.constant == 1.0 and rep.verdict == "pass"


def test_ap_loc_decaying_weight():
    rep = check_ap_loc(materialize(WeightSpec.exp_radial(-0.75), GRID80), 2.0)
    sups = rep.meta["sup_by_step"]
    assert rep.verdict == "pass"
    assert abs(sups[1] - sups[0]) / abs(sups[1]) < 0.05  # stable under halving
    assert rep.constant == approx_frozen(1.497896)


def test_ap_loc_spherical_weight():
    # frozen from the scalar profile path this array path replaced
    grid20 = AnnularGrid(DEFAULT_SPACE, 20)
    w = materialize(WeightSpec.spherical_u(2.0), grid20)
    rep = check_ap_loc(w, 2.0, step=0.5, refinements=1)
    assert rep.constant == approx_frozen(2.073954)
    assert rep.witness == {"start": 18.0, "length": 2.0, "step": 0.25}


def test_ap_loc_flags_nonintegrable_singularity():
    # t^(-ell) at the origin: sups keep climbing under refinement
    singular = WeightSpec.custom(lambda t: min(t, 1.0) ** (-4.0))
    rep = check_ap_loc(materialize(singular, GRID80), 2.0)
    sups = rep.meta["sup_by_step"]
    assert rep.verdict == "fail"
    assert all(b > a for a, b in zip(sups, sups[1:]))
    for got, pin in zip(sups, (11.3293, 12.5437, 13.7569, 15.0172)):
        assert got == approx_frozen(pin)


def test_ap_loc_needs_a_profile():
    with pytest.raises(UnsupportedError):
        check_ap_loc(Weight(GRID80, np.ones(80)), 2.0)


# ---------------------------------------------------------------- large scale


def test_large_scale_strong_weight():
    rep80 = check_large_scale(materialize(WeightSpec.exp_radial(1.0), GRID80), 2.0, 0.5, 0.5)
    rep120 = check_large_scale(materialize(WeightSpec.exp_radial(1.0), GRID120), 2.0, 0.5, 0.5)
    assert rep80.verdict == "pass"
    assert abs(rep120.constant - rep80.constant) / rep80.constant < 0.20
    assert rep80.constant == approx_frozen(4.010196)


def test_large_scale_singleton_double_sum_oracle():
    # recompute the witness cell from the clamp formula, independently of the
    # checker's vectorized path
    w = materialize(WeightSpec.constant(), GRID80)
    fam = SetFamily.singletons((1, 40))
    rep = check_large_scale(w, 2.0, 0.5, 0.5, n_max=10, family=fam)
    wit = rep.witness
    n, E, F = wit["n"], wit["E"], wit["F"]
    meas, vols = GRID80.measures, GRID80.volumes
    rho = DEFAULT_SPACE.rho
    q = 0.0
    for i in E:
        for j in F:
            if abs(i - j) <= n + 1:
                q += min(
                    meas[i - 1] * meas[j - 1],
                    meas[i - 1] * vols[n - 1],
                    meas[j - 1] * vols[n - 1],
                    math.exp(rho * (n + i + j)),
                ) * w.values[j - 1]
    den = (
        math.exp(2 * rho * 0.5 * n)
        * sum(w.values[i - 1] * meas[i - 1] for i in E) ** 0.25
        * sum(w.values[j - 1] * meas[j - 1] for j in F) ** 0.75
    )
    assert rep.constant == pytest.approx(q / den, rel=1e-10)


def test_large_scale_exponent_monotonicity():
    w = materialize(WeightSpec.exp_radial(1.0), GRID80)
    sets = [s for s in SetFamily.standard((1, 40)).sets if weight_mass(w, s) >= 1.0]
    fam = SetFamily(sets, "singletons+dyadic|mass>=1.0", (1, 40))
    c_low = check_large_scale(w, 3.0, 1.0, 0.5, n_max=8, family=fam).constant
    c_high = check_large_scale(w, 3.0, 1.5, 0.8, n_max=8, family=fam).constant
    assert c_high <= c_low + 1e-12
    assert c_low == approx_frozen(21.216491)
    assert c_high == approx_frozen(15.684392)


def test_large_scale_rejects_beta_one():
    w = materialize(WeightSpec.exp_radial(1.0), GRID80)
    with pytest.raises(DomainError):
        check_large_scale(w, 2.0, 1.0, 1.0)


# ---------------------------------------------------------------- necessary


def test_necessary_decaying_weight():
    rep80 = check_necessary(materialize(WeightSpec.exp_radial(-1.0), GRID80), 2.0)
    rep120 = check_necessary(materialize(WeightSpec.exp_radial(-1.0), GRID120), 2.0)
    assert rep80.verdict == "pass"
    assert rep80.constant == approx_frozen(1.663849)
    assert rep120.constant == approx_frozen(1.688532)


def test_necessary_constant_weight():
    rep = check_necessary(materialize(WeightSpec.constant(), GRID80), 2.0)
    assert rep.verdict == "pass"
    assert rep.constant == approx_frozen(0.366759)


# ---------------------------------------------------------------- pair-measure core


def _pair_measure_loop_oracle(w, p, alpha, beta, n_max, family):
    """The pair-measure sup by a direct loop over (n, E, F): a gather and a
    sum per pair, the first strict maximum as witness."""
    mass = [weight_mass(w, s) for s in family.sets]
    two_rho = 2.0 * w.grid.params.rho
    best, witness, sup_by_n, skipped = -np.inf, None, [], 0
    for n in range(1, n_max + 1):
        qmat = product_kernel(w.grid, n, normalize=False).matrix * w.values
        sup_n = 0.0
        for E, mass_e in zip(family.sets, mass):
            for F, mass_f in zip(family.sets, mass):
                q = float(qmat[np.ix_(E - 1, F - 1)].sum())
                d = (
                    math.exp(two_rho * beta * n)
                    * mass_e ** (alpha / p)
                    * mass_f ** (1.0 - alpha / p)
                )
                if d == 0.0 or not math.isfinite(d):
                    skipped += 1
                    continue
                sup_n = max(sup_n, q / d)
                if q / d > best:
                    best = q / d
                    witness = {"n": n, "E": E.tolist(), "F": F.tolist()}
        sup_by_n.append(sup_n)
    return best, witness, sup_by_n, skipped


def _overflowing_weight(grid):
    # annulus 25's mass and pair masses overflow: every pair holding it has
    # an infinite denominator and is skipped, and the infinite entries must
    # not leak into the other pairs
    values = np.ones(grid.j_max)
    values[24] = 1e308
    return Weight(grid, values)


def _overflowing_sum_weight(grid):
    # annulus 10 holds mass 1e306: every pair mass stays finite, but from
    # n = 3 on some sums over a set overflow to inf inside the product
    values = np.ones(grid.j_max)
    values[9] = 1e306 / grid.measures[9]
    return Weight(grid, values)


@pytest.mark.parametrize("weight", ["exp+1", "overflow", "overflow-sum"])
@pytest.mark.parametrize("family", ["standard", "random-unions"])
@pytest.mark.parametrize("exponents", [None, (2.0, 0.5, 0.5)])
def test_pair_measure_matches_loop_oracle(weight, family, exponents):
    grid, n_max = GRID40, 8
    window = (1, grid.j_max - n_max - 1)
    if weight == "exp+1":
        w = materialize(WeightSpec.exp_radial(1.0), grid)
    elif weight == "overflow":
        w = _overflowing_weight(grid)
    else:
        w = _overflowing_sum_weight(grid)
    if family == "standard":
        fam = SetFamily.standard(window)
    else:
        fam = SetFamily.random_unions(window, seed=3, count=40)
    with np.errstate(over="ignore"):
        if exponents is None:
            p, alpha, beta = 2.0, 1.0, 1.0
            rep = check_necessary(w, p, n_max=n_max, family=fam)
        else:
            p, alpha, beta = exponents
            rep = check_large_scale(w, p, alpha, beta, n_max=n_max, family=fam)
        best, witness, sup_by_n, skipped = _pair_measure_loop_oracle(
            w, p, alpha, beta, n_max, fam
        )
    assert rep.constant == pytest.approx(best, rel=1e-12)
    assert rep.meta["sup_by_n"] == pytest.approx(sup_by_n, rel=1e-12)
    assert rep.meta["skipped_pairs"] == skipped
    if rep.witness != witness:
        # two pairs that tie to rounding (here the same sets at scales where
        # Q_n grows exactly like the denominator) may swap places; the
        # checker's witness must then attain the oracle's sup
        assert rep.reevaluate() == pytest.approx(best, rel=1e-12)
    if weight == "overflow":
        assert skipped > 0 and math.isfinite(best)


def test_pair_measure_overflow_raises_no_warning():
    # on this fast-growing space the raw pair masses overflow outside the
    # family's annuli and the necessary check's denominators overflow too;
    # the checkers handle both, so neither may warn
    w = materialize(WeightSpec.exp_radial(1.0), AnnularGrid(SpaceParams(3.5, 1.0), 80))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        necessary = check_necessary(w, 2.0)
        large = check_large_scale(w, 2.0, 0.5, 0.5)
    assert necessary.meta["skipped_pairs"] > 0
    for rep in (necessary, large):
        assert math.isfinite(rep.constant) and rep.verdict == "pass"
        assert rep.reevaluate() == pytest.approx(rep.constant, rel=1e-10)


def test_pair_measure_infinite_sup_fails():
    # an infinite per-scale sup means the condition is unbounded: no rate
    # fit, verdict "fail", and the witness pair recomputes to inf
    with np.errstate(over="ignore"):
        rep = check_necessary(_overflowing_sum_weight(GRID40), 2.0, n_max=8)
        assert rep.reevaluate() == math.inf
    assert rep.constant == math.inf and rep.verdict == "fail"
    assert rep.slope is None and rep.r2 is None
    assert rep.witness["n"] == 4
    assert rep.meta["sup_by_n"][:3] == pytest.approx([2.03e147, 7.10e147, 7.95e147], rel=1e-2)
    assert rep.meta["sup_by_n"][3:] == [math.inf] * 5


@pytest.mark.parametrize("checker", ["necessary", "large-scale"])
def test_pair_measure_reevaluate_skips_the_kernel(monkeypatch, checker):
    # reevaluate() must rebuild the witness pair's masses from the kernel
    # formula, not read back the cached kernel the check itself used
    w = materialize(WeightSpec.exp_radial(1.0 if checker == "large-scale" else -1.0), GRID80)
    if checker == "necessary":
        rep = check_necessary(w, 2.0)
    else:
        rep = check_large_scale(w, 2.0, 0.5, 0.5)

    def refuse(*args, **kwargs):
        raise AssertionError("reevaluate() read the kernel stack")

    monkeypatch.setattr(nalab.checkers, "_kernel_stack", refuse)
    monkeypatch.setattr(nalab.geometry, "_kernel_stack", refuse)
    monkeypatch.setattr(nalab.geometry, "product_kernel", refuse)
    assert abs(rep.reevaluate() - rep.constant) <= 1e-10 * abs(rep.constant)


def test_one_kernel_stack_build_per_scale_loop(monkeypatch):
    # a maximal function or pair-measure check takes every scale's kernel
    # from one stack build; repeats on the grid reuse it, a larger n_max
    # rebuilds once, at twice the scales, capped at the largest the grid
    # allows
    builds = []
    real = nalab.geometry._build_kernel_stack

    def counting(grid, s, normalize):
        builds.append((s, normalize))
        return real(grid, s, normalize)

    monkeypatch.setattr(nalab.geometry, "_build_kernel_stack", counting)
    grid = AnnularGrid(DEFAULT_SPACE, 80)
    w = materialize(WeightSpec.exp_radial(-0.3), grid)
    maximal_dis(w, 25)
    assert builds == [(25, True)]
    maximal_dis(w, 25)
    check_msw(w, 2.0, 25)
    assert builds == [(25, True)]
    check_necessary(w, 2.0, 25)
    assert builds == [(25, True), (25, False)]
    maximal_dis(w, 30)
    assert builds == [(25, True), (25, False), (38, True)]


# ---------------------------------------------------------------- weak/strong


def test_weak_but_not_strong(notstrong_reports):
    wk, st = notstrong_reports
    assert wk.verdict == "pass"
    assert wk.constant == approx_frozen(0.062500)
    assert st.verdict == "fail" and st.slope >= 0.5
    assert st.slope == approx_frozen(0.977260)
    assert st.r2 == approx_frozen(0.999987)


def test_weak_strong_constant_weight():
    grid = AnnularGrid(DEFAULT_SPACE, 130)
    w = materialize(WeightSpec.constant(), grid)
    f1 = RadialFunction.indicator(grid, [1])
    wk = weak_type_ratio(w, 2.0, f1)
    st = strong_type_ratio(w, 2.0, f1, n_max=62)
    assert wk.verdict == "pass"
    assert st.verdict == "pass" and abs(st.slope) < 0.05
    z = RadialFunction.zeros(grid)
    assert weak_type_ratio(w, 2.0, z).constant == 0.0
    assert strong_type_ratio(w, 2.0, z).constant == 0.0


# ---------------------------------------------------------------- fs


def test_fs_s2_uniformly_bounded():
    w = materialize(WeightSpec.exp_radial(-1.0), GRID80)
    cs = np.array(
        [fs_ratio(w, 2.0, RadialFunction.indicator(GRID80, [j])).constant for j in range(1, 31)]
    )
    assert np.all(np.isfinite(cs)) and cs.min() > 0
    assert cs.max() == approx_frozen(0.439880)


def test_fs_s1_diverges_linearly(fs_s1_reports):
    for k in (1, 2):
        cj = {j: rep.constant for j, rep in fs_s1_reports[k].items()}
        js = sorted(cj)
        assert all(cj[a] <= cj[b] for a, b in zip(js, js[1:]))
        assert cj[40] / cj[10] >= 3.0
        assert cj[40] == approx_frozen(3.3750)
        band = [cj[j] / j for j in js]
        assert max(band) / min(band) < 2.0


def test_fs_s_sweep_monotone():
    w = materialize(WeightSpec.exp_radial(-1.0), GRID80)
    f5 = RadialFunction.indicator(GRID80, [5])
    col = [fs_ratio(w, s, f5).constant for s in (1.1, 1.25, 1.5, 2.0)]
    assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))
    for got, pin in zip(col, (0.627123, 0.422662, 0.187038, 0.049651)):
        assert got == approx_frozen(pin)


def test_fs_consistent_with_weak_at_constant_weight():
    w = materialize(WeightSpec.constant(), GRID80)
    f5 = RadialFunction.indicator(GRID80, [5])
    c_fs = fs_ratio(w, 2.0, f5).constant
    c_wk = weak_type_ratio(w, 1.0, f5).constant
    assert 0.25 <= c_fs / c_wk <= 4.0
    assert c_fs == approx_frozen(0.286935)
    assert c_wk == approx_frozen(0.286662)
    assert fs_ratio(materialize(WeightSpec.exp_radial(-1.0), GRID80), 2.0,
                    RadialFunction.zeros(GRID80)).constant == 0.0


# ---------------------------------------------------------------- vector valued


def test_vector_valued_radial():
    f5 = RadialFunction.indicator(GRID80, [5])
    rep = vector_valued_ratio(2.0, 2.0, [f5], backend="radial")
    assert rep.constant == approx_frozen(0.361660)
    with pytest.raises(DomainError):
        vector_valued_ratio(2.0, 3.0, [f5], backend="radial")  # r > p


def test_vector_valued_tree_band():
    tree = TreeSpace(2, 8)
    consts = []
    for seed in range(10):
        rng = np.random.default_rng(1234 + seed)
        funcs = [
            VertexFunction.dirac(tree, rng.integers(0, tree.size, size=10))
            for _ in range(20)
        ]
        consts.append(vector_valued_ratio(3.0, 2.0, funcs, backend="tree").constant)
    consts = np.array(consts)
    assert consts.max() / consts.min() < 2.0
    assert consts.min() == approx_frozen(1.089902)
    assert consts.max() == approx_frozen(1.104843)
    zrep = vector_valued_ratio(3.0, 2.0, [VertexFunction.zeros(tree)], backend="tree")
    assert zrep.constant == 0.0 and zrep.verdict == "pass"


def _dirac5(depth):
    return VertexFunction.dirac(TreeSpace(2, depth), [5])


def _indicator5(params):
    return RadialFunction.indicator(AnnularGrid(params, 80), [5])


@pytest.mark.parametrize(
    "funcs, backend",
    [
        ([RadialFunction.indicator(GRID80, [5])], "tree"),
        ([_dirac5(3)], "radial"),
        ([_dirac5(3), _dirac5(4)], "tree"),
        # same j_max, other space: GRID80's measures would be used for both
        ([RadialFunction.indicator(GRID80, [5]), _indicator5(SpaceParams.from_mk(4, 1))],
         "radial"),
    ],
    ids=["radial-on-tree", "tree-on-radial", "two-trees", "two-grids"],
)
def test_vector_valued_rejects_mixed_inputs(funcs, backend):
    with pytest.raises(UnsupportedError):
        vector_valued_ratio(2.0, 2.0, funcs, backend=backend)


def test_vector_valued_takes_equal_spaces_on_separate_instances():
    f5, twin = RadialFunction.indicator(GRID80, [5]), _indicator5(DEFAULT_SPACE)
    assert vector_valued_ratio(2.0, 2.0, [f5, twin], backend="radial").verdict == "pass"
    trees = [_dirac5(3), _dirac5(3)]
    assert vector_valued_ratio(2.0, 2.0, trees, backend="tree").verdict == "pass"


# ---------------------------------------------------------------- reports


def test_report_json_schema():
    rep = check_msw(materialize(WeightSpec.constant(), GRID60), 2.0)
    payload = rep.to_json()
    assert set(payload) == {"id", "constant", "witness", "verdict", "slope", "r2", "meta"}
    json.dumps(payload)  # everything must be plain-JSON serializable
    assert payload["id"] == "msw"


def test_reevaluate_requires_a_recorded_witness():
    bare = CheckReport(id="msw", constant=1.0, witness={}, verdict="pass")
    with pytest.raises(UnsupportedError):
        bare.reevaluate()


def test_witness_reproduction(notstrong_reports, fs_s1_reports):
    reports = [
        check_msw(materialize(WeightSpec.exp_radial(-0.3), GRID60), 2.0),
        check_easy_check(materialize(WeightSpec.exp_strong(2.0), GRID80), 2.0, -1.0),
        check_classical_ap(materialize(WeightSpec.exp_radial(-0.75), GRID80), 2.0),
        check_ap_loc(materialize(WeightSpec.exp_radial(-0.75), GRID80), 2.0),
        check_ap_loc(materialize(WeightSpec.spherical_u(2.0), GRID80), 2.0),
        check_large_scale(materialize(WeightSpec.exp_radial(1.0), GRID80), 2.0, 0.5, 0.5),
        check_necessary(materialize(WeightSpec.exp_radial(-1.0), GRID80), 2.0),
        notstrong_reports[0],
        notstrong_reports[1],
        fs_s1_reports[1][40],
        vector_valued_ratio(
            2.0, 2.0, [RadialFunction.indicator(GRID80, [5])], backend="radial"
        ),
    ]
    for rep in reports:
        if rep.constant == 0.0:
            continue
        again = rep.reevaluate()
        assert abs(again - rep.constant) / abs(rep.constant) <= 1e-10, rep.id


# the maximal functions each reevaluator must recompute, by checkers name:
# weak-type recomputes M f, fs-ratio M f and G = M w, the vector checks their blocks
RECOMPUTED = {
    "strong-type": ("maximal_dis",),
    "weak-type": ("_maximal_block",),
    "fs-ratio": ("_maximal_block", "maximal_dis"),
    "vector-radial": ("_maximal_block",),
    "vector-tree": ("_tree_maximal_block",),
}


@pytest.mark.parametrize("case", list(RECOMPUTED))
def test_reevaluate_recomputes_maximal_functions(monkeypatch, notstrong_reports, case):
    if case == "strong-type":
        rep = notstrong_reports[1]
    elif case == "weak-type":
        rep = notstrong_reports[0]
    elif case == "fs-ratio":
        w = materialize(WeightSpec.exp_radial(-1.0), GRID120)
        rep = fs_ratio(w, 1.0, RadialFunction.indicator(GRID120, [20]), k=1)
    elif case == "vector-radial":
        fs = [RadialFunction.indicator(GRID80, [j]) for j in (3, 5)]
        rep = vector_valued_ratio(2.0, 2.0, fs, backend="radial")
    else:
        tree = TreeSpace(2, 5)
        rng = np.random.default_rng(5)
        fs = [VertexFunction.dirac(tree, rng.integers(0, tree.size, 4)) for _ in range(3)]
        rep = vector_valued_ratio(3.0, 2.0, fs, backend="tree")
    calls = {}
    for maximal in RECOMPUTED[case]:
        real = getattr(nalab.checkers, maximal)

        def counting(*args, _real=real, _name=maximal, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(nalab.checkers, maximal, counting)
    assert abs(rep.reevaluate() - rep.constant) <= 1e-10 * abs(rep.constant)
    for maximal in RECOMPUTED[case]:
        assert calls.get(maximal), f"{rep.id} replayed a stored {maximal} result"
