"""Acceptance suite: one test per advertised guarantee, at the stated
tolerance.  Run with -v to get one pass/fail line per criterion.

Shared heavy objects (deep grids, report families) live in module-scoped
fixtures; the final cross-validation criterion re-derives every report
constant from its recorded witness.
"""
import math

import numpy as np
import pytest

from nalab.checkers import (
    check_classical_ap,
    check_easy_check,
    check_msw,
    fs_ratio,
    strong_type_ratio,
    vector_valued_ratio,
    weak_type_ratio,
)
from nalab.fitting import fit_log_slope
from nalab.geometry import (
    DEFAULT_SPACE,
    AnnularGrid,
    annular_intersection,
    product_kernel,
)
from nalab.radialops import RadialFunction, avg, maximal_dis
from nalab.specfun import (
    SERIES_SWITCH,
    JacobiParams,
    jacobi_phi,
    jacobi_phi_trace,
    ode_residual,
    spherical_profile,
)
from nalab.treelab import (
    TreeSpace,
    VertexFunction,
    tree_ball,
    tree_kolmogorov,
    tree_maximal,
    tree_maximal_naive,
)
from nalab.weights import WeightSpec, materialize

RHO = DEFAULT_SPACE.rho
VARRHO = DEFAULT_SPACE.homogeneous_dim

GRID60 = AnnularGrid(DEFAULT_SPACE, 60)
GRID80 = AnnularGrid(DEFAULT_SPACE, 80)


@pytest.fixture(scope="module")
def grid120():
    return AnnularGrid(DEFAULT_SPACE, 120)


@pytest.fixture(scope="module")
def grid130():
    return AnnularGrid(DEFAULT_SPACE, 130)


@pytest.fixture(scope="module")
def msw_reports(grid120):
    reports = []
    for gamma, s in [(-0.3, 2.0), (-0.5, 2.0), (-1.0, 1.0)]:
        spec = WeightSpec.exp_radial(gamma)
        reports.append((gamma, s,
                        check_msw(materialize(spec, GRID60), s),
                        check_msw(materialize(spec, grid120), s)))
    return reports


@pytest.fixture(scope="module")
def analogue_reports(grid120):
    easy_u = check_easy_check(materialize(WeightSpec.spherical_u(2.0), GRID80), 2.0, -1.0)
    v60 = check_msw(materialize(WeightSpec.jacobi_v(-0.3), GRID60), 2.0)
    v120 = check_msw(materialize(WeightSpec.jacobi_v(-0.3), grid120), 2.0)
    return easy_u, v60, v120


@pytest.fixture(scope="module")
def easy_reports(grid120):
    rep80 = check_easy_check(materialize(WeightSpec.exp_strong(2.0), GRID80), 2.0, -1.0)
    rep120 = check_easy_check(materialize(WeightSpec.exp_strong(2.0), grid120), 2.0, -1.0)
    return rep80, rep120


@pytest.fixture(scope="module")
def ap_report():
    return check_classical_ap(materialize(WeightSpec.exp_radial(-0.75), GRID80), 2.0)


@pytest.fixture(scope="module")
def notstrong_reports(grid120, grid130):
    spec = WeightSpec.eta_product(WeightSpec.exp_strong(2.0))
    wk60 = weak_type_ratio(
        materialize(spec, GRID60), 2.0, RadialFunction.indicator(GRID60, [1])
    )
    wk120 = weak_type_ratio(
        materialize(spec, grid120), 2.0, RadialFunction.indicator(grid120, [1])
    )
    st = strong_type_ratio(
        materialize(spec, grid130), 2.0, RadialFunction.indicator(grid130, [1]),
        n_max=62,
    )
    return wk60, wk120, st


@pytest.fixture(scope="module")
def fs_reports(grid120):
    w80 = materialize(WeightSpec.exp_radial(-1.0), GRID80)
    s2 = [fs_ratio(w80, 2.0, RadialFunction.indicator(GRID80, [j])) for j in range(1, 31)]
    w120 = materialize(WeightSpec.exp_radial(-1.0), grid120)
    s1 = {
        k: [fs_ratio(w120, 1.0, RadialFunction.indicator(grid120, [j]), k=k)
            for j in range(10, 41)]
        for k in (1, 2)
    }
    f5 = RadialFunction.indicator(GRID80, [5])
    sweep = [fs_ratio(w80, s, f5) for s in (1.1, 1.25, 1.5, 2.0)]
    return s2, s1, sweep


@pytest.fixture(scope="module")
def vv_reports():
    tree = TreeSpace(2, 8)
    reports = []
    for seed in range(10):
        rng = np.random.default_rng(1234 + seed)
        funcs = [
            VertexFunction.dirac(tree, rng.integers(0, tree.size, size=10))
            for _ in range(20)
        ]
        reports.append(vector_valued_ratio(3.0, 2.0, funcs, backend="tree"))
    return reports


def test_c01_volume_growth_rate_within_1pct():
    js = np.arange(15, 31)
    for series in (GRID80.volumes, GRID80.measures):
        fit = fit_log_slope(js, series[js - 1])
        assert fit.slope == pytest.approx(2.0 * RHO, rel=0.01)


def test_c02_eigenfunction_ode_and_symmetry():
    h = 1e-3
    for sg, ta in ((1.0, 0.0), (1.5, 0.0), (2.0, 0.5)):
        for lam in (0.0, 1.0, 2j):
            jp = JacobiParams(sg, ta, lam)
            tr = jacobi_phi_trace(jp, np.arange(0.1, 10.0 + h / 2, h))
            assert ode_residual(tr, jp) < 1e-6, (sg, ta, lam)

    # the series and the Harish-Chandra expansion agree where they hand over
    from nalab.specfun import _phi_connection, _phi_pfaff

    for sg, ta in ((1.0, 0.0), (1.5, 0.0), (2.0, 0.5)):
        for lam in (0.0, 1.0, 2j):
            jp = JacobiParams(sg, ta, lam)
            sv, _ = _phi_pfaff(jp, np.array([SERIES_SWITCH]))
            cv, _ = _phi_connection(jp, np.array([SERIES_SWITCH]))
            assert abs(sv[0] - cv[0]) / abs(sv[0]) < 1e-9

    for lam in (1.3, 2.0, 0.4 + 0.7j):
        a = jacobi_phi(JacobiParams(1.0, 0.0, lam), 2.0)
        b = jacobi_phi(JacobiParams(1.0, 0.0, -lam), 2.0)
        assert abs(a - b) < 1e-10


def test_c03_spherical_growth_and_limit():
    # kappa = 2 rho (p-1) + varrho at p = 2, in the normalization where the
    # critical decay index is varrho; |phi_{i kappa}| then grows at 2 rho (p-1)
    p = 2.0
    kappa = 2.0 * RHO * (p - 1.0) + VARRHO
    ts = np.arange(15.0, 25.0 + 1e-9, 0.25)
    tr = jacobi_phi_trace(JacobiParams(1.0, 0.0, 1j * kappa), ts)
    slope = fit_log_slope(ts, np.abs(tr.values)).slope
    assert slope == pytest.approx(2.0 * RHO * (p - 1.0), rel=0.02)

    ds = np.arange(20.0, 30.0 + 1e-9, 0.5)
    lam = -0.5j
    prof2 = spherical_profile(DEFAULT_SPACE, lam, ds)
    norm = np.abs(np.exp((-1j * lam + RHO) * ds) * prof2.values)
    assert (norm.max() - norm.min()) / norm.mean() < 0.01


def test_c04_weight_families_finite_and_stable(msw_reports, easy_reports, analogue_reports):
    for gamma, s, r60, r120 in msw_reports:
        assert np.isfinite(r60.constant) and r60.constant > 0, (gamma, s)
        assert abs(r120.constant - r60.constant) / r60.constant < 0.20, (gamma, s)
    rep80, rep120 = easy_reports
    assert rep80.verdict == "pass" and np.isfinite(rep80.constant)
    assert abs(rep120.constant - rep80.constant) / rep80.constant < 0.20
    easy_u, v60, v120 = analogue_reports
    assert easy_u.verdict == rep80.verdict == "pass"
    assert v60.verdict == "pass"
    assert abs(v120.constant - v60.constant) / v60.constant < 0.20


def test_c05_classical_ap_slope_within_10pct(ap_report):
    target = -2.0 * RHO * (2.0 * (-0.75) + 1.0)
    assert ap_report.slope == pytest.approx(target, rel=0.10)


def test_c06_maximal_decay_rate_within_10pct():
    res = maximal_dis(RadialFunction.indicator(GRID80, [1]), 30)
    js = np.arange(5, 31)
    fit = fit_log_slope(js, res.values[js - 1])
    assert fit.slope == pytest.approx(-VARRHO, rel=0.10)


def test_c07_weak_without_strong(notstrong_reports):
    wk60, wk120, st = notstrong_reports
    assert np.isfinite(wk60.constant) and wk60.constant > 0
    assert abs(wk120.constant - wk60.constant) / wk60.constant < 0.20
    assert st.slope >= 0.5 and st.verdict == "fail"


def test_c08_endpoint_scale(fs_reports):
    s2, s1, sweep = fs_reports
    c2 = np.array([r.constant for r in s2])
    assert np.all(np.isfinite(c2)) and c2.min() > 0

    for k in (1, 2):
        cj = [r.constant for r in s1[k]]
        assert all(a <= b for a, b in zip(cj, cj[1:]))
        assert cj[-1] / cj[0] >= 3.0  # c_40 / c_10
        band = [c / j for c, j in zip(cj, range(10, 41))]
        assert max(band) / min(band) < 2.0

    col = [r.constant for r in sweep]
    assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))


def test_c09_tree_exactness_and_weak11(tree_weak11_reports):
    t28 = TreeSpace(2, 8)
    assert len(tree_ball(t28, 0, 3)) == 15

    t25 = TreeSpace(2, 5)
    rng = np.random.default_rng(1234)
    for _ in range(4):
        f = VertexFunction(t25, rng.integers(0, 16, t25.size).astype(float))
        fast, slow = tree_maximal(f), tree_maximal_naive(f)
        assert np.array_equal(fast.values, slow.values)
        assert np.array_equal(fast.argmax_radius, slow.argmax_radius)

    # sups over 100 seeded 10-point-mass draws at k = 2, 3, 4, depth 8
    *per_k, spread = tree_weak11_reports
    assert [(r.witness["k"], r.witness["depth"]) for r in per_k] == [(2, 8), (3, 8), (4, 8)]
    sups = [r.constant for r in per_k]
    assert spread.constant == max(sups) / min(sups) < 2.0
    for r in per_k:  # each sup is recomputed from its witness draw
        assert abs(r.reevaluate() - r.constant) <= 1e-10 * r.constant


def test_c10_tree_inequalities(vv_reports):
    t = TreeSpace(2, 8)
    rng = np.random.default_rng(1234)
    for _ in range(100):
        f = VertexFunction(t, rng.uniform(0.0, 1.0, t.size))
        center = int(rng.integers(0, t.size))
        radius = int(rng.integers(0, 2 * t.depth + 1))
        B = tree_ball(t, center, radius).vertices
        for q in (0.3, 0.5, 0.7):
            assert tree_kolmogorov(q, f, B).holds, (center, radius, q)

    consts = np.array([r.constant for r in vv_reports])
    assert consts.max() / consts.min() < 2.0


def test_c11_cross_validation(
    msw_reports, easy_reports, analogue_reports, ap_report,
    notstrong_reports, fs_reports, vv_reports,
):
    # averaging operator is self-adjoint for the annulus measure
    rng = np.random.default_rng(1234)
    worst = 0.0
    def raw_avg(h, n):
        kern = product_kernel(GRID80, n, normalize=False).matrix
        return kern @ h.values / (GRID80.ball_volume_at(n) * GRID80.measures)

    for average in (lambda h, n: avg(h, n).values, raw_avg):
        for n in (1, 3, 10, 25):
            f = RadialFunction(GRID80, rng.uniform(0.0, 1.0, 80))
            g = RadialFunction(GRID80, rng.uniform(0.0, 1.0, 80))
            lhs = float(np.dot(GRID80.measures, average(f, n) * g.values))
            rhs = float(np.dot(GRID80.measures, f.values * average(g, n)))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-12

    for n in (1, 5, 25):
        k = product_kernel(GRID80, n)
        assert np.array_equal(k.matrix, k.matrix.T)

    # kernel route vs direct intersection sums, mass-weighted, factor 4
    win = 80 - 26
    cols = np.arange(1, 81)
    rng = np.random.default_rng(1234)
    for _ in range(50):
        fv = rng.uniform(0.0, 1.0, 80)
        f = RadialFunction(GRID80, fv)
        for n in (1, 2, 3, 5, 7, 10, 15, 20, 25):
            vn = GRID80.ball_volume_at(n)
            a_kernel = raw_avg(f, n)[:win]
            a_direct = np.array(
                [
                    np.dot(annular_intersection(GRID80, cols, n, i - 0.5), fv) / vn
                    for i in range(1, win + 1)
                ]
            )
            num = float(np.dot(GRID80.measures[:win], a_kernel))
            den = float(np.dot(GRID80.measures[:win], a_direct))
            assert 0.25 < num / den < 4.0, n

    # every report emitted above reproduces from its recorded witness
    reports = [r for _, _, a, b in msw_reports for r in (a, b)]
    reports += list(easy_reports) + list(analogue_reports) + [ap_report]
    reports += list(notstrong_reports)
    s2, s1, sweep = fs_reports
    reports += s2 + s1[1] + s1[2] + sweep
    reports += vv_reports
    for rep in reports:
        if rep.constant == 0.0:
            continue
        again = rep.reevaluate()
        assert abs(again - rep.constant) / abs(rep.constant) <= 1e-10, rep.id
