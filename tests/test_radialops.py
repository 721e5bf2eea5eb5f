"""Averaging and maximal-operator tests.  Exactness facts are asserted
outright; measured constants carry the value they were frozen at."""
import numpy as np
import pytest

from nalab.errors import DomainError, GridRangeError
from nalab.fitting import fit_log_slope
from nalab.geometry import DEFAULT_SPACE, AnnularGrid, annular_intersection, product_kernel
from nalab.radialops import (
    RadialFunction,
    avg,
    distribution_mass,
    iterate_maximal,
    maximal_dis,
    maximal_s,
)
from nalab.weights import WeightSpec, materialize

GRID = AnnularGrid(DEFAULT_SPACE, 80)
WIN25 = 80 - 26
ONE = RadialFunction.ones(GRID)
RNG = np.random.default_rng(1234)


def raw_avg(f, n):
    # ball average through the unnormalized kernel, for direct-sum references
    kern = product_kernel(f.grid, n, normalize=False).matrix
    return kern @ f.values / (f.grid.ball_volume_at(n) * f.grid.measures)


def test_avg_trivials():
    assert np.all(avg(RadialFunction.zeros(GRID), 5).values == 0.0)
    for n in (1, 7, 25):
        a = avg(ONE, n).values[:WIN25]
        assert 0.25 <= a.min() and a.max() <= 4.0


def test_self_adjointness():
    def inner(u, v):
        return float(np.dot(GRID.measures, u * v))

    worst = 0.0
    for average in (lambda h, n: avg(h, n).values, raw_avg):
        for n in (1, 3, 10, 25):
            f = RadialFunction(GRID, RNG.uniform(0.0, 1.0, 80))
            g = RadialFunction(GRID, RNG.uniform(0.0, 1.0, 80))
            lhs = inner(average(f, n), g.values)
            rhs = inner(f.values, average(g, n))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-12


def test_monotone_and_sublinear():
    f1 = RadialFunction(GRID, RNG.uniform(0.0, 1.0, 80))
    f2 = RadialFunction(GRID, f1.values + RNG.uniform(0.0, 1.0, 80))
    assert np.all(avg(f1, 4).values <= avg(f2, 4).values + 1e-15)
    mf1 = maximal_dis(f1, 10).values
    mdiff = maximal_dis(RadialFunction(GRID, f2.values - f1.values), 10).values
    msum = maximal_dis(f2, 10).values
    assert np.all(msum <= mf1 + mdiff + 1e-12 * msum)


def test_indicator_decay_rate():
    # M chi_1 decays like the reciprocal ball volume, e^(-2 rho j)
    res = maximal_dis(RadialFunction.indicator(GRID, [1]), 30)
    js = np.arange(5, 31)
    fit = fit_log_slope(js, res.values[js - 1])
    assert fit.slope == pytest.approx(-2.0, rel=0.10)
    # the optimal scale reaches just back to the unit annulus
    assert res.argmax[4] == 4 and res.argmax[9] == 9 and res.argmax[19] == 19


def test_maximal_matches_per_scale_loop():
    # reference: one average per scale, replaced only by a strictly larger one
    def reference(f, n_max):
        best = np.full(GRID.j_max, -np.inf)
        arg = np.zeros(GRID.j_max, dtype=int)
        for n in range(1, n_max + 1):
            a = avg(f, n).values
            better = a > best
            best = np.where(better, a, best)
            arg = np.where(better, n, arg)
        return best, arg

    rng = np.random.default_rng(99)
    cases = [RadialFunction(GRID, rng.uniform(0.0, 1.0, 80)) for _ in range(3)]
    cases += [ONE, RadialFunction.zeros(GRID)]
    cases += [RadialFunction.indicator(GRID, js) for js in ([1], [5], [10, 11, 40])]
    for f in cases:
        for n_max in (1, 7, 25):
            res = maximal_dis(f, n_max)
            best, arg = reference(f, n_max)
            assert np.array_equal(res.values, best)
            assert np.array_equal(res.argmax, arg)
    # an indicator far out: every scale that misses it ties at 0, and the
    # tie goes to scale 1
    res = maximal_dis(RadialFunction.indicator(GRID, [60]), 10)
    assert np.all(res.values[:40] == 0.0) and np.all(res.argmax[:40] == 1)
    assert np.all(maximal_dis(RadialFunction.zeros(GRID), 25).argmax == 1)


def test_maximal_rejects_nonfinite_average():
    huge = RadialFunction(GRID, np.full(80, 1e308))
    with pytest.raises(DomainError):
        maximal_dis(huge, 5)
    with pytest.raises(DomainError):
        avg(huge, 5)


def test_maximal_of_one_band():
    res = maximal_dis(ONE, 25)
    sl = res.window_slice()
    assert 0.25 <= res.values[sl].min() and res.values[sl].max() <= 4.0


def test_decaying_weight_sup_stable():
    sups = {}
    for jm in (60, 120):
        g = AnnularGrid(DEFAULT_SPACE, jm)
        w = materialize(WeightSpec.exp_radial(-0.75), g)
        res = maximal_dis(w, 25)
        sl = res.window_slice()
        sups[jm] = float(np.max(res.values[sl] / w.values[sl]))
    assert abs(sups[120] - sups[60]) / sups[60] < 0.20
    assert sups[60] == pytest.approx(0.712611, abs=1e-5)
    assert sups[120] == pytest.approx(0.712611, abs=1e-5)


def test_power_adjusted_maximal():
    w = materialize(WeightSpec.exp_radial(-0.3), GRID)
    m1 = maximal_dis(w, 25).values
    m2 = maximal_s(w, 2.0, 25).values
    assert np.min(m2 - m1) > -1e-12 * np.max(m2)
    # s-monotone
    w5 = materialize(WeightSpec.exp_radial(-0.5), GRID)
    assert np.all(maximal_s(w5, 1.5, 25).values <= maximal_s(w5, 2.0, 25).values * (1 + 1e-12))
    # s = 1 collapses to the plain maximal
    assert np.array_equal(maximal_s(w, 1.0, 25).values, maximal_dis(w, 25).values)
    sup = float(np.max(maximal_s(w, 2.0, 25).values[:WIN25] / w.values[:WIN25]))
    assert sup == pytest.approx(0.804900, abs=1e-5)


def test_iterate_maximal():
    w = materialize(WeightSpec.exp_radial(-0.3), GRID)
    it1 = iterate_maximal(w, 1, 25)
    assert np.array_equal(it1.values, maximal_dis(w, 25).values)
    assert it1.window == (1, 54)

    it2 = iterate_maximal(ONE, 2, 25)
    assert it2.window == (1, 28)
    band = it2.values[it2.window_slice()]
    assert 0.0625 <= band.min() and band.max() <= 16.0

    w_m1 = materialize(WeightSpec.exp_radial(-1.0), GRID)
    for k in (1, 2):
        it = iterate_maximal(w_m1, k, 25)
        sl = it.window_slice()
        ratio = float(np.max(it.values[sl] / w_m1.values[sl]))
        assert np.isfinite(ratio) and ratio < 50.0
    with pytest.raises(GridRangeError):
        iterate_maximal(w_m1, 4, 25)  # four passes exhaust j_max = 80


def test_distribution_mass():
    w = materialize(WeightSpec.exp_radial(-1.0), GRID)
    g1 = maximal_dis(RadialFunction.indicator(GRID, [1]), 25)
    assert distribution_mass(w, g1, 10.0) == 0.0
    full = distribution_mass(w, RadialFunction(GRID, np.full(80, 2.0)), 1.0)
    assert full == pytest.approx(float(np.dot(w.values, GRID.measures)), rel=1e-14)
    masses = [distribution_mass(w, g1, la) for la in np.geomspace(1e-6, 1.0, 20)]
    assert all(a >= b - 1e-14 for a, b in zip(masses, masses[1:]))


def test_superlevel_mass_grows_linearly():
    # far indicators: the 0.2 superlevel set of M chi_j fills ~j annuli, so
    # its e^(-2 rho d) mass grows linearly in j
    w = materialize(WeightSpec.exp_radial(-1.0), GRID)
    js = [5, 10, 15, 20, 25]
    masses = []
    for j0 in js:
        gj = maximal_dis(RadialFunction.indicator(GRID, [j0]), 25)
        masses.append(distribution_mass(w, gj, 0.2))
    coeffs = np.polynomial.polynomial.polyfit(np.array(js, float), masses, 1)
    ratios = [m / j for m, j in zip(masses, js)]
    assert coeffs[1] == pytest.approx(1.174660, abs=1e-5)
    assert min(ratios) == pytest.approx(0.843385, abs=1e-5)
    assert max(ratios) == pytest.approx(1.108299, abs=1e-5)


def test_avg_tracks_direct_intersection_sums():
    # aggregate (mass-weighted) comparison of the kernel route against direct
    # intersection sums; the full 50-trial sweep lives in the acceptance suite
    rng = np.random.default_rng(1234)
    cols = np.arange(1, 81)
    for _ in range(5):
        fv = rng.uniform(0.0, 1.0, 80)
        f = RadialFunction(GRID, fv)
        for n in (1, 5, 25):
            vn = GRID.ball_volume_at(n)
            a_kernel = raw_avg(f, n)[:WIN25]
            a_direct = np.array(
                [
                    np.dot(annular_intersection(GRID, cols, n, i - 0.5), fv) / vn
                    for i in range(1, WIN25 + 1)
                ]
            )
            num = float(np.dot(GRID.measures[:WIN25], a_kernel))
            den = float(np.dot(GRID.measures[:WIN25], a_direct))
            assert 0.25 < num / den < 4.0
