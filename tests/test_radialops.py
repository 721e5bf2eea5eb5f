"""Averaging and maximal-operator tests.  Exactness facts are asserted
outright; measured constants carry the value they were frozen at."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab.errors import DomainError, GridRangeError
from nalab.fitting import fit_log_slope
from nalab.geometry import (
    DEFAULT_SPACE,
    AnnularGrid,
    SpaceParams,
    annular_intersection,
    product_kernel,
)
from nalab.radialops import (
    RadialFunction,
    _maximal_block,
    avg,
    distribution_mass,
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
    sl = slice(0, res.window[1])
    assert 0.25 <= res.values[sl].min() and res.values[sl].max() <= 4.0


def test_decaying_weight_sup_stable():
    sups = {}
    for jm in (60, 120):
        g = AnnularGrid(DEFAULT_SPACE, jm)
        w = materialize(WeightSpec.exp_radial(-0.75), g)
        res = maximal_dis(w, 25)
        sl = slice(0, res.window[1])
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


@pytest.mark.parametrize("s", [math.inf, math.nan, 0.5])
def test_maximal_s_refuses_s_outside_finite_s_at_least_1(s):
    # at s = inf, w^s underflowed to 0 below w = 1 and the root read 0^0 = 1
    w = materialize(WeightSpec.exp_radial(-0.3), GRID)
    with pytest.raises(DomainError, match=f"got s={s}"):
        maximal_s(w, s, 25)


def test_iterate_maximal():
    w = materialize(WeightSpec.exp_radial(-0.3), GRID)
    it1 = maximal_dis(w, 25, iterations=1)
    assert np.array_equal(it1.values, maximal_dis(w, 25).values)
    assert it1.window == (1, 54)

    it2 = maximal_dis(ONE, 25, iterations=2)
    assert it2.window == (1, 28)
    band = it2.values[:28]
    assert 0.0625 <= band.min() and band.max() <= 16.0

    w_m1 = materialize(WeightSpec.exp_radial(-1.0), GRID)
    for k in (1, 2):
        it = maximal_dis(w_m1, 25, iterations=k)
        sl = slice(0, it.window[1])
        ratio = float(np.max(it.values[sl] / w_m1.values[sl]))
        assert np.isfinite(ratio) and ratio < 50.0
    with pytest.raises(GridRangeError, match="exhaust"):
        maximal_dis(w_m1, 25, iterations=4)  # four passes exhaust j_max = 80
    for bad in (0, -1):
        with pytest.raises(DomainError, match="iteration count"):
            maximal_dis(w_m1, 25, iterations=bad)


def test_distribution_mass():
    w = materialize(WeightSpec.exp_radial(-1.0), GRID)
    g1 = maximal_dis(RadialFunction.indicator(GRID, [1]), 25)
    assert distribution_mass(w, g1, 10.0) == 0.0
    full = distribution_mass(w, RadialFunction(GRID, np.full(80, 2.0)), 1.0)
    # the superlevel set is strict: a level g attains everywhere has no mass
    assert distribution_mass(w, RadialFunction(GRID, np.full(80, 2.0)), 2.0) == 0.0
    assert full == pytest.approx(float(np.dot(w.values, GRID.measures)), rel=1e-14)
    masses = [distribution_mass(w, g1, la) for la in np.geomspace(1e-6, 1.0, 20)]
    assert all(a >= b - 1e-14 for a, b in zip(masses, masses[1:]))
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="level"):
            distribution_mass(w, g1, bad)
    other = RadialFunction.ones(AnnularGrid(SpaceParams(3.5, 1.0), 80))
    with pytest.raises(DomainError, match="incompatible grids"):
        distribution_mass(w, other, 0.5)


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


def _direct_maximal(v, n_max):
    """Sup over scales of matrix-vector ball averages, one scale at a time."""
    return np.stack(
        [
            product_kernel(GRID, n).matrix @ v / (GRID.ball_volume_at(n) * GRID.measures)
            for n in range(1, n_max + 1)
        ]
    ).max(axis=0)


def test_maximal_scale_gate_matches_the_kernel():
    # product_kernel normalizes scale n only when 2n + 3 <= j_max
    f = RadialFunction.indicator(GRID, [5])
    maximal_dis(f, 38)
    product_kernel(GRID, 38)
    for n_max in (0, 39, 79):
        with pytest.raises(GridRangeError, match=f"n_max={n_max} outside 1..38"):
            maximal_dis(f, n_max)
    with pytest.raises(GridRangeError):
        product_kernel(GRID, 39)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n_max=st.integers(1, 38))
@settings(max_examples=40, deadline=None)
def test_maximal_block_columns_match_maximal_dis(seed, m, n_max):
    # random nonnegative columns: one-annulus indicators, sparse uniform data,
    # and data spread over 26 decades
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 3, m)
    cols = []
    for kind in kinds:
        if kind == 0:
            cols.append(RadialFunction.indicator(GRID, [int(rng.integers(1, 81))]).values)
        elif kind == 1:
            cols.append(rng.uniform(0.0, 1.0, 80) * (rng.uniform(size=80) < 0.7))
        else:
            cols.append(np.exp(rng.uniform(-30.0, 30.0, 80)))
    block = np.stack(cols, axis=1)
    values = _maximal_block(GRID, block, n_max)
    assert values.shape == block.shape
    for c, kind in enumerate(kinds):
        ref = maximal_dis(RadialFunction(GRID, block[:, c]), n_max)
        assert np.array_equal(ref.values, _direct_maximal(block[:, c], n_max))
        if m == 1 or kind == 0:
            assert np.array_equal(values[:, c], ref.values)
        else:
            np.testing.assert_allclose(values[:, c], ref.values, rtol=1e-15, atol=0)


def _running_maximum(grid, block, n_max):
    """Values and first attaining scales of a per-scale loop of 2-D products,
    each scale's average replacing the best only when strictly larger."""
    best = np.full(block.shape, -np.inf)
    arg = np.zeros(block.shape, dtype=int)
    for n in range(1, n_max + 1):
        den = grid.ball_volume_at(n) * grid.measures
        a = product_kernel(grid, n).matrix @ block / den[:, None]
        arg[a > best] = n
        best = np.maximum(best, a)
    return best, arg


@pytest.mark.parametrize(
    "params, j_max",
    [(DEFAULT_SPACE, 80), (DEFAULT_SPACE, 120), (DEFAULT_SPACE, 130), (SpaceParams(3.5, 1.0), 80)],
)
def test_batched_maximal_equals_per_scale_products(params, j_max):
    # the batched product over the kernel stack against one 2-D product per
    # scale, bit for bit, for matrix-vector (m = 1) and matrix-matrix blocks
    grid = AnnularGrid(params, j_max)
    n_max = (j_max - 3) // 2
    rng = np.random.default_rng(j_max)
    cols = rng.uniform(0.0, 1.0, (j_max, 31)) * (rng.uniform(size=(j_max, 31)) < 0.7)
    cols[:, 1] = 0.0
    cols[j_max // 3, 1] = 1.0
    if params == DEFAULT_SPACE:  # data over 26 decades
        cols[:, 2] = np.exp(rng.uniform(-30.0, 30.0, j_max))
    for m in (1, 3, 31):
        block = cols[:, :m]
        best, _ = _running_maximum(grid, block, n_max)
        assert np.array_equal(_maximal_block(grid, block, n_max), best), m
    for c in range(3):
        res = maximal_dis(RadialFunction(grid, cols[:, c]), n_max)
        best, arg = _running_maximum(grid, cols[:, c : c + 1], n_max)
        assert np.array_equal(res.values, best[:, 0]), c
        assert np.array_equal(res.argmax, arg[:, 0]), c


def _per_scale_argmax(v, n_max):
    """Smallest attaining scale: one average per scale, replaced only by a
    strictly larger one."""
    best = np.full(GRID.j_max, -np.inf)
    arg = np.zeros(GRID.j_max, dtype=int)
    for n in range(1, n_max + 1):
        a = avg(RadialFunction(GRID, v), n).values
        better = a > best
        best = np.where(better, a, best)
        arg = np.where(better, n, arg)
    return arg


def test_argmax_reads_the_data_at_call_time():
    # argmax is computed on first read, from a copy of the input taken by
    # maximal_dis; changing the input afterwards must not move it
    f = RadialFunction(GRID, np.random.default_rng(7).uniform(0.0, 1.0, 80))
    expected = _per_scale_argmax(f.values.copy(), 25)
    res = maximal_dis(f, 25)
    f.values[:] = f.values[::-1] * 3.0
    assert np.array_equal(res.argmax, expected)
    assert res.argmax is res.argmax  # cached after the first read


@pytest.mark.parametrize("k", [2, 3])
def test_iterate_maximal_argmax_is_the_final_pass(k):
    w = RadialFunction.indicator(GRID, [10])
    passes = [w.values]
    for _ in range(k):
        passes.append(maximal_dis(RadialFunction(GRID, passes[-1]), 10).values)
    it = maximal_dis(w, 10, iterations=k)
    assert np.array_equal(it.values, passes[-1])
    assert np.array_equal(it.argmax, _per_scale_argmax(passes[-2], 10))
    # the first pass's own scales differ, so the check has teeth
    assert not np.array_equal(it.argmax, maximal_dis(w, 10).argmax)


_F = RadialFunction.indicator(GRID, [5])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: avg(_F, 2.0), id="avg n 2.0"),
        pytest.param(lambda: avg(_F, True), id="avg n True"),
        pytest.param(lambda: GRID.ball_volume_at(2.0), id="ball_volume_at 2.0"),
        pytest.param(lambda: GRID.ball_volume_at(np.bool_(True)), id="ball_volume_at np.True_"),
        pytest.param(lambda: product_kernel(GRID, 2.0), id="product_kernel 2.0"),
        pytest.param(lambda: product_kernel(GRID, True, normalize=False), id="product_kernel True"),
        pytest.param(lambda: maximal_dis(_F, 2.5), id="maximal_dis n_max 2.5"),
        pytest.param(lambda: maximal_dis(_F, 2.0), id="maximal_dis n_max 2.0"),
        pytest.param(lambda: maximal_dis(_F, True), id="maximal_dis n_max True"),
        pytest.param(lambda: maximal_dis(_F, math.nan), id="maximal_dis n_max nan"),
        pytest.param(lambda: maximal_s(ONE, 2.0, 5.0), id="maximal_s n_max 5.0"),
        pytest.param(lambda: maximal_dis(_F, 5, iterations=1.5), id="iterate_maximal k 1.5"),
        pytest.param(lambda: maximal_dis(_F, 5, iterations=True), id="iterate_maximal k True"),
        pytest.param(lambda: maximal_dis(_F, 5.0, iterations=2), id="iterate_maximal n_max 5.0"),
    ],
)
def test_scales_and_counts_must_be_integers(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_numpy_integer_scales_are_accepted():
    assert GRID.ball_volume_at(np.int64(3)) == GRID.ball_volume_at(3)
    assert np.array_equal(avg(_F, np.int32(2)).values, avg(_F, 2).values)
    res = maximal_dis(_F, np.int64(7))
    assert np.array_equal(res.values, maximal_dis(_F, 7).values) and res.n_max == 7
    it = maximal_dis(_F, np.int16(5), iterations=np.int64(2))
    assert np.array_equal(it.values, maximal_dis(_F, 5, iterations=2).values)
