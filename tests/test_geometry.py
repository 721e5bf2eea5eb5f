"""Geometry tests: volumes against an independent quadrature route, annulus
bookkeeping, and the banded product kernel."""
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi, roots_legendre

import nalab
from nalab.errors import DomainError, GridRangeError
from nalab.geometry import (
    DEFAULT_SPACE,
    AnnularGrid,
    SpaceParams,
    annular_intersection,
    ball_volume,
    density,
    product_kernel,
    _gauss_jacobi,
    _kernel_stack,
    valid_upper,
)
from nalab.radialops import RadialFunction, maximal_dis

GRID = AnnularGrid(DEFAULT_SPACE, 80)
WIN25 = 80 - 26


def volume_gl(sigma, tau, r, panels_per_unit=8, nodes=40):
    # composite Gauss-Legendre on the density, independent of the package route
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    edges = np.linspace(0.0, r, max(1, int(math.ceil(r * panels_per_unit))) + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        tt = 0.5 * (b - a) * xs + 0.5 * (a + b)
        vals = (2 * np.sinh(tt / 2)) ** (2 * sigma + 1) * (2 * np.cosh(tt / 2)) ** (
            2 * tau + 1
        )
        total += 0.5 * (b - a) * np.dot(ws, vals)
    return total


# (0.25, -0.25) has a non-integer power t^1.5 at the origin, which plain
# Gauss-Legendre on the first panel misses by 2e-8
PANEL_SPACES = [
    DEFAULT_SPACE,
    SpaceParams.from_mk(4, 3),
    SpaceParams(1.3, 0.2),
    SpaceParams(0.25, -0.25),
]


def mp_volume(p, a, b):
    # mpmath's own tanh-sinh quadrature at 30 digits, split at integers
    def dens(t):
        return (2 * mp.sinh(t / 2)) ** (2 * p.sigma + 1) * (2 * mp.cosh(t / 2)) ** (
            2 * p.tau + 1
        )

    with mp.workdps(30):
        edges = [a] + list(range(math.floor(a) + 1, math.ceil(b))) + [b]
        return mp.quad(dens, [mp.mpf(e) for e in edges])


def rel_err(got, ref):
    return abs(float((mp.mpf(got) - ref) / ref))


@pytest.mark.parametrize("p", PANEL_SPACES, ids=str)
def test_panel_rule_against_mpmath(p):
    grid = AnnularGrid(p, 130)
    for j in (1, 2, 40, 130):
        assert rel_err(grid.measures[j - 1], mp_volume(p, j - 1, j)) < 1e-13, j
    for r in (0.3, 0.999, 2.5, 20.5):
        assert rel_err(ball_volume(p, r), mp_volume(p, 0, r)) < 1e-13, r


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0, 8.0])
def test_gauss_jacobi_against_scipy(beta):
    x, w = _gauss_jacobi(24, beta)
    xs, ws = roots_legendre(24) if beta == 0 else roots_jacobi(24, 0.0, beta)
    assert np.max(np.abs(x - xs)) < 1e-14
    assert np.max(np.abs(w / ws - 1.0)) < 1e-12


def _scipy_modules_after(code: str) -> str:
    """The scipy modules that code loads in a fresh process.

    Fresh, since this one has scipy loaded by the tests.
    """
    src = os.path.dirname(os.path.dirname(nalab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, nalab\n"
        + code
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_grid_and_volumes_load_no_scipy():
    code = (
        "from nalab.geometry import DEFAULT_SPACE, AnnularGrid, ball_volume\n"
        "AnnularGrid(DEFAULT_SPACE, 80)\n"
        "ball_volume(DEFAULT_SPACE, 2.5)\n"
    )
    assert _scipy_modules_after(code) == "[]"


def test_phi_past_the_series_switch_loads_no_scipy():
    code = (
        "from nalab.geometry import DEFAULT_SPACE, AnnularGrid\n"
        "from nalab.specfun import JacobiParams, jacobi_phi_trace\n"
        "from nalab.weights import WeightSpec, materialize\n"
        "materialize(WeightSpec.spherical_u(1.5), AnnularGrid(DEFAULT_SPACE, 80))\n"
        "jacobi_phi_trace(JacobiParams(1.0, 0.0, 3j), [1.0, 40.0])\n"
    )
    assert _scipy_modules_after(code) == "[]"


def test_panel_rule_splits_fast_growth():
    # 2 rho = 81 e-folds per unit panel: one 24-node panel would be off by 5e-11
    p = SpaceParams(40.0, 40.0)
    grid = AnnularGrid(p, 8)
    for j in (1, 2, 8):
        assert rel_err(grid.measures[j - 1], mp_volume(p, j - 1, j)) < 1e-13, j
    assert rel_err(ball_volume(p, 0.5), mp_volume(p, 0, 0.5)) < 1e-13


def test_overflowing_measures_raise_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            AnnularGrid(SpaceParams(40.0, 40.0), 80)


def test_growth_band_names_first_failing_annulus():
    grid = AnnularGrid(DEFAULT_SPACE, 40)
    grid.measures = grid.measures * np.where(np.isin(np.arange(1, 41), (22, 31)), 1e5, 1.0)
    # loop reference for the first annulus outside the band
    two_rho = 2.0 * DEFAULT_SPACE.rho
    first = next(
        (j, math.log(grid.measures[j - 1]) / (two_rho * j))
        for j in range(15, 41)
        if not 0.95 <= math.log(grid.measures[j - 1]) / (two_rho * j) <= 1.05
    )
    assert first[0] == 22
    with pytest.raises(DomainError, match=f"annulus 22 .* ratio {first[1]:.4f}"):
        grid._validate_growth_band()


def test_canonical_parameters():
    p = SpaceParams.from_mk(2, 1)
    assert (p.sigma, p.tau) == (1.0, 0.0)
    assert p.rho == 1.0
    assert p.homogeneous_dim == 2.0
    assert p.ell == 4


def test_parameter_gates():
    with pytest.raises(DomainError):
        SpaceParams(0.0, 0.5)  # sigma < tau
    with pytest.raises(DomainError):
        SpaceParams(1.0, -0.5)  # tau at the boundary
    for sigma, tau in ((math.inf, 0.0), (math.inf, math.inf), (math.nan, 0.0)):
        with pytest.raises(DomainError):
            SpaceParams(sigma, tau)
    with pytest.raises(DomainError):
        annular_intersection(GRID, 3, 2, 0.0)  # center must be off the origin
    for r in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ball_volume(DEFAULT_SPACE, r)


def test_density_small_t_coefficient():
    # density ~ 2^(2 tau + 1) t^(ell - 1) near 0; canonical space gives 2 t^3
    t = 1e-3
    coef = density(DEFAULT_SPACE, t) / t**3
    assert coef == pytest.approx(2.0, rel=1e-5)


def test_ball_volume_matches_quadrature_oracle():
    for r in (0.5, 1.0, 5.0, 20.0, 80.0, 120.0):
        assert ball_volume(DEFAULT_SPACE, r) == pytest.approx(
            volume_gl(1.0, 0.0, r), rel=1e-12
        )
    # pinned decimals so a regression shows up without rerunning the oracle
    assert ball_volume(DEFAULT_SPACE, 1.0) == pytest.approx(5.898731518227e-01, rel=1e-10)
    assert ball_volume(DEFAULT_SPACE, 20.0) == pytest.approx(1.176926324482e17, rel=1e-10)
    assert ball_volume(DEFAULT_SPACE, 120.0) == pytest.approx(8.504438817838e103, rel=1e-10)


def test_ball_volume_large_r_ratio():
    # pure exponential regime: V(r+1)/V(r) -> e^(2 rho)
    v20 = ball_volume(DEFAULT_SPACE, 20.0)
    v21 = ball_volume(DEFAULT_SPACE, 21.0)
    assert v21 / v20 == pytest.approx(math.e**2, rel=1e-8)


def test_annulus_measures_partition_the_ball():
    assert np.all(GRID.measures > 0)
    assert GRID.measures.sum() == pytest.approx(ball_volume(DEFAULT_SPACE, 80.0), rel=1e-12)
    assert GRID.measures[0] == pytest.approx(GRID.volumes[0], rel=1e-14)
    # far annuli carry a stable share of e^(2j)
    far = GRID.measures[14:30] / np.exp(2.0 * np.arange(15, 31))
    assert far == pytest.approx(0.43233236, rel=1e-6)


@pytest.mark.parametrize("j, d", [(5, math.nan), (5, math.inf), ([5, 6], [4.0, math.nan])])
def test_annular_intersection_refuses_non_finite_distances(j, d):
    with pytest.raises(DomainError):
        annular_intersection(GRID, j, 3, d)


@pytest.mark.parametrize("j", [5.7, 5.0, True, [5, True], np.array([5.0, 6.0])])
def test_annular_intersection_refuses_non_integer_annuli(j):
    # numpy would read 5.7 as annulus 5 and True as annulus 1
    with pytest.raises(DomainError):
        annular_intersection(GRID, j, 3, 4.0)


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_annular_intersection_refuses_non_integer_scales(n):
    with pytest.raises(DomainError):
        annular_intersection(GRID, 5, n, 4.0)


@settings(max_examples=60, deadline=None)
@given(
    j=st.integers(min_value=1, max_value=80),
    n=st.integers(min_value=1, max_value=25),
    d=st.floats(min_value=0.01, max_value=80.0),
)
def test_annular_intersection_bounds(j, n, d):
    got = annular_intersection(GRID, j, n, d)
    assert got >= 0.0
    assert got <= min(GRID.measures[j - 1], GRID.ball_volume_at(n)) * (1 + 1e-12)
    if d > j + n or d < j - 1 - n:
        assert got == 0.0
    # monotone in the ball radius
    assert got <= annular_intersection(GRID, j, min(n + 1, 26), d) * (1 + 1e-12) + 1e-300


def test_mass_consistency_band():
    # summing intersections over all annuli recovers the ball volume up to the
    # midpoint-vs-annulus slack; the band was measured once and pinned
    lo_band, hi_band = [], []
    cols = np.arange(1, 81)
    for n in (1, 5, 12, 25):
        vals = [
            annular_intersection(GRID, cols, n, i - 0.5).sum() / GRID.ball_volume_at(n)
            for i in range(1, WIN25 + 1)
        ]
        lo_band.append(min(vals))
        hi_band.append(max(vals))
    assert min(lo_band) >= 0.25
    assert max(hi_band) <= 4.0 / (1.0 - math.exp(-1.0))


def test_kernel_symmetry_exact():
    for n in (1, 5, 25):
        k = product_kernel(GRID, n)
        assert np.array_equal(k.matrix, k.matrix.T)


def test_kernel_band_structure():
    k = product_kernel(GRID, 5)
    i, j = np.meshgrid(np.arange(1, 81), np.arange(1, 81), indexing="ij")
    outside = np.abs(i - j) > 5 + 1
    assert np.all(k.matrix[outside] == 0.0)


def _dense_kernel(grid, n, normalize):
    # the full-size construction product_kernel used before its per-grid
    # tables, kept verbatim as the bit-for-bit reference
    jm = grid.j_max
    idx = np.arange(1, jm + 1, dtype=float)
    m = grid.measures
    vn = grid.ball_volume_at(n)
    with np.errstate(over="ignore"):
        pair = np.minimum.outer(m * vn, m * vn)
        pair = np.minimum(pair, np.outer(m, m))
        expo = np.exp(grid.params.rho * (n + idx[:, None] + idx[None, :]))
        pair = np.minimum(pair, expo)
    band = np.abs(idx[:, None] - idx[None, :]) <= n + 1
    mat = np.where(band, pair, 0.0)

    scale = 1.0
    if normalize:
        if n + 2 > jm - n - 1:
            raise GridRangeError(
                f"no interior rows for n={n} on a grid with j_max={jm}"
            )
        row_ratio = mat.sum(axis=1) / (vn * m)
        scale = float(row_ratio.max())
        mat = mat / scale
    return mat, scale


# (3.5, 1) overflows m_i m_j to inf near the top of a j_max = 80 grid
@pytest.mark.parametrize(
    "params, j_max", [(DEFAULT_SPACE, 80), (DEFAULT_SPACE, 120), (SpaceParams(3.5, 1.0), 80)]
)
@pytest.mark.parametrize("normalize", [True, False])
def test_kernel_equals_dense_construction(params, j_max, normalize):
    # ascending single calls: every scale rebuilds the grid's stack
    _assert_dense_kernels(AnnularGrid(params, j_max), normalize)


def _assert_dense_kernels(grid, normalize):
    # every admissible scale in ascending order: slices of the stack as the
    # caller left it, then one rebuild per scale beyond it
    top = (grid.j_max - 3) // 2 if normalize else grid.j_max - 1
    for n in range(1, top + 1):
        kern = product_kernel(grid, n, normalize=normalize)
        mat, scale = _dense_kernel(grid, n, normalize)
        assert np.array_equal(kern.matrix, mat), n
        assert kern.scale == scale, n
    with pytest.raises(GridRangeError):
        product_kernel(grid, top + 1, normalize=normalize)


@pytest.mark.parametrize(
    "params, j_max", [(DEFAULT_SPACE, 80), (DEFAULT_SPACE, 120), (SpaceParams(3.5, 1.0), 80)]
)
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("kernel_first", [False, True], ids=["maximal first", "kernel 30 first"])
def test_kernel_stack_does_not_depend_on_call_order(params, j_max, normalize, kernel_first):
    # a stack built by the maximal function at n_max 25, or a larger one
    # built by one kernel call and then sliced by it, holds the same kernels
    grid = AnnularGrid(params, j_max)
    f = RadialFunction(grid, np.random.default_rng(j_max).uniform(0.0, 1.0, j_max))
    if kernel_first:
        product_kernel(grid, 30, normalize=normalize)
    maximal_dis(f, 25)
    _assert_dense_kernels(grid, normalize)


@pytest.mark.parametrize(
    "normalize, sizes", [(True, [1, 2, 4, 8, 16, 32, 38]), (False, [1, 2, 4, 8, 16, 32, 64, 79])]
)
def test_ascending_scales_grow_the_stack_geometrically(monkeypatch, normalize, sizes):
    # each rebuild doubles the stack, capped at the top scale: 38 normalized
    # (2n + 3 <= 80) and 79 raw
    builds = []
    real = nalab.geometry._build_kernel_stack

    def counting(grid, s, normalize):
        builds.append(s)
        return real(grid, s, normalize)

    monkeypatch.setattr(nalab.geometry, "_build_kernel_stack", counting)
    grid = AnnularGrid(DEFAULT_SPACE, 80)
    for n in range(1, sizes[-1] + 1):
        product_kernel(grid, n, normalize=normalize)
    assert builds == sizes


@pytest.mark.parametrize("params", [DEFAULT_SPACE, SpaceParams(3.5, 1.0)])
def test_kernel_against_scalar_loop(params):
    # independent oracle: the kernel formula entry by entry with math.exp
    grid = AnnularGrid(params, 21)
    m = grid.measures.tolist()
    for n in (1, 4, 9):
        vn = grid.ball_volume_at(n)
        raw = np.zeros((21, 21))
        for i in range(1, 22):
            for j in range(1, 22):
                if abs(i - j) <= n + 1:
                    raw[i - 1, j - 1] = min(
                        m[i - 1] * m[j - 1],
                        m[i - 1] * vn,
                        m[j - 1] * vn,
                        math.exp(params.rho * (n + i + j)),
                    )
        got = product_kernel(grid, n, normalize=False)
        assert got.scale == 1.0
        assert np.array_equal(got.matrix == 0.0, raw == 0.0)
        np.testing.assert_allclose(got.matrix, raw, rtol=1e-15, atol=0.0)
        scale = max(sum(raw[i]) / (vn * m[i]) for i in range(21))
        normed = product_kernel(grid, n)
        assert normed.scale == pytest.approx(scale, rel=1e-15)
        np.testing.assert_allclose(normed.matrix, raw / scale, rtol=1e-15, atol=0.0)


def test_kernels_and_grid_tables_are_read_only():
    grid = AnnularGrid(DEFAULT_SPACE, 40)
    kern = product_kernel(grid, 3)
    before = kern.matrix.copy()
    with pytest.raises(ValueError):
        kern.matrix[10, 10] = 0.0
    with pytest.raises(ValueError):
        kern.matrix *= 2.0
    again = product_kernel(grid, 3)
    assert np.shares_memory(again.matrix, kern.matrix)
    assert np.array_equal(again.matrix, before)
    for normalize in (True, False):
        stack, scales = _kernel_stack(grid, 5, normalize)
        assert stack.shape == (5, 40, 40) and scales.shape == (5,)
        whole, whole_scales = grid._kernel_stacks[normalize]
        for arr in (whole, whole_scales, stack, scales, stack[2], scales[2:]):
            with pytest.raises(ValueError):
                arr[...] = 0.0
        # a caller's view cannot be made writable again
        for view in (stack, scales, product_kernel(grid, 4, normalize).matrix):
            with pytest.raises(ValueError):
                view.setflags(write=True)


def test_normalized_row_ratios():
    # interior rows of the normalized kernel average to ~1 against V(n)|Omega_i|
    worst_lo, worst_hi = np.inf, 0.0
    for n in (1, 3, 10, 25):
        k = product_kernel(GRID, n)
        vn = GRID.ball_volume_at(n)
        rows = slice(n + 1, 80 - n - 1)
        rr = k.matrix[rows].sum(axis=1) / (vn * GRID.measures[rows])
        worst_lo = min(worst_lo, rr.min())
        worst_hi = max(worst_hi, rr.max())
    assert worst_lo == pytest.approx(0.9664, rel=2e-3)
    assert worst_hi == pytest.approx(1.0, rel=1e-6)


def test_raw_row_ratios_track_the_model_scale():
    # unnormalized rows grow to the plateau scale ~3.99 at deep n
    k1 = product_kernel(GRID, 1, normalize=False)
    rr1 = k1.matrix[2:78].sum(axis=1) / (GRID.ball_volume_at(1) * GRID.measures[2:78])
    assert rr1.min() == pytest.approx(3.102285, rel=2e-4)
    assert rr1.max() == pytest.approx(3.153651, rel=2e-4)
    k25 = product_kernel(GRID, 25, normalize=False)
    rr25 = k25.matrix[26:54].sum(axis=1) / (GRID.ball_volume_at(25) * GRID.measures[26:54])
    assert rr25.max() == pytest.approx(3.990429, rel=2e-4)


def test_valid_upper_window_arithmetic():
    assert valid_upper(80, 25) == 54
    assert valid_upper(80, 25, 2) == 28
    assert valid_upper(80, 25, 3) == 2
