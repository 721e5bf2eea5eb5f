"""Spectral-function tests.  mpmath's hypergeometric machinery (with its own
continuation past z = -1) is the external reference; the rest checks internal
consistency: branch agreement, the defining ODE, symmetry, and growth rates.
"""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import loggamma

from nalab.errors import DomainError
from nalab.geometry import SpaceParams
from nalab.specfun import (
    SERIES_SWITCH,
    FunctionTrace,
    JacobiParams,
    connection_coefficients,
    hyp2f1,
    jacobi_phi,
    jacobi_phi_second,
    jacobi_phi_second_trace,
    jacobi_phi_trace,
    ode_residual,
    spherical_profile,
)

mp.mp.dps = 30


def mp_phi(sigma, tau, lam, t):
    rho = sigma + tau + 1.0
    il = 1j * lam
    z = -mp.sinh(t) ** 2
    return complex(
        mp.hyp2f1((rho - il) / 2.0, (rho + il) / 2.0, sigma + 1.0, z)
    )


def mp_phi_second(sigma, tau, lam, t):
    rho = sigma + tau + 1.0
    il = 1j * lam
    a = (rho - il) / 2.0
    b = (sigma - tau + 1.0 - il) / 2.0
    pref = (2.0 * mp.cosh(t)) ** (mp.mpc(il) - rho)
    return complex(pref * mp.hyp2f1(a, b, 1.0 - il, 1.0 / mp.cosh(t) ** 2))


def test_hyp2f1_closed_form():
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(-math.log(0.5) / 0.5, abs=1e-13)


@pytest.mark.parametrize(
    "a,b,c,z", [(-2.746, -3.746, -9.992, 0.1942), (-2.75, -3.75, -9.995, 0.19)]
)
def test_hyp2f1_with_c_near_a_pole(a, b, c, z):
    # the terms dip below the stopping tolerance before n = -c, where
    # 1/(c + n) makes them jump back up; stopping there misses 2e-12 of the sum
    ref = complex(mp.hyp2f1(a, b, c, z))
    assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize(
    "sg,ta,lam,t",
    [
        (1.0, 0.0, 1.3, 0.4),
        (1.0, 0.0, 1.3, 2.0),
        (1.0, 0.0, 1.3, 10.0),
        (1.5, 0.0, 2.0, 5.0),
        (2.0, 0.5, 2j, 3.0),
        (2.0, 0.5, 1 + 0.5j, 7.0),
        (1.0, 0.0, 0.0, 6.0),
    ],
)
def test_phi_against_mpmath(sg, ta, lam, t):
    mine = jacobi_phi(JacobiParams(sg, ta, lam), t)
    ref = mp_phi(sg, ta, lam, t)
    assert abs(mine - ref) / abs(ref) < 1e-10


def test_series_ode_agreement_at_switch():
    # the Pfaff series and the Harish-Chandra expansion where they hand over
    from nalab.specfun import _phi_connection, _phi_pfaff

    worst = 0.0
    at = np.array([SERIES_SWITCH])
    for sg in (1.0, 1.5, 2.0):
        for ta in (0.0, 0.25, 0.5):
            for lam in (0.0, 1.0, 2j, 1.3 + 0.4j):
                jp = JacobiParams(sg, ta, lam)
                sv, _ = _phi_pfaff(jp, at)
                cv, _ = _phi_connection(jp, at)
                worst = max(worst, abs(sv[0] - cv[0]) / abs(sv[0]))
    assert worst < 1e-9


@pytest.mark.parametrize("sg,ta,lam", [(1.0, 0.0, 1.3), (2.0, 0.5, 1 + 0.5j), (0.5, 0.25, 3j)])
def test_phi_series_branch_against_mpmath(sg, ta, lam):
    ts = np.linspace(0.024, SERIES_SWITCH, 25)
    vals = jacobi_phi_trace(JacobiParams(sg, ta, lam), ts).values
    ref = np.array([mp_phi(sg, ta, lam, t) for t in ts])
    assert np.all(np.abs(vals - ref) <= 1e-13 * np.abs(ref))


def test_phi_even_in_lambda():
    a = jacobi_phi(JacobiParams(1.0, 0.0, 1.3), 2.0)
    b = jacobi_phi(JacobiParams(1.0, 0.0, -1.3), 2.0)
    assert abs(a - b) < 1e-10


def test_phi_value_at_origin():
    tr = jacobi_phi_trace(JacobiParams(1.5, 0.25, 0.8), np.array([0.0, 1.0]))
    assert abs(tr.values[0] - 1.0) < 1e-14


def test_trace_grid_gates():
    jp = JacobiParams(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        FunctionTrace(grid=np.array([1.0, 0.5]), values=np.ones(2, complex), err=np.zeros(2))
    with pytest.raises(DomainError):
        jacobi_phi_trace(jp, np.array([-1.0, 0.5]))


@pytest.mark.parametrize("lam", [40.5j, 40j], ids=["expansion", "terminating series"])
def test_phi_that_overflows_names_the_first_t(lam):
    # |phi| ~ exp(38.5 t) passes 1.8e308 between t = 18.5 and 19; no
    # RuntimeWarning escapes on the way (pytest turns nalab's into errors)
    jp = JacobiParams(1.0, 0.0, lam)
    ts = [1.0, 10.0, 18.0, 18.5, 19.0, 25.0]
    with pytest.raises(DomainError, match="overflows the float range at t=19.0"):
        jacobi_phi_trace(jp, ts)
    assert np.all(np.isfinite(jacobi_phi_trace(jp, ts[:4]).values))


@pytest.mark.parametrize(
    "sigma, tau, lam",
    [(math.inf, 0.0, 1.0), (1.0, math.nan, 1.0), (1.0, 0.0, complex(0.0, math.nan)),
     (1.0, 0.0, math.inf)],
)
def test_params_reject_non_finite(sigma, tau, lam):
    with pytest.raises(DomainError):
        JacobiParams(sigma, tau, lam)


def test_ode_residual_small_on_emitted_traces():
    h = 1e-3
    for sg, ta in ((1.0, 0.0), (1.5, 0.0), (2.0, 0.5)):
        for lam in (0.0, 1.0, 2j):
            jp = JacobiParams(sg, ta, lam)
            tr = jacobi_phi_trace(jp, np.arange(0.1, 10.0 + h / 2, h))
            assert ode_residual(tr, jp) < 1e-6, (sg, ta, lam)


def test_ode_residual_refines():
    # residual on a clean trace is dominated by the finite-difference stencil
    jp = JacobiParams(1.0, 0.0, 1.0)
    r_coarse = ode_residual(jacobi_phi_trace(jp, np.arange(0.5, 6.0, 0.02)), jp)
    r_fine = ode_residual(jacobi_phi_trace(jp, np.arange(0.5, 6.0, 0.01)), jp)
    assert r_coarse / r_fine >= 3.0


def test_ode_residual_flags_corruption():
    jp = JacobiParams(1.0, 0.0, 1.0)
    ts = np.arange(0.5, 2.0, 0.01)
    tr = jacobi_phi_trace(jp, ts)
    vals = tr.values.copy()
    vals[len(vals) // 2] *= 1.01
    bad = FunctionTrace(grid=ts, values=vals, err=tr.err)
    assert ode_residual(bad, jp) > 1e-2


def test_growth_slope_imaginary_lambda():
    # kappa = 4 sits above the critical line; |phi| grows like e^((kappa-2) t)
    jp = JacobiParams(1.0, 0.0, 4j)
    ts = np.arange(15.0, 25.0 + 1e-9, 0.25)
    tr = jacobi_phi_trace(jp, ts)
    slope = np.polyfit(ts, np.log(np.abs(tr.values)), 1)[0]
    assert slope == pytest.approx(2.0, rel=0.02)


def test_terminating_series_reports_rounding_error_only():
    # lam = 4i makes one series parameter a negative integer: the Gauss sum
    # is a polynomial and the truncation part of the estimate must vanish
    tr = jacobi_phi_trace(JacobiParams(1.0, 0.0, 4j), np.array([0.2, 0.5]))
    assert np.all(tr.err < 1e-12)


def test_terminating_series_exact_on_the_whole_grid():
    # lam = 4i is spherical_u(2) on the default space: phi = 1 + 1.5 sinh^2 t,
    # summed as a polynomial at every t, far past the series switch
    ts = np.arange(80) + 0.5
    tr = jacobi_phi_trace(JacobiParams(1.0, 0.0, 4j), ts)
    exact = 1.0 + 1.5 * np.sinh(ts) ** 2
    assert np.abs(tr.values / exact - 1.0).max() < 1e-14
    assert np.all(np.isfinite(tr.err))


def test_nonterminating_trace_against_mpmath():
    ts = np.array([0.5, 2.5, 10.5, 30.5])
    tr = jacobi_phi_trace(JacobiParams(1.0, 0.0, 1.3), ts)
    for t, v in zip(ts, tr.values):
        ref = mp_phi(1.0, 0.0, 1.3, t)
        assert abs(v - ref) / abs(ref) < 1e-10


@pytest.mark.parametrize("sg,ta,lam", [(0.5, 0.0, 0.7), (1.0, 0.0, 1.3), (3.5, 0.25, 0.7)])
def test_ode_error_estimate_bounds_mpmath(sg, ta, lam):
    # past the defining series the reported error must bound the distance to
    # mpmath, on both sides of SERIES_SWITCH
    ts = np.linspace(0.61, 10.0, 40)
    tr = jacobi_phi_trace(JacobiParams(sg, ta, lam), ts)
    ref = np.array([mp_phi(sg, ta, lam, t) for t in ts])
    assert np.all(np.abs(tr.values - ref) <= tr.err)


def test_phi_positive_for_imaginary_lambda():
    for im in (0.7, 2.5):
        tr = jacobi_phi_trace(JacobiParams(1.0, 0.0, 1j * im), np.arange(0.0, 30.0, 0.5))
        assert np.abs(tr.values.imag).max() < 1e-9 * np.abs(tr.values).max()
        assert (tr.values.real > 0).all()


@pytest.mark.parametrize(
    "sg,ta,lam,t",
    [
        (1.0, 0.0, 1.3, 8.0),
        (1.0, 0.0, 1.3, 2.0),
        (1.0, 0.0, 1.3, 0.36),
        (1.0, 0.0, 1.3, 0.05),
        (1.5, 0.0, -1.4j, 0.2),
        (1.5, 0.0, -1.4j, 5.0),
        (2.0, 0.5, 2.7, 0.07),
    ],
)
def test_second_solution_against_mpmath(sg, ta, lam, t):
    mine = jacobi_phi_second(JacobiParams(sg, ta, lam), t)
    ref = mp_phi_second(sg, ta, lam, t)
    assert abs(mine - ref) / abs(ref) < 1e-9


def test_second_solution_decay_slope():
    theta = -1.4
    tr = jacobi_phi_second_trace(
        JacobiParams(1.0, 0.0, 1j * theta), np.arange(15.0, 25.0 + 1e-9, 0.5)
    )
    slope = np.polyfit(tr.grid, np.log(np.abs(tr.values)), 1)[0]
    assert slope == pytest.approx(-(theta + 2.0), rel=0.02)


def test_second_solution_small_t_exponent():
    # Phi ~ t^(-2 sigma) at the origin
    jp = JacobiParams(1.0, 0.0, 1.3)
    ts = np.array([0.05, 0.08, 0.1, 0.15, 0.2])
    vals = np.array([abs(jacobi_phi_second(jp, t)) for t in ts])
    scaled = vals * ts**2
    assert 1e-2 < scaled.min() and scaled.max() < 1e2


def test_connection_coefficients_reconstruct_phi():
    for lam in (1.3, 2.0, 0.7):
        jp = JacobiParams(1.0, 0.0, lam)
        jm = JacobiParams(1.0, 0.0, -lam)
        cp, cm = connection_coefficients(jp)
        for t in (5.0, 7.0, 12.0):
            recon = cp * jacobi_phi_second(jp, t) + cm * jacobi_phi_second(jm, t)
            assert abs(jacobi_phi(jp, t) - recon) < 1e-8


def harish_chandra_c(sigma, tau, lam):
    """Closed-form c-function (Koornwinder 1984), from log-gamma values."""
    rho = sigma + tau + 1.0
    il = 1j * complex(lam)
    return np.exp(
        (rho - il) * math.log(2.0)
        + loggamma(sigma + 1.0)
        + loggamma(il)
        - loggamma((il + rho) / 2.0)
        - loggamma((il + sigma - tau + 1.0) / 2.0)
    )


@pytest.mark.parametrize(
    "sg,ta,lam",
    [
        (0.5, 0.0, 1.3),
        (1.0, 0.5, 0.7 + 0.2j),
        (2.0, 0.0, 2.5),
        (0.5, 0.5, 0.4 - 0.3j),
        (3.5, 0.5, 1.0),
    ],
)
def test_connection_coefficients_closed_form(sg, ta, lam):
    cp, cm = connection_coefficients(JacobiParams(sg, ta, lam))
    assert abs(cp - harish_chandra_c(sg, ta, lam)) <= 1e-10 * abs(cp)
    assert abs(cm - harish_chandra_c(sg, ta, -lam)) <= 1e-10 * abs(cm)


def test_spherical_profile_bound_and_slope():
    P = SpaceParams.from_mk(2, 1)
    ds = np.array([0.0, 1.0, 5.0, 10.0])
    prof = spherical_profile(P, 1 + 0.5j, ds)
    bound = spherical_profile(P, 0.5j, ds)
    assert abs(prof.values[0] - 1.0) < 1e-14
    assert np.all(np.abs(prof.values) <= np.abs(bound.values) * (1 + 1e-12))
    gamma = 3.0
    prof1 = spherical_profile(P, 1j * gamma, np.arange(15.0, 25.0 + 1e-9, 0.5))
    slope = np.polyfit(prof1.grid, np.log(np.abs(prof1.values)), 1)[0]
    assert slope == pytest.approx(gamma - 1.0, rel=0.02)


def test_spherical_normalized_limit():
    # e^((-i lam + rho) d) phi_lam(d) settles once d clears the local regime
    P = SpaceParams.from_mk(2, 1)
    ds = np.arange(20.0, 30.0 + 1e-9, 0.5)
    lam = -0.5j
    prof = spherical_profile(P, lam, ds)
    norm = np.abs(np.exp((-1j * lam + P.rho) * ds) * prof.values)
    assert (norm.max() - norm.min()) / norm.mean() < 0.01


def _mod_2pi_i(d: complex) -> complex:
    return complex(d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi)


def test_log_gamma_against_mpmath():
    from nalab.specfun import _log_gamma

    rng = np.random.default_rng(7)
    zs = list(rng.uniform(-25.0, 25.0, 200) + 1j * rng.uniform(-25.0, 25.0, 200))
    # within 1e-3 of the poles, on the imaginary axis, and far off the real axis
    zs += [-k + d for k in range(12) for d in (1e-3, -1e-3, 1e-3j, -7e-4 + 7e-4j, 1e-8)]
    zs += [0.5, 1.0, 2.0, 0.25j, 3j, -5.5j, 13.75, -13.75, 40.0 + 0.1j, -3.2 + 60j, 2.0 - 300j]
    got = _log_gamma(np.array(zs))
    for z, g in zip(zs, got):
        ref = complex(mp.loggamma(mp.mpc(z)))
        # 1e-14 absolute up to |log Gamma| = 1, then relative: the value's own ulp
        assert abs(_mod_2pi_i(g - ref)) <= 1e-14 * max(1.0, abs(ref)), z


def test_log_gamma_is_inf_on_the_poles():
    from nalab.specfun import _log_gamma

    assert np.all(np.isposinf(_log_gamma(np.array([0.0, -1.0, -7.0])).real))


# (space, lam): generic points, points on and just off the imaginary axis
# near i*Z (half and full circle), and spherical_u's at p = 1.25..2.5
GATE_POINTS = [
    ((1.0, 0.0), 1.3), ((3.5, 0.25), 0.7 + 0.2j), ((1.0, 0.0), 0.0), ((3.5, 1.0), 0.0),
    ((1.3, 0.2), 3j), ((0.5, 0.0), 2.5j), ((3.5, 1.0), (3 + 1e-8) * 1j),
    ((1.0, 0.0), (3 + 1e-3) * 1j), ((1.0, 0.0), 1e-4 + 2j), ((3.5, 1.0), 2e-3 + 3j),
] + [
    ((sg, ta), 1j * (sg + ta + 1.0) * p)
    for sg, ta in ((1.0, 0.0), (3.5, 1.0))
    for p in (1.25, 1.5, 2.0, 2.5)
]


@pytest.mark.parametrize("space,lam", GATE_POINTS)
def test_phi_within_1e13_of_the_local_envelope(space, lam):
    # a subset of the full gate (CHANGES.md): t in [0.61, 130] past the
    # defining series, on both sides of SERIES_SWITCH; the envelope is
    # max |phi| over [t - 0.5, t + 0.5]
    jp = JacobiParams(*space, lam)
    # |phi| grows like exp((|Im lam| - rho) t): stop short of the float range
    t_max = min(130.0, 600.0 / max(abs(complex(lam).imag) - jp.rho, 1e-3))
    ts = np.array([0.61, 1.0, 1.8, 1.85, 3.0, 10.0, 40.0, 100.0, 130.0])
    ts = ts[ts <= t_max]
    fine_ts = np.arange(0.11, t_max + 0.5, 0.01)
    fine = np.abs(jacobi_phi_trace(jp, fine_ts).values)
    tr = jacobi_phi_trace(jp, ts)
    for t, v, e in zip(ts, tr.values, tr.err):
        ref = mp_phi(*space, lam, t)
        envelope = fine[np.abs(fine_ts - t) <= 0.5].max()
        assert abs(v - ref) <= 1e-13 * envelope, t
        assert abs(v - ref) <= e, t
