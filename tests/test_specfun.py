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
    from nalab.specfun import _phi_ode_at, _phi_series_at

    worst = 0.0
    for sg in (1.0, 1.5, 2.0):
        for ta in (0.0, 0.25, 0.5):
            for lam in (0.0, 1.0, 2j, 1.3 + 0.4j):
                jp = JacobiParams(sg, ta, lam)
                sv, _ = _phi_series_at(jp, [0.6])
                ov, _ = _phi_ode_at(jp, np.array([0.6]))
                worst = max(worst, abs(sv[0] - ov[0]) / abs(sv[0]))
    assert worst < 1e-9


@pytest.mark.parametrize(
    "sg,ta,lam",
    [(1.0, 0.0, 1.3), (0.5, 0.0, 0.7 + 0.2j), (2.0, 0.5, 2j), (3.5, 0.25, 1.0), (1.0, 0.0, 4j)],
)
def test_taylor_start_against_mpmath(sg, ta, lam):
    # value and t-derivative of the series where the ODE continuation starts
    from nalab.specfun import _TAYLOR_START, _phi_taylor_start

    val, dval = _phi_taylor_start(JacobiParams(sg, ta, lam))
    t0 = mp.mpf(_TAYLOR_START)
    rho, il = sg + ta + 1.0, 1j * lam

    def phi(t):
        return mp.hyp2f1((rho - il) / 2.0, (rho + il) / 2.0, sg + 1.0, -mp.sinh(t) ** 2)

    ref, dref = complex(phi(t0)), complex(mp.diff(phi, t0))
    assert abs(val - ref) <= 1e-13 * abs(ref)
    assert abs(dval - dref) <= 1e-13 * abs(dref)


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
    # on the ODE branch the reported error must bound the distance to mpmath
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
