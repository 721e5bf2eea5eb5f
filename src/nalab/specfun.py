"""Jacobi functions of the radial model and their verification helpers.

Evaluates the even eigenfunction phi_lam of the Jacobi operator

    u'' + ((2 sigma + 1) coth t + (2 tau + 1) tanh t) u' + (lam^2 + rho^2) u = 0,

its singular companion solution Phi_lam, and spherical-function profiles
obtained from phi at half the distance argument.  Small arguments go through
the defining Gauss series; past the series' convergence region the equation
is continued by an adaptive Runge-Kutta integrator started just off the
coth singularity.

The companion solution behaves like t^(-2 sigma) at the origin.  (Its
commonly printed small-argument form has the opposite sign in the exponent;
the Euler-transformed series used here produces the factor tanh(t)^(-2 sigma)
explicitly and the numerics confirm that exponent.)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, PrecisionError
from .geometry import SpaceParams

SERIES_SWITCH = 0.6  # largest t where sinh^2 t is comfortably inside the disk
SECOND_DIRECT_MIN = 0.35  # below this, sech^2 t > 0.9 and the series crawls
SERIES_TOL = 1e-14
SERIES_MAX_TERMS = 2000
_TAYLOR_START = 1e-3
# tight enough that two independent solves of the same trajectory (a scalar
# call vs a shared trace) agree within the 1e-12 midpoint-consistency budget
_ODE_RTOL = 2e-13
_ODE_LOOSEN = 100.0  # tolerance factor of the comparison solve behind the error
_CONNECTION_ARGS = (8.0, 8.5)  # the two arguments of the connection system


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple of a Jacobi function: indices and spectral point.

    ``rho`` is the critical exponential rate sigma + tau + 1; solutions decay
    or grow like exp((|Im lam| - rho) t).
    """

    sigma: float
    tau: float
    lam: complex

    def __post_init__(self):
        SpaceParams(self.sigma, self.tau)  # the same gate on the indices
        if not cmath.isfinite(self.lam):
            raise DomainError(f"need a finite spectral point, got lam={self.lam}")

    @property
    def rho(self) -> float:
        return self.sigma + self.tau + 1.0

    def series_abc(self) -> tuple[complex, complex, complex]:
        """Parameters (a, b, c) of the defining series in z = -sinh^2 t."""
        il = 1j * complex(self.lam)
        return (
            (self.rho - il) / 2.0,
            (self.rho + il) / 2.0,
            complex(self.sigma + 1.0),
        )


@dataclass
class FunctionTrace:
    """Sampled complex-valued function with per-point error estimates."""

    grid: np.ndarray
    values: np.ndarray
    err: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        self.err = np.asarray(self.err, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) != len(self.values):
            raise DomainError("trace grid and values must be 1d and equal length")
        if len(self.grid) > 1 and not np.all(np.diff(self.grid) > 0):
            raise DomainError("trace grid must be strictly increasing")
        if np.any(self.grid < 0):
            raise DomainError("trace grid must be nonnegative")
        if not np.all(np.isfinite(self.err)):
            raise DomainError("trace error estimates must be finite")


def _is_nonpositive_int(c: complex, tol: float = 1e-12) -> bool:
    return (
        abs(c.imag) <= tol
        and c.real <= tol
        and abs(c.real - round(c.real)) <= tol
    )


def _gauss_series(a, b, c, z, tol=SERIES_TOL, max_terms=SERIES_MAX_TERMS):
    """Sum the Gauss series at scalar z; returns (value, error estimate).

    No |z| cap here: callers are responsible for convergence budgets.  The
    error estimate is the last term magnitude amplified by the geometric
    tail factor 1/(1 - |z|).
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(max_terms):
        if a + n == 0 or b + n == 0:
            # terminating series: the next factor is exactly zero
            return total, abs(total) * 1e-16 * (n + 1)
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            break
    tail = 1.0 / max(1.0 - abs(z), 1e-3)
    err = abs(term) * tail + 1e-16 * abs(total) * (n + 2)
    return total, err


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function by direct series summation.

    Restricted to |z| <= 0.9 so the series budget of SERIES_MAX_TERMS terms
    always reaches SERIES_TOL; larger arguments must go through the ODE
    continuation used by the Jacobi evaluators.
    """
    if _is_nonpositive_int(complex(c)):
        raise PoleError(f"series parameter c={c} is a nonpositive integer")
    if abs(complex(z)) > 0.9:
        raise DomainError(f"|z|={abs(complex(z)):.4f} > 0.9; use continuation")
    val, _ = _gauss_series(a, b, c, z)
    return val


def _phi_series_at(jp: JacobiParams, ts):
    a, b, c = jp.series_abc()
    zs = -np.sinh(np.asarray(ts, dtype=float)) ** 2
    vals, errs = zip(*(_gauss_series(a, b, c, z) for z in zs))
    return np.array(vals), np.array(errs)


def _phi_ode_rhs(jp: JacobiParams):
    s2 = 2.0 * jp.sigma + 1.0
    t2 = 2.0 * jp.tau + 1.0
    eig = complex(jp.lam) ** 2 + jp.rho**2

    def rhs(t, y):
        damping = s2 / math.tanh(t) + t2 * math.tanh(t)
        return [y[1], -damping * y[1] - eig * y[0]]

    return rhs


def _phi_taylor_start(jp: JacobiParams, t0: float = _TAYLOR_START):
    """Series value and t-derivative at t0, off the coth singularity at 0.

    The derivative uses d/dz F(a, b; c; z) = (ab/c) F(a+1, b+1; c+1; z).
    """
    a, b, c = jp.series_abc()
    z0 = -math.sinh(t0) ** 2
    val, _ = _gauss_series(a, b, c, z0)
    shifted, _ = _gauss_series(a + 1.0, b + 1.0, c + 1.0, z0)
    dz_dt = -math.sinh(2.0 * t0)
    return val, a * b / c * shifted * dz_dt


def _ode_atol(jp: JacobiParams, t_max: float) -> float:
    # solutions decay like exp((|Im lam| - rho) t); the absolute tolerance must
    # stay below the final magnitude or the integrator stalls at pure noise
    rate = abs(complex(jp.lam).imag) - jp.rho
    return 1e-13 * math.exp(min(0.0, rate * t_max))


def _phi_ode_at(jp: JacobiParams, ts: np.ndarray):
    """Continue the series start through the ODE; ts sorted, all > t0.

    The error estimate is measured, not assumed: the distance to a second
    solve at 100x looser tolerances, plus the tolerance floor.  The
    integrator's local tolerance alone understates the global error by up
    to two orders of magnitude.
    """
    # imported here: this branch is rarely reached, and scipy.integrate
    # would otherwise be most of the package's import time
    from scipy.integrate import solve_ivp

    t_max = float(ts[-1])
    y0, dy0 = _phi_taylor_start(jp)
    atol = _ode_atol(jp, t_max)

    def solve(loosen: float) -> np.ndarray:
        sol = solve_ivp(
            _phi_ode_rhs(jp),
            (_TAYLOR_START, t_max),
            [y0, dy0],
            method="DOP853",
            t_eval=ts,
            rtol=_ODE_RTOL * loosen,
            atol=atol * loosen,
        )
        if not sol.success:  # pragma: no cover - tolerances are chosen to succeed
            raise PrecisionError(f"ODE continuation failed: {sol.message}")
        return sol.y[0]

    vals = solve(1.0)
    err = np.abs(vals - solve(_ODE_LOOSEN)) + _ODE_RTOL * np.abs(vals) + atol
    return vals, err


def jacobi_phi(jp: JacobiParams, t: float) -> complex:
    """The even Jacobi-equation solution with phi(0) = 1, phi'(0) = 0."""
    return complex(jacobi_phi_trace(jp, [t]).values[0])


def jacobi_phi_trace(jp: JacobiParams, ts) -> FunctionTrace:
    """Evaluate phi_lam on an increasing grid with one shared continuation."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise DomainError(f"argument must be nonnegative, got {ts.min()}")
    values = np.empty(ts.shape, dtype=complex)
    err = np.empty(ts.shape, dtype=float)

    a, b, _ = jp.series_abc()
    # a terminating series is a polynomial in sinh^2 t, exact at every t; the
    # test is exact because _gauss_series stops only on an exact zero factor
    terminating = _is_nonpositive_int(a, tol=0.0) or _is_nonpositive_int(b, tol=0.0)
    series_mask = terminating | (ts <= SERIES_SWITCH)
    if series_mask.any():
        sv, se = _phi_series_at(jp, ts[series_mask])
        values[series_mask] = sv
        err[series_mask] = se
    zero = ts == 0.0
    values[zero] = 1.0
    err[zero] = 0.0

    ode_mask = ~series_mask
    if ode_mask.any():
        ov, oe = _phi_ode_at(jp, ts[ode_mask])
        values[ode_mask] = ov
        err[ode_mask] = oe
    return FunctionTrace(grid=ts, values=values, err=err)


def _check_second_pole(lam: complex):
    lam = complex(lam)
    if abs(lam.real) <= 1e-12 and abs(lam.imag - round(lam.imag)) <= 1e-12:
        raise PoleError(
            f"second solution undefined at lam={lam}: spectral point in i*Z"
        )


def _second_pieces(jp: JacobiParams, t: float, max_terms=40000):
    """Value and error of Phi_lam at scalar t > 0."""
    il = 1j * complex(jp.lam)
    a = (jp.rho - il) / 2.0
    b = (jp.sigma - jp.tau + 1.0 - il) / 2.0
    c = 1.0 - il
    z = 1.0 / math.cosh(t) ** 2
    prefactor = (2.0 * math.cosh(t)) ** (il - jp.rho)
    if t >= SECOND_DIRECT_MIN:
        series, serr = _gauss_series(a, b, c, z)
        return prefactor * series, abs(prefactor) * serr
    # Euler transform pulls out the singular factor tanh(t)^(-2 sigma); the
    # remaining series still converges for any t > 0, just slowly, so the
    # term budget is widened instead of capping the argument
    series, serr = _gauss_series(c - a, c - b, c, z, max_terms=max_terms)
    sing = math.tanh(t) ** (-2.0 * jp.sigma)
    return prefactor * sing * series, abs(prefactor) * sing * serr


def jacobi_phi_second(jp: JacobiParams, t: float) -> complex:
    """The companion solution Phi_lam, singular at 0, recessive at infinity."""
    return complex(jacobi_phi_second_trace(jp, [t]).values[0])


def jacobi_phi_second_trace(jp: JacobiParams, ts) -> FunctionTrace:
    _check_second_pole(jp.lam)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise DomainError("second solution needs t > 0")
    values = np.empty(ts.shape, dtype=complex)
    err = np.empty(ts.shape, dtype=float)
    for i, t in enumerate(ts):
        values[i], err[i] = _second_pieces(jp, float(t))
    return FunctionTrace(grid=ts, values=values, err=err)


def connection_coefficients(jp: JacobiParams) -> tuple[complex, complex]:
    """Coefficients (c_plus, c_minus) with phi = c_plus Phi_lam + c_minus Phi_{-lam}.

    Solved from a 2x2 linear system at two large arguments; no closed form of
    the coefficient function is assumed anywhere.
    """
    _check_second_pole(jp.lam)
    if complex(jp.lam) == 0:
        raise PoleError("connection system is singular at lam = 0")
    jm = JacobiParams(jp.sigma, jp.tau, -complex(jp.lam))
    mat = np.column_stack(
        [
            jacobi_phi_second_trace(jp, _CONNECTION_ARGS).values,
            jacobi_phi_second_trace(jm, _CONNECTION_ARGS).values,
        ]
    )
    c = np.linalg.solve(mat, jacobi_phi_trace(jp, _CONNECTION_ARGS).values)
    return complex(c[0]), complex(c[1])


def ode_residual(trace: FunctionTrace, jp: JacobiParams) -> float:
    """Largest defect of a trace against the Jacobi equation.

    Fourth-order central differences on a uniform grid; the second-order
    stencil cannot reach the 1e-6 acceptance floor at step 1e-3, so five
    points per stencil is a hard requirement, not a tuning choice.
    """
    ts = trace.grid
    if len(ts) < 5:
        raise PrecisionError("need at least 5 points for the residual stencil")
    if np.any(ts <= 0.05):
        raise DomainError("residual grid must stay above t = 0.05")
    h = ts[1] - ts[0]
    if not np.allclose(np.diff(ts), h, rtol=1e-8, atol=0.0):
        raise PrecisionError("residual stencil requires uniform spacing")

    y = trace.values
    d1 = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)
    d2 = (-y[4:] + 16.0 * y[3:-1] - 30.0 * y[2:-2] + 16.0 * y[1:-3] - y[:-4]) / (
        12.0 * h * h
    )
    tm = ts[2:-2]
    damping = (2.0 * jp.sigma + 1.0) / np.tanh(tm) + (2.0 * jp.tau + 1.0) * np.tanh(tm)
    eig = complex(jp.lam) ** 2 + jp.rho**2
    res = d2 + damping * d1 + eig * y[2:-2]
    return float(np.abs(res).max())


def spherical_profile(params: SpaceParams, lam: complex, d_grid) -> FunctionTrace:
    """Spherical-function values on a distance grid.

    The profile at distance d is the Jacobi function at half argument and
    doubled spectral parameter, with indices taken from the space.
    """
    d_grid = np.asarray(d_grid, dtype=float)
    if np.any(d_grid < 0):
        raise DomainError("distance grid must be nonnegative")
    jp = JacobiParams(params.sigma, params.tau, 2.0 * complex(lam))
    inner = jacobi_phi_trace(jp, d_grid / 2.0)
    return FunctionTrace(grid=d_grid, values=inner.values, err=inner.err)
