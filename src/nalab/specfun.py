"""Jacobi functions of the radial model and their verification helpers.

Evaluates the even eigenfunction phi_lam of the Jacobi operator

    u'' + ((2 sigma + 1) coth t + (2 tau + 1) tanh t) u' + (lam^2 + rho^2) u = 0,

its singular companion solution Phi_lam, and spherical-function profiles
obtained from phi at half the distance argument.  Everything is summed from
Gauss series, by one routine.  phi's defining series in -sinh^2 t serves
every argument where it terminates; otherwise its Pfaff transform, a series
in tanh^2 t, serves t <= SERIES_SWITCH.  Phi is a series in sech^2 t, and
past the switch phi comes from the Harish-Chandra expansion

    phi_lam = c(lam) Phi_lam + c(-lam) Phi_{-lam}

with the closed-form c-function of Koornwinder ("Jacobi functions and
analysis on noncompact semisimple Lie groups", 1984).  Where i lam is close
to an integer the two terms have poles that cancel; there phi, which is
entire in lam, is the mean of the expansion over a small circle around lam.
Near t = 0 the expansion loses digits to cancellation like t^(-2 sigma), so
the switch sits where tanh^2 t = 0.9, the series disk that hyp2f1 serves.

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

SERIES_SWITCH = math.atanh(math.sqrt(0.9))  # tanh^2 t <= 0.9, as in hyp2f1
SERIES_TOL = 1e-14
SERIES_MAX_TERMS = 2000
_SLOW_MAX_TERMS = 40000  # Phi near t = 0 and phi near the switch converge slowly
CIRCLE_NODES = 24  # nodes N of the mean near i*Z; it aliases up to 1/N! of the terms
CIRCLE_RADIUS = 0.01  # largest radius of that circle
_BLOCK = 1 << 13  # (spectral point, argument) pairs summed at once
_RATIOS = 64  # term ratios of the series taken at once
_EPS = float(np.finfo(float).eps)

# Lanczos approximation, g = 607/128 with Godfrey's 15 coefficients: relative
# error about 1e-15 in Gamma on Re z >= 1/2
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4, 0.15808870322491248884e-3,
    -0.21026444172410488319e-3, 0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4, 0.36899182659531622704e-5,
)


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


def _log_gamma(z):
    """Complex log-gamma, elementwise; correct modulo 2 pi i.

    The Lanczos sum serves Re z >= 1/2 and the reflection formula the rest,
    with sin(pi z) taken at the offset w from the nearest integer.  At a pole
    the value is +inf, where 1/Gamma vanishes.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.5
    x = np.where(left, -z, z - 1.0)  # Gamma(x + 1) is Gamma(1 - z) or Gamma(z)
    series = _LANCZOS[0] + sum(c / (x + k) for k, c in enumerate(_LANCZOS[1:], 1))
    s = x + (_LANCZOS_G + 0.5)
    right = 0.5 * math.log(2.0 * math.pi) + (x + 0.5) * np.log(s) - s + np.log(series)
    n = np.round(z.real)
    w = z - n
    # sin(pi w) = up e^(-up i pi w) expm1(2 up i pi w) / (2i): no overflow off
    # the real axis, full relative accuracy near a pole at w = 0
    up = np.where(w.imag < 0.0, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        log_sin = np.log(up / 2j) - 1j * up * np.pi * w + np.log(np.expm1(2j * up * np.pi * w))
    return np.where(left, math.log(math.pi) - log_sin - 1j * np.pi * n - right, right)


def _log_c(sigma: float, tau: float, il):
    """log c(lam) of the Harish-Chandra c-function, elementwise in il = i lam.

    c(lam) = 2^(rho - i lam) Gamma(sigma + 1) Gamma(i lam)
             / (Gamma((i lam + rho) / 2) Gamma((i lam + sigma - tau + 1) / 2)).

    Also returns a rounding scale: the logarithm is good to 2 eps times it,
    since each log-gamma is good to 5 eps (1 + |value|), measured against
    mpmath.  Where a denominator sits on a pole the logarithm is -inf
    (c = 0), and the scale is 0: an exact zero carries no rounding.
    """
    rho = sigma + tau + 1.0
    gamma_il, gamma_a, gamma_b = _log_gamma([il, (il + rho) / 2.0, (il + sigma - tau + 1.0) / 2.0])
    pieces = ((rho - il) * math.log(2.0), math.lgamma(sigma + 1.0), gamma_il, -gamma_a, -gamma_b)
    log_c = sum(pieces)
    scale = 3.0 * (3.0 + sum(np.abs(p) for p in pieces))
    return log_c, np.where(np.isinf(log_c.real), 0.0, scale)


def _gauss_series(a, b, c, z, max_terms=SERIES_MAX_TERMS):
    """Sum the Gauss series elementwise over broadcast (a, b, c) and z.

    Returns (values, error estimates) of the broadcast shape.  The tail
    after a term is estimated as the term's magnitude amplified by the
    geometric factor 1/(1 - |z|); each element stops at the first term where
    that estimate is below SERIES_TOL of its running sum, but not before
    n = -Re c, and an exactly zero factor, which makes the series terminate,
    stops it at once.  No |z| cap here: callers are responsible for
    convergence budgets.  The error estimate is the tail estimate plus a
    rounding bound that grows with the summed term magnitudes and the term
    count.  The term ratios are taken per parameter triple, _RATIOS terms
    at a time, so parameters that vary along fewer axes than z cost nothing
    per point.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (a, b, c)))
    z = np.asarray(z)
    shape = np.broadcast_shapes(a.shape, z.shape)
    params = np.broadcast_to(np.arange(a.size).reshape(a.shape), shape).reshape(-1)
    a, b, c = a.reshape(-1), b.reshape(-1), c.reshape(-1)
    z = np.broadcast_to(z, shape).reshape(-1)
    values = np.empty(z.size, dtype=complex)
    err = np.empty(z.size)
    live = np.arange(z.size)
    stop_scale = 1.0 / (SERIES_TOL * np.maximum(1.0 - np.abs(z), 1e-3))
    # c near -m makes the terms past n = m jump by 1/|c + m|: no stop before
    hold = -c.real[params]
    hold_max = hold.max(initial=0.0)
    term = total = np.ones(z.size, dtype=complex)
    magnitudes = np.ones(z.size)  # sums of the term magnitudes: the rounding scale
    for n in range(max_terms):
        if not live.size:
            break
        if n % _RATIOS == 0:
            m = np.arange(n, n + _RATIOS)[:, None]
            ratios = (a + m) * (b + m) / ((c + m) * (m + 1.0))
        term = term * ratios[n % _RATIOS][params] * z
        total = total + term
        size = np.abs(term)
        magnitudes = magnitudes + size
        # the tail estimate over SERIES_TOL, against the running sum
        done = size * stop_scale <= np.abs(total)
        if n < hold_max:
            done &= hold <= n
        if n == max_terms - 1:
            done[:] = True
        if np.count_nonzero(done):
            values[live[done]] = total[done]
            tail = SERIES_TOL * size[done] * stop_scale[done]
            err[live[done]] = tail + _EPS * (n + 2) * magnitudes[done]
            keep = ~done
            live, params, z, stop_scale, hold, term, total, magnitudes = (
                v[keep] for v in (live, params, z, stop_scale, hold, term, total, magnitudes)
            )
    return values.reshape(shape), err.reshape(shape)


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function by direct series summation.

    Restricted to |z| <= 0.9 so the series budget of SERIES_MAX_TERMS terms
    always reaches SERIES_TOL.  nalab continues no 2F1 past that disk: phi
    and Phi, the functions it needs there, have their own expansions.
    """
    if _is_nonpositive_int(complex(c)):
        raise PoleError(f"series parameter c={c} is a nonpositive integer")
    if abs(complex(z)) > 0.9:
        raise DomainError(f"|z|={abs(complex(z)):.4f} > 0.9: outside the series disk")
    val, _ = _gauss_series(a, b, c, z)
    return complex(val)


def _scaled_series(a, b, c, z, log_scale, scale_size):
    """exp(log_scale) F(a, b; c; z), elementwise; values and error estimates.

    The scale is one exponential, so no factor of it overflows on its own;
    scale_size bounds the magnitudes summed into log_scale, whose absolute
    rounding is a relative error of the value.
    """
    series, serr = _gauss_series(a, b, c, z, max_terms=_SLOW_MAX_TERMS)
    scale = np.exp(log_scale)
    values = scale * series
    return values, np.abs(scale) * serr + 2.0 * _EPS * scale_size * np.abs(values)


def _second_terms(sigma: float, tau: float, il, ts, log_coeff=0.0, coeff_size=0.0):
    """coeff * Phi_lam at ts > 0, elementwise over broadcast il = i lam and ts.

    Phi_lam = (2 cosh t)^(i lam - rho) F(a, b; 1 - i lam; sech^2 t) with
    a = (rho - i lam)/2 and b = (sigma - tau + 1 - i lam)/2, and coeff =
    exp(log_coeff), whose rounding has scale coeff_size.  Returns values and
    error estimates.
    """
    rho = sigma + tau + 1.0
    a, b, c = (rho - il) / 2.0, (sigma - tau + 1.0 - il) / 2.0, 1.0 - il
    log_2cosh = np.logaddexp(ts, -ts)
    # Euler's transform F(a, b; c; z) = (1 - z)^(c - a - b) F(c - a, c - b; c; z)
    # pulls out the singular factor tanh(t)^(-2 sigma); the remaining series
    # converges for any t > 0, slowly near t = 0, where the term budget is wide
    log_sing = -2.0 * sigma * np.log(np.tanh(ts))
    log_scale = log_coeff + (il - rho) * log_2cosh + log_sing
    size = coeff_size + np.abs(il - rho) * log_2cosh + np.abs(log_sing)
    z = 4.0 * np.exp(-2.0 * log_2cosh)
    return _scaled_series(c - a, c - b, c, z, log_scale, size)


def _phi_pfaff(jp: JacobiParams, ts: np.ndarray):
    """phi_lam from its Pfaff-transformed series in tanh^2 t; values and errors.

    phi_lam = (cosh t)^(i lam - rho) F(a, (sigma - tau + 1 - i lam)/2; sigma + 1; tanh^2 t)
    with a = (rho - i lam)/2: the defining series at z/(z - 1), z = -sinh^2 t.
    """
    il = 1j * complex(jp.lam)
    a, _, c = jp.series_abc()
    log_2cosh = np.logaddexp(ts, -ts)
    log_scale = (il - jp.rho) * (log_2cosh - math.log(2.0))
    b = (jp.sigma - jp.tau + 1.0 - il) / 2.0
    return _scaled_series(a, b, c, np.tanh(ts) ** 2, log_scale, abs(il - jp.rho) * log_2cosh)


def _phi_connection(jp: JacobiParams, ts: np.ndarray):
    """phi_lam at ts > 0 from the Harish-Chandra expansion; values and errors.

    Where i lam lies within r/2 of an integer, r = min(CIRCLE_RADIUS,
    1/t_max), phi is the mean of the expansion over CIRCLE_NODES points of
    the circle |lam' - lam| = r.  phi is entire in lam, so the mean misses
    it only by aliasing, about (r t)^N / N! <= 1/N! < 1e-23 of the terms,
    which the rounding term of the error estimate covers; the terms grow
    like 1/r where they cancel, and their rounding with them.
    """
    lam = complex(jp.lam)
    r = min(CIRCLE_RADIUS, 1.0 / float(ts.max()))
    il = 1j * lam
    if abs(il - round(il.real)) < r / 2.0:
        k = np.arange(CIRCLE_NODES)
        weights = np.ones(CIRCLE_NODES)
        if lam.real == 0.0:
            # phi_lam is real, and the terms at nodes mirrored in the
            # imaginary axis are conjugate: the right half circle suffices,
            # with weight 2 off the axis
            k = np.arange(-CIRCLE_NODES // 4, CIRCLE_NODES // 4 + 1)
            weights = np.where(np.abs(k) == CIRCLE_NODES // 4, 1.0, 2.0)
        nodes = lam + r * np.exp(2j * np.pi * k / CIRCLE_NODES)
    else:
        nodes, weights = np.array([lam]), np.ones(1)
    ils = 1j * np.concatenate([nodes, -nodes])[:, None]
    weights = np.concatenate([weights, weights])[:, None] / weights.sum()
    log_c, c_size = _log_c(jp.sigma, jp.tau, ils)
    blocks = []
    step = max(1, _BLOCK // ils.size)
    for i in range(0, ts.size, step):
        terms, terms_err = _second_terms(jp.sigma, jp.tau, ils, ts[i : i + step], log_c, c_size)
        terms_err += _EPS * np.abs(terms)  # the rounding of the weighted sum
        blocks.append(((weights * terms).sum(axis=0), (weights * terms_err).sum(axis=0)))
    values, err = (np.concatenate(part) for part in zip(*blocks))
    return (values.real if lam.real == 0.0 else values), err


def jacobi_phi(jp: JacobiParams, t: float) -> complex:
    """The even Jacobi-equation solution with phi(0) = 1, phi'(0) = 0."""
    return complex(jacobi_phi_trace(jp, [t]).values[0])


def jacobi_phi_trace(jp: JacobiParams, ts) -> FunctionTrace:
    """Evaluate phi_lam on an increasing grid.

    A terminating defining series is a polynomial in sinh^2 t and serves
    every t.  Otherwise the Pfaff-transformed series serves t <=
    SERIES_SWITCH and the Harish-Chandra expansion the rest.  Where phi or
    its error estimate overflows the float range, DomainError names the
    first such t.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise DomainError(f"argument must be nonnegative, got {ts.min()}")
    a, b, c = jp.series_abc()
    # an overflowed scale times a series reads inf * 0 = nan in complex
    # arithmetic: silenced here and refused by the gate below
    with np.errstate(over="ignore", invalid="ignore"):
        # the test is exact because _gauss_series stops only on an exact zero factor
        if _is_nonpositive_int(a, tol=0.0) or _is_nonpositive_int(b, tol=0.0):
            values, err = _gauss_series(a, b, c, -np.sinh(ts) ** 2)
        else:
            values = np.empty(ts.shape, dtype=complex)
            err = np.empty(ts.shape, dtype=float)
            near = ts <= SERIES_SWITCH
            values[near], err[near] = _phi_pfaff(jp, ts[near])
            if not near.all():
                values[~near], err[~near] = _phi_connection(jp, ts[~near])
    bad = ~(np.isfinite(values) & np.isfinite(err))
    if bad.any():
        raise DomainError(
            f"phi_lam at lam={jp.lam} overflows the float range at t={ts[bad][0]}"
        )
    return FunctionTrace(grid=ts, values=values, err=err)


def _check_second_pole(lam: complex):
    lam = complex(lam)
    if abs(lam.real) <= 1e-12 and abs(lam.imag - round(lam.imag)) <= 1e-12:
        raise PoleError(
            f"second solution undefined at lam={lam}: spectral point in i*Z"
        )


def jacobi_phi_second(jp: JacobiParams, t: float) -> complex:
    """The companion solution Phi_lam, singular at 0, recessive at infinity."""
    return complex(jacobi_phi_second_trace(jp, [t]).values[0])


def jacobi_phi_second_trace(jp: JacobiParams, ts) -> FunctionTrace:
    _check_second_pole(jp.lam)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise DomainError("second solution needs t > 0")
    values, err = _second_terms(jp.sigma, jp.tau, 1j * complex(jp.lam), ts)
    return FunctionTrace(grid=ts, values=values, err=err)


def connection_coefficients(jp: JacobiParams) -> tuple[complex, complex]:
    """Coefficients (c(lam), c(-lam)) with phi = c(lam) Phi_lam + c(-lam) Phi_{-lam}.

    Koornwinder's closed form (see _log_c); on i*Z one of them has a pole.
    """
    _check_second_pole(jp.lam)
    il = 1j * complex(jp.lam)
    c_plus, c_minus = np.exp(_log_c(jp.sigma, jp.tau, np.array([il, -il]))[0])
    return complex(c_plus), complex(c_minus)


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
