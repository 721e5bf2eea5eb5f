"""A walk through the radial model: ball volumes, annuli, and the spherical
eigenfunctions that control large-scale averages.

Run: python3 demos/tour_geometry_spectra.py
"""
import numpy as np

from nalab import (
    DEFAULT_SPACE,
    AnnularGrid,
    JacobiParams,
    RadialFunction,
    SpaceParams,
    ball_volume,
    fit_log_slope,
    jacobi_phi_trace,
    maximal_dis,
    ode_residual,
    spherical_profile,
)

P = DEFAULT_SPACE
print("The canonical space has a polynomial core and an exponential tail:")
print(f"  sigma={P.sigma} tau={P.tau} rho={P.rho}")
print(f"  small balls ~ r^{P.ell}, large balls ~ e^({P.homogeneous_dim} r)\n")

for r in (0.5, 1.0, 5.0, 20.0, 80.0):
    print(f"  V({r:>5}) = {ball_volume(P, r):.6e}")

grid = AnnularGrid(P, 80)
js = np.arange(15, 31)
fit = fit_log_slope(js, grid.measures[js - 1])
print(f"\nAnnulus masses |Omega_j| grow at rate {fit.slope:.4f} "
      f"(the homogeneous dimension, r2={fit.r2:.6f})")
print("Everything downstream leans on this: a ball of radius n centered at")
print("distance d meets each annulus in a mass the clamp formula predicts.\n")

print("The maximal function of the unit-annulus indicator, over scales 1..25:")
res = maximal_dis(RadialFunction.indicator(grid, [1]), 25)
for j in (3, 5, 10, 20):
    print(f"  annulus {j:>2}: M chi_1 = {res.values[j - 1]:.3e}, "
          f"attained first at scale {res.argmax[j - 1]}")
print("Past the first few annuli the best ball is the smallest that reaches")
print("back to annulus 1.\n")

print("Spherical eigenfunctions phi_lambda:")
jp = JacobiParams(P.sigma, P.tau, 1.3)
ts = np.arange(0.1, 10.0, 0.001)
tr = jacobi_phi_trace(jp, ts)
print(f"  lam=1.3: residual against the defining ODE = {ode_residual(tr, jp):.2e}")

# the critical line: lam = i * 2 rho is constant growth, above it phi grows
for kappa in (2.0, 3.0, 4.0):
    tr = jacobi_phi_trace(JacobiParams(P.sigma, P.tau, 1j * kappa),
                          np.arange(15.0, 25.0, 0.25))
    slope = fit_log_slope(tr.grid, np.abs(tr.values)).slope
    print(f"  lam={kappa}i: |phi| log-slope {slope:+.4f} "
          f"(expected {kappa - 2.0:+.1f})")

print("\nOn the group side the same functions appear as radial profiles;")
print("at lam = -0.5i the normalized limit settles to the spectral constant:")
ds = np.arange(20.0, 30.0 + 1e-9, 0.5)
prof = spherical_profile(P, -0.5j, ds)
norm = np.abs(np.exp((P.rho - 0.5) * ds) * prof.values)
print(f"  e^((rho-1/2) d) phi(d) over d in [20,30]: "
      f"mean {norm.mean():.6f}, variation {(norm.max() - norm.min()) / norm.mean():.2e}")

print("\nOther layer dimensions work the same way (m even, k >= 0):")
for m, k in ((2, 1), (4, 3), (6, 1)):
    q = SpaceParams.from_mk(m, k)
    print(f"  (m,k)=({m},{k}): sigma={q.sigma} tau={q.tau} "
          f"growth rate {q.homogeneous_dim}, V(10)={ball_volume(q, 10.0):.3e}")
