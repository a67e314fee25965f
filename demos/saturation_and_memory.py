# Two signatures of condensation in the limit states.
#
# First, Bose saturation: as mu rises to 0 in one dimension, the number
# resolvent of any test function with nonzero mean is driven to zero (the
# packet sees the diverging zero-momentum occupation), while zero-mean
# test functions settle at a finite value fixed by the thermal cloud.
#
# Second, memory: in the 3D limit state at mu = 0 the thermal part of the
# temporal correlation decays like 1/sqrt(t), but a condensate with
# amplitude kappa leaves the constant plateau kappa^2 forever.

from thermolim import (
    HomogeneousState,
    RadialFunction3D,
    RadialGrid,
    bump,
    make_grid,
    mu_limit_scan,
    temporal_correlation,
)
from thermolim.grids import WaveFunction, bump_profile

grid = make_grid(20.0, 4096)
mus = [-0.1, -0.03, -0.01, -3e-3, -1e-3, -6e-4, -4e-4, -2.5e-4, -1.6e-4, -1e-4]

f1 = bump(0.0, 8.0, grid)
f1 = f1.with_values(f1.values / f1.integral().real)  # unit mean
verdict1, vals1 = mu_limit_scan(1.0, f1, 0.05, mus, cauchy_tol=1e-4, vanish_ratio=0.05)

b0 = bump(0.0, 1.0, grid).values
f0 = WaveFunction(grid, bump(2.0, 1.0, grid).values + bump(-2.0, 1.0, grid).values - 2 * b0)
f0 = f0.with_values(f0.values / f0.norm())  # zero mean and zero dipole
verdict0, vals0 = mu_limit_scan(1.0, f0, 0.05, mus, cauchy_tol=1e-4, vanish_ratio=0.05)

print("number resolvent omega(A(1, f)) as mu -> 0 (beta = 0.05):")
print(f"{'mu':>10} {'unit mean':>12} {'zero mean':>12}")
for mu, a, b in zip(mus, vals1, vals0):
    print(f"{mu:10.1e} {a:12.6f} {b:12.6f}")
print(f"verdicts: unit mean -> {verdict1};  zero mean -> {verdict0}")

print()
rg = RadialGrid(4.0, 1024)
phi0 = bump_profile(rg.r / 4.0)
f3 = RadialFunction3D(rg, phi0)
f3 = RadialFunction3D(rg, phi0 / f3.integral_3d())  # unit 3D integral
kappa = 0.5
cloud = HomogeneousState(beta=1.0, mu=0.0, dimension=3)
mixed = HomogeneousState(beta=1.0, mu=0.0, dimension=3, kappa=kappa)

print(f"temporal correlations at mu = 0, s = 3, kappa = {kappa}:")
print(f"{'t':>6} {'|thermal|':>12} {'total - thermal':>16}")
times = [5.0, 40.0, 320.0, 2600.0]
thermal = temporal_correlation(cloud, f3, f3, times)  # one transform for all times
total = temporal_correlation(mixed, f3, f3, times)
for t, th, tot in zip(times, thermal, total):
    print(f"{t:6.0f} {abs(th):12.3e} {(tot - th).real:16.12f}")
print(f"the plateau kappa^2 = {kappa**2} never decays: the condensate is remembered.")
