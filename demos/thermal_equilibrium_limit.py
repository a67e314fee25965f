# Thermal states of the trapped gas converge to the homogeneous gas.
#
# At beta = 1, mu = -1 the one-particle density matrix of the trap
# reproduces the homogeneous density at the center already for modest R.
# Each density is <delta, T delta> for the grid delta at the center, and
# comes from a Lanczos walk out of it: its Gauss and Gauss-Radau rules
# bracket the density to 1e-12 relative, with no eigenvector of the trap.
# The number-resolvent expectation values read <f, T f> from the same
# walk, started at f.  Only the exact truncated-Fock-space Gibbs trace they
# are checked against needs the trap's modes: one full solve of the R = 20
# trap (576 points) gives the two modes that carry most of the bump.

import numpy as np

from thermolim import (
    build_fock,
    bump,
    diagonalize,
    gibbs_number_resolvent,
    grid_delta,
    homogeneous_density,
    number_resolvent_expectation,
    probe_density,
    trap_operator,
)

beta, mu = 1.0, -1.0
hom = homogeneous_density(beta, mu, 1)
print(f"homogeneous density at beta={beta}, mu={mu}: {hom:.8f}")

for i, R in enumerate([20.0, 40.0, 80.0]):
    H = trap_operator(R, dx_target=0.125 / 2**i)
    dens = probe_density(H, beta, mu, grid_delta(H.grid, 0.0)).density
    print(f"R = {R:5.0f}: density(0) = {dens:.8f}   rel. dev = {abs(dens-hom)/hom:.2e}")

print()
print("resolvent expectations in the R = 20 state, with the exact oracle:")
H = trap_operator(20.0, dx_target=0.125)
decomp = diagonalize(H)
f = bump(0.0, 1.0, H.grid)

# reduce f to its two dominant eigenmode components for the oracle run
overlaps = (decomp.eigenvectors.T @ f.values) * H.grid.dx
top = np.argsort(np.abs(overlaps))[-2:]
coeffs = overlaps[top].real
energies = [float(decomp.eigenvalues[k]) for k in top]
f2 = f.with_values(decomp.eigenvectors[:, top] @ coeffs)
space = build_fock(2, 48)

for lam in (0.5, 1.0, 2.0):
    series = number_resolvent_expectation(H, beta, mu, lam, f2)
    oracle = gibbs_number_resolvent(space, lam, coeffs, energies, beta, mu)
    print(
        f"  lam = {lam:3.1f}: geometric-law value {series:.10f}, "
        f"Gibbs trace {oracle:.10f}, delta {abs(series-oracle):.1e}"
    )
