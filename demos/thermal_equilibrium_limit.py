# Thermal states of the trapped gas converge to the homogeneous gas.
#
# At beta = 1, mu = -1 the one-particle density matrix of the trap
# reproduces the homogeneous density at the center already for modest R.
# Each density comes from a Lanczos walk out of the center: its Gauss and
# Gauss-Radau rules bracket the density to 1e-12 relative, with no
# eigenvector of the trap.  The number-resolvent expectation values need
# the trap's modes: the R = 20 state is solved up to its Bose energy cap
# (about 40 here), which leaves out at most 1e-16 of density at every grid
# point, and is checked against an exact truncated-Fock-space Gibbs trace.

import numpy as np

from thermolim import (
    QuasifreeState,
    build_fock,
    bump,
    gibbs_number_resolvent,
    homogeneous_density,
    number_resolvent_expectation,
    probe_density,
    thermal_decomposition,
    trap_operator,
)

beta, mu = 1.0, -1.0
hom = homogeneous_density(beta, mu, 1)
print(f"homogeneous density at beta={beta}, mu={mu}: {hom:.8f}")

for i, R in enumerate([20.0, 40.0, 80.0]):
    dens = probe_density(trap_operator(R, dx_target=0.125 / 2**i), beta, mu, 0.0).density
    print(f"R = {R:5.0f}: density(0) = {dens:.8f}   rel. dev = {abs(dens-hom)/hom:.2e}")

print()
print("resolvent expectations in the R = 20 state, with the exact oracle:")
decomp = thermal_decomposition(trap_operator(20.0, dx_target=0.125), beta, mu)
state = QuasifreeState(beta=beta, mu=mu, decomposition=decomp)
f = bump(0.0, 1.0, decomp.grid)

# reduce f to its two dominant eigenmode components for the oracle run
overlaps = state.mode_overlaps(f)
top = np.argsort(np.abs(overlaps))[-2:]
coeffs = overlaps[top].real
energies = [float(decomp.eigenvalues[k]) for k in top]
f2 = f.with_values(decomp.eigenvectors[:, top] @ coeffs)
space = build_fock(2, 48)

for lam in (0.5, 1.0, 2.0):
    series = number_resolvent_expectation(state, lam, f2)
    oracle = gibbs_number_resolvent(space, lam, coeffs, energies, beta, mu)
    print(
        f"  lam = {lam:3.1f}: geometric-law value {series:.10f}, "
        f"Gibbs trace {oracle:.10f}, delta {abs(series-oracle):.1e}"
    )
