# Thermal states of the trapped gas converge to the homogeneous gas.
#
# At beta = 1, mu = -1 the one-particle density matrix of the trap
# reproduces the homogeneous density at the center already for modest R.
# Each trap is solved only up to its Bose energy cap (about 40 here), which
# leaves out at most 1e-16 of density at every grid point;
# the resolvent expectation values follow from the same data and are
# checked against an exact truncated-Fock-space Gibbs trace.

import numpy as np

from thermolim import (
    QuasifreeState,
    build_fock,
    bump,
    field_resolvent_expectation,
    gibbs_number_resolvent,
    homogeneous_density,
    number_resolvent_expectation,
    position_density,
    thermal_decomposition,
    trap_operator,
)

beta, mu = 1.0, -1.0
hom = homogeneous_density(beta, mu, 1)
print(f"homogeneous density at beta={beta}, mu={mu}: {hom:.8f}")

for i, R in enumerate([20.0, 40.0, 80.0]):
    decomp = thermal_decomposition(trap_operator(R, dx_target=0.125 / 2**i), beta, mu)
    state = QuasifreeState(beta=beta, mu=mu, decomposition=decomp)
    dens = position_density(state, 0.0)
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

print()
print("field resolvent (gauge-averaged) in the same state:")
for lam in (0.5, 1.0, 2.0):
    print(f"  lam = {lam:3.1f}: {field_resolvent_expectation(state, lam, f):.8f}")
