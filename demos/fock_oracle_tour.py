# A tour of the exact oracle: truncated second quantization over a few
# modes, where every expectation value is a finite matrix computation.

import numpy as np

from thermolim import (
    build_fock,
    gibbs_number_resolvent,
    number_resolvent_matrix,
    resolvent_pair_sector_norm,
    sector_norm_monotonicity,
)
from thermolim.fock import ccr_defect
from thermolim.quasifree import bose_occupation, geometric_resolvent_series

space = build_fock(2, 6)
print(f"two modes, at most 6 quanta: {space.dimension} basis states")
print(f"commutator defect on interior states: {ccr_defect(space):.2e}")

print()
print("number-resolvent sector norms are 1/lam in every sector:")
blocks = number_resolvent_matrix(space, 2.0, np.array([0.6, 0.8]))
print("  norms:", ["%.6f" % np.linalg.norm(b, 2) for b in blocks])

print()
print("norms of evolved-resolvent differences, exactly, per sector:")
for n in (1, 2, 3):
    val = resolvent_pair_sector_norm(1.0, 1.0, 1.0, 0.97, n)
    print(f"  n = {n}: ||A(1,g1) - A(1,g2)||_n = {val:.6f}   (overlap 0.97)")

print()
print("sector norms grow with the particle number for algebra elements")
print("(third mode = spectator, standing in for the rest of the space):")
sp3 = build_fock(3, 5)
A = number_resolvent_matrix(sp3, 1.0, np.array([1.0, 0.0, 0.0]))
B = number_resolvent_matrix(sp3, 1.0, np.array([0.0, 1.0, 0.0]))
ok, norms = sector_norm_monotonicity([a - b for a, b in zip(A[:5], B[:5])])
print("  norms:", ["%.6f" % v for v in norms], " monotone:", ok)

print()
print("Gibbs trace against the geometric-law series:")
eps, beta, mu = [0.5, 1.5], 1.0, -0.2
coeffs = np.array([0.8, 0.6])
deep = build_fock(2, 44)
occ = bose_occupation(np.array(eps), beta, mu)
nbar = float((coeffs**2 * occ).sum())
for lam in (0.5, 1.0, 2.0):
    a = gibbs_number_resolvent(deep, lam, coeffs, eps, beta, mu)
    b = geometric_resolvent_series(nbar, 1.0, lam)
    print(f"  lam = {lam:3.1f}: trace {a:.12f}  series {b:.12f}  delta {abs(a-b):.1e}")
