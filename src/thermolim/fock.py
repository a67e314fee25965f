# fock.py
#
# Exact second quantization on a truncated occupation-number basis: the
# brute-force oracle for sector norms and thermal expectation values.
#
# The basis consists of occupation tuples (n_1, ..., n_m) with
# sum n_i <= N_total.  Creation/annihilation matrix elements are exact;
# truncation only removes states, so commutation relations hold exactly on
# every state with headroom.  a(f) lowers the particle number by one, so it
# is held as its sector-to-sector blocks A_n (sector n to sector n - 1),
# built in one place, _annihilator_blocks; the commutator self-test, the
# number resolvent and the pair norms all run on these blocks, and no
# D x D matrix is formed.  The number resolvent (lam + a*(f) a(f))^(-1)
# conserves particle number, so it is inverted one sector at a time.  The
# field resolvent (lam + i phi(f))^(-1), phi(f) = a(f) + a*(f), is traced
# on one mode, where it is a tridiagonal matrix over the occupation number
# and the diagonal of its inverse comes from two scalar continued fractions.

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np

# bounds the basis enumeration and the sector blocks; no D x D matrix is formed
DIMENSION_CAP = 4096
TRUNCATION_TOL = 1e-10  # largest Gibbs weight a trace may discard


class FockConfigError(ValueError):
    pass


class TruncationError(RuntimeError):
    """Gibbs weight of discarded occupations exceeds the tolerance."""


@dataclass(frozen=True)
class FockSpace:
    """Particle-number-truncated bosonic Fock space over m orthonormal modes."""

    n_modes: int
    n_total: int
    sectors: dict = field(init=False, repr=False)
    occupations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_modes not in (1, 2, 3):
            raise FockConfigError(f"n_modes must be 1, 2 or 3, got {self.n_modes}")
        if self.n_total < 0:
            raise FockConfigError("the particle-number cap must be nonnegative")
        # m-tuples of nonnegative integers with sum <= n_total
        dimension = comb(self.n_total + self.n_modes, self.n_modes)
        if dimension > DIMENSION_CAP:
            raise FockConfigError(f"basis dimension {dimension} exceeds cap {DIMENSION_CAP}")
        # occupation tuples in lexicographic order
        grid = np.indices((self.n_total + 1,) * self.n_modes).reshape(self.n_modes, -1).T
        occupations = grid[grid.sum(axis=1) <= self.n_total]
        occupations.flags.writeable = False
        object.__setattr__(self, "occupations", occupations)
        counts = occupations.sum(axis=1)
        sectors = {n: np.flatnonzero(counts == n) for n in range(counts.max() + 1)}
        object.__setattr__(self, "sectors", sectors)

    @property
    def dimension(self) -> int:
        return len(self.occupations)

    def interior_mask(self) -> np.ndarray:
        """States where one more quantum in any mode stays inside the truncation."""
        return self.occupations.sum(axis=1) < self.n_total


def build_fock(n_modes: int, n_total: int) -> FockSpace:
    """Construct a truncated Fock space (dimension-capped)."""
    return FockSpace(n_modes, n_total)


def _annihilator_blocks(space: FockSpace, coeffs) -> list[np.ndarray]:
    """
    a(f) = sum_i conj(c_i) a_i for f = sum_i c_i e_i, blockwise: entry n is
    A_n, its block from sector n to sector n - 1 in basis order (A_0 has no
    rows).  a(f) maps sector n into sector n - 1 only, so these blocks are
    all of it.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (space.n_modes,):
        raise FockConfigError("coefficient vector does not match the mode count")
    occ = space.occupations
    # mixed-radix key of each occupation tuple, ascending in basis order
    radix = (space.n_total + 1) ** np.arange(space.n_modes - 1, -1, -1)
    keys = occ @ radix
    blocks = [np.zeros((0, 1), dtype=complex)]
    for n in range(1, len(space.sectors)):
        idx = space.sectors[n]
        lower = keys[space.sectors[n - 1]]
        a = np.zeros((len(lower), len(idx)), dtype=complex)
        for m, c in enumerate(coeffs):
            occ_m = occ[idx, m]
            cols = np.flatnonzero(occ_m)
            rows = np.searchsorted(lower, keys[idx[cols]] - radix[m])
            a[rows, cols] = np.conj(c) * np.sqrt(occ_m[cols])
        blocks.append(a)
    return blocks


def ccr_defect(space: FockSpace) -> float:
    """
    Max deviation of [a_i, a*_j] - delta_ij from zero on interior states.

    Checked sector by sector on the blocks every resolvent runs on: on
    sector n the commutator is A^i_(n+1) A^j_(n+1)^* - A^j_n^* A^i_n.  The
    top sector holds no interior state.  Zero up to roundoff by
    construction; exposed as a self-test.
    """
    mask = space.interior_mask()
    modes = [_annihilator_blocks(space, e) for e in np.eye(space.n_modes)]
    worst = 0.0
    for n in range(len(space.sectors) - 1):
        cols = mask[space.sectors[n]]
        for (i, ai), (j, aj) in product(enumerate(modes), repeat=2):
            comm = ai[n + 1] @ aj[n + 1].conj().T - aj[n].conj().T @ ai[n]
            comm -= (i == j) * np.eye(len(cols))
            worst = max(worst, np.abs(comm[:, cols]).max(initial=0.0))
    return worst


def number_resolvent_matrix(space: FockSpace, lam: float, coeffs: np.ndarray) -> list[np.ndarray]:
    """
    Exact (lam + a*(f) a(f))^(-1), blockwise: entry n is its block on the
    n-particle sector, inv(lam + A_n^* A_n).
    """
    if lam <= 0:
        raise FockConfigError(f"lambda must be positive, got {lam}")
    return [
        np.linalg.inv(lam * np.eye(a.shape[1]) + a.conj().T @ a)
        for a in _annihilator_blocks(space, coeffs)
    ]


def sector_norm_monotonicity(blocks: list[np.ndarray]):
    """
    Check that sector norms are nondecreasing in the particle number.

    blocks[k] is the operator's block on the k-particle sector.  Returns
    (verdict, norms) where verdict is True when ||A||_k <= ||A||_{k+1} +
    1e-12 for all consecutive sectors and norms lists the per-sector values.
    """
    norms = [float(np.linalg.norm(b, 2)) for b in blocks]
    return all(a <= b + 1e-12 for a, b in zip(norms, norms[1:])), norms


# ---------------------------------------------------------------------------
# Exact sector norms for pairs of evolved resolvents
# ---------------------------------------------------------------------------


def _span_coordinates(norm1: float, norm2: float, overlap: complex):
    # orthonormal coordinates of (g1, g2) inside span{g1, g2}
    if norm1 == 0 and norm2 == 0:
        return np.zeros(2, complex), np.zeros(2, complex)
    if norm1 == 0:
        return np.zeros(2, complex), np.array([norm2, 0.0], complex)
    c = overlap / norm1
    perp_sq = norm2**2 - abs(c) ** 2
    perp = np.sqrt(perp_sq) if perp_sq > 0 else 0.0
    return np.array([norm1, 0.0], complex), np.array([c, perp], complex)


def resolvent_pair_sector_norm(
    lam: float,
    norm1: float,
    norm2: float,
    overlap: complex,
    n: int,
) -> float:
    """
    Exact ||A(lam, g1) - A(lam, g2)||_n from the Gram data of (g1, g2):
    their norms and overlap <g1, g2>, conjugate-linear in g1.  The sector
    index n is capped at 12 (desk scale).

    The difference acts nontrivially only on the two-dimensional span of
    g1, g2; on the n-particle sector it decomposes over the occupation k of
    that span into the k-particle sector blocks of the two-mode number
    resolvents, and the norm is the max block norm over k <= n.  Linearly
    dependent g1, g2 reduce to the one-mode case automatically
    (perpendicular coordinate 0).
    """
    if n > 12:
        raise FockConfigError("sector index capped at 12 (desk scale)")
    g1c, g2c = _span_coordinates(norm1, norm2, overlap)
    space = build_fock(2, n)
    A = number_resolvent_matrix(space, lam, g1c)
    B = number_resolvent_matrix(space, lam, g2c)
    return max(float(np.abs(np.linalg.eigvalsh(a - b)).max()) for a, b in zip(A, B))


# ---------------------------------------------------------------------------
# Gibbs traces on the truncated space
# ---------------------------------------------------------------------------


def _gibbs_weights(occupations: np.ndarray, energies, beta: float, mu: float):
    # Boltzmann weights of the occupation tuples (rows), and the relative
    # Gibbs weight the truncation discards: 1 - (truncated partition sum) /
    # (untruncated product form)
    if not (np.isfinite(beta) and np.isfinite(mu)) or beta <= 0:
        raise FockConfigError(f"beta and mu must be finite and beta > 0, got beta = {beta}, mu = {mu}")
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (occupations.shape[1],):
        raise FockConfigError("one energy per mode required")
    if mu >= energies.min():
        raise FockConfigError("chemical potential must lie below every mode energy")
    w = np.exp(-beta * (occupations @ (energies - mu)))
    z_full = np.prod(1.0 / (1.0 - np.exp(-beta * (energies - mu))))
    return w, float(1.0 - w.sum() / z_full)


def truncation_weight(space: FockSpace, energies, beta: float, mu: float) -> float:
    """Relative Gibbs weight of the discarded occupation states."""
    return _gibbs_weights(space.occupations, energies, beta, mu)[1]


def _checked_gibbs_weights(occupations, energies, beta, mu) -> np.ndarray:
    # Boltzmann weights, refused when the truncation discards more than
    # TRUNCATION_TOL of the Gibbs weight
    w, drop = _gibbs_weights(occupations, energies, beta, mu)
    if drop > TRUNCATION_TOL:
        raise TruncationError(
            f"truncation weight {drop:.2e} above {TRUNCATION_TOL:.0e}; raise n_total"
        )
    return w


def _sector_trace(space: FockSpace, w: np.ndarray, blocks) -> float:
    # Tr(e^(-beta H) op) / Tr(e^(-beta H)) for a number-conserving op given
    # by its sector blocks, from the Boltzmann weights w of the basis states
    val = sum((w[space.sectors[n]] * np.diag(b).real).sum() for n, b in enumerate(blocks))
    return float(val / w.sum())


def gibbs_number_resolvent(
    space: FockSpace,
    lam: float,
    coeffs,
    energies,
    beta: float,
    mu: float,
) -> float:
    """
    Gibbs trace of (lam + a*(f) a(f))^(-1): the oracle for the series formula.

    H = sum_i (eps_i - mu) N_i on the truncated space.  The operator
    conserves particle number, so each sector block is inverted on its own
    and only the diagonals of the inverses are weighted.
    """
    w = _checked_gibbs_weights(space.occupations, energies, beta, mu)
    return _sector_trace(space, w, number_resolvent_matrix(space, lam, coeffs))


def gibbs_field_resolvent(
    n_total: int,
    lam: float,
    coeff: complex,
    energy: float,
    beta: float,
    mu: float,
) -> float:
    """
    Gibbs trace of Re (lam + i(a*(f) + a(f)))^(-1) for f = coeff e on one
    mode e of energy `energy`, truncated at n_total quanta.

    This is the operator whose Laplace representation
    Integral_0^inf e^(-u lam) e^(-iu phi(f)) du converges for lam > 0 (the
    field operator itself has real spectrum, so a real offset would be
    singular).  The lab reports it next to the Gaussian quadrature formula.

    On the occupation basis lam + i phi(f) is tridiagonal, with diagonal lam
    and off-diagonal entries i c sqrt(n), |c| = |coeff|.  The Schur
    complements from below, S_n = lam + |c|^2 n / S_(n-1), and from above,
    T_n = lam + |c|^2 (n+1) / T_(n+1), are positive continued fractions, and
    the diagonal entry of the inverse at occupation n is 1 / (S_n + T_n - lam).
    """
    if n_total + 1 > DIMENSION_CAP:
        raise FockConfigError(f"basis dimension {n_total + 1} exceeds cap {DIMENSION_CAP}")
    w = _checked_gibbs_weights(np.arange(n_total + 1)[:, None], [energy], beta, mu)
    c2 = abs(coeff) ** 2
    below = [lam]  # S_n
    for n in range(1, n_total + 1):
        below.append(lam + c2 * n / below[-1])
    above = lam  # T_n, from n = n_total down
    diagonal = np.empty(n_total + 1)
    for n in reversed(range(n_total + 1)):
        diagonal[n] = 1.0 / (below[n] + above - lam)
        above = lam + c2 * n / above
    return float((w * diagonal).sum() / w.sum())
