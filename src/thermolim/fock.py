# fock.py
#
# Exact second quantization on a truncated occupation-number basis: the
# brute-force oracle for sector norms and thermal expectation values.
#
# The basis consists of occupation tuples (n_1, ..., n_m) with n_i <= n_max
# and sum n_i <= N_total.  Creation/annihilation matrix elements are exact;
# truncation only removes states, so commutation relations hold exactly on
# every state with headroom.  a(f) is built two ways: the dense dict-loop
# matrix (the obviously correct reference, used by the self-tests and the
# field resolvent) and its vectorised sector-to-sector blocks.  The number
# resolvent (lam + a*(f) a(f))^(-1) conserves particle number, so it is
# built, inverted and traced one sector at a time from those blocks, as a
# list of plain arrays indexed by the particle number; no D x D matrix is
# formed for it.  The pair norms of evolved resolvents run on the same
# blocks over two modes.  The field resolvent (phi(f) changes the particle
# number) stays dense and reads the diagonal of one inverse.

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

import numpy as np

DIMENSION_CAP = 4096  # one dense complex D x D matrix is 268 MB at the cap
TRUNCATION_TOL = 1e-10  # largest Gibbs weight a trace may discard


class FockConfigError(ValueError):
    pass


class TruncationError(RuntimeError):
    """Gibbs weight of discarded occupations exceeds the tolerance."""


@dataclass(frozen=True)
class FockSpace:
    """Occupation-truncated bosonic Fock space over m orthonormal modes."""

    n_modes: int
    n_max: int
    n_total: int
    basis: tuple = field(init=False)
    index: dict = field(init=False, repr=False)
    sectors: dict = field(init=False, repr=False)
    occupations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_modes not in (1, 2, 3):
            raise FockConfigError(f"n_modes must be 1, 2 or 3, got {self.n_modes}")
        if self.n_max < 0 or self.n_total < 0:
            raise FockConfigError("occupation caps must be nonnegative")
        dimension = _basis_size(self.n_modes, self.n_max, self.n_total)
        if dimension > DIMENSION_CAP:
            raise FockConfigError(f"basis dimension {dimension} exceeds cap {DIMENSION_CAP}")
        basis = tuple(
            occ
            for occ in product(range(self.n_max + 1), repeat=self.n_modes)
            if sum(occ) <= self.n_total
        )
        index = {occ: i for i, occ in enumerate(basis)}
        sectors: dict[int, list[int]] = {}
        for i, occ in enumerate(basis):
            sectors.setdefault(sum(occ), []).append(i)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "sectors", {k: np.array(v) for k, v in sectors.items()})
        occupations = np.array(basis).reshape(len(basis), self.n_modes)
        occupations.flags.writeable = False
        object.__setattr__(self, "occupations", occupations)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def annihilator(self, mode: int) -> np.ndarray:
        """Dense matrix of a_mode: a|..., n, ...> = sqrt(n) |..., n-1, ...>."""
        D = self.dimension
        a = np.zeros((D, D))
        for occ, i in self.index.items():
            n = occ[mode]
            if n >= 1:
                tgt = occ[:mode] + (n - 1,) + occ[mode + 1 :]
                a[self.index[tgt], i] = np.sqrt(n)
        return a

    def annihilator_of(self, coeffs: np.ndarray) -> np.ndarray:
        """a(f) = sum_i conj(c_i) a_i for f = sum_i c_i e_i."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.n_modes,):
            raise FockConfigError("coefficient vector does not match the mode count")
        out = np.zeros((self.dimension, self.dimension), dtype=complex)
        for m, c in enumerate(coeffs):
            if c != 0:
                out += np.conj(c) * self.annihilator(m)
        return out

    def number_operator(self, mode: int) -> np.ndarray:
        return np.diag([float(occ[mode]) for occ in self.basis])

    def interior_mask(self) -> np.ndarray:
        """States where one more quantum in any mode stays inside the truncation."""
        return np.array(
            [
                sum(occ) + 1 <= self.n_total and all(n + 1 <= self.n_max for n in occ)
                for occ in self.basis
            ]
        )


def _basis_size(m: int, n_max: int, n_total: int) -> int:
    # m-tuples in [0, n_max] with sum <= n_total, by inclusion-exclusion over
    # the modes forced above n_max: C(n_total + m, m) tuples have no upper cap
    return sum(
        (-1) ** j * comb(m, j) * comb(n_total - j * (n_max + 1) + m, m)
        for j in range(m + 1)
        if j * (n_max + 1) <= n_total
    )


def build_fock(n_modes: int, n_max: int, n_total: int) -> FockSpace:
    """Construct a truncated Fock space (dimension-capped)."""
    return FockSpace(n_modes, n_max, n_total)


def ccr_defect(space: FockSpace) -> float:
    """
    Max deviation of [a_i, a*_j] - delta_ij from zero on interior states.

    Zero up to roundoff by construction; exposed as a self-test.
    """
    mask = space.interior_mask()
    worst = 0.0
    for i in range(space.n_modes):
        ai = space.annihilator(i)
        for j in range(space.n_modes):
            aj = space.annihilator(j)
            comm = ai @ aj.T - aj.T @ ai
            expect = np.eye(space.dimension) if i == j else 0.0
            worst = max(worst, np.abs((comm - expect)[:, mask]).max())
    return worst


def sector_blocks(space: FockSpace, op: np.ndarray) -> list[np.ndarray]:
    """Split a number-conserving operator into its sector blocks, indexed by particle number."""
    return [op[np.ix_(space.sectors[n], space.sectors[n])] for n in sorted(space.sectors)]


def number_resolvent_matrix(space: FockSpace, lam: float, coeffs: np.ndarray) -> list[np.ndarray]:
    """
    Exact (lam + a*(f) a(f))^(-1), blockwise: entry n is its block on the
    n-particle sector.
    """
    if lam <= 0:
        raise FockConfigError(f"lambda must be positive, got {lam}")
    return [np.linalg.inv(lam * np.eye(len(X)) + X) for X in _number_sector_blocks(space, coeffs)]


def _number_sector_blocks(space: FockSpace, coeffs):
    """
    Yield X_n for every particle-number sector n in ascending order, where
    X_n is the block of a*(f) a(f) on sector n in basis order.

    X_n = A_n^* A_n with A_n the block of a(f) from sector n to sector
    n - 1; a(f) maps sector n into sector n - 1 only, so these are exactly
    the diagonal blocks of the dense product.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (space.n_modes,):
        raise FockConfigError("coefficient vector does not match the mode count")
    occ = space.occupations
    # mixed-radix key of each occupation tuple, ascending in basis order
    # (itertools.product order); occupations never exceed min(n_max, n_total)
    radix = (min(space.n_max, space.n_total) + 1) ** np.arange(space.n_modes - 1, -1, -1)
    keys = occ @ radix
    for n in sorted(space.sectors):
        idx = space.sectors[n]
        if n == 0:
            yield np.zeros((1, 1), dtype=complex)
            continue
        lower = keys[space.sectors[n - 1]]
        a = np.zeros((len(lower), len(idx)), dtype=complex)
        for m, c in enumerate(coeffs):
            occ_m = occ[idx, m]
            cols = np.flatnonzero(occ_m)
            rows = np.searchsorted(lower, keys[idx[cols]] - radix[m])
            a[rows, cols] = np.conj(c) * np.sqrt(occ_m[cols])
        yield a.conj().T @ a


def sector_norm_monotonicity(blocks: list[np.ndarray]):
    """
    Check that sector norms are nondecreasing in the particle number.

    blocks[k] is the operator's block on the k-particle sector.  Returns
    (verdict, norms, running_max) where verdict is True when
    ||A||_k <= ||A||_{k+1} + 1e-12 for all consecutive sectors, norms lists
    the per-sector values and running_max their max_{j<=k} ||A||_j.
    """
    norms = [float(np.linalg.norm(b, 2)) for b in blocks]
    ok = all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    running_max = np.maximum.accumulate(norms).tolist()
    return ok, norms, running_max


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
    Exact ||A(lam, g1) - A(lam, g2)||_n from the Gram data of (g1, g2).

    The difference acts nontrivially only on the two-dimensional span of
    g1, g2; on the n-particle sector it decomposes over the occupation k of
    that span into the k-particle sector blocks of the two-mode number
    resolvents, and the norm is the max block norm over k <= n.  Linearly
    dependent g1, g2 reduce to the one-mode case automatically
    (perpendicular coordinate 0).
    """
    g1c, g2c = _span_coordinates(norm1, norm2, overlap)
    space = build_fock(2, n, n)
    A = number_resolvent_matrix(space, lam, g1c)
    B = number_resolvent_matrix(space, lam, g2c)
    return max(float(np.abs(np.linalg.eigvalsh(a - b)).max()) for a, b in zip(A, B))


def evolved_resolvent_sector_norm(lam: float, g1, g2, n: int, inner_product) -> float:
    """
    Exact n-sector norm of A(lam, g1) - A(lam, g2) for concrete vectors,
    with inner_product(a, b) conjugate-linear in a.
    """
    if n > 12:
        raise FockConfigError("sector index capped at 12 (desk scale)")
    n1 = np.sqrt(inner_product(g1, g1).real)
    n2 = np.sqrt(inner_product(g2, g2).real)
    ov = inner_product(g1, g2)
    return resolvent_pair_sector_norm(lam, n1, n2, ov, n)


# ---------------------------------------------------------------------------
# Gibbs traces on the truncated space
# ---------------------------------------------------------------------------


def _gibbs_weights(space: FockSpace, energies, beta: float, mu: float) -> np.ndarray:
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (space.n_modes,):
        raise FockConfigError("one energy per mode required")
    if mu >= energies.min():
        raise FockConfigError("chemical potential must lie below every mode energy")
    return np.exp(-beta * (space.occupations @ (energies - mu)))


def truncation_weight(space: FockSpace, energies, beta: float, mu: float) -> float:
    """Relative Gibbs weight of the discarded occupation states."""
    return _discarded_weight(_gibbs_weights(space, energies, beta, mu), energies, beta, mu)


def _discarded_weight(w: np.ndarray, energies, beta: float, mu: float) -> float:
    # 1 - (truncated partition sum of the weights w) / (untruncated product form)
    q = np.exp(-beta * (np.asarray(energies, dtype=float) - mu))
    z_full = np.prod(1.0 / (1.0 - q))
    return float(1.0 - w.sum() / z_full)


def gibbs_trace_expectation(
    space: FockSpace,
    op: np.ndarray,
    energies,
    beta: float,
    mu: float,
) -> float:
    """
    Grand-canonical expectation Tr(e^(-beta H) op) / Tr(e^(-beta H)) with
    H = sum_i (eps_i - mu) N_i on the truncated space.
    """
    w = _checked_gibbs_weights(space, energies, beta, mu)
    val = (w * np.diag(op).real).sum() / w.sum()
    return float(val)


def _checked_gibbs_weights(space, energies, beta, mu) -> np.ndarray:
    # Boltzmann weights of the basis states, refused when the truncation
    # discards more than TRUNCATION_TOL of the Gibbs weight
    w = _gibbs_weights(space, energies, beta, mu)
    drop = _discarded_weight(w, energies, beta, mu)
    if drop > TRUNCATION_TOL:
        raise TruncationError(
            f"truncation weight {drop:.2e} above {TRUNCATION_TOL:.0e}; raise the caps"
        )
    return w


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

    The operator conserves particle number, so each sector block is inverted
    on its own and only the diagonals of the inverses are weighted.
    """
    w = _checked_gibbs_weights(space, energies, beta, mu)
    blocks = number_resolvent_matrix(space, lam, coeffs)
    val = sum((w[space.sectors[n]] * np.diag(b).real).sum() for n, b in enumerate(blocks))
    return float(val / w.sum())


def gibbs_field_resolvent(
    space: FockSpace,
    lam: float,
    coeffs,
    energies,
    beta: float,
    mu: float,
) -> float:
    """
    Gibbs trace of Re (lam + i(a*(f) + a(f)))^(-1) on the truncated space.

    This is the operator whose Laplace representation
    Integral_0^inf e^(-u lam) e^(-iu phi(f)) du converges for lam > 0 (the
    field operator itself has real spectrum, so a real offset would be
    singular).  Reported alongside the Gaussian quadrature formula as a
    diagnostic; the truncation bites harder for field operators, so this is
    not an oracle equality.  The trace reads only the real part of the
    diagonal, so the inverse is passed as it is.
    """
    af = space.annihilator_of(np.asarray(coeffs, dtype=complex))
    M = af + af.conj().T
    del af  # the inverse then peaks at three complex D x D matrices, with M
    M *= 1j
    M[np.diag_indices_from(M)] += lam
    return gibbs_trace_expectation(space, np.linalg.inv(M), energies, beta, mu)
