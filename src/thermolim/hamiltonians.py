# hamiltonians.py
#
# Single-particle Hamiltonians on the grid and their spectral decompositions.
#
# H = -d^2/dx^2 + V(x) with the three-point Laplacian (units 2m = 1), so the
# operator is a real symmetric tridiagonal matrix: diagonal 2/dx^2 + V(x_j),
# off-diagonal -1/dx^2.  The grid truncation imposes hard walls one cell
# outside the sampled box; experiments only trust modes whose amplitude at
# the box edge is negligible (see lab gates).
#
# The soft-wall trap confines particles to |x| <= R by the truncated
# harmonic potential c^2 * max(x^2 - R^2, 0): free inside the ball, growing
# quadratically outside.  The free particle is the trap with c = 0.
#
# diagonalize(H, n_modes=m) returns the lowest m modes only.  It takes them
# from bisection and inverse iteration (LAPACK stebz + stein, O(n m) memory)
# when that is cheaper than the full solve, and cuts the full solve to m
# modes otherwise.  stein reorthogonalises the whole window, so its cost
# grows like n m (m + 160) against about 0.9 n^2.5 for the full solve in
# the same units (fitted on a 2-vCPU Xeon); the window is taken below that
# crossover.  eigenvalue_count(H, E) is the O(n) Sturm count that turns an
# energy cap into a mode count.

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grids import Grid1D, GridConfigError, RadialGrid, WaveFunction


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge or produced invalid output."""


@dataclass(frozen=True)
class PotentialSpec:
    """Soft-wall trap V(x) = c^2 * max(x^2 - R^2, 0); c = 0 is the free particle."""

    radius: float
    coupling: float

    def __post_init__(self):
        if self.radius < 0:
            raise GridConfigError("confinement radius must be >= 0")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.coupling**2 * np.maximum(x * x - self.radius**2, 0.0)


def free_potential() -> PotentialSpec:
    return PotentialSpec(0.0, 0.0)


def soft_wall_trap(radius: float, coupling: float = 1.0) -> PotentialSpec:
    return PotentialSpec(radius, coupling)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Real symmetric tridiagonal operator; diagonal d, off-diagonal e."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    grid: object  # Grid1D or RadialGrid

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.off_diagonal, dtype=float)
        if e.shape != (d.shape[0] - 1,):
            raise GridConfigError("off-diagonal must have length n-1")
        d = d.copy(); d.flags.writeable = False
        e = e.copy(); e.flags.writeable = False
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product in O(n)."""
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """
    Eigenvalues (ascending) and eigenvectors of a discretized Hamiltonian.

    Eigenvectors are stored as columns, L2-normalized on the grid
    (sum |psi_j|^2 dx = 1) with the sign fixed so the first component
    exceeding 1e-12 of the max magnitude is positive.

    Both arrays are read-only.  Arrays passed in read-only are kept as they
    are (diagonalize hands over arrays it has just allocated); writeable
    ones are copied, so the caller cannot change the decomposition later.
    """

    grid: object
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (n_grid, n_modes)

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.flags.writeable:
                a = a.copy()
                a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]

    def mode(self, k: int) -> WaveFunction:
        return WaveFunction(self.grid, self.eigenvectors[:, k].astype(complex))


def _fix_signs(v: np.ndarray, dx: float) -> np.ndarray:
    # scale to grid L2 normalization, then fix the sign from the first
    # component that clears the noise threshold; works in place on v, and
    # its temporaries are boolean masks, an eighth of the size of v
    v /= np.sqrt(dx)
    thr = 1e-12 * np.maximum(v.max(axis=0), -v.min(axis=0))
    above = v > thr
    above |= v < -thr
    first = above.argmax(axis=0)  # 0 for an all-zero column, whose entry is 0
    v *= np.where(v[first, np.arange(v.shape[1])] < 0, -1.0, 1.0)
    return v


def assemble(grid: Grid1D, pot: PotentialSpec) -> TridiagonalOperator:
    """Discretize -d^2/dx^2 + V on the grid as a tridiagonal matrix."""
    n = grid.n_points
    d = 2.0 / grid.dx**2 + pot.evaluate(grid.x)
    e = np.full(n - 1, -1.0 / grid.dx**2)
    return TridiagonalOperator(d, e, grid)


def radial_assemble(grid: RadialGrid, l: int, pot: PotentialSpec) -> TridiagonalOperator:
    """
    Reduced radial operator -u'' + [l(l+1)/r^2 + V(r)] u with u(0) = 0.

    The grid excludes r = 0; the Dirichlet condition at the origin is built
    into the three-point stencil, and a hard wall sits one cell past r_max.
    """
    if l < 0:
        raise GridConfigError(f"angular momentum must be >= 0, got {l}")
    d = 2.0 / grid.dr**2 + l * (l + 1) / grid.r**2 + pot.evaluate(grid.r)
    e = np.full(grid.n_points - 1, -1.0 / grid.dr**2)
    return TridiagonalOperator(d, e, grid)


def eigenvalue_count(H: TridiagonalOperator, energy: float) -> int:
    """
    Number of eigenvalues of H below energy: the negative pivots of the
    LDL^T factorization of H - energy (Sturm count, O(n)).
    """
    e2 = (H.off_diagonal**2).tolist()
    # a zero pivot is moved to -pivmin, as LAPACK's bisection does
    pivmin = np.finfo(float).tiny * max(1.0, max(e2, default=1.0))
    count, q = 0, 1.0
    for d, b2 in zip((H.diagonal - energy).tolist(), [0.0] + e2):
        q = d - b2 / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0
    return count


def diagonalize(
    H: TridiagonalOperator,
    n_modes: Optional[int] = None,
) -> SpectralDecomposition:
    """
    Diagonalize a tridiagonal operator (LAPACK symmetric tridiagonal solver).

    n_modes restricts the output to the lowest n_modes eigenpairs.  They come
    from the stebz window when the cost model of the module header rates it
    cheaper than the full solve, and from the full solve cut to n_modes
    otherwise; only the full solve holds an n x n eigenvector matrix.
    """
    dx = getattr(H.grid, "dx", None) or H.grid.dr
    # the cost model of the module header
    window = n_modes is not None and n_modes * (n_modes + 160) < 0.9 * H.size**1.5
    try:
        if window:
            w, v = eigh_tridiagonal(
                H.diagonal,
                H.off_diagonal,
                select="i",
                select_range=(0, n_modes - 1),
                lapack_driver="stebz",
            )
        else:
            w, v = eigh_tridiagonal(H.diagonal, H.off_diagonal)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    if np.any(w[1:] < w[:-1]):
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    if n_modes is not None and n_modes < w.size:
        w, v = w[:n_modes].copy(), v[:, :n_modes].copy()
    v = _fix_signs(v, dx)
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(H.grid, w, v)


def residual_norms(H: TridiagonalOperator, decomp: SpectralDecomposition) -> np.ndarray:
    """Per-mode ||H psi - eps psi||_2 on the grid (decomposition quality)."""
    dx = getattr(H.grid, "dx", None) or H.grid.dr
    v = decomp.eigenvectors
    e = H.off_diagonal[:, None]
    r = H.diagonal[:, None] * v
    r[:-1] += e * v[1:]
    r[1:] += e * v[:-1]
    r -= decomp.eigenvalues * v
    return np.sqrt((r * r).sum(axis=0) * dx)


def parity_of(psi: WaveFunction) -> str:
    """Classify a grid function as 'even', 'odd' or 'none' under x -> -x."""
    refl = psi.reflected().values
    nrm = psi.norm()
    if nrm == 0:
        return "none"
    # relative L2 mismatch against the reflection, up to sign
    for tag, mirror in (("even", -refl), ("odd", refl)):
        if np.sqrt((np.abs(psi.values + mirror) ** 2).sum() * psi.grid.dx) / nrm <= 1e-6:
            return tag
    return "none"


def trap_operator(
    R: float,
    dx_target: float = 0.03125,
    n_cap: int = 16384,
) -> TridiagonalOperator:
    """
    The soft-wall trap of radius R (c = 1) in a box L = R + 16, with spacing
    ~dx_target rounded to a commensurate power of two (so that integer
    positions are exact grid points), coarsened until n <= n_cap.
    """
    L = R + 16.0
    # dx = 2^-k <= dx_target keeps integers on the grid
    k = int(np.ceil(-np.log2(dx_target)))
    n = int(round(2 * L * 2**k))
    if n % 2:
        n += 1
    while n > n_cap and 2 * L * 2 ** (k - 1) >= 16:
        k -= 1
        n = int(round(2 * L * 2**k))
    grid = Grid1D(L, n)
    return assemble(grid, soft_wall_trap(R))
