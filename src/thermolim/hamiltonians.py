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
# diagonalize(H) is the divide-and-conquer full solve (LAPACK stevd).
# diagonalize(H, n_modes=m) with m < n returns the lowest m modes only,
# from LAPACK dstemr (MRRR, RANGE = 'I'; Dhillon, Parlett & Voemel, ACM
# TOMS 32, 533 (2006)), which writes the m eigenvectors into an n x m block
# (NZC = m) and needs no reorthogonalisation, so time and memory grow like
# n m even when every low trap mode sits in one cluster.  scipy's own dstemr
# wrappers allocate an n x n Z, so _mrrr_window calls the routine from
# scipy's Cython LAPACK table.  A request for m >= n modes takes the full
# solve: divide and conquer beat a full MRRR solve at n = 4096 (0.5 s
# against 10 s for a stiff wall, 1.7 s against 4.8 s for a soft one).

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cython_lapack, eigh_tridiagonal

from .grids import Grid1D, GridConfigError, RadialGrid


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


@dataclass(frozen=True)
class SpectralDecomposition:
    """
    Eigenvalues (ascending) and eigenvectors of a discretized Hamiltonian.

    Eigenvectors are stored as columns, L2-normalized on the grid
    (sum |psi_j|^2 dx = 1) with the sign fixed so the first component
    exceeding 1e-12 of the max magnitude is positive.

    The eigenvectors have one row per grid point.  Both arrays are
    read-only.  Arrays passed in read-only are kept as they are
    (diagonalize hands over arrays it has just allocated); writeable ones
    are copied, so the caller cannot change the decomposition later.
    """

    grid: object
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (n_grid, n_modes)

    def __post_init__(self):
        rows = np.shape(self.eigenvectors)[0]
        if rows != self.grid.n_points:
            raise GridConfigError(
                f"{rows} eigenvector rows on a grid of {self.grid.n_points} points")
        for name in ("eigenvalues", "eigenvectors"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.flags.writeable:
                a = a.copy()
                a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]


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


def _lapack_handle(name: str, *argtypes):
    """A ctypes handle on one routine of scipy's Cython LAPACK table."""
    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_C, _I, _D = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_A = ctypes.c_void_p  # an array, passed as its data address (array.ctypes.data)
# dstemr(JOBZ, RANGE, N, D, E, VL, VU, IL, IU, M, W, Z, LDZ, NZC, ISUPPZ,
#        TRYRAC, WORK, LWORK, IWORK, LIWORK, INFO)
_DSTEMR = _lapack_handle(
    "dstemr", _C, _C, _I, _A, _A, _D, _D, _I, _I, _I, _A, _A, _I, _I, _A, _I, _A, _I, _A, _I, _I)


def _mrrr_window(d: np.ndarray, e: np.ndarray, z: np.ndarray) -> np.ndarray:
    """
    Lowest m = z.shape[1] eigenvalues of the symmetric tridiagonal (d, e)
    from dstemr, which writes the eigenvectors into z: an n x m float view
    with contiguous columns that lie LDZ = z.strides[1] / 8 floats apart (a
    Fortran block, or every other column of a longer one).  ValueError on
    NaN or inf input (as eigh_tridiagonal), EigensolverError when dstemr
    fails.
    """
    n, m = z.shape
    if z.dtype != np.float64 or z.strides[0] != z.itemsize:
        raise ValueError("dstemr needs a float64 block with contiguous columns")
    d = np.asarray_chkfinite(d, dtype=float).copy()  # dstemr overwrites d and e,
    e = np.append(np.asarray_chkfinite(e, dtype=float), 0.0)  # and e has length n
    w = np.empty(n)
    isuppz = np.empty(2 * m, dtype=np.intc)
    work, iwork = np.empty(18 * n), np.empty(10 * n, dtype=np.intc)  # the documented minima
    lead = max(n, z.strides[1] // z.itemsize)
    ints = [ctypes.pointer(ctypes.c_int(k)) for k in (n, 1, m, 0, lead, m, 1, work.size, iwork.size, 0)]
    n_, il, iu, found, ldz, nzc, tryrac, lwork, liwork, info = ints
    bound = ctypes.pointer(ctypes.c_double(0.0))  # VL and VU, unused for RANGE = 'I'
    # plain addresses: array.ctypes.data_as leaves reference cycles behind
    _DSTEMR(b"V", b"I", n_, d.ctypes.data, e.ctypes.data, bound, bound, il, iu, found,
            w.ctypes.data, z.ctypes.data, ldz, nzc, isuppz.ctypes.data, tryrac, work.ctypes.data,
            lwork, iwork.ctypes.data, liwork, info)
    if info[0] != 0 or found[0] != m:
        raise EigensolverError(
            f"dstemr failed: INFO = {info[0]}, {found[0]} of {m} eigenpairs returned")
    return w[:m].copy()


def _spacing(H: TridiagonalOperator) -> float:
    return getattr(H.grid, "dx", None) or H.grid.dr


def diagonalize(
    H: TridiagonalOperator,
    n_modes: Optional[int] = None,
) -> SpectralDecomposition:
    """
    Diagonalize a tridiagonal operator (LAPACK symmetric tridiagonal solver).

    With n_modes < n, the lowest n_modes eigenpairs come from the MRRR
    window of the module header, which holds only the n x n_modes
    eigenvector block.  Without n_modes, or with n_modes >= n, every mode
    comes from the divide-and-conquer full solve (an n x n eigenvector
    matrix).  NaN or inf entries raise ValueError on both paths.
    """
    dx = _spacing(H)
    try:
        if n_modes is not None and n_modes < H.size:
            v = np.empty((H.size, n_modes), order="F")
            w = _mrrr_window(H.diagonal, H.off_diagonal, v)
        else:
            w, v = eigh_tridiagonal(H.diagonal, H.off_diagonal)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    if np.any(w[1:] < w[:-1]):
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    v = _fix_signs(v, dx)
    w.flags.writeable = False
    v.flags.writeable = False
    return SpectralDecomposition(H.grid, w, v)


def _gershgorin_rows(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper Gershgorin edges d_j -+ (|e_(j-1)| + |e_j|) of each row."""
    r = np.zeros_like(d)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    return d - r, d + r


# largest trap_operator grid; its eigenvector matrix is 2 GiB
TRAP_N_CAP = 16384


def trap_operator(R: float, dx_target: float) -> TridiagonalOperator:
    """
    The soft-wall trap of radius R (c = 1) in a box L = R + 16, with spacing
    ~dx_target rounded to a commensurate power of two (so that integer
    positions are exact grid points).  A radius that is not finite, a
    dx_target that is not finite and positive, or a grid above TRAP_N_CAP
    points is refused.
    """
    if not np.isfinite(R):
        raise GridConfigError(f"trap radius must be finite, got {R}")
    if not (np.isfinite(dx_target) and dx_target > 0):
        raise GridConfigError(f"grid spacing must be finite and positive, got {dx_target}")
    L = R + 16.0
    # dx = 2^-k <= dx_target keeps integers on the grid
    k = int(np.ceil(-np.log2(dx_target)))
    n = int(round(2 * L * 2**k))
    if n % 2:
        n += 1
    if n > TRAP_N_CAP:
        raise GridConfigError(f"R = {R} at dx = 2^-{k} needs {n} points, above cap {TRAP_N_CAP}")
    return assemble(Grid1D(L, n), soft_wall_trap(R))
