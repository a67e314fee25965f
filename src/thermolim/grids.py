# grids.py
#
# Uniform spatial grids, compactly supported test functions, inner products
# and Fourier transforms. Everything downstream builds on these.
#
# Conventions (fixed once, used everywhere):
# - Units: hbar = 1 and 2m = 1, so a free particle has energy E = p^2.
# - A 1D box [-L, L] is sampled at x_j = -L + j*dx, j = 0..n-1, dx = 2L/n.
#   The point x = 0 is on the grid (j = n/2); +L is not. Reflection about 0
#   maps index j to (n - j) mod n, the standard FFT-grid convention.
# - Quadrature is the plain Riemann sum  sum_j v_j * dx.  For smooth
#   compactly supported integrands this is spectrally accurate; accuracy is
#   controlled by the dx-halving gate, not by higher-order rules.
# - Fourier transform:  fhat(p) = (2 pi)^(-1/2) Integral f(x) e^(-i p x) dx,
#   momenta p_k = pi k / L for k in [-n/2, n/2).

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridConfigError(ValueError):
    """Raised for invalid grid or test-function parameters."""


class GridMismatchError(ValueError):
    """Raised when two functions living on different grids are combined."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L], points x_j = -L + j*dx, dx = 2L/n."""

    half_width: float
    n_points: int
    dx: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L, n = self.half_width, self.n_points
        if not L > 0:  # NaN fails
            raise GridConfigError(f"half_width must be positive, got {L}")
        if L == np.inf:
            raise GridConfigError(f"half_width must be finite, got {L}")
        if n % 2 != 0 or n < 16:
            raise GridConfigError(f"n_points must be even and >= 16, got {n}")
        dx = 2.0 * L / n
        x = -L + dx * np.arange(n)
        x.flags.writeable = False
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", x)

    def momenta(self) -> np.ndarray:
        """FFT-ordered momenta p_k = pi k / L, k in [-n/2, n/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def index_of(self, x: float) -> int:
        """Index of the grid point at position x; x must lie on the grid."""
        if not np.isfinite(x):
            raise GridConfigError(f"grid position x must be finite, got {x}")
        j = int(round((x + self.half_width) / self.dx))
        if not 0 <= j < self.n_points:
            raise GridConfigError(f"x = {x} outside the box [-L, L)")
        if abs(self.x[j] - x) > 1e-9 * max(1.0, abs(x)):
            raise GridConfigError(
                f"x = {x} is not a grid point (nearest: {self.x[j]}); "
                "choose commensurate grid spacing"
            )
        return j


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_j = j*dr, j = 1..n (origin excluded)."""

    r_max: float
    n_points: int
    dr: float = field(init=False)
    r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.r_max < np.inf:  # NaN fails
            raise GridConfigError(f"r_max must be positive and finite, got {self.r_max}")
        if self.n_points < 16:
            raise GridConfigError(f"n_points must be >= 16, got {self.n_points}")
        dr = self.r_max / self.n_points
        r = dr * np.arange(1, self.n_points + 1)
        r.flags.writeable = False
        object.__setattr__(self, "dr", dr)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class WaveFunction:
    """Complex-valued function sampled on a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(v)):
            raise GridConfigError("non-finite samples in WaveFunction")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).sum() * self.grid.dx))

    def integral(self) -> complex:
        """Riemann sum of the samples (the pairing with the constant 1)."""
        return complex(self.values.sum() * self.grid.dx)

    def moment(self) -> complex:
        """Riemann sum of x f(x) (the pairing with the linear mode x)."""
        return complex((self.grid.x * self.values).sum() * self.grid.dx)

    def with_values(self, values: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, values)


def make_grid(half_width: float, n_points: int) -> Grid1D:
    """Build a uniform 1D grid on [-L, L]; n_points must be even, >= 16."""
    return Grid1D(half_width, n_points)


def grid_delta(grid: Grid1D, x: float) -> WaveFunction:
    """The discrete delta e_j / dx at the grid point x = x_j: <delta, g> = g(x_j)."""
    v = np.zeros(grid.n_points)
    v[grid.index_of(x)] = 1.0 / grid.dx
    return WaveFunction(grid, v)


def bump_profile(u: np.ndarray) -> np.ndarray:
    """Smooth compactly supported profile exp(-1/(1-u^2)) on |u| < 1, else 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
    return out


def bump(center: float, radius: float, grid: Grid1D) -> WaveFunction:
    """
    L2-normalized smooth bump supported on [center - radius, center + radius].

    The support must lie inside the computational box; compact support is
    exact (samples vanish identically outside it), unlike a Gaussian.
    """
    if not np.isfinite(center):
        raise GridConfigError(f"bump center must be finite, got {center}")
    if not radius > 0:
        raise GridConfigError(f"radius must be positive, got {radius}")
    L = grid.half_width
    if center - radius < -L or center + radius > L:
        raise GridConfigError(
            f"bump support [{center - radius}, {center + radius}] exceeds box [-{L}, {L}]"
        )
    v = bump_profile((grid.x - center) / radius).astype(complex)
    nrm = np.sqrt((np.abs(v) ** 2).sum() * grid.dx)
    return WaveFunction(grid, v / nrm)


def inner(f: WaveFunction, g: WaveFunction) -> complex:
    """Grid inner product, conjugate-linear in the first argument."""
    if f.grid is not g.grid and (
        f.grid.half_width != g.grid.half_width or f.grid.n_points != g.grid.n_points
    ):
        raise GridMismatchError("inner product between different grids")
    return complex((np.conj(f.values) * g.values).sum() * f.grid.dx)


def fourier_at(f: WaveFunction, p: np.ndarray) -> np.ndarray:
    """
    fhat evaluated at arbitrary momenta by direct quadrature.

    For smooth compactly supported f the Riemann sum converges faster than
    any power of dx, so this serves as a continuum-quality transform where
    the FFT grid is too coarse (e.g. near a Bose singularity).  The sum
    runs over the support span of f by the phase recurrence of
    _phase_sums: e^(-ipx_j) = e^(-ipx_0) (e^(-ip dx))^k for x_j = x_0 + k dx.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    span = _support_span(f.values)
    out = np.exp(-1j * p * f.grid.x[span.start]) * _phase_sums(f.values[span], -p * f.grid.dx)
    return out * f.grid.dx / np.sqrt(2.0 * np.pi)


def _support_span(values: np.ndarray) -> slice:
    """
    Slice from the first to the last nonzero sample.  Interior zeros stay
    in it: the phase recurrence needs consecutive grid points.
    """
    nz = np.flatnonzero(values)
    return slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)


def _phase_sums(c: np.ndarray, theta) -> np.ndarray:
    """
    sum_k c_k e^(i k theta) for each angle theta (any shape).

    Every power of w = e^(i theta) comes from the previous one by one
    multiplication, never from its own exp.  The loop runs over the shorter
    axis: with more angles than coefficients it is Horner's scheme over k,
    vectorised over the angles; otherwise, one angle at a time, the phases
    w^k are a cumulative product over k, dotted with c.  Cost: one complex
    multiply-add per (angle, coefficient) pair and O(K + len(theta))
    memory.  Roundoff is about 2K eps sum_k |c_k| for Horner at |w| = 1
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1),
    and a small multiple of that for the cumulative product.
    """
    w = np.exp(1j * np.asarray(theta, dtype=float))
    if c.size == 0:
        return np.zeros(w.shape, dtype=complex)
    if w.size > c.size:
        acc = np.full(w.shape, c[-1], dtype=complex)
        for ck in c[-2::-1]:
            acc *= w
            acc += ck
        return acc
    out = np.empty(w.shape, dtype=complex)
    phases = np.empty(c.size, dtype=complex)
    for i, wi in np.ndenumerate(w):
        phases[0] = 1.0
        phases[1:] = wi
        np.cumprod(phases, out=phases)
        out[i] = phases @ c
    return out
