"""Reference quantities the tests hold the library to.

No experiment, demo or benchmark reaches these, so they live beside the
tests instead of in the library.
"""

from dataclasses import dataclass

import numpy as np

from thermolim.propagators import evolve_free, evolve_spectral, gated_gap
from thermolim.quasifree import DomainError


def residual_norms(H, decomp) -> np.ndarray:
    """Per-mode ||H psi - eps psi||_2 on the grid (decomposition quality)."""
    v, e = decomp.eigenvectors, H.off_diagonal[:, None]
    r = H.diagonal[:, None] * v
    r[:-1] += e * v[1:]
    r[1:] += e * v[:-1]
    r -= decomp.eigenvalues * v
    return np.sqrt((r * r).sum(axis=0) * (getattr(H.grid, "dx", None) or H.grid.dr))


@dataclass(frozen=True)
class MomentumFunction:
    """Fourier transform samples at the grid's FFT-ordered momenta p."""

    p: np.ndarray
    values: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).sum() * self.p[1]))  # p[1] = dp


def to_momentum(f) -> MomentumFunction:
    """fhat(p) = (2 pi)^(-1/2) Integral f e^(-ipx) dx by FFT; the phase moves x_0 = -L to 0."""
    g = f.grid
    p = g.momenta()
    return MomentumFunction(p, np.fft.fft(f.values) * g.dx * np.exp(1j * p * g.half_width) / np.sqrt(2 * np.pi))


def propagator_gap(decomp, f, t: float, R: float) -> float:
    """Gated L2 gap between the free and the eigensolved trapped evolution of f."""
    return gated_gap(evolve_free(f, t), evolve_spectral(decomp, f, t), R)


def two_point(state, f, g) -> complex:
    """omega(a*(f) a(g)) = sum_k n_k <g, psi_k><psi_k, f>."""
    return complex((state.occupations * np.conj(state.mode_overlaps(g)) * state.mode_overlaps(f)).sum())


def kms_defect(state, f, g) -> float:
    """|two_point with T minus two_point with e^(-beta(H-mu))(1+T)|: detailed balance makes it vanish."""
    n = state.occupations
    dual = np.exp(-state.beta * (state.decomposition.eigenvalues - state.mu)) * (1.0 + n)
    pair = np.conj(state.mode_overlaps(g)) * state.mode_overlaps(f)
    return abs(complex((n * pair).sum()) - complex((dual * pair).sum()))


def local_particle_number(state, a: float, b: float) -> float:
    """Expected particle number in [a, b): Riemann integral of the density."""
    grid = state.decomposition.grid
    if a > b or a < -grid.half_width or b > grid.half_width:
        raise DomainError(f"region [{a}, {b}) is reversed or outside the grid")
    m = (grid.x >= a) & (grid.x < b)
    return float((state.occupations * state.decomposition.eigenvectors[m, :] ** 2).sum() * grid.dx)
