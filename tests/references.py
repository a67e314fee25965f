"""Reference quantities the tests hold the library to.

No experiment, demo or benchmark reaches these, so they live beside the
tests instead of in the library.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1

from thermolim.propagators import CHEBYSHEV_TAIL, _absorb, evolve_free, evolve_spectral, gated_gap
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


def miller_bessel_series(z: float, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """
    propagators._bessel_series by its earlier loop: Miller's backward
    recurrence J_(k-1) = (2k/z) J_k - J_(k+1) one order at a time from
    J_start = 1, rescaled by 1e-250 whenever an order passes 1e250.
    """
    if z == 0:
        return np.ones(1), np.zeros(1)
    margin = 15.0 * z ** (1 / 3) + 30.0
    while True:
        top = int(z + margin)
        start = top + int(margin)
        j = np.zeros(start + 2)
        j[start] = 1.0
        above, cur = 0.0, 1.0
        for k in range(start, 0, -1):
            above, cur = cur, 2.0 * k / z * cur - above
            if abs(cur) > 1e250:
                j[k:] *= 1e-250
                above, cur = above * 1e-250, cur * 1e-250
            j[k - 1] = cur
        j /= np.abs(j).max()
        j /= np.sqrt(j[0] ** 2 + 2.0 * (j[1:] ** 2).sum())
        ref = (j0(z), j[0]) if abs(j[0]) >= abs(j[1]) else (j1(z), j[1])
        if ref[0] * ref[1] < 0:
            j = -j
        q = z / (2.0 * top + 2.0 - z)
        beyond = abs(j[top]) * q / (1.0 - q)
        tails = 2.0 * norm * (np.cumsum(np.abs(j[top:0:-1]))[::-1] + beyond)
        if tails[-1] <= CHEBYSHEV_TAIL:
            return j[:top], tails
        margin *= 2.0


def ufunc_recurrence(segments_by_degree: list) -> None:
    """
    propagators._recurrence by plain ufuncs, one segment at a time:
    T_(k+1) = 2 H_s T_k - T_(k-1), T_1 = H_s T_0, with each T_k handed to
    _absorb as eps_k T_k, eps = (+, +, -, -) repeating, 64 terms at a time.
    The leak sums add sum_end |e_end| |(T_k f)(end)| to every time with
    k < degree, term by term, in a plain loop.
    """
    eps = (1.0, 1.0, -1.0, -1.0)
    for s in segments_by_degree:
        def apply(v):  # 2 H_s v
            y = s.diag * v
            y[:-1] += s.up[:-1] * v[1:]
            y[1:] += s.down[1:] * v[:-1]
            return y

        prev, cur, k, done, block = None, s.start.ravel(), 0, 0, []
        while done < s.kmax:
            parts = cur.reshape(s.start.shape)
            term = sum(c * np.sqrt((parts[:, r] ** 2).sum()) for r, c in zip(s.end_rows, s.couplings))
            for m, degree in enumerate(s.degrees):
                if k < degree:
                    s.leak[m] += term
            block.append(eps[k % 4] * cur)
            prev, cur, k = cur, 0.5 * apply(cur) if k == 0 else apply(cur) - prev, k + 1
            if len(block) == 64 or k == s.kmax:
                _absorb(s, np.array(block), done, k)
                done, block = k, []


def mode_overlaps(state, f) -> np.ndarray:
    """<psi_k, f> for every eigenmode of a QuasifreeState."""
    return (state.decomposition.eigenvectors.T @ f.values) * f.grid.dx


def two_point(state, f, g) -> complex:
    """omega(a*(f) a(g)) = sum_k n_k <g, psi_k><psi_k, f>."""
    return complex((state.occupations * np.conj(mode_overlaps(state, g)) * mode_overlaps(state, f)).sum())


def kms_defect(state, f, g) -> float:
    """|two_point with T minus two_point with e^(-beta(H-mu))(1+T)|: detailed balance makes it vanish."""
    n = state.occupations
    dual = np.exp(-state.beta * (state.decomposition.eigenvalues - state.mu)) * (1.0 + n)
    pair = np.conj(mode_overlaps(state, g)) * mode_overlaps(state, f)
    return abs(complex((n * pair).sum()) - complex((dual * pair).sum()))


def local_particle_number(state, a: float, b: float) -> float:
    """Expected particle number in [a, b): Riemann integral of the density."""
    grid = state.decomposition.grid
    if a > b or a < -grid.half_width or b > grid.half_width:
        raise DomainError(f"region [{a}, {b}) is reversed or outside the grid")
    m = (grid.x >= a) & (grid.x < b)
    return float((state.occupations * state.decomposition.eigenvectors[m, :] ** 2).sum() * grid.dx)


def fixed_simpson_thermal_integral(fh_spline, beta: float, mu: float, t: float, p_cut: float) -> complex:
    """
    quasifree._oscillatory_thermal_integral's earlier rule: one Simpson grid
    of 48 nodes per cycle of e^(-i t p^2) at p_cut, at least 20001 nodes.
    """
    cycles = max(t, 1.0) * p_cut**2 / (2.0 * np.pi)
    npts = int(max(20001, 48 * cycles)) // 2 * 2 + 1
    p = np.linspace(0.0, p_cut, npts)
    occ = np.empty_like(p)
    occ[0] = 0.0
    occ[1:] = 1.0 / np.expm1(beta * (p[1:] ** 2 - mu))
    amp_occ = fh_spline(p) * 4.0 * np.pi * p * p * occ
    if mu == 0.0:  # integrable endpoint: p^2 n(p^2) -> 1/beta
        amp_occ[0] = fh_spline(0.0) * 4.0 * np.pi / beta
    integrand = amp_occ * np.exp(-1j * t * p * p)
    h = p[1] - p[0]
    return complex(
        h / 3.0 * (integrand[0] + integrand[-1] + 4 * integrand[1:-1:2].sum() + 2 * integrand[2:-2:2].sum())
    )
