# quasifree.py
#
# Gauge-invariant quasifree states: thermal one-particle density matrices,
# resolvent expectation values, saturation of the chemical potential, and
# temporal correlations.
#
# A state is fixed by its one-particle density matrix
# T = (e^(beta(H - mu)) - 1)^(-1): omega(a*(f) a(g)) = <g, T f>.  Only the
# thermodynamic-limit state adds a coherent condensate, a gauge invariant
# product of one-point functions kappa^2 <h, f> <g, h>; the finite-trap
# condensate modes and their counts live in the condensates module.
#
# Finite traps use the spectral decomposition of H, cut at a Bose energy
# cap: thermal_decomposition keeps the lowest modes up to the first one
# above E = mu + log1p(2/(tol dx))/beta, with tol = DISCARD_TOL.  Every
# discarded mode lies above the top kept level eps_max, and the squares of
# all n modes sum to 1/dx at each grid point, so the discarded density is
# at most n_B(eps_max)/dx <= tol/2 everywhere.  QuasifreeState checks that
# bound for every incomplete decomposition (a complete one has bound 0).
# diagonalize takes any window of m < n modes by MRRR in O(n m) time and
# memory; a cap above the whole spectrum (m = n + 1) takes the full solve.
#
# Thermodynamic-limit states use the momentum-space multiplier
# n(p^2) = (e^(beta(p^2 - mu)) - 1)^(-1).  Their condensate is the
# zero-energy constant mode h = 1 with amplitude kappa: it never lives on a
# grid, and pairs with a test function to its plain integral.
#
# The direct momentum transforms (momentum_weight's |fhat(p)|^2 and
# RadialFunction3D.radial_transform) are phase sums over consecutive grid
# points (grids._phase_sums): each power of the phase comes from the
# previous one by one multiplication, so N samples at M momenta cost
# O(N M) multiply-adds and O(N + M) memory, with roundoff of about
# 2 N eps sum |c|.  Every adaptive quadrature goes through _quad, which
# raises QuadratureCapError when QUADPACK reports no convergence.

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .grids import RadialGrid, WaveFunction, _phase_sums, _support_span, inner
from .hamiltonians import (
    SpectralDecomposition,
    TridiagonalOperator,
    diagonalize,
    eigenvalue_count,
)
from .propagators import QuadratureCapError

MU_SAFETY = 1e-6
# largest density a thermal state may leave out with its discarded modes,
# three orders below the absolute tolerance on reported densities
DISCARD_TOL = 1e-16
EDGE_ZONE = 4.0  # width of the edge strip thermal_edge_weight weighs


class DomainError(ValueError):
    """State parameters outside the admissible region (e.g. mu >= spectrum)."""


class DivergenceError(ValueError):
    """Requested quantity diverges (Bose saturation in low dimension)."""


def _quad(integrand, a: float, b: float, **kwargs) -> float:
    """
    scipy's adaptive quad that fails loudly: where QUADPACK reports
    ier != 0 (subdivision cap, roundoff, divergence) it raises
    QuadratureCapError instead of warning and returning its best guess.
    """
    out = quad(integrand, a, b, full_output=1, **kwargs)
    if len(out) > 3:  # the convergence message is returned only for ier != 0
        raise QuadratureCapError(
            f"quadrature on [{a:.6g}, {b:.6g}] did not converge: {out[3].splitlines()[0].strip()}"
        )
    return out[0]


def bose_occupation(eps, beta: float, mu: float):
    """(e^(beta(eps - mu)) - 1)^(-1), overflow-safe; requires eps > mu."""
    x = beta * (np.asarray(eps, dtype=float) - mu)
    if np.any(x <= 0):
        raise DomainError("Bose weight needs beta (eps - mu) > 0 for every level")
    out = np.zeros_like(x)
    small = x < 500
    out[small] = 1.0 / np.expm1(x[small])
    return out


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasifreeState:
    """
    Thermal state of a finite trap.

    The decomposition may hold only the lowest modes (see diagonalize);
    discard_bound is then the largest density the missing modes can carry
    at a grid point, n_B(eps_max)/dx, and a state whose bound exceeds
    DISCARD_TOL is rejected.
    """

    beta: float
    mu: float
    decomposition: SpectralDecomposition
    occupations: np.ndarray = field(init=False, repr=False)  # per eigenvalue, read-only
    discard_bound: float = field(init=False)

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        eps0 = float(self.decomposition.eigenvalues.min())
        if self.mu >= eps0 - MU_SAFETY:
            raise DomainError(
                f"mu = {self.mu} too close to the bottom of the spectrum ({eps0})"
            )
        occ = bose_occupation(self.decomposition.eigenvalues, self.beta, self.mu)
        occ.flags.writeable = False
        object.__setattr__(self, "occupations", occ)
        bound = 0.0
        decomp = self.decomposition
        if decomp.n_modes < decomp.eigenvectors.shape[0]:
            bound = float(occ.min()) / decomp.grid.dx
            if bound > DISCARD_TOL:
                raise DomainError(
                    f"the {decomp.eigenvectors.shape[0] - decomp.n_modes} modes missing from "
                    f"the decomposition may carry a density of {bound:.2e}, "
                    f"above {DISCARD_TOL:.0e}"
                )
        object.__setattr__(self, "discard_bound", bound)

    def mode_overlaps(self, f: WaveFunction) -> np.ndarray:
        """<psi_k, f> for every eigenmode."""
        return (self.decomposition.eigenvectors.T @ f.values) * f.grid.dx


def thermal_decomposition(H: TridiagonalOperator, beta: float, mu: float) -> SpectralDecomposition:
    """
    The modes of H that a thermal state at (beta, mu) needs: the lowest ones
    up to the first above the Bose energy cap (module header), whose
    discard bound is at most DISCARD_TOL / 2.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    cap = mu + np.log1p(2.0 / (DISCARD_TOL * H.grid.dx)) / beta
    return diagonalize(H, n_modes=eigenvalue_count(H, cap) + 1)


@dataclass(frozen=True)
class HomogeneousState:
    """
    Thermodynamic-limit state: momentum-multiplier T, plus a condensate in
    the constant mode with amplitude kappa (none at kappa = 0).
    """

    beta: float
    mu: float
    dimension: int = 1
    kappa: float = 0.0

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError("beta must be positive")
        if self.mu > 0:
            raise DomainError("mu must be <= 0 for the homogeneous state")
        if self.mu == 0 and self.dimension < 3:
            raise DomainError("mu = 0 needs dimension >= 3 (integrable singularity)")
        if self.kappa < 0:
            raise DomainError(f"condensate amplitude kappa must be >= 0, got {self.kappa}")


# ---------------------------------------------------------------------------
# Densities and the edge gate (finite trap)
# ---------------------------------------------------------------------------


def position_density(state: QuasifreeState, x: float) -> float:
    """Diagonal of the density matrix: sum_k n_k |psi_k(x)|^2."""
    j = state.decomposition.grid.index_of(x)
    return float((state.occupations * state.decomposition.eigenvectors[j, :] ** 2).sum())


def thermal_edge_weight(state: QuasifreeState) -> float:
    """
    Occupation-weighted density within EDGE_ZONE of the box edge relative
    to the total: the validity gate for trusting a finite box as a stand-in
    for the trap.
    The edge sum takes the state's discard bound at each of its points, so
    the ratio stays an upper bound when the decomposition is a window.
    """
    grid = state.decomposition.grid
    m = np.abs(grid.x) >= grid.half_width - EDGE_ZONE
    v = state.decomposition.eigenvectors
    n = state.occupations
    # per-row density sum_k n_k psi_k(x)^2, squared in row blocks so no
    # temporary grows to the size of the eigenvector matrix
    density = np.empty(v.shape[0])
    step = 256
    for i in range(0, len(density), step):
        density[i : i + step] = (v[i : i + step] ** 2) @ n
    edge = density[m].sum() + m.sum() * state.discard_bound
    total = density.sum()
    return float(edge / total) if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Homogeneous (thermodynamic-limit) quantities
# ---------------------------------------------------------------------------


def homogeneous_density(beta: float, mu: float, s: int) -> float:
    """
    Mean particle density of the homogeneous thermal state in s dimensions:

        (2 pi)^(-s) Integral d^s p  (e^(beta(p^2 - mu)) - 1)^(-1)

    Diverges as mu -> 0 for s = 1, 2; stays finite for s = 3 (mu = 0 allowed).
    """
    if s not in (1, 2, 3):
        raise DomainError(f"dimension must be 1, 2 or 3, got {s}")
    if beta <= 0:
        raise DomainError("beta must be positive")
    if s in (1, 2) and mu >= 0:
        raise DivergenceError(f"density diverges for mu >= 0 in dimension {s}")
    if s == 3 and mu > 0:
        raise DomainError("mu must be <= 0")

    radial_weight = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[s]

    def integrand(p):
        return radial_weight * p ** (s - 1) / np.expm1(beta * (p * p - mu))

    p_cut = np.sqrt((600.0 + beta * max(-mu, 0.0)) / beta)
    if mu < 0:
        pts = sorted({min(np.sqrt(-mu), p_cut / 2), min(10 * np.sqrt(-mu), p_cut / 2)})
        pts = [p for p in pts if 0 < p < p_cut]
    else:
        pts = [min(1.0, p_cut / 2)]
    val = _quad(integrand, 0.0, p_cut, points=pts, limit=400, epsabs=0.0, epsrel=1e-11)
    return float(val / (2.0 * np.pi) ** s)


def momentum_weight(f: WaveFunction, beta: float, mu: float) -> float:
    """
    <f, T f> in the homogeneous 1D state: Integral |fhat(p)|^2 n(p^2) dp,
    with fhat the direct Riemann sum of grids.fourier_at (continuum-quality
    near p = 0).

    T is real, so the weight of f is the weight of Re f plus that of Im f;
    a real function has |fhat(-p)| = |fhat(p)|, so each part folds onto
    p >= 0 at twice its half-line integral.  Each part's support span is
    taken once per call; at every quad node |fhat(p)| is its phase sum
    over that span, the phases e^(-ipk dx) built by a cumulative product
    (the span's offset phase e^(-ipx_0) drops out of the modulus).
    """
    if mu >= 0:
        raise DivergenceError("homogeneous 1D weight needs mu < 0")
    dx = f.grid.dx
    # complex coefficients, so the dot at each node needs no cast
    parts = [v[_support_span(v)].astype(complex) for v in (f.values.real, f.values.imag) if v.any()]
    scale = dx * dx / (2.0 * np.pi)

    def integrand(p):
        fh2 = sum(np.abs(_phase_sums(c, -p * dx)) ** 2 for c in parts)
        return float(fh2) * scale / np.expm1(beta * (p * p - mu))

    sq = np.sqrt(-mu)
    p_cut = np.sqrt((600.0 + beta * max(-mu, 0.0)) / beta)
    cuts = [c for c in (sq, 10 * sq, 1.0) if 0 < c < p_cut]
    val = _quad(
        integrand, 0.0, p_cut, points=sorted(set(cuts)), limit=400, epsabs=0.0, epsrel=1e-10
    )
    return float(2.0 * val)


# ---------------------------------------------------------------------------
# Resolvent expectation values
# ---------------------------------------------------------------------------


def _laplace_transform(g, lam: float) -> float:
    """
    Integral_0^inf du e^(-u lam) g(u) for lam > 0 and a smooth g that
    falls from g(0) = 1 and stays in (0, 1].  Adaptive quadrature in
    v = ln u covers [a, 800/lam] with a = 1e-18/lam.  The piece below a is
    taken as a, off by at most (lam + |g'(0)|) a^2 / 2; the piece above is
    under e^(-800)/lam.
    """
    lo = 1e-18 / lam

    def integrand(v):
        u = np.exp(v)
        return u * np.exp(-u * lam) * g(u)

    val = _quad(integrand, np.log(lo), np.log(800.0 / lam), epsabs=0.0, epsrel=1e-12, limit=400)
    return float(val + lo)


def field_resolvent_value(lam: float, sigma_sq: float) -> float:
    """
    Integral_0^inf du e^(-u lam) e^(-(u^2/2) sigma_sq); equals 1/lam at
    sigma_sq = 0 and decreases with sigma_sq.
    """
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if sigma_sq < 0:
        raise DomainError("variance must be >= 0")
    return _laplace_transform(lambda u: np.exp(-0.5 * u * u * sigma_sq), lam)


def field_resolvent_expectation(state, lam: float, f: WaveFunction) -> float:
    """
    Expectation of the gauge-averaged field resolvent,

        Integral_0^inf du e^(-u lam) e^(-(u^2/2) <f, T f>),

    for the pure thermal state (kappa = 0); the value lies in (0, 1/lam].
    """
    if getattr(state, "kappa", 0.0) != 0:
        raise DomainError("field resolvent implemented for the unperturbed state")
    return field_resolvent_value(lam, _thermal_weight_of(state, f))


def _thermal_weight_of(state, f: WaveFunction) -> float:
    if isinstance(state, QuasifreeState):
        c = state.mode_overlaps(f)
        return float((state.occupations * np.abs(c) ** 2).sum())
    if isinstance(state, HomogeneousState):
        if state.dimension != 1:
            raise DomainError("grid test functions pair with the 1D homogeneous state")
        return momentum_weight(f, state.beta, state.mu)
    raise TypeError(f"unsupported state {type(state)!r}")


def geometric_resolvent_series(nbar: float, norm_sq: float, lam: float) -> float:
    """
    sum_{n>=0} p_n (lam + n ||f||^2)^(-1) with p_n = nbar^n (1+nbar)^(-(n+1)).

    Evaluated in its Laplace form: writing (lam + n s)^(-1) as
    Integral_0^inf e^(-u (lam + n s)) du and summing the geometric
    weights under the integral gives

        Integral_0^inf du e^(-u lam) / (1 - nbar expm1(-u s)),

    one quadrature whose cost does not grow with nbar.
    """
    if nbar < 0:
        raise DomainError("occupation must be >= 0")
    if nbar == 0:
        return 1.0 / lam
    return _laplace_transform(lambda u: 1.0 / (1.0 - nbar * np.expm1(-u * norm_sq)), lam)


def number_resolvent_expectation(state, lam: float, f: WaveFunction) -> float:
    """
    Expectation of (lam + a*(f) a(f))^(-1) in a gauge-invariant quasifree
    state: the single mode f/||f|| is geometrically occupied with mean
    <f, T f>/||f||^2 (see geometric_resolvent_series).

    Validated against the exact truncated-space Gibbs trace (see the
    fock module and the oracle tests) before use anywhere else.  A
    condensate is admitted only when its constant mode is orthogonal to f,
    that is when f integrates to zero.
    """
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    norm_sq = inner(f, f).real
    if norm_sq == 0:
        return 1.0 / lam
    if getattr(state, "kappa", 0.0) > 0:
        pair = abs(f.integral())
        if pair > 1e-10 * np.sqrt(norm_sq):
            raise DomainError(
                "displaced-state corrections are out of scope; "
                "the condensate mode must be orthogonal to f"
            )
    nbar = _thermal_weight_of(state, f) / norm_sq
    return geometric_resolvent_series(nbar, norm_sq, lam)


def mu_limit_scan(
    lam: float,
    f: WaveFunction,
    beta: float,
    mu_list,
    cauchy_tol: float,
    vanish_ratio: float,
):
    """
    Scan number-resolvent expectations in the homogeneous state as mu rises
    toward 0.

    Verdict "vanishes": the last value fell below vanish_ratio of the first
    and the sequence decreases (Bose saturation visible to f).
    Verdict "converges-positive": consecutive changes over the second half
    of the scan stay below cauchy_tol.  Verdict "inconclusive" otherwise,
    and when that half holds no step to check (fewer than three mu values).
    """
    mu_list = list(mu_list)
    if any(m2 <= m1 for m1, m2 in zip(mu_list, mu_list[1:])) or mu_list[-1] >= 0:
        raise DomainError("mu_list must be ascending and < 0")
    values = []
    for mu in mu_list:
        state = HomogeneousState(beta=beta, mu=mu, dimension=1)
        values.append(number_resolvent_expectation(state, lam, f))
    values = np.array(values)

    decreasing = bool(np.all(np.diff(values) < 0))
    if values[-1] < vanish_ratio * values[0] and decreasing:
        verdict = "vanishes"
    else:
        tail = np.abs(np.diff(values))[len(values) // 2 :]
        converged = tail.size > 0 and np.all(tail <= cauchy_tol)
        verdict = "converges-positive" if converged else "inconclusive"
    return verdict, values


# ---------------------------------------------------------------------------
# 3D radial test functions and temporal correlations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialFunction3D:
    """
    Real 3D test function f(x) = phi0(r) + cos(theta) phi1(r), sampled on a
    radial grid (phi1 is the axial, l = 1, component).
    """

    grid: RadialGrid
    phi0: np.ndarray
    phi1: Optional[np.ndarray] = None

    def __post_init__(self):
        p0 = np.asarray(self.phi0, dtype=float).copy()
        if p0.shape != self.grid.r.shape:
            raise DomainError("phi0 does not match the radial grid")
        p0.flags.writeable = False
        object.__setattr__(self, "phi0", p0)
        if self.phi1 is not None:
            p1 = np.asarray(self.phi1, dtype=float).copy()
            if p1.shape != self.grid.r.shape:
                raise DomainError("phi1 does not match the radial grid")
            p1.flags.writeable = False
            object.__setattr__(self, "phi1", p1)

    def integral_3d(self) -> float:
        """Integral of f over R^3 (the angular average kills phi1)."""
        r, dr = self.grid.r, self.grid.dr
        return float(4.0 * np.pi * (r * r * self.phi0).sum() * dr)

    def axial_moment(self) -> float:
        """Integral of z f(x) over R^3 (only phi1 contributes)."""
        if self.phi1 is None:
            return 0.0
        r, dr = self.grid.r, self.grid.dr
        return float(4.0 * np.pi / 3.0 * (r**3 * self.phi1).sum() * dr)

    def radial_transform(self, p: np.ndarray) -> np.ndarray:
        """
        fhat(p) of the spherically symmetric part, unitary convention:
        (2 pi)^(-3/2) 4 pi dr sum_j r_j^2 phi0_j sin(p r_j) / (p r_j).

        With r_j = j dr the sum is (1/p) Im sum_j (r_j phi0_j) z^j,
        z = e^(i p dr): Horner's scheme over the radii, vectorised over p
        (grids._phase_sums), with no kernel matrix and no sin call per
        pair.  At p = 0 it is sum_j r_j^2 phi0_j.
        """
        p = np.atleast_1d(np.asarray(p, dtype=float))
        r, dr = self.grid.r, self.grid.dr
        c = np.concatenate(([0.0], r * self.phi0))  # c_j = r_j phi0_j, c_0 = 0
        s = _phase_sums(c, p * dr).imag
        zero = p == 0
        out = np.divide(s, p, out=np.empty(p.shape), where=~zero)
        out[zero] = (r * r * self.phi0).sum()
        return out * dr * 4.0 * np.pi / (2.0 * np.pi) ** 1.5


def _oscillatory_thermal_integral(fh_spline, beta: float, mu: float, t: float, p_cut: float) -> complex:
    # Simpson on a grid fine enough for the e^(-i t p^2) phase; the smooth
    # amplitude is spline-interpolated from a coarse evaluation
    cycles = max(t, 1.0) * p_cut**2 / (2.0 * np.pi)
    npts = int(max(20001, 48 * cycles)) // 2 * 2 + 1
    p = np.linspace(0.0, p_cut, npts)
    amp = fh_spline(p) * 4.0 * np.pi * p * p
    occ = np.empty_like(p)
    occ[0] = 0.0
    occ[1:] = 1.0 / np.expm1(beta * (p[1:] ** 2 - mu))
    if mu == 0.0:
        # integrable endpoint: p^2 n(p^2) -> 1/beta
        amp_occ = amp * occ
        amp_occ[0] = fh_spline(0.0) * 4.0 * np.pi / beta
    else:
        amp_occ = amp * occ
    integrand = amp_occ * np.exp(-1j * t * p * p)
    h = p[1] - p[0]
    return complex(
        h / 3.0 * (integrand[0] + integrand[-1] + 4 * integrand[1:-1:2].sum() + 2 * integrand[2:-2:2].sum())
    )


def temporal_correlation(state: HomogeneousState, f, g, t):
    """
    omega(alpha_t(a*(f)) a(g)) in the 3D limit state:

        <g, T e^(itH) f> + kappa^2 <h, e^(itH) f> <g, h>,

    where the condensate mode h = 1 carries zero energy, so its term is
    exactly time independent: kappa^2 times the product of the integrals
    of f and g.  The thermal term is a momentum-space quadrature.

    t is one time, giving a complex number, or a 1-D sequence of times,
    giving a list in the same order.  The radial transforms and their
    spline are built once for all times.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D sequence, got shape {times.shape}")
    if state.dimension != 3:
        raise DomainError("temporal correlations implemented for s = 3")
    if not isinstance(f, RadialFunction3D) or not isinstance(g, RadialFunction3D):
        raise DomainError("3D correlations take RadialFunction3D arguments")
    # e^(-48) occupation tail is negligible against the 1e-10 accuracy
    # goal and keeps the oscillation-resolving grid short at large t
    p_cut = np.sqrt((48.0 + state.beta * max(-state.mu, 0.0)) / state.beta)
    p_coarse = np.linspace(0.0, p_cut, 8193)
    fh = f.radial_transform(p_coarse)
    gh = fh if g is f else g.radial_transform(p_coarse)
    spline = CubicSpline(p_coarse, fh * gh)
    # spherical measure already folded into the integral helper
    vals = [
        _oscillatory_thermal_integral(spline, state.beta, state.mu, s, p_cut)
        for s in times.ravel()
    ]

    if state.kappa > 0:
        plateau = state.kappa**2 * f.integral_3d() * g.integral_3d()
        vals = [val + plateau for val in vals]
    return vals if times.ndim else vals[0]
