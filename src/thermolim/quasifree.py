# quasifree.py
#
# Gauge-invariant quasifree states: thermal one-particle density matrices,
# resolvent expectation values, saturation of the chemical potential, and
# temporal correlations.
#
# A state is fixed by its one-particle density matrix
# T = (e^(beta(H - mu)) - 1)^(-1): omega(a*(f) a(g)) = <g, T f>.  A finite
# trap's state is (H, beta, mu); HomogeneousState is the 3D
# thermodynamic-limit state (beta, mu, kappa), the only one with a coherent
# condensate, a gauge invariant product of one-point functions
# kappa^2 <h, f> <g, h>.  The 1D limit quantities (momentum_weight,
# mu_limit_scan) take plain (beta, mu); the finite-trap condensate modes and
# their counts live in the condensates module.  Every thermal weight starts
# with _check_beta_mu: beta and mu finite, beta > 0.
#
# A finite trap's density at x_j is <delta, T delta> for the grid delta
# e_j/dx (grids.grid_delta), and its number-resolvent expectation a
# function of <f, T f> and ||f||^2.  probe_density brackets <f, T f> by
# Gauss quadrature, with no eigenvector of H (Golub & Meurant, Matrices,
# Moments and Quadrature with Applications, Princeton 2010).  m steps of
# plain three-term Lanczos from f/||f|| (no reorthogonalisation; Golub &
# Strakos, Numer. Algorithms 8, 241 (1994) for its finite-precision
# reliability) give the Jacobi matrix T_m; a complex f walks in complex
# arithmetic, with T_m real.  With supp f in rows s0 .. s1, step k reaches
# rows s0-k .. s1+k and works on those alone: O(m (m + s1 - s0)) time and
# O(n) memory, and each bracket an m x m eigenvector matrix of T_m.  n(E) =
# (e^(beta(E - mu)) - 1)^(-1) is completely monotone on (mu, inf), so
# ||f||^2 e_1' n(T_m) e_1 is a lower bound, and the Gauss-Radau rule whose
# fixed node is the Gershgorin lower edge a0 <= lambda_min(H) (0 for every
# trap) an upper one.  The Radau matrix extends T_m by the row beta_m e_m'
# and the diagonal a0 + beta_m^2 / p_m, p_m the last pivot of the LDL' of
# T_m - a0, kept along the walk.  Both rules come from eigh_tridiagonal at
# m = 32, 64, 128, ..., and the walk stops once they agree to
# DENSITY_BRACKET_TOL relative, or when the Krylov space is exhausted
# (beta_m = 0 or m = n), where the Gauss rule is exact.  T_m reads only the
# walked rows, so every operator >= a0 that agrees with H there, a larger
# box among them, has its <f, T f> in the same bracket: lab's edge gate
# asks that no walked row reach the box edge.
#
# QuasifreeState (a complete spectral decomposition), position_density and
# thermal_edge_weight are no experiment's path: they stay as the dense
# reference the tests hold the bracket to, and as layers the benchmark
# tracer wraps, as propagators.evolve_spectral does.
#
# Thermodynamic-limit quantities use the momentum-space multiplier
# n(p^2) = (e^(beta(p^2 - mu)) - 1)^(-1).  The 3D state's condensate is the
# zero-energy constant mode h = 1 with amplitude kappa: it never lives on a
# grid, and pairs with a test function to its plain integral.
#
# The direct momentum transforms (momentum_weight's |fhat(p)|^2 and
# RadialFunction3D.radial_transform) are phase sums over consecutive grid
# points (grids._phase_sums): each power of the phase comes from the
# previous one by one multiplication, so N samples at M momenta cost
# O(N M) multiply-adds and O(N + M) memory, with roundoff of about
# 2 N eps sum |c|.  Every scalar adaptive quadrature goes through _quad,
# and momentum_weight's vector one (all its chemical potentials on shared
# nodes) through _quad_vec; both raise QuadratureCapError when the rule
# reports no convergence.
#
# The temporal correlation's oscillatory integral in p is composite Simpson
# on nested grids: it starts at about two nodes per cycle of e^(-i t p^2) at
# p_cut (at least 64 intervals), doubles evaluating only the new midpoints,
# and stops once a level changes the estimate by less than
# MEMORY_SIMPSON_TOL = 1e-12 of the integral of the integrand's modulus.
# A time whose first doubling, or a rule whose next one, would pass
# MEMORY_MAX_INTERVALS = 2^22 raises QuadratureCapError; so does an
# amplitude spline whose half-set twin misses the dropped momenta by more
# than SPLINE_REL_TOL of the amplitude's maximum.

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .grids import RadialGrid, WaveFunction, _phase_sums, _support_span, inner
from .hamiltonians import SpectralDecomposition, TridiagonalOperator, _gershgorin_rows
from .propagators import EDGE_ZONE, QuadratureCapError, _check_grid

MU_SAFETY = 1e-6
# relative width at which probe_density's Gauss / Gauss-Radau bracket stops
DENSITY_BRACKET_TOL = 1e-12
_DENSITY_FIRST_CHECK = 32  # Lanczos steps before probe_density's first bracket
# change at which the oscillatory Simpson rule stops doubling, relative to
# the integral of the modulus of its integrand
MEMORY_SIMPSON_TOL = 1e-12
MEMORY_MAX_INTERVALS = 1 << 22  # Simpson intervals the oscillatory integral may reach
_SIMPSON_BLOCK = 1 << 15  # oscillatory-integral nodes evaluated per array
# largest error of the half-set amplitude spline, relative to max |fhat ghat|;
# the full spline's error is about 2^4 times smaller (cubic, h^4)
SPLINE_REL_TOL = 1e-9


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


def _quad_vec(integrand, a: float, b: float, limit: int, **kwargs):
    """
    scipy's adaptive vector quadrature (Gauss-Kronrod 21 on every interval)
    that fails loudly like _quad: a run that stops short of its tolerance
    (subdivision cap, roundoff, non-finite values) raises
    QuadratureCapError.  Returns the integral and its error estimate in
    the chosen norm.
    """
    val, err, info = quad_vec(integrand, a, b, limit=limit, full_output=True, **kwargs)
    if info.status != 0:
        reason = (
            f"The maximum number of subdivisions ({limit}) has been achieved"
            if info.status == 1
            else info.message
        )
        raise QuadratureCapError(f"quadrature on [{a:.6g}, {b:.6g}] did not converge: {reason}")
    return val, err


def _check_beta_mu(beta: float, mu) -> None:
    """Where every thermal weight starts: beta and mu (one or many) finite, beta > 0."""
    if not (np.isfinite(beta) and np.all(np.isfinite(mu))):
        raise DomainError(f"beta and mu must be finite, got beta = {beta}, mu = {mu}")
    if beta <= 0:
        raise DomainError("beta must be positive")


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
    Thermal state of a finite trap from a complete spectral decomposition
    (a window raises DomainError): probe_density's dense reference.
    """

    beta: float
    mu: float
    decomposition: SpectralDecomposition
    occupations: np.ndarray = field(init=False, repr=False)  # per eigenvalue, read-only

    def __post_init__(self):
        _check_beta_mu(self.beta, self.mu)
        decomp = self.decomposition
        if decomp.n_modes < decomp.grid.n_points:
            raise DomainError(f"a thermal state needs all {decomp.grid.n_points} modes, got {decomp.n_modes}")
        eps0 = float(decomp.eigenvalues.min())
        if self.mu >= eps0 - MU_SAFETY:
            raise DomainError(f"mu = {self.mu} too close to the bottom of the spectrum ({eps0})")
        occ = bose_occupation(decomp.eigenvalues, self.beta, self.mu)
        occ.flags.writeable = False
        object.__setattr__(self, "occupations", occ)


@dataclass(frozen=True)
class HomogeneousState:
    """
    The 3D thermodynamic-limit state: momentum-multiplier T (mu <= 0; the
    3D density stays finite at mu = 0), plus a condensate in the constant
    mode with amplitude kappa (none at kappa = 0).
    """

    beta: float
    mu: float
    kappa: float = 0.0

    def __post_init__(self):
        _check_beta_mu(self.beta, self.mu)
        if self.mu > 0:
            raise DomainError("mu must be <= 0 for the homogeneous state")
        if not 0 <= self.kappa < np.inf:  # NaN fails
            raise DomainError(f"condensate amplitude kappa must be >= 0 and finite, got {self.kappa}")


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
    total = density.sum()
    return float(density[m].sum() / total) if total > 0 else 0.0


class DensityBracket(NamedTuple):
    """
    probe_density's result: the Gauss (lower) and Gauss-Radau (upper)
    values of <f, n(H) f>, the Lanczos steps taken, and the first and last
    grid rows the walk read.
    """

    lower: float
    upper: float
    steps: int
    rows: tuple[int, int]

    @property
    def density(self) -> float:
        """The midpoint of the bracket."""
        return 0.5 * (self.lower + self.upper)


def probe_density(H: TridiagonalOperator, beta: float, mu: float, f: WaveFunction) -> DensityBracket:
    """
    <f, n(H) f>, bracketed by the Lanczos Gauss and Gauss-Radau rules of
    the module header from a walk started at f/||f||, with no eigenvector
    of H.  For the grid delta at x_j (grids.grid_delta) it is the thermal
    density <e_j, n(H) e_j>/dx.  mu must lie at least MU_SAFETY below the
    Gershgorin lower edge of H, and f must not vanish; DomainError before
    the walk otherwise.
    """
    _check_beta_mu(beta, mu)
    _check_grid(H.grid, f)
    d, e, n = H.diagonal, H.off_diagonal, H.size
    a0 = float(_gershgorin_rows(d, e)[0].min())
    if mu >= a0 - MU_SAFETY:
        raise DomainError(f"mu = {mu} too close to the lower Gershgorin edge of H ({a0})")
    span = _support_span(f.values)
    if span.start == span.stop:
        raise DomainError("the probe function f vanishes")
    s0, s1 = int(span.start), int(span.stop) - 1
    start = f.values[span] if f.values.imag.any() else f.values.real[span]
    sq = float(np.vdot(start, start).real)
    norm_sq = sq * f.grid.dx  # <f, f>

    def gauss(diag, off) -> float:  # <f, f> e_1' n(T) e_1 for the Jacobi matrix T
        theta, vecs = eigh_tridiagonal(diag, off)
        return float(bose_occupation(theta, beta, mu) @ vecs[0] ** 2) * norm_sq

    alpha, off = np.empty(n), np.empty(n)
    q, q_prev = np.zeros(n, start.dtype), np.zeros(n, start.dtype)
    q[span] = start / np.sqrt(sq)
    b, pivot, check = 0.0, 1.0, _DENSITY_FIRST_CHECK
    for m in range(1, n + 1):
        # q lives on rows s0-m+1 .. s1+m-1, so H q on s0-m .. s1+m
        lo, hi = max(s0 - m, 0), min(s1 + m + 1, n)
        v = q[lo:hi]
        w = d[lo:hi] * v
        w[1:] += e[lo : hi - 1] * v[:-1]
        w[:-1] += e[lo : hi - 1] * v[1:]
        w -= b * q_prev[lo:hi]
        a = alpha[m - 1] = np.vdot(v, w).real
        w -= a * v
        pivot = a - a0 - b * b / pivot  # b = 0 at m = 1
        b = off[m - 1] = np.sqrt(np.vdot(w, w).real)
        rows = (lo, hi - 1)
        if b == 0.0 or m == n:  # the Krylov space is exhausted: Gauss is exact
            exact = gauss(alpha[:m], off[: m - 1])
            return DensityBracket(exact, exact, m, rows)
        if m == check:
            lower = gauss(alpha[:m], off[: m - 1])
            upper = gauss(np.append(alpha[:m], a0 + b * b / pivot), off[:m])
            if upper - lower <= DENSITY_BRACKET_TOL * lower:
                return DensityBracket(lower, upper, m, rows)
            check *= 2
        np.divide(w, b, out=q_prev[lo:hi])
        q, q_prev = q_prev, q


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
    _check_beta_mu(beta, mu)
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


def momentum_weight(f: WaveFunction, beta: float, mu):
    """
    <f, T f> in the homogeneous 1D state: Integral |fhat(p)|^2 n(p^2) dp,
    with fhat(p) = dx sum_j f_j e^(-ipx_j) / sqrt(2 pi) the direct Riemann
    sum over the grid (continuum-quality near p = 0).

    mu is one chemical potential, giving a float, or a 1-D sequence,
    giving an array in the same order.  |fhat(p)|^2 does not depend on
    mu, so all of them share one adaptive vector quadrature on
    [0, p_cut]: at each node |fhat(p)|^2 is taken once and divided by
    expm1(beta (p^2 - mu)) for every mu.  p_cut is the largest of the
    per-mu cuts sqrt((600 + beta |mu|) / beta), and the breakpoints are
    the union of every mu's sqrt(-mu), 10 sqrt(-mu) and 1.

    Accuracy: the error estimate of every component is at most 1e-10 of
    that component's own value (the old per-mu epsrel), however far the
    values spread, not merely of the largest.  The rule (scipy's quad_vec,
    Gauss-Kronrod 21) runs at epsrel = 1e-12 in the max norm, whose
    estimate bounds each component.  Where that estimate exceeds 1e-10 of
    some value, the rule runs once more on the integrand divided by the
    first values, which puts every component at scale 1; a miss after
    that, or a run that does not converge, raises QuadratureCapError.  A
    value that underflows to 0 at every node is exact.

    T is real, so the weight of f is the weight of Re f plus that of Im f;
    a real function has |fhat(-p)| = |fhat(p)|, so each part folds onto
    p >= 0 at twice its half-line integral.  Each part's support span is
    taken once per call; at every node |fhat(p)| is its phase sum over
    that span, the phases e^(-ipk dx) built by a cumulative product (the
    span's offset phase e^(-ipx_0) drops out of the modulus).
    """
    mus = np.asarray(mu, dtype=float)
    if mus.ndim > 1:
        raise ValueError(f"mu must be a scalar or a 1-D sequence, got shape {mus.shape}")
    _check_beta_mu(beta, mus)
    if np.any(mus >= 0):
        raise DivergenceError("homogeneous 1D weight needs mu < 0")
    mu_vec = np.atleast_1d(mus)
    dx = f.grid.dx
    # complex coefficients, so the dot at each node needs no cast
    parts = [v[_support_span(v)].astype(complex) for v in (f.values.real, f.values.imag) if v.any()]
    scale = dx * dx / (2.0 * np.pi)

    def integrand(p):  # each component over its scale: 1, or its first-pass value
        fh2 = sum(np.abs(_phase_sums(c, -p * dx)) ** 2 for c in parts)
        with np.errstate(over="ignore"):  # past a small |mu|'s own cut n is 0
            return float(fh2) * scale / np.expm1(beta * (p * p - mu_vec)) / unit

    sq = np.sqrt(-mu_vec)
    p_cut = float(np.sqrt((600.0 + beta * -mu_vec) / beta).max())
    cuts = {float(c) for c in np.concatenate((sq, 10 * sq, [1.0])) if 0 < c < p_cut}
    unit = np.ones_like(mu_vec)
    for _ in range(2):
        # epsabs lets a value that underflows to 0 converge
        val, err = _quad_vec(integrand, 0.0, p_cut, limit=400, points=sorted(cuts),
                             norm="max", epsabs=1e-200, epsrel=1e-12)
        val = val * unit
        # a zero value is an integrand that underflowed at every node
        if np.all((err * unit <= 1e-10 * val) | (val == 0)):
            break
        unit = np.where(val > 0, val, 1.0)
    else:
        raise QuadratureCapError(
            f"momentum weight: error estimate {err:.2e} of the rescaled components "
            f"exceeds 1e-10 on [0, {p_cut:.6g}]"
        )
    val = 2.0 * val
    return val if mus.ndim else float(val[0])


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
    if not lam > 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if sigma_sq < 0:
        raise DomainError("variance must be >= 0")
    return _laplace_transform(lambda u: np.exp(-0.5 * u * u * sigma_sq), lam)


def geometric_resolvent_series(nbar: float, norm_sq: float, lam: float) -> float:
    """
    sum_{n>=0} p_n (lam + n ||f||^2)^(-1) with p_n = nbar^n (1+nbar)^(-(n+1)).

    Evaluated in its Laplace form: writing (lam + n s)^(-1) as
    Integral_0^inf e^(-u (lam + n s)) du and summing the geometric
    weights under the integral gives

        Integral_0^inf du e^(-u lam) / (1 - nbar expm1(-u s)),

    one quadrature whose cost does not grow with nbar.
    """
    if not lam > 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if nbar < 0:
        raise DomainError("occupation must be >= 0")
    if nbar == 0:
        return 1.0 / lam
    return _laplace_transform(lambda u: 1.0 / (1.0 - nbar * np.expm1(-u * norm_sq)), lam)


def number_resolvent_expectation(H: TridiagonalOperator, beta: float, mu: float, lam: float,
                                 f: WaveFunction) -> float:
    """
    Expectation of (lam + a*(f) a(f))^(-1) in the thermal state of the
    finite trap H at (beta, mu): the single mode f/||f|| is geometrically
    occupied with mean <f, T f>/||f||^2 (see geometric_resolvent_series),
    <f, T f> the midpoint of probe_density's bracket.  A zero f gives
    1/lam without a walk.

    Validated against the exact truncated-space Gibbs trace (see the
    fock module and the oracle tests) before use anywhere else.
    """
    if not lam > 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    norm_sq = inner(f, f).real
    if norm_sq == 0:
        return 1.0 / lam
    weight = probe_density(H, beta, mu, f).density
    return geometric_resolvent_series(weight / norm_sq, norm_sq, lam)


def mu_limit_scan(
    lam: float,
    f: WaveFunction,
    beta: float,
    mu_list,
    cauchy_tol: float,
    vanish_ratio: float,
):
    """
    Scan number-resolvent expectations in the homogeneous 1D gas as mu
    rises toward 0.

    The inputs are checked before any transform: lam, beta and every mu
    must be finite, lam > 0, beta > 0, and mu_list ascending and below 0.
    One momentum_weight call then serves every mu, and each weight <f, T f>
    gives the geometric occupation <f, T f>/||f||^2 of the mode f/||f||,
    whose resolvent is geometric_resolvent_series.

    Verdict "vanishes": the last value fell below vanish_ratio of the first
    and the sequence decreases (Bose saturation visible to f).
    Verdict "converges-positive": consecutive changes over the second half
    of the scan stay below cauchy_tol.  Verdict "inconclusive" otherwise,
    and when that half holds no step to check (fewer than three mu values).
    """
    mus = np.asarray(list(mu_list), dtype=float)
    if not 0 < lam < np.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    _check_beta_mu(beta, mus)
    if mus.ndim != 1 or mus.size == 0 or np.any(np.diff(mus) <= 0) or mus[-1] >= 0:
        raise DomainError("mu_list must be ascending and < 0")
    norm_sq = inner(f, f).real
    if norm_sq == 0:
        values = np.full(mus.size, 1.0 / lam)
    else:
        weights = momentum_weight(f, beta, mus)
        values = np.array([geometric_resolvent_series(w / norm_sq, norm_sq, lam) for w in weights])

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


def _bose_measure(p: np.ndarray, beta: float, mu: float) -> np.ndarray:
    """4 pi p^2 n(p^2) at ascending p >= 0; at p = 0 its limit, 4 pi / beta at mu = 0 and 0 below."""
    pp = p * p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 4.0 * np.pi * pp / np.expm1(beta * (pp - mu))
    if p[0] == 0.0:
        out[0] = 4.0 * np.pi / beta if mu == 0.0 else 0.0
    return out


def _simpson_start(t: float, p_cut: float) -> int:
    """
    Intervals of the first Simpson level for time t: about two nodes per
    cycle of e^(-i t p^2) on [0, p_cut], at least 64.  Raises before
    anything is allocated when t is not finite (ValueError) or when the
    first doubling would pass MEMORY_MAX_INTERVALS (QuadratureCapError).
    """
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    cycles = max(abs(t), 1.0) * p_cut**2 / (2.0 * np.pi)
    if 4.0 * np.ceil(cycles) > MEMORY_MAX_INTERVALS:
        raise QuadratureCapError(
            f"oscillatory integral at t={t}: {cycles:.3g} cycles of the phase need more "
            f"than the cap of {MEMORY_MAX_INTERVALS} Simpson intervals"
        )
    return max(64, 2 * int(np.ceil(cycles)))


def _oscillatory_thermal_integral(
    fh_spline, beta: float, mu: float, t: float, p_cut: float, scale: float
) -> complex:
    """
    Integral_0^p_cut a(p) 4 pi p^2 n(p^2) e^(-i t p^2) dp for the amplitude
    spline a, by composite Simpson on nested grids.  From _simpson_start's
    level each doubling evaluates only the new midpoints, _SIMPSON_BLOCK
    at a time, and the rule stops at the first level whose change is below
    MEMORY_SIMPSON_TOL * scale, scale being the integral of
    |a| 4 pi p^2 n(p^2) (a bound on the result at every t).  A level past
    MEMORY_MAX_INTERVALS raises QuadratureCapError instead.
    """
    n = _simpson_start(t, p_cut)
    if scale == 0.0:  # a vanishing amplitude
        return 0j

    def node_sum(first: float, step: float, count: int) -> complex:  # at p = first + j step
        total = 0j
        for i in range(0, count, _SIMPSON_BLOCK):
            p = first + step * np.arange(i, min(i + _SIMPSON_BLOCK, count))
            total += (fh_spline(p) * _bose_measure(p, beta, mu) * np.exp(-1j * t * p * p)).sum()
        return total

    h = p_cut / n
    ends = node_sum(0.0, p_cut, 2)
    odd = node_sum(h, 2.0 * h, n // 2)
    interior = odd + node_sum(2.0 * h, 2.0 * h, n // 2 - 1)
    est = h / 3.0 * (ends + 2.0 * odd + 2.0 * interior)
    while 2 * n <= MEMORY_MAX_INTERVALS:
        n, h = 2 * n, h / 2.0
        mid = node_sum(h, 2.0 * h, n // 2)
        est_new = h / 3.0 * (ends + 4.0 * mid + 2.0 * interior)
        change = abs(est_new - est)
        if change < MEMORY_SIMPSON_TOL * scale:
            return complex(est_new)
        interior += mid
        est = est_new
    raise QuadratureCapError(
        f"oscillatory integral at t={t}: change {change:.2e} after {n} intervals exceeds "
        f"MEMORY_SIMPSON_TOL {MEMORY_SIMPSON_TOL:.0e} times the amplitude bound {scale:.2e}"
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
    if not isinstance(f, RadialFunction3D) or not isinstance(g, RadialFunction3D):
        raise DomainError("3D correlations take RadialFunction3D arguments")
    # e^(-48) occupation tail is negligible against the 1e-10 accuracy
    # goal and keeps the oscillation-resolving grid short at large t
    p_cut = np.sqrt((48.0 + state.beta * max(-state.mu, 0.0)) / state.beta)
    for s in times.ravel():  # a non-finite or over-cap time fails before any transform
        _simpson_start(s, p_cut)
    p_coarse = np.linspace(0.0, p_cut, 8193)
    fh = f.radial_transform(p_coarse)
    gh = fh if g is f else g.radial_transform(p_coarse)
    amp = fh * gh
    spline = CubicSpline(p_coarse, amp)
    # the spline's own error estimate: a spline on every other momentum,
    # checked at the momenta it leaves out
    half = CubicSpline(p_coarse[::2], amp[::2])
    spline_err = float(np.abs(half(p_coarse[1::2]) - amp[1::2]).max())
    if spline_err > SPLINE_REL_TOL * np.abs(amp).max():
        raise QuadratureCapError(
            f"amplitude spline on {len(p_coarse)} momenta: the half-set spline is off by "
            f"{spline_err:.2e}, above SPLINE_REL_TOL {SPLINE_REL_TOL:.0e} of max |fhat ghat|"
        )
    scale = float(np.abs(amp) @ _bose_measure(p_coarse, state.beta, state.mu)) * p_coarse[1]
    vals = [
        _oscillatory_thermal_integral(spline, state.beta, state.mu, s, p_cut, scale)
        for s in times.ravel()
    ]

    if state.kappa > 0:
        plateau = state.kappa**2 * f.integral_3d() * g.integral_3d()
        vals = [val + plateau for val in vals]
    return vals if times.ndim else vals[0]
