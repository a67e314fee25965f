# propagators.py
#
# Time evolution and the convergence of trapped to free dynamics.
#
# Two structurally different propagators:
# - evolve_spectral: e^(-itH) through the dense spectral decomposition of
#   the tridiagonal Hamiltonian (exact within the discretization).  It takes
#   one time or a sequence of times: the eigen-coefficients are computed
#   once, and all times are evolved together in real arithmetic, so the
#   real eigenvector matrix is never copied to complex;
# - evolve_free: the free propagator as the Fourier multiplier
#   e^(-it omega(p)) with omega(p) = 2(1 - cos(p dx))/dx^2, the exact symbol
#   of the three-point Laplacian.  Gap measurements against evolve_spectral then
#   isolate the effect of the confining potential instead of the O(dx^2)
#   mismatch to the continuum p^2 (which would floor the gap near 1e-3 on
#   desk-scale grids).

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid1D, GridMismatchError, WaveFunction
from .hamiltonians import SpectralDecomposition

GAP_FLOOR = 1e-14
EDGE_GATE = 5e-3  # largest relative edge amplitude an evolved packet may keep
DUHAMEL_MAX_INTERVALS = 4096


class ValidityGateError(RuntimeError):
    """An experiment precondition (box margin, edge amplitude) failed."""


class QuadratureCapError(RuntimeError):
    """A quadrature reached its node cap without meeting its tolerance."""


def evolve_spectral(decomp: SpectralDecomposition, f: WaveFunction, t):
    """
    Evolve f in the eigenbasis: sum_k e^(-it eps_k) <psi_k, f> psi_k.

    t is one time, giving one WaveFunction, or a 1-D sequence of times,
    giving a list of WaveFunctions in the same order.  Either way the
    eigenvector matrix enters two real matrix products: one for the
    coefficients <psi_k, f>, one for all evolved times at once.
    """
    if decomp.grid is not f.grid and (
        decomp.grid.n_points != f.grid.n_points
        or decomp.grid.half_width != f.grid.half_width
    ):
        raise GridMismatchError("wavefunction grid does not match the decomposition")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D sequence, got shape {times.shape}")
    v = decomp.eigenvectors
    re_im = v.T @ np.stack([f.values.real, f.values.imag], axis=1)
    coef = (re_im[:, 0] + 1j * re_im[:, 1]) * f.grid.dx
    amp = np.exp(-1j * np.outer(decomp.eigenvalues, times)) * coef[:, None]
    out = v @ np.concatenate([amp.real, amp.imag], axis=1)
    k = amp.shape[1]
    evolved = [WaveFunction(f.grid, out[:, j] + 1j * out[:, k + j]) for j in range(k)]
    return evolved if times.ndim else evolved[0]


def evolve_free(f: WaveFunction, t: float) -> WaveFunction:
    """Free evolution as the Fourier multiplier e^(-it omega(p)) of the grid Laplacian."""
    g = f.grid
    omega = (2.0 - 2.0 * np.cos(g.momenta() * g.dx)) / g.dx**2
    out = np.fft.ifft(np.fft.fft(f.values) * np.exp(-1j * t * omega))
    return WaveFunction(g, out)


def edge_amplitude(f: WaveFunction) -> float:
    """Largest |f| within 4 length units of the box edge, relative to max |f|."""
    g = f.grid
    m = np.abs(g.x) >= g.half_width - 4.0
    peak = np.abs(f.values).max()
    if peak == 0:
        return 0.0
    return float(np.abs(f.values[m]).max() / peak)


def propagator_gap(decomp: SpectralDecomposition, f: WaveFunction, t: float, R: float) -> float:
    """
    L2 distance between trapped and free evolution of f at time t.

    The free side uses the grid Laplacian's symbol, so both propagators act
    on the same discretized model; the gap then measures the confinement
    effect down to the roundoff floor.
    """
    return gated_gap(evolve_free(f, t), evolve_spectral(decomp, f, t), R)


def gated_gap(free: WaveFunction, trapped: WaveFunction, R: float, margin: float = 16.0) -> float:
    """
    L2 distance between the free and the trapped evolution of one packet to
    one time, behind the box gate of every trapped-vs-free experiment.

    The box must extend at least `margin` beyond the trap radius, and each
    evolved packet (free first) must keep its relative amplitude near the
    box edge below EDGE_GATE, so wall reflection and wrap-around stay far
    below the measured gap.  A failed gate raises ValidityGateError.
    """
    half_width = free.grid.half_width
    if half_width < R + margin:
        raise ValidityGateError(f"box half_width {half_width} < R + margin = {R + margin}")
    for packet in (free, trapped):
        amp = edge_amplitude(packet)
        if amp > EDGE_GATE:
            raise ValidityGateError(
                f"evolved packet edge amplitude {amp:.2e} exceeds gate {EDGE_GATE:.0e}"
            )
    diff = trapped.values - free.values
    return float(np.sqrt((np.abs(diff) ** 2).sum() * free.grid.dx))


def _tail_weight(grid: Grid1D, R: float) -> np.ndarray:
    w = np.maximum(grid.x**2 - R**2, 0.0)
    return w * w


def duhamel_bound(f: WaveFunction, t: float, R: float, rel_tol: float = 1e-6) -> float:
    """
    Integral bound on the propagator gap at unit wall coupling:

        Integral_0^t du  sqrt( Integral_{|x|>=R} (x^2-R^2)^2 |f_u(x)|^2 dx )

    with f_u the freely evolved packet.  The bound is linear in the wall's
    c^2, so for coupling c it is c^2 times this value.  Composite Simpson in
    u from 32 intervals, doubling until the relative change drops below
    rel_tol.  At 4096 intervals a last change within the integral of the
    integrand's roundoff floor (machine epsilon times max |f| per sample,
    weighted as above) is accepted, since no refinement can beat it; any
    larger change raises QuadratureCapError.
    """
    if t == 0:
        return 0.0
    wgt = _tail_weight(f.grid, R)
    dx = f.grid.dx

    def integrand(u: float) -> float:
        psi = evolve_free(f, u)
        return float(np.sqrt((wgt * np.abs(psi.values) ** 2).sum() * dx))

    n = 32  # number of intervals, even
    us = np.linspace(0.0, t, n + 1)
    vals = np.array([integrand(u) for u in us])

    def simpson(v: np.ndarray, h: float) -> float:
        return h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum())

    est = simpson(vals, t / n)
    while True:
        n *= 2
        us_new = np.linspace(0.0, t, n + 1)
        vals_new = np.empty(n + 1)
        vals_new[::2] = vals
        vals_new[1::2] = [integrand(u) for u in us_new[1::2]]
        est_new = simpson(vals_new, t / n)
        change = abs(est_new - est)
        if change <= rel_tol * max(abs(est_new), 1e-300):
            return float(est_new)
        if n >= DUHAMEL_MAX_INTERVALS:
            noise = abs(t) * np.finfo(float).eps * np.abs(f.values).max() * np.sqrt(wgt.sum() * dx)
            if change <= noise:
                return float(est_new)
            raise QuadratureCapError(
                f"Duhamel quadrature at t={t}, R={R}: relative change "
                f"{change / max(abs(est_new), 1e-300):.2e} after "
                f"{n} intervals exceeds rel_tol {rel_tol:.0e}"
            )
        est, vals = est_new, vals_new


def observable_gap_bound(
    n: int,
    lam: float,
    f: WaveFunction,
    gap: float,
) -> float:
    """Sector-norm bound 2 n lam^-2 ||f|| * gap for the evolved number resolvents."""
    if n < 1:
        raise ValueError(f"particle number must be >= 1, got {n}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return 2.0 * n * lam**-2 * f.norm() * gap


@dataclass
class DecayReport:
    """R-scan of propagator gaps with local log-log slopes and a verdict."""

    t: float
    radii: list[float]
    gaps: list[float]
    slopes: list[float]  # between consecutive radii; empty for "trivial" and "inconclusive-floor"
    floor_flags: list[bool]
    verdict: str


def gap_decay_scan(t: float, radii: list[float], gaps: list[float]) -> DecayReport:
    """
    Slopes and verdict of the propagator gaps at time t over an ascending
    list of trap radii (gaps[i] measured at radii[i]).

    Verdict: "pass" when slopes are negative with nondecreasing magnitude
    down to the roundoff floor, "trivial" at t = 0, "inconclusive-floor"
    when every gap sits at the floor, otherwise "fail".
    """
    if len(radii) < 4:
        raise ValueError("R scan needs at least 4 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly ascending")

    floor = [g <= GAP_FLOOR for g in gaps]
    slopes = []
    if t == 0:
        verdict = "trivial"
    elif all(floor):
        verdict = "inconclusive-floor"
    else:
        # slopes between consecutive radii, ignoring pairs at the floor
        for i in range(len(radii) - 1):
            if floor[i] or floor[i + 1]:
                slopes.append(float("nan"))
            else:
                slopes.append(
                    (np.log(gaps[i + 1]) - np.log(gaps[i]))
                    / (np.log(radii[i + 1]) - np.log(radii[i]))
                )
        live = [s for s in slopes if np.isfinite(s)]
        negative = all(s < 0 for s in live)
        growing = all(abs(b) >= abs(a) for a, b in zip(live, live[1:]))
        verdict = "pass" if (negative and growing and live) else "fail"
    return DecayReport(t, list(radii), list(gaps), slopes, floor, verdict)
