# propagators.py
#
# Time evolution and the convergence of trapped to free dynamics.
#
# Three propagators:
# - evolve_spectral: e^(-itH) through the dense spectral decomposition of
#   the tridiagonal Hamiltonian (exact within the discretization).  It takes
#   one time or a sequence of times: the eigen-coefficients are computed
#   once, and all times are evolved together in real arithmetic, so the
#   real eigenvector matrix is never copied to complex;
# - evolve_chebyshev: e^(-itH) f as a Chebyshev series in the Gershgorin-
#   scaled operator H_s = (H - b)/a, e^(-itH) = e^(-itb) sum_k (2 - delta_k0)
#   (-i)^k J_k(a t) T_k(H_s) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
#   (1984)).  One three-term recurrence T_(k+1) = 2 H_s T_k - T_(k-1) on f
#   serves every time, at one O(n) tridiagonal apply per term and no n x n
#   matrix.  Each time stops at the first degree K whose neglected tail
#   2 ||f|| sum_(k>=K) |J_k(a|t|)| is at most CHEBYSHEV_TAIL; the Bessel
#   functions come from Miller's backward recurrence, and the tail beyond
#   the computed orders from the ratio bound J_(k+1)/J_k < z/(2k + 2 - z)
#   for k >= z.  That tail is a bound on the L2 error of the truncation,
#   since ||T_k(H_s) f|| <= ||f||.  Roundoff in the recurrence grows like
#   K eps ||f||: at K = 11k the series and the eigensolve differ by 6e-12;
# - evolve_free: the free propagator as the Fourier multiplier
#   e^(-it omega(p)) with omega(p) = 2(1 - cos(p dx))/dx^2, the exact symbol
#   of the three-point Laplacian.  Gap measurements against the trapped
#   propagators then isolate the effect of the confining potential instead
#   of the O(dx^2) mismatch to the continuum p^2 (which would floor the gap
#   near 1e-3 on desk-scale grids).
#
# evolve(H, f, times) picks the trapped route by cost.  The Chebyshev
# series costs about a max|t| terms of O(n) each; the full eigensolve costs
# O(n^2) to O(n^3), less for a stiff wall, whose spectrum deflates.
# Measured on the 2-vCPU Xeon host (best of 5, a real packet, three times,
# R = 10): one term takes about 15 us at n <= 2048 and 28 us at n = 4096;
# diagonalize plus evolve_spectral take 1.9 s (c = 1) and 0.7 s (c = 10)
# at n = 4096, 0.36 s and 0.14 s at n = 2048.  Against the stiff wall's
# cheaper solve the series breaks even at a degree of 6 n at n = 4096 and
# 2-4 n at n <= 2048, where both take under 0.15 s; against the soft wall's
# at 5-16 n.  evolve takes the series while a max|t| <= 4 n
# (CHEBYSHEV_DEGREES_PER_POINT): every c = 1 job of lemma31 and lemma33
# (a t from 2.8k to 11.1k at n = 4096) goes to the series, every c = R job
# (24k to 175k at t = 1) to the eigensolve.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1

from .grids import Grid1D, GridMismatchError, WaveFunction
from .hamiltonians import SpectralDecomposition, TridiagonalOperator, diagonalize

GAP_FLOOR = 1e-14
EDGE_GATE = 5e-3  # largest relative edge amplitude an evolved packet may keep
DUHAMEL_MAX_INTERVALS = 4096
CHEBYSHEV_TAIL = 1e-15  # L2 bound on the neglected series tail at every time
CHEBYSHEV_DEGREES_PER_POINT = 4  # evolve's crossover, see the module header
_CHEBYSHEV_BLOCK = 64  # Chebyshev vectors summed per matrix product


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
    _check_grid(decomp.grid, f)
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


def _check_grid(grid, f: WaveFunction) -> None:
    if grid is not f.grid and (
        grid.n_points != f.grid.n_points or grid.half_width != f.grid.half_width
    ):
        raise GridMismatchError("wavefunction grid does not match the operator")


def _gershgorin(H: TridiagonalOperator) -> tuple[float, float]:
    """Half-width a and centre b of H's Gershgorin interval, which holds its
    spectrum; NaN or inf entries raise ValueError."""
    d = np.asarray_chkfinite(H.diagonal)
    e = np.abs(np.asarray_chkfinite(H.off_diagonal))
    r = np.zeros_like(d)
    r[:-1] += e
    r[1:] += e
    lo, hi = float((d - r).min()), float((d + r).max())
    return (hi - lo) / 2, (hi + lo) / 2


def _bessel_series(z: float, norm: float) -> tuple[np.ndarray, float]:
    """
    J_0(z), ..., J_(K-1)(z) for z >= 0 and the smallest K >= 1 whose tail
    bound 2 norm sum_(k>=K) |J_k(z)| is at most CHEBYSHEV_TAIL, with that bound.

    Miller's backward recurrence J_(k-1) = (2k/z) J_k - J_(k+1) from an
    order far above z, normalised by J_0^2 + 2 sum J_k^2 = 1 and signed by
    scipy's J_0 or J_1.  Beyond the last computed order `top` >= z the
    ratio bound gives sum_(k>top) |J_k| <= J_top q / (1 - q), q = z/(2 top + 2 - z).
    """
    if z == 0:
        return np.ones(1), 0.0
    margin = 15.0 * z ** (1 / 3) + 30.0  # the tail at `top` is below 1e-20
    while True:
        top = int(z + margin)
        start = top + int(margin)  # the start's error has died out by `top`
        j = np.zeros(start + 2)
        j[start] = 1.0
        above, cur = 0.0, 1.0
        for k in range(start, 0, -1):
            above, cur = cur, 2.0 * k / z * cur - above
            if abs(cur) > 1e250:  # rescale the orders computed so far
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
        tail = 2.0 * norm * (np.cumsum(np.abs(j[top:0:-1]))[::-1] + beyond)  # K = 1 .. top
        ok = np.flatnonzero(tail <= CHEBYSHEV_TAIL)
        if ok.size:
            K = int(ok[0]) + 1
            return j[:K], float(tail[K - 1])
        margin *= 2.0


def evolve_chebyshev(H: TridiagonalOperator, f: WaveFunction, times):
    """
    e^(-itH) f at each time of a 1-D sequence, by the Chebyshev series of
    the module header, with the L2 bound on each time's neglected tail.

    Returns (evolved, bounds): lists in the order of `times`; every bound is
    at most CHEBYSHEV_TAIL.  The recurrence runs on the real and imaginary
    parts of f (the imaginary part only when it is nonzero) up to the largest
    degree, and each time sums its own coefficients of the same vectors, in
    blocks of _CHEBYSHEV_BLOCK by one matrix product.  NaN or inf operator
    entries raise ValueError.
    """
    _check_grid(H.grid, f)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence, got shape {times.shape}")
    a, b = _gershgorin(H)
    norm = f.norm()
    series = [_bessel_series(a * abs(t), norm) for t in times]
    kmax = max(j.size for j, _ in series)
    # c[m, k] = (2 - delta_k0) J_k(a|t_m|) times the real sign of (-i sgn t)^k;
    # even orders give the real part of the sum, odd orders the imaginary part
    c = np.zeros((times.size, kmax))
    for m, (t, (j, _)) in enumerate(zip(times, series)):
        k = np.arange(j.size)
        c[m, : j.size] = np.array([1.0, -np.sign(t), -1.0, np.sign(t)])[k % 4] * j
    c[:, 1:] *= 2.0

    parts = [f.values.real] + ([f.values.imag] if np.any(f.values.imag) else [])
    p, n = len(parts), H.size
    scale = 2.0 / a if a > 0 else 0.0  # a = 0: H = b, and the series stops at K = 1
    diag = np.repeat((H.diagonal - b) * scale, p)  # 2 H_s, interleaved over the parts
    up = np.repeat(np.append(H.off_diagonal, 0.0) * scale, p)
    down = np.repeat(np.append(0.0, H.off_diagonal) * scale, p)
    B = _CHEBYSHEV_BLOCK
    ring = np.zeros((B, (n + 2) * p))  # T_k in row k % B, zero-padded at both ends
    rows = ring[:, p:-p]
    right, left = ring[:, 2 * p:], ring[:, :-2 * p]
    tmp = np.empty(n * p)
    rows[0] = np.stack(parts, axis=1).ravel()
    even, odd = np.zeros((times.size, n * p)), np.zeros((times.size, n * p))

    def flush(k0: int, k1: int) -> None:  # add T_k0 .. T_(k1-1), k0 a multiple of B
        even[:] += c[:, k0:k1:2] @ rows[0 : k1 - k0 : 2]
        odd[:] += c[:, k0 + 1 : k1 : 2] @ rows[1 : k1 - k0 : 2]

    done = 0
    for k in range(kmax - 1):  # T_(k+1) = 2 H_s T_k - T_(k-1), T_1 = H_s T_0
        i, y = k % B, rows[(k + 1) % B]
        np.multiply(diag, rows[i], out=y)
        np.multiply(up, right[i], out=tmp)
        y += tmp
        np.multiply(down, left[i], out=tmp)
        y += tmp
        if k:
            y -= rows[(k - 1) % B]
        else:
            y *= 0.5
        if (k + 2) % B == 0:
            flush(done, k + 2)
            done = k + 2
    if done < kmax:
        flush(done, kmax)

    evolved = []
    for m, t in enumerate(times):
        v = (np.exp(-1j * b * t) * (even[m] + 1j * odd[m])).reshape(n, p)
        evolved.append(WaveFunction(f.grid, v[:, 0] + 1j * v[:, 1] if p == 2 else v[:, 0]))
    return evolved, [bound for _, bound in series]


def evolve(H: TridiagonalOperator, f: WaveFunction, times) -> list[WaveFunction]:
    """
    e^(-itH) f at each time of a 1-D sequence, in the order given: the
    Chebyshev series while its degree a max|t| is at most
    CHEBYSHEV_DEGREES_PER_POINT n, else the full eigensolve and
    evolve_spectral (module header).
    """
    a, _ = _gershgorin(H)
    if a * np.abs(np.asarray(times, dtype=float)).max() <= CHEBYSHEV_DEGREES_PER_POINT * H.size:
        return evolve_chebyshev(H, f, times)[0]
    return evolve_spectral(diagonalize(H), f, times)


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
