# propagators.py
#
# Time evolution and the convergence of trapped to free dynamics.
#
# Two propagators run the experiments:
# - evolve_chebyshev, the one path of every trapped packet: e^(-itH) f as a
#   Chebyshev series in the Gershgorin-scaled operator H_s = (H - b)/a,
#   e^(-itH) = e^(-itb) sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k(H_s)
#   (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  One three-term
#   recurrence T_(k+1) = 2 H_s T_k - T_(k-1) on f serves every time, at one
#   O(n) tridiagonal apply per term and no n x n matrix.  The Bessel
#   functions come from Miller's backward recurrence, and the tail beyond
#   the computed orders from the ratio bound J_(k+1)/J_k < z/(2k + 2 - z)
#   for k >= z.  The series tail 2 ||f|| sum_(k>=K) |J_k(a|t|)| bounds the
#   L2 error of stopping at degree K, since ||T_k(H_s) f|| <= ||f||.
#   Roundoff in the recurrence grows like K eps ||f||: at K = 11k the
#   series and the eigensolve differ by 6e-12;
# - evolve_free: the free propagator as the Fourier multiplier
#   e^(-it omega(p)) with omega(p) = 2(1 - cos(p dx))/dx^2, the exact symbol
#   of the three-point Laplacian.  Gap measurements against the trapped
#   propagator then isolate the effect of the confining potential instead
#   of the O(dx^2) mismatch to the continuum p^2 (which would floor the gap
#   near 1e-3 on desk-scale grids).
# evolve_spectral, e^(-itH) through the dense spectral decomposition (exact
# within the discretization), is no experiment's path.  It stays as the
# reference the tests hold the series to, and as a layer the benchmark
# tracer wraps.
#
# The reachable block.  A stiff wall spends most of the box, and most of
# a, on rows the packet never reaches.  The series therefore runs on the
# contiguous block of H around supp f that ends, on each side, at the first
# row whose Gershgorin lower edge d_j - |e_(j-1)| - |e_j| exceeds twice the
# Gershgorin top over supp f (that row kept), or at the box edge.  A soft
# wall, whose box edge stays below that level, keeps the whole box and
# runs exactly as without the cut.  Cutting H to its block H_B changes the
# evolution by -i Int_0^t e^(-i(t-s)H) (H - H_B) e^(-isH_B) f ds, and
# (H - H_B) u = e_end u(end) across each cut, so the error is at most
#     |t| sum_end |e_end| (2 sqrt(dx) sum_(k<K) |(T_k f)(end)| + tail_K),
# using |(2 - delta_k0) J_k| <= 2 and, for K >= a|t|, a tail that grows
# with s.  The boundary sums run along the recurrence, and each time stops
# at the first K >= a|t| where tail plus leak is at most CHEBYSHEV_TAIL,
# a few dozen terms past the tail alone; without a cut the leak is zero.
# A time whose leak sums alone exceed CHEBYSHEV_TAIL drops out of the
# block's series and is rerun on the whole box; the other times keep their
# block results.  At lemma31's stiff walls (n = 4096, c = R = 8..14) the
# blocks keep 3075 to 1571 rows, the degree a t at t = 1 falls from
# 39k-175k to 25k-13k, and the leak is at most 4e-18; R = 6 keeps the
# whole box (degree 24k at t = 1).

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1

from .grids import Grid1D, GridMismatchError, WaveFunction
from .hamiltonians import SpectralDecomposition, TridiagonalOperator

GAP_FLOOR = 1e-14
EDGE_GATE = 5e-3  # largest relative edge amplitude an evolved packet may keep
DUHAMEL_MAX_INTERVALS = 4096
DUHAMEL_REL_TOL = 1e-6  # relative change at which the Duhamel quadrature stops doubling
CHEBYSHEV_TAIL = 1e-15  # L2 bound on the neglected series tail at every time
_CHEBYSHEV_BLOCK = 64  # Chebyshev vectors summed per matrix product
_DUHAMEL_BATCH = 64  # Duhamel nodes per batched inverse FFT


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


def _gershgorin_rows(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper Gershgorin edges d_j -+ (|e_(j-1)| + |e_j|) of each row."""
    r = np.zeros_like(d)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    return d - r, d + r


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Half-width a and centre b of the Gershgorin interval, which holds the spectrum."""
    lower, upper = _gershgorin_rows(d, e)
    lo, hi = float(lower.min()), float(upper.max())
    return (hi - lo) / 2, (hi + lo) / 2


def _reachable_block(d: np.ndarray, e: np.ndarray, values: np.ndarray) -> tuple[int, int]:
    """
    The index block lo <= j < hi the series runs on: from the support of
    `values` outward to the first row on each side whose Gershgorin lower
    edge exceeds twice the Gershgorin top over the support (that row kept),
    or to the box edge.
    """
    support = np.flatnonzero(values)
    if support.size == 0:
        return 0, d.size
    s0, s1 = int(support[0]), int(support[-1])
    lower, upper = _gershgorin_rows(d, e)
    far = lower > 2.0 * upper[s0 : s1 + 1].max()
    left, right = np.flatnonzero(far[:s0]), np.flatnonzero(far[s1 + 1 :])
    return (int(left[-1]) if left.size else 0), (s1 + 2 + int(right[0]) if right.size else d.size)


def _bessel_series(z: float, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """
    J_0(z), ..., J_(top-1)(z) for z >= 0, and the tail bounds
    tails[K - 1] = 2 norm sum_(k>=K) |J_k(z)| for K = 1 .. top, the last of
    them at most CHEBYSHEV_TAIL.

    Miller's backward recurrence J_(k-1) = (2k/z) J_k - J_(k+1) from an
    order far above z, normalised by J_0^2 + 2 sum J_k^2 = 1 and signed by
    scipy's J_0 or J_1.  Beyond the last computed order `top` >= z the
    ratio bound gives sum_(k>top) |J_k| <= J_top q / (1 - q), q = z/(2 top + 2 - z).
    """
    if z == 0:
        return np.ones(1), np.zeros(1)
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
        tails = 2.0 * norm * (np.cumsum(np.abs(j[top:0:-1]))[::-1] + beyond)  # K = 1 .. top
        if tails[-1] <= CHEBYSHEV_TAIL:
            return j[:top], tails
        margin *= 2.0


def evolve_chebyshev(H: TridiagonalOperator, f: WaveFunction, times):
    """
    e^(-itH) f at each time of a 1-D sequence, by the Chebyshev series on
    the packet's reachable block (module header), with an L2 error bound
    per time that covers the series tail and the cut.  Times whose cut
    leaks are rerun on the whole box.

    Returns (evolved, bounds): lists in the order of `times`; every bound is
    at most CHEBYSHEV_TAIL.  NaN or inf operator entries raise ValueError.
    """
    _check_grid(H.grid, f)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence, got shape {times.shape}")
    d = np.asarray_chkfinite(H.diagonal)
    e = np.asarray_chkfinite(H.off_diagonal)
    evolved, bounds = _chebyshev_block(d, e, f, times, *_reachable_block(d, e, f.values))
    leaky = [m for m, bound in enumerate(bounds) if bound is None]
    if leaky:
        for m, v, bound in zip(leaky, *_chebyshev_block(d, e, f, times[leaky], 0, d.size)):
            evolved[m], bounds[m] = v, bound
    return evolved, bounds


def _chebyshev_block(d: np.ndarray, e: np.ndarray, f: WaveFunction, times: np.ndarray, lo: int, hi: int):
    """
    evolve_chebyshev on the block lo <= j < hi of the operator (d, e), with
    f supported inside it.  A time whose cut alone leaks more than
    CHEBYSHEV_TAIL gets None for its evolved packet and its bound; without
    a cut no time leaks.

    The recurrence runs on the real and imaginary parts of f (the imaginary
    part only when it is nonzero), and each time sums its own coefficients
    of the same vectors, in blocks of _CHEBYSHEV_BLOCK by one matrix
    product.  Each time's degree is fixed by tail plus leak, whose boundary
    sums are taken block by block as the recurrence runs; a time that is
    done, or leaks, has the rest of its coefficients zeroed.
    """
    n, size = hi - lo, d.size
    a, b = _gershgorin(d[lo:hi], e[lo : hi - 1])
    # (block row, |e_end| across the cut) at each end that is a cut
    ends = [(r, abs(e[k])) for r, k, cut in ((0, lo - 1, lo > 0), (n - 1, hi - 1, hi < size)) if cut]
    end_rows, couplings = [r for r, _ in ends], np.array([c for _, c in ends])
    # tails times 1 + |t| sum_end |e_end|: the series tail plus its term in the leak
    series = [_bessel_series(a * abs(t), f.norm() * (1.0 + abs(t) * couplings.sum())) for t in times]
    pending = list(range(times.size))
    degrees, bounds = [0] * times.size, [None] * times.size
    # c[m, k] = (2 - delta_k0) J_k(a|t_m|) times the real sign of (-i sgn t)^k;
    # even orders give the real part of the sum, odd orders the imaginary part
    c = np.zeros((times.size, max(j.size for j, _ in series)))
    for m, (t, (j, _)) in enumerate(zip(times, series)):
        c[m, : j.size] = np.array([1.0, -np.sign(t), -1.0, np.sign(t)])[np.arange(j.size) % 4] * j
    c[:, 1:] *= 2.0
    kmax = c.shape[1]  # every Bessel order until each degree is fixed, then the largest degree
    leak_weight = 2.0 * np.sqrt(f.grid.dx) * np.abs(times)
    boundary = 0.0  # sum_end |e_end| sum_(k<done) |(T_k f)(end)|; leak = leak_weight * boundary

    parts = [f.values[lo:hi].real] + ([f.values[lo:hi].imag] if np.any(f.values.imag) else [])
    p = len(parts)
    scale = 2.0 / a if a > 0 else 0.0  # a = 0: H = b, and the series stops at K = 1
    diag = np.repeat((d[lo:hi] - b) * scale, p)  # 2 H_s, interleaved over the parts
    up = np.repeat(np.append(e[lo : hi - 1], 0.0) * scale, p)
    down = np.repeat(np.append(0.0, e[lo : hi - 1]) * scale, p)
    B = _CHEBYSHEV_BLOCK
    ring = np.zeros((B, (n + 2) * p))  # T_k in row k % B, zero-padded at both ends
    rows = ring[:, p:-p]
    right, left = ring[:, 2 * p:], ring[:, :-2 * p]
    tmp = np.empty(n * p)
    rows[0] = np.stack(parts, axis=1).ravel()
    even, odd = np.zeros((times.size, n * p)), np.zeros((times.size, n * p))

    k = done = 0  # rows hold T_done .. T_k
    while True:
        if (k + 1) % B == 0 or k + 1 == kmax:
            k1 = k + 1
            if pending:  # fix each pending degree at the first K in (done, k1] that meets the bound
                at_ends = rows[: k1 - done].reshape(k1 - done, n, p)[:, end_rows]
                sums = boundary + np.cumsum(np.sqrt((at_ends**2).sum(axis=2)) @ couplings)
                boundary = float(sums[-1])
                for m in list(pending):
                    j, tails = series[m]
                    K = np.arange(done + 1, min(k1, j.size) + 1)
                    bound = tails[K - 1] + leak_weight[m] * sums[: K.size]
                    ok = np.flatnonzero((bound <= CHEBYSHEV_TAIL) & (K >= a * abs(times[m])))
                    if ok.size:
                        degrees[m], bounds[m] = int(K[ok[0]]), float(bound[ok[0]])
                    elif k1 < j.size and leak_weight[m] * boundary <= CHEBYSHEV_TAIL:
                        continue  # neither done nor leaking yet
                    c[m, degrees[m]:] = 0.0  # a leaking time keeps degree 0 and bound None
                    pending.remove(m)
                if not pending:
                    kmax = max(degrees)
            even += c[:, done:k1:2] @ rows[0 : k1 - done : 2]
            odd += c[:, done + 1 : k1 : 2] @ rows[1 : k1 - done : 2]
            done = k1
            if done >= kmax:
                break
        # T_(k+1) = 2 H_s T_k - T_(k-1), T_1 = H_s T_0
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
        k += 1

    evolved = []
    for m, t in enumerate(times):
        v = (np.exp(-1j * b * t) * (even[m] + 1j * odd[m])).reshape(n, p)
        block = v[:, 0] + 1j * v[:, 1] if p == 2 else v[:, 0]
        evolved.append(None if bounds[m] is None else WaveFunction(f.grid, np.pad(block, (lo, size - hi))))
    return evolved, bounds


def _lattice_symbol(g: Grid1D) -> np.ndarray:
    """omega(p) = 2(1 - cos(p dx))/dx^2 at the FFT momenta: the grid Laplacian's symbol."""
    return (2.0 - 2.0 * np.cos(g.momenta() * g.dx)) / g.dx**2


def evolve_free(f: WaveFunction, t: float) -> WaveFunction:
    """Free evolution as the Fourier multiplier e^(-it omega(p)) of the grid Laplacian."""
    out = np.fft.ifft(np.fft.fft(f.values) * np.exp(-1j * t * _lattice_symbol(f.grid)))
    return WaveFunction(f.grid, out)


def edge_amplitude(f: WaveFunction) -> float:
    """Largest |f| within 4 length units of the box edge, relative to max |f|."""
    g = f.grid
    m = np.abs(g.x) >= g.half_width - 4.0
    peak = np.abs(f.values).max()
    if peak == 0:
        return 0.0
    return float(np.abs(f.values[m]).max() / peak)


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


def duhamel_bound(f: WaveFunction, t: float, R: float) -> float:
    """
    Integral bound on the propagator gap at unit wall coupling:

        Integral_0^t du  sqrt( Integral_{|x|>=R} (x^2-R^2)^2 |f_u(x)|^2 dx )

    with f_u the freely evolved packet.  The bound is linear in the wall's
    c^2, so for coupling c it is c^2 times this value.  Composite Simpson in
    u from 32 intervals, doubling until the relative change drops below
    DUHAMEL_REL_TOL.  At 4096 intervals a last change within the integral
    of the integrand's roundoff floor (machine epsilon times max |f| per
    sample, weighted as above) is accepted, since no refinement can beat
    it; any larger change raises QuadratureCapError.

    The integrand is evolve_free's multiplier taken in batches: fft(f) and
    the symbol are formed once, and each level's new, equally spaced nodes
    go through one batched inverse FFT per _DUHAMEL_BATCH nodes, their
    phases e^(-iu omega) built by a recurrence in u.
    """
    if t == 0:
        return 0.0
    g = f.grid
    wgt = _tail_weight(g, R)
    spectrum, omega = np.fft.fft(f.values), _lattice_symbol(g)

    def integrand(u0: float, h: float, count: int) -> np.ndarray:  # at u0, u0 + h, ...
        out = np.empty(count)
        step = np.exp(-1j * h * omega)
        for i in range(0, count, _DUHAMEL_BATCH):
            phases = np.empty((min(_DUHAMEL_BATCH, count - i), g.n_points), dtype=complex)
            phases[0] = np.exp(-1j * (u0 + i * h) * omega)
            phases[1:] = step
            np.cumprod(phases, axis=0, out=phases)
            psi = np.fft.ifft(spectrum * phases, axis=1)
            out[i : i + phases.shape[0]] = np.sqrt((psi.real**2 + psi.imag**2) @ wgt * g.dx)
        return out

    n = 32  # number of intervals, even
    vals = integrand(0.0, t / n, n + 1)

    def simpson(v: np.ndarray, h: float) -> float:
        return h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum())

    est = simpson(vals, t / n)
    while True:
        n *= 2
        vals_new = np.empty(n + 1)
        vals_new[::2] = vals
        vals_new[1::2] = integrand(t / n, 2.0 * t / n, n // 2)
        est_new = simpson(vals_new, t / n)
        change = abs(est_new - est)
        if change <= DUHAMEL_REL_TOL * max(abs(est_new), 1e-300):
            return float(est_new)
        if n >= DUHAMEL_MAX_INTERVALS:
            noise = abs(t) * np.finfo(float).eps * np.abs(f.values).max() * np.sqrt(wgt.sum() * g.dx)
            if change <= noise:
                return float(est_new)
            raise QuadratureCapError(
                f"Duhamel quadrature at t={t}, R={R}: relative change "
                f"{change / max(abs(est_new), 1e-300):.2e} after "
                f"{n} intervals exceeds DUHAMEL_REL_TOL {DUHAMEL_REL_TOL:.0e}"
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
