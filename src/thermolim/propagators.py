# propagators.py
#
# Time evolution and the convergence of trapped to free dynamics.
#
# Two propagators run the experiments:
# - evolve_chebyshev_batch (evolve_chebyshev for one packet), the one path
#   of every trapped packet: e^(-itH) f as a Chebyshev series in the
#   Gershgorin-scaled operator H_s = (H - b)/a,
#   e^(-itH) = e^(-itb) sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k(H_s)
#   (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  One three-term
#   recurrence T_(k+1) = 2 H_s T_k - T_(k-1) on f serves every time, at one
#   O(n) tridiagonal apply per term and no n x n matrix.  The Bessel
#   functions come from Miller's backward recurrence, run as one banded
#   triangular solve, and the tail beyond the computed orders from the
#   ratio bound J_(k+1)/J_k < z/(2k + 2 - z)
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
# with s.  Each time's degree is fixed before the recurrence starts: the
# first K >= a|t| whose tail bound is at most CHEBYSHEV_TAIL, or at most
# half of it on a cut block, which leaves the other half to the leak.  The
# boundary sums run along the recurrence, each time's up to its own degree;
# without a cut the leak is zero.  A time whose tail plus leak exceeds
# CHEBYSHEV_TAIL is rerun on the whole box; the other times keep their
# block results.  At lemma31's stiff walls (n = 4096, c = R = 8..14) the
# blocks keep 3075 to 1571 rows, the degree a t at t = 1 falls from
# 39k-175k to 25k-13k (2 to 4 terms past the whole-box rule), and the leak
# is at most 4.5e-18; R = 6 keeps the whole box (degree 24k at t = 1).
#
# The even half.  A block cut on both sides, whose diagonal and packet are
# mirror exact about a row mid (bit for bit) and whose one coupling e runs
# through it and both cuts, keeps an even packet even.  The series then
# runs on rows mid..hi-1 in the orthonormal basis e_mid,
# (e_(mid+k) + e_(mid-k))/sqrt 2 of the even vectors (Cantoni & Butler,
# Linear Algebra Appl. 13, 275 (1976)): half the rows, first coupling
# sqrt 2 e, and the same norm.  It keeps the whole block's Gershgorin
# (a, b) and tail weight, so its Bessel coefficients and degrees are the
# block's.  Its one cut carries sqrt 2 |e|: the half's end value g(end) is
# sqrt 2 u(hi-1), so sqrt 2 |e| |g(end)| is the two mirrored cuts' leak
# |e| (|u(lo)| + |u(hi-1)|) summed.  A block reaching a box edge runs
# unsplit (row 0, x = -L, has no mirror at +L), as does an off-centre or
# asymmetric packet or operator.  At lemma31's defaults the c = R blocks
# at R = 8..14 run on 1538 to 786 rows, and their gaps move by at most
# 3.1e-12 relative: roundoff of some 25k terms.
#
# The batch.  evolve_chebyshev_batch runs many packets in one recurrence.
# Their rows, per real and imaginary part, sit side by side in one vector
# with no coupling between them, each row carrying its own packet's 2 H_s,
# in order of descending degree, so the rows still running are a prefix.
# A term is one copy and one LAPACK dlagtm call (B := +-A X + B for a
# tridiagonal A) on that prefix, so it pays its Python and call overhead
# (about 2 us) once for all packets; at lemma31's 28,852 rows a term costs
# 1.6 ns per row, against 3.2 ns for the six ufunc calls it replaces.  Each
# packet keeps its own coefficients, degrees, leak sums and bounds, and
# the times whose cuts leak are rerun on their whole boxes, all of them in
# one more batch.  The new vectors are summed into every time each
# _CHEBYSHEV_BLOCK terms, or as many as fit _CHEBYSHEV_RING_BYTES over the
# batch's rows: 36 for lemma31's ten packets, whose batch sets lemma31's
# 16.5 MB peak.  The leak sums of every cut packet take those vectors at
# the same flush, from one gather of all cut ends' columns and a fixed
# number of vectorised calls, so they too cost nothing per packet.
#
# The Duhamel bound.  duhamel_bound integrates the free packet's weighted
# tail over [0, t] by Simpson doubling, for one time or a 1-D sequence of
# times: the times share one table of integrand values by node u, so
# lemma31's t = 0.25, 0.5 and 1, whose dyadic nodes coincide in floating
# point, evaluate each node once (1989 inverse-FFT rows at its defaults
# against 2959 for one call per time).  One call at n = 4096 takes 10.8 MB,
# for all its times.

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.special import gammaln, j0, j1

from .grids import Grid1D, GridMismatchError, WaveFunction
from .hamiltonians import _A, _C, _D, _I, SpectralDecomposition, TridiagonalOperator, _gershgorin_rows, _lapack_handle

GAP_FLOOR = 1e-14
EDGE_GATE = 5e-3  # largest relative edge amplitude an evolved packet may keep
EDGE_ZONE = 4.0  # width of the box-edge strip the edge gates keep clear of
DUHAMEL_MAX_INTERVALS = 4096
DUHAMEL_REL_TOL = 1e-6  # relative change at which the Duhamel quadrature stops doubling
CHEBYSHEV_TAIL = 1e-15  # L2 bound on the neglected series tail at every time
_CHEBYSHEV_BLOCK = 64  # Chebyshev vectors summed per matrix product, at most
_CHEBYSHEV_RING_BYTES = 8 << 20  # the ring of those vectors, at most (a batch sums fewer per product)
_SQRT2 = np.sqrt(2.0)
_DUHAMEL_BATCH = 64  # Duhamel nodes per batched inverse FFT
# dlagtm(TRANS, N, NRHS, ALPHA, DL, D, DU, X, LDX, BETA, B, LDB): B := ALPHA A X + BETA B for
# the tridiagonal A = (DL, D, DU), with ALPHA = +-1 and BETA = 0 or 1
_DLAGTM = _lapack_handle("dlagtm", _C, _I, _I, _D, _A, _A, _A, _A, _I, _D, _A, _I)


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

    The recurrence runs as one unit upper triangular solve with two
    superdiagonals (BLAS dtbsv), in y_k = J_k / w_k with
    log w_k = min(0, k ln(z/2) - ln k!): near z = 0 the plain J_start = 1
    start overflows long before order 0, and the weights, of the size of
    J_k at small z, keep y finite.
    """
    if z == 0:
        return np.ones(1), np.zeros(1)
    margin = 15.0 * z ** (1 / 3) + 30.0  # the tail at `top` is below 1e-20
    while True:
        top = int(z + margin)
        start = top + int(margin)  # the start's error has died out by `top`
        k = np.arange(start + 1)
        log_w = np.minimum(0.0, k * np.log(z / 2) - gammaln(k + 1))
        # y_(k-1) - (2k/z) (w_k/w_(k-1)) y_k + (w_(k+1)/w_(k-1)) y_(k+1) = 0 for k < start, y_start = 1,
        # in dtbsv's upper band storage band[2 + i - j, j] = A[i, j]
        band = np.ones((3, start + 1))
        band[0, 2:] = np.exp(log_w[2:] - log_w[:-2])
        band[1, 1:] = -(2.0 * k[1:] / z) * np.exp(log_w[1:] - log_w[:-1])
        j = np.zeros(start + 1)
        j[start] = 1.0
        j = dtbsv(2, band, j, overwrite_x=1, diag=1) * np.exp(log_w)
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
    the packet's reachable block (module header), to a degree fixed per
    time before the series runs, with an L2 error bound per time: the
    series tail plus the leak across the cut.  Times whose bound exceeds
    CHEBYSHEV_TAIL are rerun on the whole box.  A one-packet
    evolve_chebyshev_batch.

    Returns (evolved, bounds): lists in the order of `times`; every bound is
    at most CHEBYSHEV_TAIL.  NaN or inf operator entries raise ValueError.
    """
    return evolve_chebyshev_batch([(H, f, times)], 1)[0]


def evolve_chebyshev_batch(packets, threads: int):
    """
    evolve_chebyshev of every (H, f, times) in `packets`, all in one
    Chebyshev recurrence (module header), or in `threads` recurrences of
    about equal work (rows times degree) on a thread pool.  Times whose
    tail plus leak exceeds CHEBYSHEV_TAIL are rerun on their whole boxes,
    again in one batch.

    Returns one (evolved, bounds) pair per packet, in the order of `packets`.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    runs = []
    for H, f, times in packets:
        _check_grid(H.grid, f)
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"times must be a 1-D sequence, got shape {times.shape}")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"times must be finite, got {times.tolist()}")
        runs.append((np.asarray_chkfinite(H.diagonal), np.asarray_chkfinite(H.off_diagonal), f, times))
    results = _run_groups([_plan(*run) for run in runs], threads)
    leaky = [(i, [m for m, bound in enumerate(bounds) if bound is None]) for i, (_, bounds) in enumerate(results)]
    leaky = [(i, ms) for i, ms in leaky if ms]
    if leaky:
        reruns = []
        for i, ms in leaky:
            d, e, f, times = runs[i]
            reruns.append(_segment(d, e, f, times[ms], 0, d.size, None))
        for (i, ms), (evolved, bounds) in zip(leaky, _run_groups(reruns, threads)):
            for m, v, bound in zip(ms, evolved, bounds):
                results[i][0][m], results[i][1][m] = v, bound
    return results


def _run_groups(segments: list, threads: int) -> list:
    """
    _run_segments over `threads` groups of the segments on a thread pool,
    each group a batch of about equal rows times degree (largest first, to
    the lightest group); one thread runs them as one batch.
    """
    if threads == 1 or len(segments) < 2:
        return _run_segments(segments)
    groups = [[] for _ in range(min(threads, len(segments)))]
    load = [0] * len(groups)
    for i in sorted(range(len(segments)), key=lambda i: -segments[i].work):
        g = int(np.argmin(load))
        groups[g].append(i)
        load[g] += segments[i].work
    results = [None] * len(segments)
    with ThreadPoolExecutor(max_workers=len(groups)) as pool:
        for group, out in zip(groups, pool.map(lambda g: _run_segments([segments[i] for i in g]), groups)):
            for i, result in zip(group, out):
                results[i] = result
    return results


def _mirror_centre(d: np.ndarray, e: np.ndarray, values: np.ndarray, lo: int, hi: int):
    """
    The row mid about which the block lo <= j < hi is mirror exact, bit for
    bit: d and the packet `values` (zero outside the block) equal at
    mid - k and mid + k, and one coupling runs through the block and both
    its cuts.  None when the block reaches a box edge or any of it fails.
    """
    if lo == 0 or hi == d.size or (hi - 1 - lo) % 2:
        return None
    mid = (lo + hi - 1) // 2
    mirror = slice(hi - 1, mid - 1, -1)
    couplings = e[lo - 1 : hi]
    if (
        np.array_equal(d[lo : mid + 1], d[mirror])
        and np.array_equal(values[lo : mid + 1], values[mirror])
        and np.all(couplings == couplings[0])
    ):
        return mid
    return None


def _plan(d: np.ndarray, e: np.ndarray, f: WaveFunction, times: np.ndarray):
    """The segment of f on its reachable block, on the block's even half where it is mirror exact."""
    lo, hi = _reachable_block(d, e, f.values)
    return _segment(d, e, f, times, lo, hi, _mirror_centre(d, e, f.values, lo, hi))


@dataclass
class _Segment:
    """
    One packet's series on the block lo <= j < hi of its operator, or, with
    `mid` set, on the even half mid <= j < hi of a mirror-exact block: the
    rows of 2 H_s, the start vector per part, each time's degree, tail bound
    and coefficients, and the sums that _absorb (the series) and
    _recurrence (the leak) add to.
    """

    f: WaveFunction
    times: np.ndarray
    lo: int
    hi: int
    mid: int | None
    b: float
    diag: np.ndarray  # 2 H_s: diagonal, and couplings to the next and previous row,
    up: np.ndarray  # over the rows of every part (each part its own zero-coupled block)
    down: np.ndarray
    start: np.ndarray  # (parts, rows) real
    end_rows: list  # block rows at the cuts, and |e_end| across each
    couplings: np.ndarray
    c_even: np.ndarray  # (times, orders) of the coefficients of even and odd orders,
    c_odd: np.ndarray  # each zero past its time's degree
    degrees: list
    tails: np.ndarray  # per time: the series tail bound at its degree
    leak_weight: np.ndarray
    leak: np.ndarray  # per time: sum_end |e_end| sum_(k<degree) |(T_k f)(end)|, as far as summed
    kmax: int  # the largest degree
    even: np.ndarray
    odd: np.ndarray

    @property
    def rows(self) -> int:
        return self.start.size

    @property
    def work(self) -> int:
        return self.rows * self.kmax


def _segment(d: np.ndarray, e: np.ndarray, f: WaveFunction, times: np.ndarray, lo: int, hi: int, mid):
    """
    The series of f on the block lo <= j < hi of the operator (d, e), with
    f supported inside it, or on the block's even half mid <= j < hi when
    `mid` is its mirror centre (_mirror_centre; module header, "The even
    half"): the half keeps the block's Gershgorin (a, b) and tail weight,
    and its one cut carries sqrt 2 |e|.

    Each time's degree is the first K >= a|t| whose tail bound is at most
    CHEBYSHEV_TAIL, or at most CHEBYSHEV_TAIL / 2 on a cut block, which
    leaves the other half to the leak.
    """
    a, b = _gershgorin(d[lo:hi], e[lo : hi - 1])
    # (block row, |e_end| across the cut) at each end that is a cut
    cuts = [(0, lo - 1, lo > 0), (hi - lo - 1, hi - 1, hi < d.size)]
    ends = [(r, abs(e[k])) for r, k, cut in cuts if cut]
    # the tail bound times 1 + |t| sum_end |e_end|: the series tail plus its
    # term in the leak, and on a cut block times 2 more, so that the degree
    # holds it to half of CHEBYSHEV_TAIL.  c[m, k] = (2 - delta_k0) J_k(a|t_m|)
    # times the real sign of (-i sgn t)^k and the recurrence's sign eps_k
    # (_recurrence): (1, -sgn t) by parity; even orders give the real part of
    # the sum, odd orders the imaginary part
    cut_sum = sum(c for _, c in ends)
    share = 2.0 if ends else 1.0
    series, degrees, tails = [], [], []
    for t in times:
        j, tail = _bessel_series(a * abs(t), share * f.norm() * (1.0 + abs(t) * cut_sum))
        first = max(1, int(np.ceil(a * abs(t))))
        K = first + int(np.argmax(tail[first - 1 :] <= CHEBYSHEV_TAIL))
        series.append(np.array([1.0, -np.sign(t)])[np.arange(K) % 2] * j[:K])
        degrees.append(K)
        tails.append(tail[K - 1] / share)
    if mid is None:
        rows_d, rows_e, values = d[lo:hi], e[lo : hi - 1], f.values[lo:hi]
    else:
        rows_d, rows_e = d[mid:hi], e[mid : hi - 1].copy()
        rows_e[:1] *= _SQRT2
        values = f.values[mid:hi].copy()
        values[1:] *= _SQRT2
        ends = [(hi - mid - 1, _SQRT2 * abs(e[hi - 1]))]
    end_rows, couplings = [r for r, _ in ends], np.array([c for _, c in ends])
    c = np.zeros((times.size, max(degrees)))
    for m, j in enumerate(series):
        c[m, : j.size] = j
    del series
    c[:, 1:] *= 2.0
    c_even, c_odd = c[:, ::2].copy(), c[:, 1::2].copy()  # contiguous, for BLAS products

    parts = [values.real] + ([values.imag] if np.any(values.imag) else [])
    p = len(parts)
    scale = 2.0 / a if a > 0 else 0.0  # a = 0: H = b, and the series stops at K = 1
    return _Segment(
        f, times, lo, hi, mid, b,
        diag=np.tile((rows_d - b) * scale, p),
        up=np.tile(np.append(rows_e, 0.0) * scale, p),
        down=np.tile(np.append(0.0, rows_e) * scale, p),
        start=np.stack(parts),
        end_rows=end_rows,
        couplings=couplings,
        c_even=c_even,
        c_odd=c_odd,
        degrees=degrees,
        tails=np.array(tails),
        leak_weight=2.0 * np.sqrt(f.grid.dx) * np.abs(times),
        leak=np.zeros(times.size),
        kmax=c.shape[1],
        even=np.zeros((times.size, p * rows_d.size)),
        odd=np.zeros((times.size, p * rows_d.size)),
    )


def _absorb(s: _Segment, block: np.ndarray, done: int, k1: int) -> None:
    """
    Add T_done .. T_(k1-1) of segment s (the rows of `block`) to each time's
    sum, up to that time's degree: its coefficients are zero past it.
    """
    k1 = min(k1, s.kmax)  # done is even: a multiple of the ring size
    block = block[: k1 - done]
    s.even += s.c_even[:, done // 2 : (k1 + 1) // 2] @ block[0::2]
    s.odd += s.c_odd[:, done // 2 : k1 // 2] @ block[1::2]


def _run_segments(segments: list) -> list:
    """(evolved, bounds) of each segment, from one three-term recurrence over all of them."""
    if segments:
        _recurrence(sorted(segments, key=lambda s: -s.kmax))
    return [_evolved(s) for s in segments]


def _recurrence(segments_by_degree: list) -> None:
    """
    Run the segments, in order of descending degree, to their degrees.
    Their rows sit side by side in one vector with no coupling between
    them, each row carrying its own segment's 2 H_s, so the rows still
    running are always a prefix.  Every _CHEBYSHEV_BLOCK terms, or fewer as
    the ring's memory bound asks, each running segment sums the new
    vectors into its times by one matrix product (_absorb).  The leak sums
    of every cut segment's times take the same vectors in a fixed number of
    vectorised calls per flush: one gather of the cut ends' columns, a
    reduceat over parts and one over ends, a cumsum over terms and one
    index by the degrees clipped to the flushed terms.

    The ring holds S_k = eps_k T_k, eps = (+, +, -, -) repeating, whose
    signs the coefficients carry (_segment): S_(k+1) = +-A S_k + S_(k-1)
    with A = 2 H_s, + for even k and - for odd, is one copy of S_(k-1) and
    one dlagtm call with BETA = 1 on the running prefix, and S_1 = A S_0 / 2.
    """
    offsets = np.cumsum([0] + [s.rows for s in segments_by_degree])
    size = int(offsets[-1])
    diag, up, down = (np.concatenate([getattr(s, k) for s in segments_by_degree]) for k in ("diag", "up", "down"))
    B = max(2, min(_CHEBYSHEV_BLOCK, _CHEBYSHEV_RING_BYTES // (8 * size)) // 2 * 2)
    ring = np.zeros((B, size))  # S_k in row k % B
    ring[0] = np.concatenate([s.start.ravel() for s in segments_by_degree])
    # dlagtm's arguments: DL = down[1:] and DU = up[:-1] by address, N = LDX = LDB the running prefix
    slots, dl, dg, du = [row.ctypes.data for row in ring], down.ctypes.data + 8, diag.ctypes.data, up.ctypes.data
    width, one, beta = ctypes.c_int(size), ctypes.c_int(1), ctypes.c_double(0.0)
    sign = ctypes.c_double(1.0), ctypes.c_double(-1.0)

    # the cut ends' ring columns, in order (segment, end, part), and the
    # degrees of the cut segments' times, whose leak sums are views of `leak`
    cut = [(s, o) for s, o in zip(segments_by_degree, offsets) if s.end_rows]
    columns = [o + q * s.start.shape[1] + r for s, o in cut for r in s.end_rows for q in range(len(s.start))]
    by_end = np.cumsum([0] + [len(s.start) for s, _ in cut for _ in s.end_rows])[:-1]
    by_segment = np.cumsum([0] + [len(s.end_rows) for s, _ in cut])[:-1]
    couplings = np.array([c for s, _ in cut for c in s.couplings])
    degrees = np.array([K for s, _ in cut for K in s.degrees], dtype=int)
    segment_of = np.repeat(np.arange(len(cut)), [s.times.size for s, _ in cut])
    leak = np.zeros(degrees.size)
    for (s, _), view in zip(cut, np.split(leak, np.cumsum([s.times.size for s, _ in cut])[:-1])):
        s.leak = view

    active = len(segments_by_degree)  # segments_by_degree[:active] holds every running segment
    rows = list(ring)
    kmax = segments_by_degree[0].kmax
    k = done = 0  # ring rows hold S_done .. S_k
    while True:
        if (k + 1) % B == 0 or k + 1 == kmax:
            k1 = k + 1
            for s, o in zip(segments_by_degree[:active], offsets):
                _absorb(s, ring[: k1 - done, o : o + s.rows], done, k1)
            if cut:  # every time's terms k < degree at its ends; a finished segment adds sums[0] = 0
                at_ends = ring[: k1 - done, columns]
                norms = np.sqrt(np.add.reduceat(at_ends * at_ends, by_end, axis=1)) * couplings
                sums = np.zeros((k1 - done + 1, len(cut)))
                np.cumsum(np.add.reduceat(norms, by_segment, axis=1), axis=0, out=sums[1:])
                leak += sums[np.minimum(np.maximum(degrees, done), k1) - done, segment_of]
            done = k1
            while active and segments_by_degree[active - 1].kmax <= done:
                active -= 1
            if not active:
                break
            if offsets[active] < width.value:
                width.value = int(offsets[active])
                rows = [row[: width.value] for row in ring]
        if k:
            np.copyto(rows[(k + 1) % B], rows[(k - 1) % B])
        _DLAGTM(b"N", width, one, sign[k % 2], dl, dg, du, slots[k % B], width, beta, slots[(k + 1) % B], width)
        if not k:
            rows[1] *= 0.5
            beta.value = 1.0
        k += 1


def _evolved(s: _Segment):
    """
    The (evolved, bounds) lists of a finished segment, on the whole grid.  A
    time's bound is its tail bound plus its leak; above CHEBYSHEV_TAIL the
    time gets None for both, and evolve_chebyshev_batch reruns it.
    """
    p, n = s.start.shape
    size = s.f.grid.n_points
    bounds = [float(bound) if bound <= CHEBYSHEV_TAIL else None for bound in s.tails + s.leak_weight * s.leak]
    evolved = []
    for m, t in enumerate(s.times):
        if bounds[m] is None:
            evolved.append(None)
            continue
        v = (np.exp(-1j * s.b * t) * (s.even[m] + 1j * s.odd[m])).reshape(p, n)
        block = v[0] + 1j * v[1] if p == 2 else v[0]
        if s.mid is None:
            out = np.pad(block, (s.lo, size - s.hi))
        else:  # unfold the even half onto the mirror-exact block
            out = np.zeros(size, dtype=complex)
            out[s.mid] = block[0]
            out[s.mid + 1 : s.hi] = block[1:] / _SQRT2
            out[s.lo : s.mid] = out[s.hi - 1 : s.mid : -1]
        evolved.append(WaveFunction(s.f.grid, out))
    s.even = s.odd = None
    return evolved, bounds


def _lattice_symbol(g: Grid1D) -> np.ndarray:
    """omega(p) = 2(1 - cos(p dx))/dx^2 at the FFT momenta: the grid Laplacian's symbol."""
    return (2.0 - 2.0 * np.cos(g.momenta() * g.dx)) / g.dx**2


def evolve_free(f: WaveFunction, t: float) -> WaveFunction:
    """Free evolution as the Fourier multiplier e^(-it omega(p)) of the grid Laplacian."""
    out = np.fft.ifft(np.fft.fft(f.values) * np.exp(-1j * t * _lattice_symbol(f.grid)))
    return WaveFunction(f.grid, out)


def edge_amplitude(f: WaveFunction) -> float:
    """Largest |f| within EDGE_ZONE of the box edge, relative to max |f|."""
    g = f.grid
    m = np.abs(g.x) >= g.half_width - EDGE_ZONE
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
    if not half_width >= R + margin:  # NaN fails
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


def duhamel_bound(f: WaveFunction, t, R: float):
    """
    Integral bound on the propagator gap at unit wall coupling:

        Integral_0^t du  sqrt( Integral_{|x|>=R} (x^2-R^2)^2 |f_u(x)|^2 dx )

    with f_u the freely evolved packet.  The bound is linear in the wall's
    c^2, so for coupling c it is c^2 times this value.  Composite Simpson in
    u from 32 intervals, doubling until the change drops below
    DUHAMEL_REL_TOL relative or below the integral of the integrand's
    roundoff floor (machine epsilon times max |f| per sample, weighted as
    above), which no refinement can beat.  A change above both at
    DUHAMEL_MAX_INTERVALS intervals raises QuadratureCapError.

    t is one time, giving a float, or a 1-D sequence of times, giving a
    list in the same order.  The times run in ascending |t| and share one
    table of integrand values by node u, so a node that several times reach
    (t = 0.25, 0.5 and 1 have dyadic nodes, equal in floating point) is
    evaluated once, and the smallest time gets the bits of a one-time call.

    The integrand is evolve_free's multiplier taken in batches: fft(f) and
    the symbol are formed once, and each level's nodes missing from the
    table go through one batched inverse FFT per _DUHAMEL_BATCH nodes, the
    phases e^(-iu omega) of consecutive nodes by one product each with
    e^(-ih omega).
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D sequence, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"t must be finite, got {t}")
    g = f.grid
    wgt = _tail_weight(g, R)
    spectrum, omega = np.fft.fft(f.values), _lattice_symbol(g)
    table = {}  # node u -> integrand, for every time

    def integrand(u0: float, h: float, count: int) -> np.ndarray:  # at u0, u0 + h, ...
        nodes = (u0 + h * np.arange(count)).tolist()
        new = [i for i, u in enumerate(nodes) if u not in table]
        step = np.exp(-1j * h * omega)
        for lo in range(0, len(new), _DUHAMEL_BATCH):
            batch = new[lo : lo + _DUHAMEL_BATCH]
            phases = np.empty((len(batch), g.n_points), dtype=complex)
            for r, i in enumerate(batch):
                if r and i == batch[r - 1] + 1:
                    np.multiply(phases[r - 1], step, out=phases[r])
                else:
                    phases[r] = np.exp(-1j * nodes[i] * omega)
            np.multiply(spectrum, phases, out=phases)
            psi = np.fft.ifft(phases, axis=1, out=phases)
            density = np.square(psi.real)  # |psi|^2, with the one temporary
            density += np.square(psi.imag, out=psi.imag)
            for i, value in zip(batch, np.sqrt(density @ wgt * g.dx).tolist()):
                table[nodes[i]] = value
        return np.array([table[u] for u in nodes])

    def simpson(v: np.ndarray, h: float) -> float:
        return h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum())

    peak, weight = np.abs(f.values).max(), np.sqrt(wgt.sum() * g.dx)
    ts = np.atleast_1d(times).tolist()
    bounds = {0.0: 0.0}
    for t in sorted(set(ts), key=abs):
        if t in bounds:
            continue
        noise = abs(t) * np.finfo(float).eps * peak * weight
        n = 32  # number of intervals, even
        vals = integrand(0.0, t / n, n + 1)
        est = simpson(vals, t / n)
        while True:
            n *= 2
            vals_new = np.empty(n + 1)
            vals_new[::2] = vals
            vals_new[1::2] = integrand(t / n, 2.0 * t / n, n // 2)
            est_new = simpson(vals_new, t / n)
            change = abs(est_new - est)
            if change <= max(DUHAMEL_REL_TOL * abs(est_new), noise):
                bounds[t] = float(est_new)
                break
            if n >= DUHAMEL_MAX_INTERVALS:
                raise QuadratureCapError(
                    f"Duhamel quadrature at t={t}, R={R}: relative change "
                    f"{change / max(abs(est_new), 1e-300):.2e} after "
                    f"{n} intervals exceeds DUHAMEL_REL_TOL {DUHAMEL_REL_TOL:.0e}"
                )
            est, vals = est_new, vals_new
    out = [bounds[t] for t in ts]
    return out if times.ndim else out[0]


def observable_gap_bound(
    n: int,
    lam: float,
    f: WaveFunction,
    gap: float,
) -> float:
    """Sector-norm bound 2 n lam^-2 ||f|| * gap for the evolved number resolvents."""
    if n < 1:
        raise ValueError(f"particle number must be >= 1, got {n}")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return 2.0 * n * lam**-2 * f.norm() * gap


@dataclass
class DecayReport:
    """R-scan of propagator gaps with local log-log slopes and a verdict."""

    t: float
    radii: list[float]
    gaps: list[float]
    slopes: list[float]  # between consecutive radii; empty for "trivial" and "inconclusive-floor"
    verdict: str


def gap_decay_scan(t: float, radii: list[float], gaps: list[float]) -> DecayReport:
    """
    Slopes and verdict of the propagator gaps at time t over an ascending
    list of trap radii (gaps[i] measured at radii[i]).

    Verdict: "pass" when slopes are negative with nondecreasing magnitude
    down to the roundoff floor, "trivial" at t = 0, "inconclusive-floor"
    when every gap sits at the floor, otherwise "fail".
    """
    _check_scan_radii(radii, "R scan")
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
    return DecayReport(t, list(radii), list(gaps), slopes, verdict)


def _check_scan_radii(radii, name: str) -> None:
    """An R scan needs at least 4 finite, strictly ascending radii; `name` heads the message."""
    if len(radii) < 4:
        raise ValueError(f"{name} needs at least 4 radii, got {len(radii)}")
    if not np.all(np.isfinite(radii)):
        raise ValueError(f"{name} must be finite, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"{name} must be strictly ascending, got {radii}")
