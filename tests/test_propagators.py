import sys
import tracemalloc

import numpy as np
import pytest

from thermolim import propagators
from thermolim.grids import WaveFunction, bump, make_grid
from thermolim.hamiltonians import assemble, diagonalize, soft_wall_trap
from thermolim.propagators import (
    CHEBYSHEV_TAIL,
    QuadratureCapError,
    ValidityGateError,
    _bessel_series,
    _gershgorin,
    _mirror_centre,
    _plan,
    _reachable_block,
    _run_segments,
    _segment,
    duhamel_bound,
    evolve_chebyshev,
    evolve_chebyshev_batch,
    evolve_free,
    evolve_spectral,
    gap_decay_scan,
    gated_gap,
    observable_gap_bound,
)

from references import miller_bessel_series, propagator_gap, ufunc_recurrence


@pytest.fixture(scope="module")
def trap_setup():
    # small but honest: R = 6 trap in a [-28, 28] box
    R = 6.0
    grid = make_grid(2 * R + 16.0, 2048)
    decomp = diagonalize(assemble(grid, soft_wall_trap(R, 1.0)))
    f = bump(0.0, 2.0, grid)
    return R, grid, decomp, f


def l2_diff(a, b):
    return np.sqrt((np.abs(a.values - b.values) ** 2).sum() * a.grid.dx)


def test_spectral_identity_at_t0(trap_setup):
    _, _, decomp, f = trap_setup
    assert l2_diff(evolve_spectral(decomp, f, 0.0), f) < 1e-12


def test_spectral_unitarity(trap_setup):
    _, _, decomp, f = trap_setup
    for t in (0.3, 1.7, -2.4):
        assert abs(evolve_spectral(decomp, f, t).norm() - 1.0) < 1e-10


def test_spectral_eigenmode_phase(trap_setup):
    _, grid, decomp, _ = trap_setup
    psi3 = WaveFunction(grid, decomp.eigenvectors[:, 3])
    t = 0.8
    evolved = evolve_spectral(decomp, psi3, t)
    expected = psi3.values * np.exp(-1j * t * decomp.eigenvalues[3])
    assert np.sqrt((np.abs(evolved.values - expected) ** 2).sum() * grid.dx) < 1e-9


def test_spectral_time_sequence_matches_scalar_calls(trap_setup):
    # a complex packet, so the real and imaginary halves both carry weight
    _, grid, decomp, f = trap_setup
    f = f.with_values(f.values * np.exp(0.9j * grid.x))
    times = [0.3, 1.1, -0.7]
    batched = evolve_spectral(decomp, f, times)
    assert isinstance(batched, list) and len(batched) == 3
    for t, g in zip(times, batched):
        single = evolve_spectral(decomp, f, t)
        assert np.abs(g.values - single.values).max() < 1e-14
    assert len(evolve_spectral(decomp, f, np.array([0.3]))) == 1


def test_spectral_evolution_does_not_copy_the_eigenvectors():
    grid = make_grid(20.0, 1024)
    decomp = diagonalize(assemble(grid, soft_wall_trap(4.0, 1.0)))
    f = bump(0.0, 2.0, grid)
    evolve_spectral(decomp, f, 0.5)  # warm-up outside the traced region
    tracemalloc.start()
    try:
        evolve_spectral(decomp, f, 0.5)
        evolve_spectral(decomp, f, [0.25, 0.5, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < decomp.eigenvectors.nbytes


@pytest.fixture(scope="module")
def lemma31_soft_wall():
    # lemma31's c = 1 branch at R = 6 on half its grid: the highest degree
    # of that branch per grid point (a t = 2.8 n at t = 1)
    R, ts = 6.0, [0.25, 0.5, 1.0]
    grid = make_grid(2 * R + 16.0, 2048)
    H = assemble(grid, soft_wall_trap(R, 1.0))
    f = bump(0.0, 2.0, grid)
    return R, ts, H, f, evolve_spectral(diagonalize(H), f, ts)


def test_chebyshev_matches_the_eigensolve(lemma31_soft_wall):
    R, ts, H, f, spectral = lemma31_soft_wall
    series, bounds = evolve_chebyshev(H, f, ts)
    for t, a, b in zip(ts, series, spectral):
        assert l2_diff(a, b) < 1e-11
        free = evolve_free(f, t)
        gap, ref = gated_gap(free, a, R), gated_gap(free, b, R)
        assert abs(gap - ref) <= 1e-13 + 1e-9 * ref  # perfbench/reference.py's gap tolerance
    assert all(0 <= b <= CHEBYSHEV_TAIL for b in bounds)


def test_chebyshev_tail_bound_holds_for_any_packet_norm(lemma31_soft_wall):
    # the tail scales with ||f||, so a larger packet needs a higher degree
    _, ts, H, f, _ = lemma31_soft_wall
    for scale in (1e-3, 1.0, 1e3):
        g = f.with_values(scale * f.values)
        assert all(0 <= b <= CHEBYSHEV_TAIL for b in evolve_chebyshev(H, g, ts)[1])
    a, _ = _gershgorin(H.diagonal, H.off_diagonal)
    degrees = [np.argmax(_bessel_series(a, norm)[1] <= CHEBYSHEV_TAIL) + 1 for norm in (1.0, 1e3)]
    assert a < degrees[0] < degrees[1]


def test_chebyshev_time_zero_negative_times_and_any_order(lemma31_soft_wall):
    _, _, H, f, _ = lemma31_soft_wall
    g = f.with_values(f.values * np.exp(0.9j * H.grid.x))  # both parts of the recurrence
    assert np.array_equal(evolve_chebyshev(H, g, [0.0])[0][0].values, g.values)
    times = [0.5, -0.25, 0.0, 0.1]
    together = evolve_chebyshev(H, g, times)[0]
    spectral = evolve_spectral(diagonalize(H), g, times)
    for t, a, b in zip(times, together, spectral):
        assert l2_diff(a, evolve_chebyshev(H, g, [t])[0][0]) < 1e-14
        assert l2_diff(a, b) < 1e-11
    # a real packet: e^(itH) f is the complex conjugate of e^(-itH) f
    back, forth = evolve_chebyshev(H, f, [-0.5, 0.5])[0]
    assert np.abs(back.values - np.conj(forth.values)).max() < 1e-13


def test_bessel_coefficients_sum_to_one(lemma31_soft_wall):
    # J_0(z) + 2 sum_k J_2k(z) = 1 at the largest argument of the series,
    # and J_0 and J_1 agree with scipy there
    from scipy.special import j0, j1

    _, ts, H, _, _ = lemma31_soft_wall
    z = _gershgorin(H.diagonal, H.off_diagonal)[0] * max(ts)
    j, _ = _bessel_series(z, 1.0)
    assert abs(j[0] + 2.0 * j[2::2].sum() - 1.0) < 1e-14
    assert abs(j[0] - j0(z)) < 1e-14 and abs(j[1] - j1(z)) < 1e-14


@pytest.mark.parametrize("z", [1e-8, 1e-4, 0.5, 7.3, 333.3, 2720.0, 2.5e4])
def test_the_banded_bessel_solve_matches_millers_loop(z):
    # at z = 1e-4 the recurrence starts at order 60, and a plain solve from
    # J_60 = 1 overflows before order 0; a packet norm of 1e30 doubles the
    # margin once for z >= 50
    for norm in (1.0, 1e30):
        (j, tails), (ref_j, ref_tails) = _bessel_series(z, norm), miller_bessel_series(z, norm)
        assert j.shape == ref_j.shape and np.all(np.isfinite(j))
        assert np.abs(j - ref_j).max() <= 5e-16
        np.testing.assert_allclose(tails, ref_tails, rtol=1e-13)


def test_route_takes_the_series_below_the_crossover(monkeypatch, lemma31_soft_wall):
    # the old route sent a packet to the series while a max|t| <= 4 n and to
    # a full eigensolve above; the soft wall lies below that crossover, the
    # stiff wall of the same box far above it, and both now take the series.
    # The counter replaces diagonalize in every module that holds it
    _, ts, H, f, spectral = lemma31_soft_wall
    solves = []

    def counting(H, n_modes=None):
        solves.append(H.size)
        return diagonalize(H, n_modes)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thermolim" and hasattr(module, "diagonalize"):
            monkeypatch.setattr(module, "diagonalize", counting)
    for a, b in zip(evolve_chebyshev(H, f, ts)[0], spectral):
        assert l2_diff(a, b) < 1e-11
    assert solves == []
    stiff = assemble(H.grid, soft_wall_trap(6.0, 6.0))
    assert _gershgorin(stiff.diagonal, stiff.off_diagonal)[0] * max(ts) > 4 * stiff.size
    evolved, bounds = evolve_chebyshev(stiff, f, ts)
    assert solves == []
    for a, b, bound in zip(evolved, evolve_spectral(diagonalize(stiff), f, ts), bounds):
        assert l2_diff(a, b) <= bound + 1e-11


def test_soft_wall_series_runs_on_the_whole_box(lemma31_soft_wall):
    # the soft wall's box edge stays below the cut level, so nothing is cut
    # and the result is the uncut series, bit for bit.  Each degree is the
    # first K >= a|t| whose tail bound is at most CHEBYSHEV_TAIL, and with no
    # leak that tail bound is the bound
    _, ts, H, f, _ = lemma31_soft_wall
    d, e = H.diagonal, H.off_diagonal
    assert _reachable_block(d, e, f.values) == (0, H.size)
    evolved, bounds = evolve_chebyshev(H, f, ts)
    segment = _segment(d, e, f, np.asarray(ts), 0, H.size, None)
    (whole, whole_bounds), = _run_segments([segment])
    assert all(np.array_equal(a.values, b.values) for a, b in zip(evolved, whole))
    assert bounds == whole_bounds
    a, _ = _gershgorin(d, e)
    for t, K, bound in zip(ts, segment.degrees, bounds):
        tails = _bessel_series(a * t, f.norm())[1]
        least = max(1, int(np.ceil(a * t)))
        assert K == next(k for k in range(least, tails.size + 1) if tails[k - 1] <= CHEBYSHEV_TAIL)
        assert bound == tails[K - 1]


def test_stiff_wall_series_runs_on_the_reachable_block():
    # lemma31's c = R branch at R = 6 on a quarter of its grid: the wall
    # rises far above the packet's energies, so the series is cut to the
    # block the packet can reach, and the bound covers tail and cut
    R, ts = 6.0, [0.25, 0.5, 1.0]
    grid = make_grid(2 * R + 16.0, 1024)
    H = assemble(grid, soft_wall_trap(R, R))
    f = bump(0.0, 2.0, grid)
    lo, hi = _reachable_block(H.diagonal, H.off_diagonal, f.values)
    assert 0 < lo and hi < H.size
    evolved, bounds = evolve_chebyshev(H, f, ts)
    for a, b, bound in zip(evolved, evolve_spectral(diagonalize(H), f, ts), bounds):
        assert l2_diff(a, b) <= bound + 1e-11
        assert not a.values[:lo].any() and not a.values[hi:].any()
    assert all(0 <= b <= CHEBYSHEV_TAIL for b in bounds)


def test_a_leaky_cut_falls_back_to_the_whole_box():
    # on this coarse grid the cut level 2 (4/dx^2) lies close to the wall,
    # and by t = 1 the packet reaches the cut: the leak alone breaks
    # CHEBYSHEV_TAIL, so the block gives that time no result, and
    # evolve_chebyshev reruns it, and it alone, on the whole box
    R, ts = 10.0, [0.1, 1.0]
    grid = make_grid(2 * R + 16.0, 1024)
    H = assemble(grid, soft_wall_trap(R, R))
    f = bump(0.0, 2.0, grid)
    d, e = H.diagonal, H.off_diagonal
    lo, hi = _reachable_block(d, e, f.values)
    assert 0 < lo and hi < H.size
    assert _run_segments([_plan(d, e, f, np.array([1.0]))]) == [([None], [None])]
    (short, long), bounds = evolve_chebyshev(H, f, ts)
    (whole, whole_bounds), = _run_segments([_segment(d, e, f, np.array([1.0]), 0, H.size, None)])
    assert np.array_equal(long.values, whole[0].values) and bounds[1:] == whole_bounds
    # t = 0.1 stays inside the block and keeps the block result
    assert not short.values[:lo].any() and not short.values[hi:].any()
    for a, b, bound in zip((short, long), evolve_spectral(diagonalize(H), f, ts), bounds):
        assert 0 <= bound <= CHEBYSHEV_TAIL
        assert l2_diff(a, b) <= bound + 1e-11


def _stiff_wall(R, n, center=0.0):
    grid = make_grid(2 * R + 16.0, n)
    return assemble(grid, soft_wall_trap(R, R)), bump(center, 2.0, grid)


def _rel_diff(a, b):
    return l2_diff(a, b) / a.norm()


def test_a_mixed_batch_matches_each_packets_own_run():
    # a whole box (soft wall), a complex packet on it, an even half (centred
    # packet, stiff wall), and a cut block left whole (off-centre packet),
    # of different degrees, in one recurrence
    R, n = 8.0, 1024
    stiff, centred = _stiff_wall(R, n)
    _, off_centre = _stiff_wall(R, n, center=0.5)
    soft = assemble(stiff.grid, soft_wall_trap(R, 1.0))
    moving = centred.with_values(centred.values * np.exp(0.9j * stiff.grid.x))
    packets = [(soft, centred, [0.25, 1.0]), (stiff, centred, [0.1, 0.05]),
               (stiff, off_centre, [0.02, 0.07]), (soft, moving, [0.1])]
    segments = [_plan(H.diagonal, H.off_diagonal, f, np.asarray(ts)) for H, f, ts in packets]
    assert [s.mid is None for s in segments] == [True, False, True, True]
    assert segments[0].lo == 0 and segments[2].lo > 0 and segments[3].rows == 2 * n
    assert len({s.kmax for s in segments}) == len(segments)
    for (H, f, ts), (evolved, bounds) in zip(packets, evolve_chebyshev_batch(packets, 1)):
        alone, alone_bounds = evolve_chebyshev(H, f, ts)
        for a, b in zip(evolved, alone):
            assert _rel_diff(a, b) <= 1e-14
        assert all(0 <= b <= CHEBYSHEV_TAIL for b in bounds)
        np.testing.assert_allclose(bounds, alone_bounds, rtol=1e-12)


def test_the_even_half_matches_the_whole_cut_block():
    # lemma31's c = R branch at R = 8 on a quarter of its grid: the block
    # and the packet are mirror exact about x = 0, so the series runs on
    # rows mid..hi-1 and unfolds; times up to 0.1 keep inside the block
    H, f = _stiff_wall(8.0, 1024)
    d, e, ts = H.diagonal, H.off_diagonal, np.array([0.02, 0.05, 0.1])
    half = _plan(d, e, f, ts)
    lo, hi = _reachable_block(d, e, f.values)
    assert (half.lo, half.mid, half.hi) == (lo, H.size // 2, hi) and half.rows == hi - H.size // 2
    whole = _segment(d, e, f, ts, lo, hi, None)
    assert whole.rows == hi - lo
    (split, split_bounds), (unsplit, unsplit_bounds) = _run_segments([half, whole])
    for a, b in zip(split, unsplit):
        assert _rel_diff(a, b) <= 1e-12
        assert np.array_equal(a.values[lo : H.size // 2], a.values[hi - 1 : H.size // 2 : -1])
    assert half.degrees == whole.degrees
    assert all(0 <= b <= CHEBYSHEV_TAIL for b in split_bounds + unsplit_bounds)
    # a cut block's degree holds the tail to half of CHEBYSHEV_TAIL, and
    # leaves the other half to the leak
    assert np.array_equal(half.tails, whole.tails) and np.all(whole.tails <= CHEBYSHEV_TAIL / 2)
    assert all(tail <= b for tail, b in zip(whole.tails, unsplit_bounds))


@pytest.mark.parametrize("case", ["reaches row 0", "off-centre packet", "asymmetric diagonal"])
def test_no_even_half_without_an_exact_mirror(case):
    H, f = _stiff_wall(8.0, 1024, center=0.5 if case == "off-centre packet" else 0.0)
    d, e = H.diagonal.copy(), H.off_diagonal
    if case == "reaches row 0":
        d = assemble(H.grid, soft_wall_trap(8.0, 1.0)).diagonal
    elif case == "asymmetric diagonal":
        d[H.size // 2 + 3] = np.nextafter(d[H.size // 2 + 3], np.inf)
    lo, hi = _reachable_block(d, e, f.values)
    assert _mirror_centre(d, e, f.values, lo, hi) is None
    segment = _plan(d, e, f, np.array([0.05]))
    assert segment.mid is None and segment.rows == hi - lo
    assert (lo, hi) == (0, H.size) if case == "reaches row 0" else 0 < lo < hi < H.size


def test_only_the_leaky_packet_of_a_batch_is_rerun(monkeypatch):
    # test_a_leaky_cut_falls_back_to_the_whole_box inside a batch: its t = 1
    # leaks and is rerun alone on the whole box; the soft wall beside it
    # and its own t = 0.1 keep their first results
    H, f = _stiff_wall(10.0, 1024)
    soft = assemble(H.grid, soft_wall_trap(10.0, 1.0))
    batches = []

    def recording(segments):
        batches.append([(s.times.tolist(), s.lo, s.hi, s.mid) for s in segments])
        return _run_segments(segments)

    monkeypatch.setattr(propagators, "_run_segments", recording)
    (evolved, bounds), (_, soft_bounds) = evolve_chebyshev_batch([(H, f, [0.1, 1.0]), (soft, f, [0.5])], 1)
    lo, hi = _reachable_block(H.diagonal, H.off_diagonal, f.values)
    assert batches == [[([0.1, 1.0], lo, hi, H.size // 2), ([0.5], 0, H.size, None)],
                       [([1.0], 0, H.size, None)]]
    monkeypatch.undo()
    for a, b in zip(evolved, evolve_chebyshev(H, f, [0.1, 1.0])[0]):
        assert np.array_equal(a.values, b.values)
    assert all(0 <= b <= CHEBYSHEV_TAIL for b in bounds + soft_bounds)


def test_the_lapack_recurrence_matches_a_plain_ufunc_recurrence(monkeypatch):
    # four packets of four degrees, so the running prefix shrinks three
    # times, with a complex packet and negative times, where the folded
    # signs of the recurrence meet sgn t
    R, n = 8.0, 1024
    stiff, centred = _stiff_wall(R, n)
    _, off_centre = _stiff_wall(R, n, center=0.5)
    soft = assemble(stiff.grid, soft_wall_trap(R, 1.0))
    moving = centred.with_values(centred.values * np.exp(0.9j * stiff.grid.x))
    packets = [(soft, centred, [0.25, -1.0]), (stiff, centred, [0.1, -0.05]),
               (stiff, off_centre, [0.02, -0.03]), (soft, moving, [-0.1, 0.3])]
    widths = []

    def recording(*args):
        widths.append(args[1].value)
        return _DLAGTM(*args)

    _DLAGTM = propagators._DLAGTM
    monkeypatch.setattr(propagators, "_DLAGTM", recording)
    fast = evolve_chebyshev_batch(packets, 1)
    assert len(set(widths)) == 4 and widths == sorted(widths, reverse=True)
    monkeypatch.setattr(propagators, "_recurrence", ufunc_recurrence)
    plain = evolve_chebyshev_batch(packets, 1)
    for (a, a_bounds), (b, b_bounds) in zip(fast, plain):
        for x, y in zip(a, b):
            assert _rel_diff(x, y) <= 1e-13
        # the leak sums of the cut blocks add the roundoff of tiny end values
        np.testing.assert_allclose(a_bounds, b_bounds, rtol=0, atol=1e-20)
        assert all(0 <= bound <= CHEBYSHEV_TAIL for bound in a_bounds)


def test_threads_split_the_batch_by_work(monkeypatch):
    # threads = 1 runs one batch; threads = 2 runs two, the heaviest packet
    # alone against the two lighter ones
    grid = make_grid(24.0, 512)
    f = bump(0.0, 2.0, grid)
    packets = [(assemble(grid, soft_wall_trap(4.0, 1.0)), f, [t]) for t in (1.0, 0.6, 0.5)]
    batches = []

    def recording(segments):
        batches.append(sorted(s.times[0] for s in segments))
        return _run_segments(segments)

    monkeypatch.setattr(propagators, "_run_segments", recording)
    one = evolve_chebyshev_batch(packets, 1)
    two = evolve_chebyshev_batch(packets, 2)
    assert batches[0] == [0.5, 0.6, 1.0] and sorted(batches[1:]) == [[0.5, 0.6], [1.0]]
    for (a, _), (b, _) in zip(one, two):
        assert _rel_diff(a[0], b[0]) <= 1e-14
    with pytest.raises(ValueError, match="threads must be at least 1"):
        evolve_chebyshev_batch(packets, 0)


def test_free_identity_and_unitarity(trap_setup):
    _, _, _, f = trap_setup
    assert l2_diff(evolve_free(f, 0.0), f) < 1e-13
    assert abs(evolve_free(f, 1.3).norm() - 1.0) < 1e-10


def test_free_cross_check_against_spectral():
    # mutual oracle: Fourier multiplier vs dense free eigenbasis at t = 1
    grid = make_grid(48.0, 4096)
    f = bump(0.0, 12.0, grid)
    decomp = diagonalize(assemble(grid, soft_wall_trap(0.0, 0.0)))
    spectral = evolve_spectral(decomp, f, 1.0)
    assert l2_diff(evolve_free(f, 1.0), spectral) < 1e-6


def test_gap_zero_at_t0(trap_setup):
    R, _, decomp, f = trap_setup
    assert propagator_gap(decomp, f, 0.0, R) < 1e-12


def test_gap_zero_without_coupling():
    # c = 0 removes the wall entirely; box large enough that every resolved
    # momentum component stays clear of the edge for the whole evolution
    grid = make_grid(40.0, 2048)
    decomp = diagonalize(assemble(grid, soft_wall_trap(6.0, 0.0)))
    f = bump(0.0, 2.0, grid)
    assert propagator_gap(decomp, f, 0.5, 6.0) < 1e-8


def test_gap_decreases_with_radius():
    gaps = []
    for R in (6.0, 8.0, 10.0):
        grid = make_grid(2 * R + 16.0, 2048)
        decomp = diagonalize(assemble(grid, soft_wall_trap(R, 1.0)))
        f = bump(0.0, 2.0, grid)
        gaps.append(propagator_gap(decomp, f, 0.5, R))
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_duhamel_zero_cases(trap_setup):
    R, _, _, f = trap_setup
    assert duhamel_bound(f, 0.0, R) == 0.0
    assert duhamel_bound(f.with_values(np.zeros_like(f.values)), 1.0, R) == 0.0


def test_duhamel_dominates_gap(trap_setup):
    R, _, decomp, f = trap_setup
    for t in (0.25, 1.0):
        gap = propagator_gap(decomp, f, t, R)
        assert gap <= duhamel_bound(f, t, R) + 1e-8


def test_duhamel_matches_its_evolve_free_reference(trap_setup):
    # the batched integrand, phases by recurrence, against a plain loop over
    # evolve_free with the same Simpson doubling: roundoff apart, equal
    R, grid, _, f = trap_setup
    wgt = np.maximum(grid.x**2 - R**2, 0.0) ** 2

    def simpson(t, n):
        v = np.array([np.sqrt((wgt * np.abs(evolve_free(f, u).values) ** 2).sum() * grid.dx)
                      for u in np.linspace(0.0, t, n + 1)])
        return t / n / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum())

    for t in (0.25, 1.0):
        n, est = 64, simpson(t, 64)
        while abs(est - simpson(t, n // 2)) > 1e-6 * est:
            n, est = 2 * n, simpson(t, 2 * n)
        assert duhamel_bound(f, t, R) == pytest.approx(est, rel=1e-10, abs=0.0)


def test_duhamel_cap_raises(monkeypatch):
    # over t = 50 the integrand on this tiny grid oscillates at the grid's
    # top frequency 4/dx^2 = 64; 4096 intervals reach 6e-10 relative, far
    # above its roundoff floor, and not the asked 1e-12
    f = bump(0.0, 2.0, make_grid(8.0, 64))
    monkeypatch.setattr(propagators, "DUHAMEL_REL_TOL", 1e-12)
    with pytest.raises(QuadratureCapError, match="4096 intervals"):
        duhamel_bound(f, 50.0, 3.0)
    monkeypatch.setattr(propagators, "DUHAMEL_REL_TOL", 1e-8)
    assert duhamel_bound(f, 50.0, 3.0) > 0


def test_duhamel_accepts_the_roundoff_floor_at_the_cap():
    # at t = 0.25 the packet barely reaches |x| > 8 on this grid: the
    # integrand sits at the FFT roundoff floor (~1e-13) for most of [0, t],
    # so 1e-6 relative is out of reach, but a change inside the floor ends
    # the doubling (at 128 intervals, before the cap) and the estimate stands
    R = 8.0
    f = bump(0.0, 2.0, make_grid(2 * R + 16.0, 512))
    assert 1e-11 < duhamel_bound(f, 0.25, R) < 3e-11


def _counting_ifft_rows(monkeypatch) -> list:
    """Patch np.fft.ifft to record each call's row count."""
    ifft, rows = np.fft.ifft, []

    def counting(a, *args, **kwargs):
        rows.append(a.shape[0])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    return rows


def test_duhamel_stops_at_the_roundoff_floor_before_the_cap(monkeypatch):
    # at R = 10 the whole integral (~1e-13) sits at the roundoff floor, so
    # no level can reach 1e-6 relative: the first change inside the floor
    # ends the doubling far below the cap's 4097 nodes; every node is one
    # row of a batched inverse FFT
    R = 10.0
    f = bump(0.0, 2.0, make_grid(2 * R + 16.0, 512))
    nodes = _counting_ifft_rows(monkeypatch)
    value = duhamel_bound(f, 0.25, R)
    assert 0 < sum(nodes) <= 129
    assert 0 < value < 1e-12


def test_duhamel_shares_its_nodes_across_times(monkeypatch, trap_setup):
    # unsorted, one time repeated and one zero: each value is its one-time
    # value, the smallest nonzero time bit for bit (it runs first, on an
    # empty table), and the dyadic times' shared nodes make the one call
    # cheaper than the one-time calls together
    R, _, _, f = trap_setup
    times = (1.0, 0.25, 0.5, 0.5, 0.0)
    rows = _counting_ifft_rows(monkeypatch)
    shared = duhamel_bound(f, times, R)
    shared_rows, rows[:] = sum(rows), []
    single = [duhamel_bound(f, t, R) for t in times]
    assert isinstance(shared, list) and isinstance(single[0], float)
    assert shared == pytest.approx(single, rel=1e-12, abs=0.0)
    assert shared[1] == single[1]
    assert shared[4] == 0.0
    assert shared_rows < sum(rows)


def test_duhamel_refuses_a_time_array_of_two_dimensions(trap_setup):
    R, _, _, f = trap_setup
    with pytest.raises(ValueError, match="1-D sequence"):
        duhamel_bound(f, [[0.25, 0.5]], R)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_duhamel_and_the_series_refuse_a_non_finite_time_before_any_work(bad, trap_setup, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a non-finite time")

    monkeypatch.setattr(propagators, "_lattice_symbol", no_work)
    monkeypatch.setattr(propagators, "_plan", no_work)
    R, grid, _, f = trap_setup
    with pytest.raises(ValueError, match="t must be finite"):
        duhamel_bound(f, [0.25, bad], R)
    with pytest.raises(ValueError, match="times must be finite"):
        evolve_chebyshev_batch([(assemble(grid, soft_wall_trap(R, 1.0)), f, [0.25, bad])], 1)


def test_box_margin_gate():
    grid = make_grid(18.0, 1024)
    f = bump(0.0, 2.0, grid)
    with pytest.raises(ValidityGateError, match="R \\+ margin"):
        gated_gap(f, f, R=6.0, margin=16.0)
    with pytest.raises(ValidityGateError, match="R \\+ margin"):  # a NaN margin never passes
        gated_gap(f, f, R=1.0, margin=float("nan"))


def test_edge_amplitude_gate():
    grid = make_grid(20.0, 1024)
    wide = bump(14.0, 4.0, grid)  # leaning on the box edge
    calm = bump(0.0, 2.0, grid)
    assert gated_gap(calm, calm, R=1.0, margin=16.0) == 0.0
    for free, trapped in ((wide, calm), (calm, wide)):  # either packet trips the gate
        with pytest.raises(ValidityGateError, match="edge amplitude"):
            gated_gap(free, trapped, R=1.0, margin=16.0)


def test_observable_gap_bound_scaling(trap_setup):
    R, _, decomp, f = trap_setup
    gap = propagator_gap(decomp, f, 0.5, R)
    assert observable_gap_bound(1, 1.0, f, 0.0) == 0.0
    b1 = observable_gap_bound(1, 1.0, f, gap)
    assert observable_gap_bound(2, 1.0, f, gap) == pytest.approx(2 * b1, rel=1e-14)
    assert observable_gap_bound(1, 2.0, f, gap) == pytest.approx(b1 / 4, rel=1e-14)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_observable_gap_bound_rejects_a_lambda_that_is_not_positive(lam):
    f = bump(0.0, 2.0, make_grid(16.0, 256))
    with pytest.raises(ValueError, match="lambda must be positive"):
        observable_gap_bound(1, lam, f, 1e-3)


def test_scan_verdicts():
    radii = [5.0, 6.0, 7.0, 8.0]
    cache = {}
    for R in radii:
        grid = make_grid(2 * R + 16.0, 2048)
        cache[R] = (diagonalize(assemble(grid, soft_wall_trap(R, 1.0))), bump(0.0, 2.0, grid))

    def gaps(t):
        return [propagator_gap(*cache[R], t, R) for R in radii]

    rep = gap_decay_scan(0.25, radii, gaps(0.25))
    assert rep.verdict == "pass"
    assert all(s < 0 for s in rep.slopes)

    rep0 = gap_decay_scan(0.0, radii, gaps(0.0))
    assert rep0.verdict == "trivial"


def test_scan_input_validation():
    with pytest.raises(ValueError):
        gap_decay_scan(1.0, [6.0, 8.0], [1e-3, 1e-4])
    with pytest.raises(ValueError):
        gap_decay_scan(1.0, [8.0, 6.0, 9.0, 10.0], [1e-3, 1e-4, 1e-5, 1e-6])


def test_gap_insensitive_to_box_doubling():
    # doubling the box at fixed spacing moves the measured gap by < 1%
    R, t = 8.0, 0.5

    def gap_for(L, n):
        grid = make_grid(L, n)
        decomp = diagonalize(assemble(grid, soft_wall_trap(R, 1.0)))
        return propagator_gap(decomp, bump(0.0, 2.0, grid), t, R)

    g1 = gap_for(32.0, 2048)
    g2 = gap_for(64.0, 4096)
    assert abs(g2 - g1) / g1 < 1e-2
