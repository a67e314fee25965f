import tracemalloc

import numpy as np
import pytest

from thermolim.grids import bump, make_grid
from thermolim.hamiltonians import assemble, diagonalize, free_potential, soft_wall_trap
from thermolim.propagators import (
    QuadratureCapError,
    ValidityGateError,
    duhamel_bound,
    evolve_free,
    evolve_spectral,
    gap_decay_scan,
    gated_gap,
    observable_gap_bound,
    propagator_gap,
)


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
    psi3 = decomp.mode(3)
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


def test_free_identity_and_unitarity(trap_setup):
    _, _, _, f = trap_setup
    assert l2_diff(evolve_free(f, 0.0), f) < 1e-13
    assert abs(evolve_free(f, 1.3).norm() - 1.0) < 1e-10


def test_free_cross_check_against_spectral():
    # mutual oracle: Fourier multiplier vs dense free eigenbasis at t = 1
    grid = make_grid(48.0, 4096)
    f = bump(0.0, 12.0, grid)
    decomp = diagonalize(assemble(grid, free_potential()))
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


def test_duhamel_cap_raises():
    # over t = 50 the integrand on this tiny grid oscillates at the grid's
    # top frequency 4/dx^2 = 64; 4096 intervals reach 6e-10 relative, far
    # above its roundoff floor, and not the asked 1e-12
    f = bump(0.0, 2.0, make_grid(8.0, 64))
    with pytest.raises(QuadratureCapError, match="4096 intervals"):
        duhamel_bound(f, 50.0, 3.0, rel_tol=1e-12)
    assert duhamel_bound(f, 50.0, 3.0, rel_tol=1e-8) > 0


def test_duhamel_accepts_the_roundoff_floor_at_the_cap():
    # at t = 0.25 the packet barely reaches |x| > 8 on this grid: the
    # integrand sits at the FFT roundoff floor (~1e-13) for most of [0, t],
    # so 1e-6 relative is out of reach, but the last change (4e-17) is far
    # inside the floor and the estimate stands
    R = 8.0
    f = bump(0.0, 2.0, make_grid(2 * R + 16.0, 512))
    assert 1e-11 < duhamel_bound(f, 0.25, R) < 3e-11


def test_box_margin_gate():
    grid = make_grid(18.0, 1024)
    f = bump(0.0, 2.0, grid)
    with pytest.raises(ValidityGateError, match="R \\+ margin"):
        gated_gap(f, f, R=6.0, margin=16.0)


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
