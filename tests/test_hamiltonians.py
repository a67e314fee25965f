import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from thermolim import hamiltonians

from thermolim.grids import GridConfigError, RadialGrid, bump, make_grid
from thermolim.hamiltonians import (
    EigensolverError,
    SpectralDecomposition,
    TridiagonalOperator,
    _fix_signs,
    assemble,
    diagonalize,
    radial_assemble,
    soft_wall_trap,
    trap_operator,
)
from thermolim.propagators import _reachable_block, evolve_chebyshev
from thermolim.condensates import fit_loglog_slope

from references import residual_norms


def test_free_potential_zero():
    g = make_grid(8.0, 256)
    H = assemble(g, soft_wall_trap(0.0, 0.0))
    assert np.all(H.diagonal == 2.0 / g.dx**2)
    assert np.all(H.off_diagonal == -1.0 / g.dx**2)


def test_soft_wall_values():
    pot = soft_wall_trap(4.0, 1.0)
    assert pot.evaluate(np.array([5.0]))[0] == 9.0
    assert pot.evaluate(np.array([3.0]))[0] == 0.0
    assert pot.evaluate(np.array([-5.0]))[0] == 9.0


def test_two_by_two_closed_form():
    H = TridiagonalOperator(np.array([2.0, 2.0]), np.array([-1.0]), SimpleNamespace(dx=1.0, n_points=2))
    d = diagonalize(H)
    assert np.allclose(d.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_particle_in_box_spectrum():
    g = make_grid(8.0, 2048)
    d = diagonalize(assemble(g, soft_wall_trap(0.0, 0.0)), n_modes=6)
    # hard walls sit one cell outside the sampled box
    width = 2 * g.half_width + 2 * g.dx
    for k in range(6):
        exact = (np.pi * (k + 1) / width) ** 2
        assert abs(d.eigenvalues[k] - exact) / exact < 0.01


def test_harmonic_spectrum():
    # full harmonic well: levels 2k+1 for H = -d2/dx2 + x^2
    g = make_grid(12.0, 2048)
    d = diagonalize(assemble(g, soft_wall_trap(0.0)), n_modes=6)
    for k in range(6):
        exact = 2 * k + 1
        assert abs(d.eigenvalues[k] - exact) / exact < 0.01


def test_decomposition_quality():
    g = make_grid(8.0, 512)
    H = assemble(g, soft_wall_trap(3.0, 1.0))
    d = diagonalize(H)
    res = residual_norms(H, d)
    assert np.all(res <= 1e-9 * np.maximum(1.0, np.abs(d.eigenvalues)))
    gram = d.eigenvectors.T @ d.eigenvectors * g.dx
    assert np.abs(gram - np.eye(d.n_modes)).max() < 1e-10


def _fix_signs_loop(v, dx):
    # per-column reference for the vectorised sign convention
    v = v / np.sqrt(dx)
    amax = np.abs(v).max(axis=0)
    for k in range(v.shape[1]):
        nz = np.nonzero(np.abs(v[:, k]) > 1e-12 * amax[k])[0]
        if nz.size and v[nz[0], k] < 0:
            v[:, k] = -v[:, k]
    return v


def test_fix_signs_first_component_rule():
    v = np.array(
        [
            [0.0, -1e-14, 2e-12, 0.0],  # column 1: sub-threshold leading noise
            [-0.5, 0.5, -0.5, 0.0],
            [0.25, -0.25, 0.25, 0.0],
        ]
    )
    out = _fix_signs(v.copy(), 0.25)
    expected = 2.0 * v * np.array([-1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(out, expected)  # column 2's first entry is above 1e-12 * max
    assert not np.any(np.signbit(out[:, 3]))  # the all-zero column is left alone


def test_fix_signs_matches_per_column_loop():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(64, 48))
    v[:3] *= rng.choice([1e-20, 1e-13, 1e-11, 1.0], size=(3, 48))  # noise near the threshold
    v[:, 7] = 0.0
    ref = _fix_signs_loop(v, 0.03)
    assert np.array_equal(_fix_signs(np.asfortranarray(v), 0.03), ref)
    assert np.array_equal(_fix_signs(v.copy(), 0.03), ref)


def test_spectral_decomposition_is_read_only():
    g = make_grid(8.0, 256)
    d = diagonalize(assemble(g, soft_wall_trap(3.0, 1.0)))
    for a in (d.eigenvalues, d.eigenvectors):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    # writeable input is copied, so changing it later leaves the decomposition alone
    w, v = np.array([1.0, 2.0]), np.eye(g.n_points, 2)
    d2 = SpectralDecomposition(g, w, v)
    w[0], v[0, 0] = 7.0, 7.0
    assert d2.eigenvalues[0] == 1.0 and d2.eigenvectors[0, 0] == 1.0
    assert not d2.eigenvalues.flags.writeable and not d2.eigenvectors.flags.writeable


def test_spectral_decomposition_refuses_rows_off_the_grid():
    # a half-block solve carries half the rows; it cannot stand for the grid
    g = make_grid(8.0, 256)
    with pytest.raises(GridConfigError, match="128 eigenvector rows on a grid of 256"):
        SpectralDecomposition(g, np.array([1.0]), np.ones((128, 1)))


def test_eigenvalues_nonnegative_for_confining_potential():
    g = make_grid(12.0, 1024)
    d = diagonalize(assemble(g, soft_wall_trap(4.0, 1.0)), n_modes=20)
    assert d.eigenvalues.min() >= -1e-9


def test_sign_convention_deterministic():
    g = make_grid(8.0, 512)
    d1 = diagonalize(assemble(g, soft_wall_trap(3.0, 1.0)), n_modes=3)
    d2 = diagonalize(assemble(g, soft_wall_trap(3.0, 1.0)), n_modes=3)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eigenvalues_decrease_with_radius():
    eps = [diagonalize(trap_operator(R, dx_target=0.0625), n_modes=2).eigenvalues
           for R in (10.0, 20.0, 40.0)]
    for k in range(2):
        vals = [e[k] for e in eps]
        assert vals[0] > vals[1] > vals[2]


def test_trap_levels_scale_like_inverse_square_radius():
    radii = [10.0, 20.0, 40.0, 80.0]
    eps0, eps1 = [], []
    for R in radii:
        d = diagonalize(trap_operator(R, dx_target=0.0625), n_modes=2)
        eps0.append(d.eigenvalues[0])
        eps1.append(d.eigenvalues[1])
    assert abs(fit_loglog_slope(radii, eps0) + 2.0) < 0.15
    assert abs(fit_loglog_slope(radii, eps1) + 2.0) < 0.15


def test_radial_s_wave_box():
    R = 10.0
    grid = RadialGrid(R, 1000)
    d = diagonalize(radial_assemble(grid, 0, soft_wall_trap(0.0, 0.0)), n_modes=1)
    exact = (np.pi / (R + grid.dr)) ** 2
    assert abs(d.eigenvalues[0] - exact) / exact < 0.01


def test_radial_centrifugal_term():
    grid = RadialGrid(10.0, 100)
    H = radial_assemble(grid, 1, soft_wall_trap(0.0, 0.0))
    assert H.diagonal[0] == pytest.approx(2.0 / grid.dr**2 + 2.0 / grid.r[0] ** 2)


def test_radial_rejects_negative_l():
    grid = RadialGrid(10.0, 100)
    with pytest.raises(GridConfigError):
        radial_assemble(grid, -1, soft_wall_trap(0.0, 0.0))


def test_axial_mode_energy_bound():
    # lowest l=1 level of the soft trap obeys sqrt(eps) <= 3 pi / (2R) * 1.1
    R = 20.0
    grid = RadialGrid(R + 16.0, 1800)
    d = diagonalize(radial_assemble(grid, 1, soft_wall_trap(R, 1.0)), n_modes=1)
    assert np.sqrt(d.eigenvalues[0]) <= 3 * np.pi / (2 * R) * 1.1


def test_low_modes_match_the_full_solve_on_either_path():
    H = trap_operator(20.0, dx_target=0.03125)
    full = diagonalize(H)
    # 40 and 2000 modes take the MRRR window at n = 2304; all n take the full solve
    for m in (40, 2000, H.size):
        d = diagonalize(H, n_modes=m)
        assert d.eigenvectors.shape == (H.size, m)
        assert np.allclose(d.eigenvalues, full.eigenvalues[:m], rtol=0, atol=1e-11)
        overlap = np.abs((d.eigenvectors * full.eigenvectors[:, :m]).sum(axis=0) * H.grid.dx)
        assert np.allclose(overlap, 1.0, atol=1e-9)
    assert np.array_equal(d.eigenvectors, full.eigenvectors)


def test_window_at_thermal_production_size():
    # `thermal`'s R = 80 grid and Bose window: n = 6144, 324 modes
    H = trap_operator(80.0, dx_target=0.03125)
    n, m = H.size, 324
    assert n == 6144
    tracemalloc.start()
    try:
        d = diagonalize(H, n_modes=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n x n eigenvector matrix (scipy's own dstemr wrappers) would be 19 such blocks
    assert peak < 4 * n * m * 8
    w, v = eigh_tridiagonal(H.diagonal, H.off_diagonal, select="i", select_range=(0, m - 1),
                            lapack_driver="stebz")
    assert np.abs(d.eigenvalues - w).max() <= 1e-11
    overlap = np.abs((d.eigenvectors * v).sum(axis=0)) * np.sqrt(H.grid.dx)
    assert np.abs(overlap - 1.0).max() <= 1e-9
    assert residual_norms(H, d).max() <= 1e-10
    gram = d.eigenvectors.T @ d.eigenvectors * H.grid.dx
    assert np.abs(gram - np.eye(m)).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
def test_non_finite_operator_is_rejected_on_both_paths(bad, where):
    def broken(op):
        parts = {"diagonal": op.diagonal.copy(), "off_diagonal": op.off_diagonal.copy()}
        parts[where][17] = bad
        return TridiagonalOperator(parts["diagonal"], parts["off_diagonal"], op.grid)

    H = trap_operator(8.0, dx_target=0.0625)
    for n_modes in (2, None):  # the window and the full solve
        with pytest.raises(ValueError, match="infs or NaNs"):
            diagonalize(broken(H), n_modes=n_modes)
    # the series checks the whole operator before it cuts out the packet's
    # block: a stiff wall's block leaves row 17 out, the soft wall's keeps it
    stiff = assemble(H.grid, soft_wall_trap(8.0, 8.0))
    f = bump(0.0, 2.0, H.grid)
    assert _reachable_block(stiff.diagonal, stiff.off_diagonal, f.values)[0] > 18
    for op in (H, stiff):
        with pytest.raises(ValueError, match="infs or NaNs"):
            evolve_chebyshev(broken(op), f, [0.25])


def test_window_failure_is_not_silent(monkeypatch):
    H = trap_operator(8.0, dx_target=0.0625)
    real = hamiltonians._DSTEMR

    def fails(*args):
        args[-1][0] = 1  # INFO = 1: an internal error in dlarrv

    def loses_a_pair(*args):
        real(*args)
        args[9][0] -= 1  # M = m - 1

    for fake, message in ((fails, "INFO = 1"), (loses_a_pair, "1 of 2 eigenpairs")):
        monkeypatch.setattr(hamiltonians, "_DSTEMR", fake)
        with pytest.raises(EigensolverError, match=message):
            diagonalize(H, n_modes=2)
    monkeypatch.setattr(hamiltonians, "_DSTEMR", real)
    assert diagonalize(H, n_modes=2).n_modes == 2
