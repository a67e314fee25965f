import numpy as np
import pytest
from scipy.special import spherical_jn

from thermolim import hamiltonians
from thermolim.condensates import (
    axial_shape,
    axial_trap_mode,
    condensate_count_scaling,
    fit_loglog_slope,
    l1_profile_check,
    smeared_mode_limit,
    trap_mode,
)
from thermolim.grids import GridConfigError, RadialGrid, bump, bump_profile
from thermolim.hamiltonians import diagonalize, radial_assemble, soft_wall_trap, trap_operator
from thermolim.quasifree import RadialFunction3D


def test_axial_shape_taylor_control():
    for u in (1e-3, 1e-2):
        assert abs(axial_shape(u)[0] - (1 - u * u / 10.0)) < 1e-8
    assert axial_shape(0.0)[0] == 1.0


def test_axial_shape_matches_bessel():
    u = np.array([0.5, 1.0, 2.0, 4.4934])
    assert np.allclose(axial_shape(u), 3 * spherical_jn(1, u) / u, atol=1e-14)


def test_renormalization_fixed_points():
    t = trap_mode(20.0, dx_target=0.0625)
    h0, h1 = t.modes["even"].values.real, t.modes["odd"].values.real
    N, dx = t.modes["even"].grid.n_points // 2, t.modes["even"].grid.dx
    assert h0[N] == 1.0 and h1[N] == 0.0
    assert (h1[N + 1] - h1[N - 1]) / (2 * dx) == pytest.approx(1.0, rel=1e-14)


# 20.3: R + 16 is no multiple of 1/16, so dx is no power of two
@pytest.mark.parametrize("R", [16.0, 40.0, 20.3])
def test_trap_mode_parity_is_exact(R):
    t = trap_mode(R, dx_target=0.0625)
    even, odd = t.modes["even"].values, t.modes["odd"].values
    N = t.modes["even"].grid.n_points // 2
    k = np.arange(N)
    assert np.array_equal(even[N + k], even[N - k])
    assert np.array_equal(odd[N + k], -odd[N - k])
    # x = -L mirrors the wall at +L
    assert even[0] == 0.0 and odd[0] == 0.0


@pytest.mark.parametrize("R", [16.0, 40.0, 20.3])
def test_trap_mode_matches_the_full_grid_solve(R):
    # the half blocks against both lowest modes of the whole grid,
    # renormalized the same way (centred slope for the odd mode)
    t = trap_mode(R, dx_target=0.0625)
    full = diagonalize(trap_operator(R, dx_target=0.0625), n_modes=2)
    v = full.eigenvectors
    N, dx = t.modes["even"].grid.n_points // 2, t.modes["even"].grid.dx
    assert abs(t.eigenvalues["even"] - full.eigenvalues[0]) <= 1e-12
    assert abs(t.eigenvalues["odd"] - full.eigenvalues[1]) <= 1e-12
    for h, ref in ((t.modes["even"].values.real, v[:, 0] / v[N, 0]),
                   (t.modes["odd"].values.real, v[:, 1] * 2 * dx / (v[N + 1, 1] - v[N - 1, 1]))):
        assert np.abs(h - ref).max() <= 1e-9 * np.abs(h).max()


def test_trap_mode_solves_one_mode_of_each_half_block(monkeypatch):
    # trap_mode takes one window of one mode in each half block, and no
    # full-grid solve
    solves = []
    window = hamiltonians._window

    def recording(d, e, m):
        solves.append((len(d), m, np.array(d), np.array(e)))
        return window(d, e, m)

    monkeypatch.setattr(hamiltonians, "_window", recording)
    R, dx = 16.0, 0.0625
    trap_mode(R, dx_target=dx)
    N = trap_operator(R, dx).grid.n_points // 2
    assert [(n, m) for n, m, _, _ in solves] == [(N, 1), (N - 1, 1)]
    # the odd block is the l = 0 radial operator of the half line
    _, _, d, e = solves[1]
    radial = radial_assemble(RadialGrid((N - 1) * dx, N - 1), 0, soft_wall_trap(R))
    assert np.array_equal(d, radial.diagonal)
    assert np.array_equal(e, radial.off_diagonal)


# 20.3: the assembled left half matches the mirrored right half only up to
# the rounding of the grid points
@pytest.mark.parametrize("R", [16.0, 20.3])
def test_trap_mode_gives_eigenpairs_of_the_mirror_symmetric_box(R):
    # rows 1 .. n-1 of trap_operator's grid with the right half of its
    # diagonal mirrored onto the left: walls at +-L
    dx = 0.0625
    t = trap_mode(R, dx_target=dx)
    H = trap_operator(R, dx)
    d, e, N = H.diagonal, H.off_diagonal[1:], H.size // 2
    box = np.concatenate([d[:N:-1], d[N:]])
    assert np.abs(box - d[1:]).max() <= 1e-12 * np.abs(d).max()
    norm = np.abs(box).max() + 2 * np.abs(e).max()
    for parity in ("even", "odd"):
        h = t.modes[parity].values.real
        assert h[0] == 0.0
        v = h[1:]
        r = (box - t.eigenvalues[parity]) * v
        r[:-1] += e * v[1:]
        r[1:] += e * v[:-1]
        assert np.linalg.norm(r) <= 4 * np.finfo(float).eps * norm * np.linalg.norm(v)


def test_even_mode_matches_interior_cosine():
    R = 40.0
    t = trap_mode(R, dx_target=0.03125)
    eps, h = t.eigenvalues["even"], t.modes["even"]
    x = h.grid.x
    win = np.abs(x) <= R / 2
    exact = np.cos(np.sqrt(eps) * x[win])
    assert np.abs(h.values[win].real - exact).max() < 1e-3


def test_odd_mode_matches_interior_sine():
    R = 40.0
    t = trap_mode(R, dx_target=0.03125)
    eps, h = t.eigenvalues["odd"], t.modes["odd"]
    x = h.grid.x
    win = np.abs(x) <= R / 2
    exact = np.sin(np.sqrt(eps) * x[win]) / np.sqrt(eps)
    assert np.abs(h.values[win].real - exact).max() < 1e-3 * R


def test_pairing_reflection_symmetry():
    R = 16.0
    t = trap_mode(R, dx_target=0.0625)
    h_even, h_odd = t.modes["even"], t.modes["odd"]
    f = bump(3.0, 1.0, h_even.grid)
    fr = f.with_values(f.values[(-np.arange(f.grid.n_points)) % f.grid.n_points])
    dx = h_even.grid.dx
    pair = lambda h, g: (h.values.real * g.values.real).sum() * dx
    assert pair(h_even, f) == pytest.approx(pair(h_even, fr), rel=1e-13)
    assert pair(h_odd, f) == pytest.approx(-pair(h_odd, fr), rel=1e-13)


@pytest.fixture(scope="module")
def coarse_scan():
    # listed out of order: the scans sort by radius
    return [trap_mode(R, dx_target=0.0625) for R in (32.0, 16.0, 64.0)]


def test_smeared_limits_and_rates(coarse_scan):
    make_f = lambda grid: bump(3.0, 1.0, grid)
    even = smeared_mode_limit("even", make_f, coarse_scan)
    assert even.radii == [16.0, 32.0, 64.0]
    assert even.eigenvalues == [t.eigenvalues["even"] for t in sorted(coarse_scan, key=lambda t: t.R)]
    assert even.slope <= -2.0 + 0.3
    grid_probe = coarse_scan[0].modes["even"].grid
    assert even.limit == pytest.approx(make_f(grid_probe).integral().real, rel=1e-12)
    odd = smeared_mode_limit("odd", make_f, coarse_scan)
    assert odd.slope <= -2.0 + 0.3
    assert odd.limit == pytest.approx(make_f(grid_probe).moment().real, rel=1e-12)


def test_smeared_odd_mode_kills_symmetric_function(coarse_scan):
    make_f = lambda grid: bump(0.0, 1.0, grid)
    odd = smeared_mode_limit("odd", make_f, coarse_scan)
    assert abs(odd.limit) < 1e-14
    assert max(abs(p) for p in odd.pairings) < 1e-12


def test_smeared_support_guard():
    make_f = lambda grid: bump(0.0, 10.0, grid)
    scan = [trap_mode(R, dx_target=0.0625) for R in (12.0, 16.0, 20.0, 24.0)]
    with pytest.raises(GridConfigError):
        smeared_mode_limit("even", make_f, scan)


def test_count_scaling_exponents():
    radii = [20.0, 40.0, 80.0]
    scan = [trap_mode(R, dx_target=0.0625) for R in radii]
    expo_even, counts_even = condensate_count_scaling("even", 0.5, scan)
    expo_odd, counts_odd = condensate_count_scaling("odd", 0.5, scan)
    assert abs(expo_even - 1.0) <= 0.1
    assert abs(expo_odd - 3.0) <= 0.1
    assert all(np.diff(counts_even) > 0) and all(np.diff(counts_odd) > 0)
    # the ground mode is a half cosine across the trap, so cos^2 averages
    # to 1/2 and the count comes out near kappa^2 R
    assert counts_even == pytest.approx([0.25 * R for R in radii], rel=0.05)
    # a zero count has no exponent: kappa <= 0 (NaN too) is refused
    for kappa in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="kappa"):
            condensate_count_scaling("even", kappa, scan)


def test_fit_loglog_slope_exact_power():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_loglog_slope(x, x**-2) == pytest.approx(-2.0, abs=1e-12)


def test_axial_mode_energy_and_shape_origin():
    prof = axial_trap_mode(20.0)
    assert prof.k <= 3 * np.pi / (2 * 20.0) * 1.1
    # h(x)/z -> 1 approaching the origin
    assert prof.value(2.0, 1e-4) / 2.0 == pytest.approx(1.0, abs=1e-8)


def test_l1_profile_scan():
    rg = RadialGrid(8.0, 1024)
    phi1 = bump_profile((rg.r - 3.0) / 2.0)
    f = RadialFunction3D(rg, np.zeros_like(rg.r), phi1)
    res = l1_profile_check([10.0, 20.0, 40.0], f)
    assert max(res["bound_constants"]) <= 2.0 * min(res["bound_constants"])
    assert res["deviation_slope"] <= -1.7
    assert res["limit"] == pytest.approx(f.axial_moment(), rel=1e-12)


def test_l1_profile_z_even_function_pairs_to_zero():
    rg = RadialGrid(8.0, 512)
    f = RadialFunction3D(rg, bump_profile(rg.r / 4.0))  # no axial component
    res = l1_profile_check([10.0, 20.0, 30.0, 40.0], f)
    assert res["limit"] == 0.0
    assert max(abs(p) for p in res["pairings"]) == 0.0
