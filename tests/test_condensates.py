import numpy as np
import pytest
from scipy.special import spherical_jn

from thermolim.condensates import (
    ParityError,
    axial_shape,
    axial_trap_mode,
    condensate_count_scaling,
    fit_loglog_slope,
    l1_profile_check,
    mode_renormalize,
    smeared_mode_limit,
    trap_mode,
)
from thermolim.grids import GridConfigError, RadialGrid, bump, bump_profile
from thermolim.hamiltonians import diagonalize, trap_operator
from thermolim.quasifree import RadialFunction3D


def test_axial_shape_taylor_control():
    for u in (1e-3, 1e-2):
        assert abs(axial_shape(u)[0] - (1 - u * u / 10.0)) < 1e-8
    assert axial_shape(0.0)[0] == 1.0


def test_axial_shape_matches_bessel():
    u = np.array([0.5, 1.0, 2.0, 4.4934])
    assert np.allclose(axial_shape(u), 3 * spherical_jn(1, u) / u, atol=1e-14)


def test_renormalization_fixed_points():
    decomp = diagonalize(trap_operator(20.0, dx_target=0.0625, n_cap=4096), n_modes=2)
    h0 = mode_renormalize(decomp.mode(0), "even")
    j0 = h0.grid.index_origin
    assert h0.values[j0].real == pytest.approx(1.0, abs=1e-6)
    h1 = mode_renormalize(decomp.mode(1), "odd")
    slope = (h1.values[j0 + 1] - h1.values[j0 - 1]).real / (2 * h1.grid.dx)
    assert slope == pytest.approx(1.0, abs=1e-4)


def test_renormalization_scale_invariant():
    decomp = diagonalize(trap_operator(12.0, dx_target=0.0625, n_cap=2048), n_modes=1)
    psi = decomp.mode(0)
    a = mode_renormalize(psi, "even")
    b = mode_renormalize(psi.with_values(7.0 * psi.values), "even")
    assert np.allclose(a.values, b.values, atol=1e-14)


def test_renormalization_parity_guard():
    decomp = diagonalize(trap_operator(12.0, dx_target=0.0625, n_cap=2048), n_modes=2)
    with pytest.raises(ParityError):
        mode_renormalize(decomp.mode(0), "odd")


def test_even_mode_matches_interior_cosine():
    R = 40.0
    t = trap_mode(R)
    eps, h = t.eigenvalues["even"], t.modes["even"]
    x = h.grid.x
    win = np.abs(x) <= R / 2
    exact = np.cos(np.sqrt(eps) * x[win])
    assert np.abs(h.values[win].real - exact).max() < 1e-3


def test_odd_mode_matches_interior_sine():
    R = 40.0
    t = trap_mode(R)
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
    fr = f.reflected()
    dx = h_even.grid.dx
    pair = lambda h, g: (h.values.real * g.values.real).sum() * dx
    assert pair(h_even, f) == pytest.approx(pair(h_even, fr), rel=1e-13)
    assert pair(h_odd, f) == pytest.approx(-pair(h_odd, fr), rel=1e-13)


@pytest.fixture(scope="module")
def coarse_scan():
    # listed out of order: the scans sort by radius
    return [trap_mode(R, dx_target=0.0625) for R in (32.0, 16.0, 64.0)]


def test_trap_mode_solves_both_parities_at_once(coarse_scan):
    t = coarse_scan[1]
    decomp = diagonalize(trap_operator(16.0, dx_target=0.0625), n_modes=2)
    assert t.R == 16.0
    assert [t.eigenvalues["even"], t.eigenvalues["odd"]] == list(decomp.eigenvalues)
    assert np.array_equal(t.modes["even"].values, mode_renormalize(decomp.mode(0), "even").values)
    assert np.array_equal(t.modes["odd"].values, mode_renormalize(decomp.mode(1), "odd").values)


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
    expo_zero, counts_zero = condensate_count_scaling("even", 0.0, scan)
    assert expo_zero == 0.0 and all(c == 0 for c in counts_zero)


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
