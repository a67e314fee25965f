import time
import tracemalloc

import numpy as np
import pytest
import mpmath
from scipy.integrate import quad
from scipy.special import erfcx, zeta

from thermolim.grids import RadialGrid, WaveFunction, bump, bump_profile, fourier_at, make_grid
from thermolim.hamiltonians import (
    assemble,
    diagonalize,
    eigenvalue_count,
    soft_wall_trap,
    trap_operator,
)
from thermolim.propagators import QuadratureCapError, evolve_spectral
from thermolim.quasifree import (
    DISCARD_TOL,
    DivergenceError,
    DomainError,
    HomogeneousState,
    QuasifreeState,
    RadialFunction3D,
    bose_occupation,
    field_resolvent_expectation,
    field_resolvent_value,
    geometric_resolvent_series,
    homogeneous_density,
    momentum_weight,
    mu_limit_scan,
    number_resolvent_expectation,
    position_density,
    temporal_correlation,
    thermal_decomposition,
    thermal_edge_weight,
)
from thermolim.fock import build_fock, gibbs_number_resolvent
import thermolim.quasifree as qf

from references import kms_defect, local_particle_number, two_point


@pytest.fixture(scope="module")
def trap_state():
    decomp = diagonalize(trap_operator(8.0, dx_target=0.0625))
    return QuasifreeState(beta=1.0, mu=-1.0, decomposition=decomp)


def test_bose_occupation_monotone():
    eps = np.array([0.1, 0.5, 2.0, 10.0])
    occ = bose_occupation(eps, 1.0, -0.5)
    assert np.all(occ > 0)
    assert np.all(np.diff(occ) < 0)


def test_state_occupations_are_read_only(trap_state):
    occ = trap_state.occupations
    assert np.array_equal(occ, bose_occupation(trap_state.decomposition.eigenvalues, 1.0, -1.0))
    assert not occ.flags.writeable


def test_bose_occupation_needs_gap():
    with pytest.raises(DomainError):
        bose_occupation(np.array([0.0]), 1.0, 0.0)


def test_state_rejects_mu_at_spectrum(trap_state):
    decomp = trap_state.decomposition
    with pytest.raises(DomainError):
        QuasifreeState(beta=1.0, mu=float(decomp.eigenvalues[0]), decomposition=decomp)


def test_two_point_vacuum_limit(trap_state):
    cold = QuasifreeState(beta=200.0, mu=-1.0, decomposition=trap_state.decomposition)
    f = bump(0.0, 1.0, cold.decomposition.grid)
    assert abs(two_point(cold, f, f)) < 1e-8


def test_two_point_hermitian(trap_state):
    grid = trap_state.decomposition.grid
    f = bump(-1.0, 1.5, grid)
    g = bump(2.0, 1.0, grid)
    assert two_point(trap_state, f, g) == pytest.approx(
        np.conj(two_point(trap_state, g, f)), abs=1e-14
    )


def test_two_point_family_positive_semidefinite(trap_state):
    grid = trap_state.decomposition.grid
    fam = [bump(c, 1.0, grid) for c in (-3.0, -1.0, 1.0, 3.0)]
    M = np.array([[two_point(trap_state, a, b) for b in fam] for a in fam])
    assert np.abs(M - M.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(M).min() > 0


def test_gauge_invariance(trap_state):
    grid = trap_state.decomposition.grid
    f = bump(0.5, 1.0, grid)
    rot = f.with_values(np.exp(1j * 0.9) * f.values)
    a = two_point(trap_state, f, f).real
    b = two_point(trap_state, rot, rot).real
    assert a == pytest.approx(b, rel=1e-14)
    assert number_resolvent_expectation(trap_state, 1.0, f) == pytest.approx(
        number_resolvent_expectation(trap_state, 1.0, rot), rel=1e-13
    )


def test_kms_identity(trap_state):
    grid = trap_state.decomposition.grid
    f = bump(-1.0, 1.0, grid)
    g = bump(1.0, 1.5, grid)
    assert kms_defect(trap_state, f, g) < 1e-10


def test_perturbed_state_stationarity(trap_state):
    # T is a function of H: evolving both arguments is a no-op
    decomp = trap_state.decomposition
    f = bump(-1.0, 1.0, decomp.grid)
    g = bump(1.5, 1.0, decomp.grid)
    ref = two_point(trap_state, f, g)
    assert abs(ref) > 1e-3
    for t in (0.5, 1.0):
        ft = evolve_spectral(decomp, f, t)
        gt = evolve_spectral(decomp, g, t)
        assert two_point(trap_state, ft, gt) == pytest.approx(ref, abs=1e-12)


def test_position_density_nonnegative_and_consistent(trap_state):
    grid = trap_state.decomposition.grid
    for x in (-2.0, 0.0, 1.0):
        assert position_density(trap_state, x) >= 0
    # region count equals the Riemann sum of the density
    total = sum(
        position_density(trap_state, x) for x in grid.x[(grid.x >= -2) & (grid.x < 2)]
    ) * grid.dx
    assert local_particle_number(trap_state, -2.0, 2.0) == pytest.approx(total, rel=1e-12)


def test_local_number_additive(trap_state):
    a = local_particle_number(trap_state, -3.0, 0.5)
    b = local_particle_number(trap_state, 0.5, 2.5)
    c = local_particle_number(trap_state, -3.0, 2.5)
    assert a + b == pytest.approx(c, rel=1e-12)
    assert local_particle_number(trap_state, 1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        local_particle_number(trap_state, -100.0, 0.0)


def test_local_number_matches_two_point_basis(trap_state):
    # cross-check: two_point over normalized grid deltas recovers the
    # density, so their dx-weighted sum recovers the local particle count
    grid = trap_state.decomposition.grid
    idx = np.nonzero((grid.x >= -1.0) & (grid.x < 1.0))[0]
    total = 0.0
    for j in idx:
        e = np.zeros(grid.n_points, dtype=complex)
        e[j] = 1.0 / np.sqrt(grid.dx)
        ev = trap_state.decomposition.mode(0).with_values(e)
        total += two_point(trap_state, ev, ev).real
    assert total == pytest.approx(local_particle_number(trap_state, -1.0, 1.0), rel=1e-10)


@pytest.fixture(scope="module")
def box_state():
    # n = 1024 box with a warm state, so the edge carries visible weight
    grid = make_grid(20.0, 1024)
    decomp = diagonalize(assemble(grid, soft_wall_trap(4.0, 1.0)))
    return QuasifreeState(beta=0.2, mu=-1.0, decomposition=decomp)


def test_thermal_edge_weight_matches_the_full_sum(box_state, monkeypatch):
    grid = box_state.decomposition.grid
    v = box_state.decomposition.eigenvectors
    n = box_state.occupations
    for zone in (1.0, 4.0):
        monkeypatch.setattr(qf, "EDGE_ZONE", zone)
        m = np.abs(grid.x) >= grid.half_width - zone
        expected = (n[None, :] * v[m, :] ** 2).sum() / (n[None, :] * v**2).sum()
        assert thermal_edge_weight(box_state) == pytest.approx(expected, rel=1e-12)
        assert 0.0 < expected < 1.0


def test_thermal_edge_weight_allocates_less_than_the_eigenvectors(box_state):
    thermal_edge_weight(box_state)  # warm-up outside the traced region
    tracemalloc.start()
    try:
        thermal_edge_weight(box_state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < box_state.decomposition.eigenvectors.nbytes


def test_homogeneous_density_polylog_oracle():
    beta, mu = 1.0, -1.0
    series = sum(np.exp(beta * mu * j) / np.sqrt(j) for j in range(1, 200))
    exact = series / (2.0 * np.sqrt(np.pi * beta))
    assert homogeneous_density(beta, mu, 1) == pytest.approx(exact, rel=1e-8)


def test_homogeneous_density_2d_closed_form():
    beta, mu = 0.7, -0.3
    exact = -np.log(-np.expm1(beta * mu)) / (4.0 * np.pi * beta)
    assert homogeneous_density(beta, mu, 2) == pytest.approx(exact, rel=1e-8)


def test_homogeneous_density_3d_critical():
    beta = 1.3
    exact = zeta(1.5) / (8.0 * np.pi**1.5 * beta**1.5)
    assert homogeneous_density(beta, 0.0, 3) == pytest.approx(exact, rel=1e-8)


def test_homogeneous_density_saturation_1d():
    vals = [homogeneous_density(1.0, mu, 1) for mu in (-0.1, -0.01, -0.001)]
    assert vals[1] / vals[0] > 2 and vals[2] / vals[1] > 2


def test_homogeneous_density_divergence_guard():
    for s in (1, 2):
        with pytest.raises(DivergenceError):
            homogeneous_density(1.0, 0.0, s)


def test_field_resolvent_value_limits():
    assert field_resolvent_value(2.0, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert field_resolvent_value(1.0, 1.0) < 1.0


def test_field_resolvent_closed_form():
    # Gaussian-integral oracle evaluated independently
    for lam, sig_sq in [(1.0, 1.0), (0.5, 2.3), (2.0, 0.4)]:
        sig = np.sqrt(sig_sq)
        exact = np.sqrt(np.pi / 2.0) / sig * erfcx(lam / (sig * np.sqrt(2.0)))
        assert field_resolvent_value(lam, sig_sq) == pytest.approx(exact, abs=1e-8)


def test_field_resolvent_state_paths(trap_state):
    f = bump(0.0, 1.0, trap_state.decomposition.grid)
    cold = QuasifreeState(beta=200.0, mu=-1.0, decomposition=trap_state.decomposition)
    assert field_resolvent_expectation(cold, 1.0, f) == pytest.approx(1.0, abs=1e-8)
    warm = field_resolvent_expectation(trap_state, 1.0, f)
    assert 0 < warm < 1.0


def test_number_resolvent_vacuum_and_bounds(trap_state):
    f = bump(0.0, 1.0, trap_state.decomposition.grid)
    assert geometric_resolvent_series(0.0, 1.0, 2.0) == 0.5
    val = number_resolvent_expectation(trap_state, 1.0, f)
    assert 0 < val <= 1.0


def _lerch_series(nbar, norm_sq, lam):
    # sum_n q^n / ((1 + nbar)(lam + n s)) = Phi(q, 1, lam / s) / ((1 + nbar) s),
    # at 30 digits: q is within 1/nbar of 1
    with mpmath.workdps(30):
        q = mpmath.mpf(nbar) / (1 + nbar)
        return float(mpmath.lerchphi(q, 1, lam / mpmath.mpf(norm_sq)) / ((1 + nbar) * norm_sq))


def test_geometric_series_matches_lerch_phi_at_large_occupation():
    nbar, norm_sq = 1e5, 0.7
    for lam in (0.5, 2.0):
        value = geometric_resolvent_series(nbar, norm_sq, lam)
        # the value is about 1.5e-4: a series cut at p_n / lam < 1e-12
        # would miss 2e-10 to 1e-9 of it
        assert value == pytest.approx(_lerch_series(nbar, norm_sq, lam), rel=1e-12, abs=0)


def test_geometric_series_cost_does_not_grow_with_occupation():
    # a summed series would need about nbar ln(1e12 / lam) = 3e9 terms here
    nbar, norm_sq, lam = 1e8, 0.7, 0.5
    start = time.perf_counter()
    value = geometric_resolvent_series(nbar, norm_sq, lam)
    assert time.perf_counter() - start < 0.1
    assert value == pytest.approx(_lerch_series(nbar, norm_sq, lam), rel=1e-12, abs=0)


def test_number_resolvent_monotone_in_occupation():
    vals = [geometric_resolvent_series(nbar, 1.0, 1.0) for nbar in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_number_resolvent_matches_fock_oracle(trap_state):
    # f in the span of two eigenmodes: the state reduces to two thermal modes
    decomp = trap_state.decomposition
    alpha, beta_c = 0.8, 0.6
    f = decomp.mode(0).with_values(
        alpha * decomp.eigenvectors[:, 0] + beta_c * decomp.eigenvectors[:, 2]
    )
    eps = [float(decomp.eigenvalues[0]), float(decomp.eigenvalues[2])]
    space = build_fock(2, 48, 48)
    for lam in (0.5, 1.0):
        oracle = gibbs_number_resolvent(space, lam, np.array([alpha, beta_c]), eps, 1.0, -1.0)
        value = number_resolvent_expectation(trap_state, lam, f)
        assert value == pytest.approx(oracle, abs=1e-8)


def test_number_resolvent_condensate_orthogonality():
    # the constant condensate mode pairs with f through its integral
    grid = make_grid(16.0, 1024)
    b = bump(0.0, 1.0, grid)
    f = b.with_values(bump(2.0, 1.0, grid).values - bump(-2.0, 1.0, grid).values)
    assert abs(f.integral()) < 1e-14
    plain = HomogeneousState(beta=1.0, mu=-0.5, dimension=1)
    shifted = HomogeneousState(beta=1.0, mu=-0.5, dimension=1, kappa=0.5)
    assert number_resolvent_expectation(shifted, 1.0, f) == number_resolvent_expectation(
        plain, 1.0, f
    )
    with pytest.raises(DomainError):
        number_resolvent_expectation(shifted, 1.0, b)


def test_local_count_of_pure_condensate():
    # thermal part frozen out: the count in [-R, R] is kappa^2 * Int h^2
    from thermolim.condensates import condensate_count_scaling, trap_mode

    radii = [12.0, 24.0]
    scan = [trap_mode(R, dx_target=0.0625) for R in radii]
    _, counts = condensate_count_scaling("even", 0.5, scan)
    for R, modes, condensate in zip(radii, scan, counts):
        h = modes.modes["even"]
        grid = h.grid
        cold = QuasifreeState(
            beta=200.0, mu=-1.0, decomposition=diagonalize(trap_operator(R, dx_target=0.0625))
        )
        m = np.abs(grid.x) <= R
        expected = 0.25 * float((h.values.real[m] ** 2).sum() * grid.dx)
        measured = local_particle_number(cold, -R, R + grid.dx / 2) + condensate
        assert measured == pytest.approx(expected, rel=1e-6)
        # the ground mode is a half cosine across the trap, so cos^2 averages
        # to 1/2 and the count comes out near kappa^2 * R
        assert expected == pytest.approx(0.25 * R, rel=0.05)


def test_mu_scan_antisymmetrized_bump_converges():
    # zero-mean pair: insensitive to the saturating zero mode; the shift is
    # a whole number of cells so the two humps cancel in the sum exactly
    grid = make_grid(16.0, 2048)
    b = bump_profile(grid.x / 0.5)
    b_refl = bump_profile((-grid.x - 0.25) / 0.5)
    f = bump(0.0, 0.5, grid).with_values((b - b_refl).astype(complex))
    f = f.with_values(f.values / f.norm())
    assert abs(f.integral()) < 1e-14
    mus = [-0.1, -0.03, -0.01, -3e-3, -1e-3, -6e-4, -4e-4, -2.5e-4, -1.6e-4, -1e-4]
    verdict, values = mu_limit_scan(1.0, f, 1.0, mus, cauchy_tol=1e-4, vanish_ratio=0.05)
    assert verdict == "converges-positive"
    assert values[-1] > 0.05 * values[0]


def test_mu_scan_validation():
    grid = make_grid(10.0, 512)
    f = bump(0.0, 1.0, grid)
    with pytest.raises(DomainError):
        mu_limit_scan(1.0, f, 1.0, [-0.1, -0.2, -0.3], cauchy_tol=1e-4, vanish_ratio=0.05)


def test_mu_scan_with_no_step_to_check_is_inconclusive():
    # one or two mu values leave the second half of the scan without a
    # step, and an empty Cauchy test proves nothing
    grid = make_grid(10.0, 512)
    b = bump(0.0, 1.0, grid).values
    f = WaveFunction(grid, bump(2.0, 1.0, grid).values + bump(-2.0, 1.0, grid).values - 2.0 * b)
    for mus in ([-0.1], [-0.1, -0.03]):
        verdict, values = mu_limit_scan(1.0, f, 1.0, mus, cauchy_tol=1e-4, vanish_ratio=0.05)
        assert verdict == "inconclusive"
        assert len(values) == len(mus)
    verdict, _ = mu_limit_scan(1.0, f, 1.0, [-0.1, -0.1 + 1e-9, -0.1 + 2e-9],
                               cauchy_tol=1e-4, vanish_ratio=0.05)
    assert verdict == "converges-positive"


def test_momentum_weight_positive():
    grid = make_grid(16.0, 1024)
    f = bump(0.0, 2.0, grid)
    w = momentum_weight(f, 1.0, -0.5)
    assert w > 0


def test_momentum_weight_of_a_boosted_packet():
    # e^(1.5 i x) moves |fhat|^2 off p = 0, so it is not even in p
    grid = make_grid(16.0, 1024)
    f = bump(0.0, 2.0, grid)
    boosted = f.with_values(f.values * np.exp(1.5j * grid.x))
    p_cut = np.sqrt(600.5)

    def integrand(p):
        return np.abs(fourier_at(boosted, p)[0]) ** 2 / np.expm1(p * p + 0.5)

    full_line, _ = quad(
        integrand, -p_cut, p_cut, points=[-1.5, 0.0, 1.5], limit=400, epsabs=0.0, epsrel=1e-11
    )
    assert full_line == pytest.approx(0.2644, abs=1e-4)
    assert momentum_weight(boosted, 1.0, -0.5) == pytest.approx(full_line, rel=1e-9)


def _mulimit_functions():
    grid = make_grid(20.0, 4096)
    f1 = bump(0.0, 8.0, grid)
    f1 = f1.with_values(f1.values / f1.integral().real)
    b0 = bump(0.0, 1.0, grid).values
    f0 = WaveFunction(grid, bump(2.0, 1.0, grid).values + bump(-2.0, 1.0, grid).values - 2 * b0)
    f0 = f0.with_values(f0.values / f0.norm())
    # Im of the boosted bump is exactly zero at x = 0, inside its support span
    boosted = f1.with_values(f1.values * np.exp(1.5j * grid.x))
    assert boosted.values.imag[grid.index_origin] == 0.0
    return {"mean_one": f1, "zero_mean": f0, "boosted": boosted}


@pytest.mark.parametrize("mu", [-0.1, -1e-4])
@pytest.mark.parametrize("name", ["mean_one", "zero_mean", "boosted"])
def test_momentum_weight_equals_its_definition(name, mu):
    # 2 Integral_0^p_cut sum over Re f, Im f of |fhat(p)|^2 n(p^2), with fhat
    # from fourier_at and the same breakpoints, so quad sees the same nodes
    f, beta = _mulimit_functions()[name], 0.05
    parts = [f.with_values(v) for v in (f.values.real, f.values.imag) if v.any()]

    def integrand(p):
        fh2 = sum(np.abs(fourier_at(g, p)[0]) ** 2 for g in parts)
        return fh2 / np.expm1(beta * (p * p - mu))

    sq = np.sqrt(-mu)
    p_cut = np.sqrt((600.0 + beta * -mu) / beta)
    cuts = sorted({c for c in (sq, 10 * sq, 1.0) if 0 < c < p_cut})
    ref, _ = quad(integrand, 0.0, p_cut, points=cuts, limit=400, epsabs=0.0, epsrel=1e-10)
    assert momentum_weight(f, beta, mu) == pytest.approx(2.0 * ref, rel=1e-12, abs=0)


def _not_converged(*args, **kwargs):
    # what scipy's quad returns with full_output=1 when QUADPACK reports ier = 1
    return 1.0, 1.0, {}, "The maximum number of subdivisions (400) has been achieved.\n  More"


@pytest.mark.parametrize(
    "call",
    [
        lambda: homogeneous_density(1.0, -1.0, 1),
        lambda: momentum_weight(bump(0.0, 2.0, make_grid(16.0, 1024)), 1.0, -0.5),
        lambda: field_resolvent_value(1.0, 0.5),
        lambda: geometric_resolvent_series(2.0, 1.0, 1.0),
    ],
    ids=["homogeneous_density", "momentum_weight", "field_resolvent", "number_resolvent"],
)
def test_quadrature_failure_is_not_silent(monkeypatch, call):
    monkeypatch.setattr(qf, "quad", _not_converged)
    with pytest.raises(QuadratureCapError, match="did not converge: The maximum number"):
        call()


def test_temporal_correlation_domain_guards():
    with pytest.raises(DomainError):
        HomogeneousState(beta=1.0, mu=0.0, dimension=1)
    grid = make_grid(10.0, 512)
    f = bump(0.0, 1.0, grid)
    for dimension in (1, 2):
        state = HomogeneousState(beta=1.0, mu=-0.5, dimension=dimension)
        with pytest.raises(DomainError):
            temporal_correlation(state, f, f, 1.0)


def test_condensate_plateau_time_independent():
    rg = RadialGrid(4.0, 1024)
    phi0 = bump_profile(rg.r / 4.0)
    f = RadialFunction3D(rg, phi0)
    f = RadialFunction3D(rg, phi0 / f.integral_3d())
    thermal = HomogeneousState(beta=1.0, mu=0.0, dimension=3)
    full = HomogeneousState(beta=1.0, mu=0.0, dimension=3, kappa=0.5)
    plateaus = [
        temporal_correlation(full, f, f, t) - temporal_correlation(thermal, f, f, t)
        for t in (0.0, 3.0, 17.0)
    ]
    for p in plateaus:
        assert p == pytest.approx(0.25, abs=1e-12)


def test_radial_function_transforms():
    rg = RadialGrid(4.0, 2048)
    phi0 = bump_profile(rg.r / 4.0)
    f = RadialFunction3D(rg, phi0)
    fhat0 = f.radial_transform(np.array([0.0]))[0]
    assert fhat0 == pytest.approx(f.integral_3d() / (2 * np.pi) ** 1.5, rel=1e-10)
    # axial moment of a z-even function vanishes
    assert f.axial_moment() == 0.0


def _radial_pair():
    rg = RadialGrid(4.0, 256)
    f = RadialFunction3D(rg, bump_profile(rg.r / 4.0))
    f = RadialFunction3D(rg, f.phi0 / f.integral_3d())
    g = RadialFunction3D(rg, bump_profile((rg.r - 1.0) / 2.5), bump_profile(rg.r / 3.0))
    return f, g


def _assert_batch_matches_scalar_calls(state, f, g, times):
    batched = temporal_correlation(state, f, g, times)
    assert isinstance(batched, list) and len(batched) == len(times)
    for t, b in zip(times, batched):
        single = temporal_correlation(state, f, g, t)
        assert np.ndim(single) == 0
        assert abs(b - single) <= 1e-14 * abs(single)


def test_temporal_correlation_batch_3d_condensate(monkeypatch):
    f, _ = _radial_pair()
    state = HomogeneousState(beta=1.0, mu=0.0, dimension=3, kappa=0.5)
    _assert_batch_matches_scalar_calls(state, f, f, [0.0, 3.0, 17.0])
    # one transform serves every time when g is f
    calls = []
    transform = RadialFunction3D.radial_transform
    monkeypatch.setattr(
        RadialFunction3D, "radial_transform", lambda fn, p: calls.append(fn) or transform(fn, p)
    )
    temporal_correlation(state, f, f, [0.0, 3.0, 17.0])
    assert len(calls) == 1


def test_temporal_correlation_batch_3d_distinct_g():
    f, g = _radial_pair()
    state = HomogeneousState(beta=1.0, mu=-0.3, dimension=3)
    _assert_batch_matches_scalar_calls(state, f, g, [0.5, 4.0])
    assert len(temporal_correlation(state, f, g, np.array([2.0]))) == 1
    with pytest.raises(ValueError):
        temporal_correlation(state, f, g, [[0.0, 1.0]])


def test_radial_transform_matches_the_sinc_kernel():
    _, g = _radial_pair()
    r, dr = g.grid.r, g.grid.dr
    p = np.concatenate([[0.0], np.linspace(0.01, 12.0, 2500)])
    ref = (np.sinc(np.outer(p, r) / np.pi) * (r * r * g.phi0)).sum(axis=1) * dr
    ref *= 4.0 * np.pi / (2.0 * np.pi) ** 1.5
    got = g.radial_transform(p)
    assert got[0] == pytest.approx(ref[0], rel=1e-13)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.fixture(scope="module")
def windowed_and_full():
    # n = 2304: the Bose window (84 modes at beta = 1) is the MRRR window (below n/4)
    H = trap_operator(20.0, dx_target=0.03125)
    window = thermal_decomposition(H, 1.0, -1.0)
    full = diagonalize(H)
    assert window.n_modes < 100
    return H, window, full


def test_thermal_window_matches_the_full_solve(windowed_and_full):
    H, window, full = windowed_and_full
    m = window.n_modes
    assert np.allclose(window.eigenvalues, full.eigenvalues[:m], rtol=0, atol=1e-11)
    sw = QuasifreeState(beta=1.0, mu=-1.0, decomposition=window)
    sf = QuasifreeState(beta=1.0, mu=-1.0, decomposition=full)
    assert sf.discard_bound == 0.0
    assert 0 < sw.discard_bound <= DISCARD_TOL / 2
    assert abs(position_density(sw, 0.0) - position_density(sf, 0.0)) < 1e-12
    edge = thermal_edge_weight(sw)
    assert thermal_edge_weight(sf) <= edge < thermal_edge_weight(sf) + 1e-12


def test_discard_bound_dominates_the_discarded_density(windowed_and_full):
    H, window, full = windowed_and_full
    m = window.n_modes
    state = QuasifreeState(beta=1.0, mu=-1.0, decomposition=window)
    occ = bose_occupation(full.eigenvalues[m:], 1.0, -1.0)
    discarded = (full.eigenvectors[:, m:] ** 2) @ occ
    assert np.all(discarded <= state.discard_bound)


def test_hot_state_takes_a_wide_window(windowed_and_full):
    H, _, full = windowed_and_full
    hot = thermal_decomposition(H, 0.03, -1.0)
    # 829 of 2304 modes, more than a third of the spectrum, still one window
    assert hot.n_modes == 829 and hot.eigenvectors.shape == (H.size, 829)
    assert np.allclose(hot.eigenvalues, full.eigenvalues[: hot.n_modes], rtol=0, atol=1e-11)
    state = QuasifreeState(beta=0.03, mu=-1.0, decomposition=hot)
    reference = QuasifreeState(beta=0.03, mu=-1.0, decomposition=full)
    assert position_density(state, 0.0) == pytest.approx(position_density(reference, 0.0), rel=1e-12)


def test_state_hotter_than_the_spectrum_takes_the_full_solve():
    # the Bose cap lies above the top level, so the Sturm count keeps all
    # n modes and thermal_decomposition asks for n + 1, which no window holds
    H = trap_operator(4.0, 0.25)
    assert H.size == 160
    beta, mu = 1e-4, -1.0
    assert eigenvalue_count(H, mu + np.log1p(2.0 / (DISCARD_TOL * H.grid.dx)) / beta) == H.size
    decomp = thermal_decomposition(H, beta, mu)
    full = diagonalize(H)
    assert decomp.n_modes == H.size
    assert np.array_equal(decomp.eigenvalues, full.eigenvalues)
    assert np.array_equal(decomp.eigenvectors, full.eigenvectors)
    assert QuasifreeState(beta=beta, mu=mu, decomposition=decomp).discard_bound == 0.0


def test_state_rejects_a_window_that_discards_weight():
    decomp = diagonalize(trap_operator(8.0, dx_target=0.0625), n_modes=2)
    with pytest.raises(DomainError, match="missing"):
        QuasifreeState(beta=1.0, mu=-1.0, decomposition=decomp)
    # frozen out, the same two modes carry everything
    assert QuasifreeState(beta=200.0, mu=-1.0, decomposition=decomp).discard_bound < DISCARD_TOL


def test_thermal_window_stays_below_one_dense_matrix():
    H = trap_operator(40.0, dx_target=0.0625)  # n = 1792, as in `thermal`
    tracemalloc.start()
    try:
        decomp = thermal_decomposition(H, 1.0, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomp.n_modes < H.size
    assert peak < H.size**2 * 8


def test_radial_transform_at_production_size():
    # memory's test function and momenta: 2048 radii, 8193 momenta
    rg = RadialGrid(4.0, 2048)
    f = RadialFunction3D(rg, bump_profile(rg.r / 4.0))
    p = np.linspace(0.0, np.sqrt(48.0), 8193)
    r, w = rg.r, rg.r * rg.r * f.phi0
    ref = np.concatenate(
        [np.sinc(np.outer(p[i : i + 512], r) / np.pi) @ w for i in range(0, len(p), 512)]
    )
    ref *= rg.dr * 4.0 * np.pi / (2.0 * np.pi) ** 1.5
    tracemalloc.start()
    try:
        got = f.radial_transform(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert peak < 4 * 2**20  # one 2048 x 2048 kernel block alone is 32 MiB
