import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import mpmath
from scipy.integrate import quad
from scipy.special import erfcx, zeta

from thermolim.grids import RadialGrid, WaveFunction, bump, bump_profile, fourier_at, grid_delta, make_grid
from thermolim.hamiltonians import assemble, diagonalize, soft_wall_trap, trap_operator
from thermolim.propagators import QuadratureCapError, evolve_spectral
from thermolim.quasifree import (
    DivergenceError,
    DomainError,
    HomogeneousState,
    QuasifreeState,
    RadialFunction3D,
    bose_occupation,
    field_resolvent_value,
    geometric_resolvent_series,
    homogeneous_density,
    momentum_weight,
    mu_limit_scan,
    number_resolvent_expectation,
    position_density,
    temporal_correlation,
    thermal_edge_weight,
)
from thermolim.fock import build_fock, gibbs_number_resolvent
import thermolim.quasifree as qf

from references import fixed_simpson_thermal_integral, kms_defect, local_particle_number, two_point


@pytest.fixture(scope="module")
def trap_H():
    return trap_operator(8.0, dx_target=0.0625)


@pytest.fixture(scope="module")
def trap_state(trap_H):
    return QuasifreeState(beta=1.0, mu=-1.0, decomposition=diagonalize(trap_H))


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


def test_gauge_invariance(trap_state, trap_H):
    grid = trap_state.decomposition.grid
    f = bump(0.5, 1.0, grid)
    rot = f.with_values(np.exp(1j * 0.9) * f.values)
    a = two_point(trap_state, f, f).real
    b = two_point(trap_state, rot, rot).real
    assert a == pytest.approx(b, rel=1e-14)
    assert number_resolvent_expectation(trap_H, 1.0, -1.0, 1.0, f) == pytest.approx(
        number_resolvent_expectation(trap_H, 1.0, -1.0, 1.0, rot), rel=1e-13
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
        ev = WaveFunction(grid, e)
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
    # Gaussian-integral oracle evaluated independently; sigma^2 = 0 is the
    # cold limit, where the value is 1/lam
    for lam, sig_sq in [(1.0, 1.0), (0.5, 2.3), (2.0, 0.4), (1.0, 0.0)]:
        if sig_sq == 0:
            exact = 1.0 / lam
        else:
            sig = np.sqrt(sig_sq)
            exact = np.sqrt(np.pi / 2.0) / sig * erfcx(lam / (sig * np.sqrt(2.0)))
        assert field_resolvent_value(lam, sig_sq) == pytest.approx(exact, abs=1e-8)


def test_number_resolvent_vacuum_and_bounds(trap_H):
    f = bump(0.0, 1.0, trap_H.grid)
    assert geometric_resolvent_series(0.0, 1.0, 2.0) == 0.5
    val = number_resolvent_expectation(trap_H, 1.0, -1.0, 1.0, f)
    assert 0 < val <= 1.0


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_resolvents_refuse_a_lam_that_is_not_positive(lam, trap_H):
    # nbar = 0 and a zero f return 1 / lam without a quadrature
    grid = trap_H.grid
    f, zero = bump(0.0, 1.0, grid), WaveFunction(grid, np.zeros(grid.n_points))
    for call in (lambda: geometric_resolvent_series(0.5, 1.0, lam),
                 lambda: geometric_resolvent_series(0.0, 1.0, lam),
                 lambda: field_resolvent_value(lam, 1.0),
                 lambda: number_resolvent_expectation(trap_H, 1.0, -1.0, lam, f),
                 lambda: number_resolvent_expectation(trap_H, 1.0, -1.0, lam, zero)):
        with pytest.raises(DomainError, match="lambda must be positive"):
            call()


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


def test_number_resolvent_matches_fock_oracle(trap_state, trap_H):
    # f in the span of two eigenmodes: the state reduces to two thermal modes
    decomp = trap_state.decomposition
    alpha, beta_c = 0.8, 0.6
    f = WaveFunction(decomp.grid, alpha * decomp.eigenvectors[:, 0] + beta_c * decomp.eigenvectors[:, 2])
    eps = [float(decomp.eigenvalues[0]), float(decomp.eigenvalues[2])]
    space = build_fock(2, 48)
    for lam in (0.5, 1.0):
        oracle = gibbs_number_resolvent(space, lam, np.array([alpha, beta_c]), eps, 1.0, -1.0)
        value = number_resolvent_expectation(trap_H, 1.0, -1.0, lam, f)
        assert value == pytest.approx(oracle, abs=1e-8)


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
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="lambda must be positive and finite"):
            mu_limit_scan(lam, f, 1.0, [-0.3, -0.2], cauchy_tol=1e-4, vanish_ratio=0.05)


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
    assert boosted.values.imag[grid.index_of(0.0)] == 0.0
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


MULIMIT_MUS = [-0.1, -0.03, -0.01, -3e-3, -1e-3, -6e-4, -4e-4, -2.5e-4, -1.6e-4, -1e-4]


@pytest.mark.parametrize("name", ["mean_one", "zero_mean", "boosted"])
def test_momentum_weight_of_a_mu_sequence_equals_its_definition(name):
    # lab's whole mulimit scan on shared nodes, each entry against its own
    # per-mu quad of the definition; the reference runs at epsrel = 1e-13,
    # because at epsrel = 1e-10 the boosted packet's mu = -0.03 is itself
    # off by 1.6e-12 (within its own estimate of 8e-11)
    f, beta = _mulimit_functions()[name], 0.05
    parts = [f.with_values(v) for v in (f.values.real, f.values.imag) if v.any()]
    weights = momentum_weight(f, beta, MULIMIT_MUS)
    assert isinstance(weights, np.ndarray) and weights.shape == (len(MULIMIT_MUS),)
    for mu, w in zip(MULIMIT_MUS, weights):

        def integrand(p):
            fh2 = sum(np.abs(fourier_at(g, p)[0]) ** 2 for g in parts)
            return fh2 / np.expm1(beta * (p * p - mu))

        sq = np.sqrt(-mu)
        p_cut = np.sqrt((600.0 + beta * -mu) / beta)
        cuts = sorted({c for c in (sq, 10 * sq, 1.0) if 0 < c < p_cut})
        ref, _ = quad(integrand, 0.0, p_cut, points=cuts, limit=400, epsabs=0.0, epsrel=1e-13)
        assert w == pytest.approx(2.0 * ref, rel=1e-12, abs=0)


def test_momentum_weight_meets_its_tolerance_on_every_component():
    # values from 1e-261 up to 1.5e3: the max-norm pass cannot vouch for the small ones,
    # so the rescaled pass must; mu = -2000 underflows to 0 at every node
    f = bump(0.0, 2.0, make_grid(16.0, 1024))
    mus = [-2000.0, -600.0, -50.0, -1.0, -1e-6]
    weights = momentum_weight(f, 1.0, mus)
    assert weights[0] == 0.0 and weights[1] < 1e-250
    for mu, w in zip(mus, weights):
        assert w == pytest.approx(momentum_weight(f, 1.0, mu), rel=1e-10, abs=0)


def test_momentum_weight_rejects_a_bad_mu():
    f = bump(0.0, 2.0, make_grid(16.0, 1024))
    for mu in (np.nan, [-0.1, np.inf]):
        with pytest.raises(DomainError, match="must be finite"):
            momentum_weight(f, 1.0, mu)
    with pytest.raises(DomainError, match="must be finite"):
        momentum_weight(f, np.nan, -0.1)
    with pytest.raises(DivergenceError):
        momentum_weight(f, 1.0, [-0.1, 0.0])
    with pytest.raises(ValueError, match="1-D"):
        momentum_weight(f, 1.0, [[-0.1, -0.2]])


def test_mu_scan_transforms_each_function_once_per_scan(monkeypatch):
    # lab's two default functions over its 10 mu values: one quadrature per
    # function took 9,870 phase sums when every mu ran its own
    calls = 0
    phase_sums = qf._phase_sums

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return phase_sums(*args, **kwargs)

    monkeypatch.setattr(qf, "_phase_sums", counted)
    functions = _mulimit_functions()
    for name in ("mean_one", "zero_mean"):
        mu_limit_scan(1.0, functions[name], 0.05, MULIMIT_MUS, cauchy_tol=1e-4, vanish_ratio=0.05)
    assert 0 < calls <= 9870 // 4


def test_mu_scan_values_are_the_number_resolvent_expectations():
    f = _mulimit_functions()["zero_mean"]
    mus = MULIMIT_MUS[::3]
    _, values = mu_limit_scan(1.0, f, 0.05, mus, cauchy_tol=1e-4, vanish_ratio=0.05)
    norm_sq = f.norm() ** 2
    for mu, v in zip(mus, values):
        # one mu at a time: its own quadrature, and the geometric law of f / ||f||
        nbar = momentum_weight(f, 0.05, mu) / norm_sq
        assert v == pytest.approx(geometric_resolvent_series(nbar, norm_sq, 1.0), rel=1e-12)


def _not_converged(*args, **kwargs):
    # what scipy's quad returns with full_output=1 when QUADPACK reports ier = 1
    return 1.0, 1.0, {}, "The maximum number of subdivisions (400) has been achieved.\n  More"


def _vec_not_converged(*args, **kwargs):
    # what scipy's quad_vec returns with full_output=True when it stops at its interval limit
    return 1.0, 1.0, SimpleNamespace(status=1, message="Target precision not reached.")


@pytest.mark.parametrize(
    "rule, fake, call",
    [
        pytest.param("quad", _not_converged, lambda: homogeneous_density(1.0, -1.0, 1),
                     id="homogeneous_density"),
        pytest.param("quad_vec", _vec_not_converged,
                     lambda: momentum_weight(bump(0.0, 2.0, make_grid(16.0, 1024)), 1.0, -0.5),
                     id="momentum_weight"),
        pytest.param("quad_vec", _vec_not_converged,
                     lambda: momentum_weight(bump(0.0, 2.0, make_grid(16.0, 1024)), 1.0, [-0.5, -0.1]),
                     id="momentum_weight_sequence"),
        pytest.param("quad", _not_converged, lambda: field_resolvent_value(1.0, 0.5),
                     id="field_resolvent"),
        pytest.param("quad", _not_converged, lambda: geometric_resolvent_series(2.0, 1.0, 1.0),
                     id="number_resolvent"),
    ],
)
def test_quadrature_failure_is_not_silent(monkeypatch, rule, fake, call):
    monkeypatch.setattr(qf, rule, fake)
    with pytest.raises(QuadratureCapError, match="did not converge: The maximum number"):
        call()


def test_oscillatory_integral_at_zero_tolerance_hits_its_cap(monkeypatch):
    # a tolerance no change can meet doubles the Simpson grid up to its cap
    f, _ = _radial_pair()
    monkeypatch.setattr(qf, "MEMORY_SIMPSON_TOL", 0.0)
    state = HomogeneousState(beta=1.0, mu=0.0)
    with pytest.raises(QuadratureCapError, match="after 2162688 intervals exceeds MEMORY_SIMPSON_TOL"):
        temporal_correlation(state, f, f, 2.0 * np.pi * 33 / 48.0)  # 33 cycles: 66 intervals
    zero = RadialFunction3D(f.grid, 0.0 * f.phi0)  # a vanishing amplitude needs no doubling
    assert temporal_correlation(state, zero, zero, 5.0) == 0


def test_temporal_correlation_domain_guards():
    with pytest.raises(DomainError):
        HomogeneousState(beta=1.0, mu=0.1)
    # the limit state is 3D: a 1D grid function is refused
    f = bump(0.0, 1.0, make_grid(10.0, 512))
    g, _ = _radial_pair()
    state = HomogeneousState(beta=1.0, mu=-0.5)
    for args in ((f, f), (f, g), (g, f)):
        with pytest.raises(DomainError, match="RadialFunction3D"):
            temporal_correlation(state, *args, 1.0)


def test_condensate_plateau_time_independent():
    rg = RadialGrid(4.0, 1024)
    phi0 = bump_profile(rg.r / 4.0)
    f = RadialFunction3D(rg, phi0)
    f = RadialFunction3D(rg, phi0 / f.integral_3d())
    thermal = HomogeneousState(beta=1.0, mu=0.0)
    full = HomogeneousState(beta=1.0, mu=0.0, kappa=0.5)
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
    state = HomogeneousState(beta=1.0, mu=0.0, kappa=0.5)
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
    state = HomogeneousState(beta=1.0, mu=-0.3)
    _assert_batch_matches_scalar_calls(state, f, g, [0.5, 4.0])
    assert len(temporal_correlation(state, f, g, np.array([2.0]))) == 1
    with pytest.raises(ValueError):
        temporal_correlation(state, f, g, [[0.0, 1.0]])


def _memory_function():
    """memory's test function: a bump of radius 4 on 2048 radii, unit 3D integral."""
    rg = RadialGrid(4.0, 2048)
    f = RadialFunction3D(rg, bump_profile(rg.r / 4.0))
    return RadialFunction3D(rg, f.phi0 / f.integral_3d())


class _CountingSpline:
    def __init__(self, spline):
        self.spline, self.points = spline, 0

    def __call__(self, p):
        self.points += np.size(p)
        return self.spline(p)


@pytest.mark.parametrize("mu", [0.0, -0.3])
def test_oscillatory_integral_matches_the_fixed_grid_rule(mu):
    # the amplitude spline, cut-off and L1 bound temporal_correlation builds at beta = 1
    p_cut = np.sqrt(48.0 - mu)
    p = np.linspace(0.0, p_cut, 8193)
    amp = _memory_function().radial_transform(p) ** 2
    spline = qf.CubicSpline(p, amp)
    scale = float(np.abs(amp) @ qf._bose_measure(p, 1.0, mu)) * p[1]
    for t in (0.0, 5.0, 80.0, 2600.0):
        new, old = _CountingSpline(spline), _CountingSpline(spline)
        got = qf._oscillatory_thermal_integral(new, 1.0, mu, t, p_cut, scale)
        want = fixed_simpson_thermal_integral(old, 1.0, mu, t, p_cut)
        assert abs(got - want) <= 1e-13
    # at t = 2600 the fixed rule takes 48 nodes per cycle, 953,401 at mu = 0
    assert new.points <= old.points / 4
    if mu == 0.0:
        assert old.points == 953_401 + 1  # its endpoint value at p = 0 is one more call


@pytest.mark.parametrize("t", [80.0, 2600.0])
def test_temporal_correlation_at_negative_time_is_the_conjugate(t):
    # for real f = g, <f, T e^(-itH) f> is the conjugate of <f, T e^(itH) f>
    f, _ = _radial_pair()
    state = HomogeneousState(beta=1.0, mu=0.0)
    forward, backward = temporal_correlation(state, f, f, [t, -t])
    assert abs(backward - np.conj(forward)) <= 1e-14 * abs(forward)


def test_temporal_correlation_memory_stays_bounded():
    f = _memory_function()
    state = HomogeneousState(beta=1.0, mu=0.0)
    tracemalloc.start()
    try:
        temporal_correlation(state, f, f, [5.0, 20.0, 80.0, 320.0, 1280.0, 2600.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_radial_transform_matches_the_sinc_kernel():
    _, g = _radial_pair()
    r, dr = g.grid.r, g.grid.dr
    p = np.concatenate([[0.0], np.linspace(0.01, 12.0, 2500)])
    ref = (np.sinc(np.outer(p, r) / np.pi) * (r * r * g.phi0)).sum(axis=1) * dr
    ref *= 4.0 * np.pi / (2.0 * np.pi) ** 1.5
    got = g.radial_transform(p)
    assert got[0] == pytest.approx(ref[0], rel=1e-13)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize(
    "R, beta, mu, x",
    [(4.0, 1.0, -1.0, 0.0), (4.0, 0.5, -0.3, 1.5), (6.0, 2.0, -0.05, -3.0), (6.0, 1.0, -1.0, 2.0)],
)
def test_probe_density_bracket_holds_the_full_solve(R, beta, mu, x):
    # the bracket holds in exact arithmetic; its two rules and the full
    # solve each carry roundoff, up to 6e-13 relative here, so the full
    # value is held to the bracket widened by 1e-12
    H = trap_operator(R, dx_target=0.125)
    state = QuasifreeState(beta=beta, mu=mu, decomposition=diagonalize(H))
    full = position_density(state, x)
    got = qf.probe_density(H, beta, mu, grid_delta(H.grid, x))
    assert got.density == pytest.approx(full, rel=1e-11)
    assert got.lower * (1 - 1e-12) <= full <= got.upper * (1 + 1e-12)
    assert got.upper - got.lower <= qf.DENSITY_BRACKET_TOL * got.lower
    j = H.grid.index_of(x)
    assert got.rows == (max(j - got.steps, 0), min(j + got.steps, H.size - 1))
    # a walk from a bump, real and turned by a phase (a complex walk), holds
    # the dense sum sum_k n_k |<psi_k, f>|^2 the same way
    f = bump(x, 1.0, H.grid)
    span = np.flatnonzero(f.values)
    for g in (f, f.with_values(np.exp(0.9j) * f.values)):
        dense = two_point(state, g, g).real
        got = qf.probe_density(H, beta, mu, g)
        assert got.lower * (1 - 1e-12) <= dense <= got.upper * (1 + 1e-12)
        assert got.rows == (max(span[0] - got.steps, 0), min(span[-1] + got.steps, H.size - 1))


def test_probe_density_walk_that_exhausts_a_tiny_box_is_exact():
    # 16 rows: the off-centre walk reaches every row before the first
    # bracket at step 32, and T_16 carries the whole spectrum
    H = assemble(make_grid(2.0, 16), soft_wall_trap(1.0))
    got = qf.probe_density(H, 1.0, -1.0, grid_delta(H.grid, 0.5))
    assert got.steps == 16 and got.rows == (0, 15)
    assert got.upper == got.lower
    full = position_density(QuasifreeState(beta=1.0, mu=-1.0, decomposition=diagonalize(H)), 0.5)
    assert got.density == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("mu", [0.0, -0.5 * qf.MU_SAFETY, 0.5])
def test_probe_density_refuses_mu_at_the_gershgorin_edge_before_the_walk(mu, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk started before mu was checked")

    monkeypatch.setattr(qf, "eigh_tridiagonal", no_walk)
    H = trap_operator(4.0, dx_target=0.125)  # Gershgorin lower edge 0
    with pytest.raises(DomainError, match="lower Gershgorin edge"):
        qf.probe_density(H, 1.0, mu, grid_delta(H.grid, 0.0))


def test_a_zero_probe_function_is_refused_before_the_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk started on a zero f")

    monkeypatch.setattr(qf, "eigh_tridiagonal", no_walk)
    H = trap_operator(4.0, dx_target=0.125)
    zero = WaveFunction(H.grid, np.zeros(H.size))
    with pytest.raises(DomainError, match="vanishes"):
        qf.probe_density(H, 1.0, -1.0, zero)
    # the resolvent of a zero f is 1 / lam, with no walk
    monkeypatch.setattr(qf, "probe_density", no_walk)
    assert number_resolvent_expectation(H, 1.0, -1.0, 2.0, zero) == 0.5


def test_state_refuses_a_window(trap_H):
    decomp = diagonalize(trap_H, n_modes=2)
    with pytest.raises(DomainError, match="needs all"):
        QuasifreeState(beta=200.0, mu=-1.0, decomposition=decomp)


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
