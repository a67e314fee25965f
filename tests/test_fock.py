import time
import tracemalloc

import numpy as np
import pytest

from thermolim import fock
from thermolim.fock import (
    FockConfigError,
    TruncationError,
    build_fock,
    ccr_defect,
    gibbs_field_resolvent,
    gibbs_number_resolvent,
    number_resolvent_matrix,
    resolvent_pair_sector_norm,
    sector_norm_monotonicity,
    truncation_weight,
)
from thermolim.quasifree import bose_occupation, geometric_resolvent_series


def test_dimensions():
    assert build_fock(1, 3).dimension == 4
    assert build_fock(2, 2).dimension == 6


def test_mode_count_validation():
    with pytest.raises(FockConfigError):
        build_fock(4, 2)


def test_dimension_cap():
    with pytest.raises(FockConfigError):
        build_fock(3, 300)
    with pytest.raises(FockConfigError, match="100001"):
        build_fock(1, 10**5)
    with pytest.raises(FockConfigError, match="4097"):
        gibbs_field_resolvent(4096, 1.0, 1.0, 1.3, 1.0, -0.2)


def test_dimension_cap_is_checked_before_enumerating_the_basis():
    # 1.7e17 basis states: enumerating them would not finish
    start = time.perf_counter()
    with pytest.raises(FockConfigError):
        build_fock(3, 10**6)
    assert time.perf_counter() - start < 0.1


# Independent reference: a(f) as a dense matrix from a dict loop over the
# occupation tuples, with its own index, and a sector split by particle
# number.  Neither touches the sector blocks the library runs on.


def _dense_annihilator(space, coeffs):
    occs = [tuple(occ) for occ in space.occupations.tolist()]
    index = {occ: k for k, occ in enumerate(occs)}
    a = np.zeros((len(occs), len(occs)), dtype=complex)
    for k, occ in enumerate(occs):
        for m, c in enumerate(coeffs):
            if occ[m] >= 1:
                lowered = occ[:m] + (occ[m] - 1,) + occ[m + 1 :]
                a[index[lowered], k] += np.conj(c) * np.sqrt(occ[m])
    return a


def _split_sectors(space, op):
    counts = space.occupations.sum(axis=1)
    return [op[np.ix_(counts == n, counts == n)] for n in range(counts.max() + 1)]


def _dense_number_resolvent(space, lam, coeffs):
    af = _dense_annihilator(space, coeffs)
    return np.linalg.inv(lam * np.eye(space.dimension) + af.conj().T @ af)


def _dense_gibbs_trace(space, op, energies, beta, mu):
    w = np.exp(-beta * space.occupations @ (np.array(energies) - mu))
    return (w * np.diag(op).real).sum() / w.sum()


def test_ccr_exact_on_interior():
    assert ccr_defect(build_fock(2, 5)) < 1e-12
    assert ccr_defect(build_fock(3, 3)) < 1e-12


def test_ccr_defect_checks_the_blocks_the_resolvents_run_on(monkeypatch):
    blocks = fock._annihilator_blocks

    def perturbed(space, coeffs):
        out = blocks(space, coeffs)
        out[1][0, 0] += 1e-6  # <vacuum| a(f) |first one-particle state>
        return out

    monkeypatch.setattr(fock, "_annihilator_blocks", perturbed)
    assert ccr_defect(build_fock(2, 5)) > 1e-9


def test_creation_matrix_elements():
    sp = build_fock(1, 4)
    ad = _dense_annihilator(sp, np.array([1.0])).T
    blocks = fock._annihilator_blocks(sp, np.array([1.0]))
    for n in range(4):
        # basis state k holds k quanta; sector n + 1 is that one state
        assert ad[n + 1, n] == pytest.approx(np.sqrt(n + 1))
        assert blocks[n + 1][0, 0] == pytest.approx(np.sqrt(n + 1))


def test_annihilator_blocks_match_dense_reference():
    rng = np.random.default_rng(7)
    for shape in ((1, 6), (2, 7), (3, 5)):
        sp = build_fock(*shape)
        coeffs = rng.normal(size=shape[0]) + 1j * rng.normal(size=shape[0])
        dense = _dense_annihilator(sp, coeffs)
        counts = sp.occupations.sum(axis=1)
        blocks = fock._annihilator_blocks(sp, coeffs)
        assert len(blocks) == counts.max() + 1
        for n, a in enumerate(blocks):
            assert a.shape == ((counts == n - 1).sum(), (counts == n).sum())
            assert np.array_equal(a, dense[np.ix_(counts == n - 1, counts == n)])


def test_vacuum_sector_scalar():
    sp = build_fock(2, 4)
    blocks = number_resolvent_matrix(sp, 2.0, np.array([0.6, 0.8]))
    assert blocks[0].shape == (1, 1)
    assert blocks[0][0, 0] == pytest.approx(0.5)


def test_one_particle_sector_eigenvalues():
    lam = 1.3
    sp = build_fock(2, 4)
    blocks = number_resolvent_matrix(sp, lam, np.array([1.0, 0.0]))
    eig = np.sort(np.linalg.eigvalsh(blocks[1]))
    assert np.allclose(eig, [1 / (lam + 1), 1 / lam], atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_number_resolvent_matrix_rejects_a_lambda_that_is_not_positive(lam):
    with pytest.raises(FockConfigError, match="lambda must be positive"):
        number_resolvent_matrix(build_fock(2, 3), lam, np.array([0.6, 0.8]))


def test_sector_norm_is_inverse_lambda():
    # occupation 0 of the f-mode is always admissible, so every sector
    # norm of the resolvent equals 1/lam
    lam = 0.7
    sp = build_fock(2, 5)
    for b in number_resolvent_matrix(sp, lam, np.array([0.3, 0.9])):
        assert np.linalg.norm(b, 2) == pytest.approx(1 / lam, abs=1e-12)


def test_pair_norm_identical_vectors():
    assert resolvent_pair_sector_norm(1.0, 1.0, 1.0, 1.0, 3) == 0.0


def test_pair_norm_orthonormal_hand_value():
    # one particle, orthogonal unit modes: ||(1+P1)^-1 - (1+P2)^-1|| = 1/2
    assert resolvent_pair_sector_norm(1.0, 1.0, 1.0, 0.0, 1) == pytest.approx(0.5, abs=1e-14)


def test_pair_norm_matches_dense_oracle():
    # independent route: sector blocks of the dense resolvents built from the
    # dict-loop annihilators, not the sector-block path the pair norm runs on
    rng = np.random.default_rng(11)
    lam = 1.0
    cases = [
        (rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=2) + 1j * rng.normal(size=2))
        for _ in range(5)
    ]
    cases.append((np.zeros(2, complex), rng.normal(size=2) + 1j * rng.normal(size=2)))  # norm1 == 0
    for g1, g2 in cases:
        n_sec = 3
        sp = build_fock(2, n_sec)
        A1 = _split_sectors(sp, _dense_number_resolvent(sp, lam, g1))
        A2 = _split_sectors(sp, _dense_number_resolvent(sp, lam, g2))
        dense = max(np.abs(np.linalg.eigvalsh(a - b)).max() for a, b in zip(A1, A2))
        gram = lambda a, b: np.vdot(a, b)
        exact = resolvent_pair_sector_norm(
            lam, np.linalg.norm(g1), np.linalg.norm(g2), gram(g1, g2), n_sec
        )
        assert exact == pytest.approx(dense, abs=1e-11)


def test_pair_norm_rotation_invariance():
    rng = np.random.default_rng(5)
    g1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    g2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    base = resolvent_pair_sector_norm(
        1.0, np.linalg.norm(g1), np.linalg.norm(g2), np.vdot(g1, g2), 3
    )
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        r1, r2 = q @ g1, q @ g2
        rotated = resolvent_pair_sector_norm(
            1.0, np.linalg.norm(r1), np.linalg.norm(r2), np.vdot(r1, r2), 3
        )
        assert rotated == pytest.approx(base, abs=1e-12)


def test_pair_norm_against_gap_bound():
    rng = np.random.default_rng(23)
    lam = 1.0
    for _ in range(10):
        g1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        g1 /= np.linalg.norm(g1)
        g2 = g1 + 0.05 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        for n in (1, 2, 3):
            exact = resolvent_pair_sector_norm(
                lam, 1.0, np.linalg.norm(g2), np.vdot(g1, g2), n
            )
            bound = 2 * n / lam**2 * 1.0 * np.linalg.norm(g1 - g2)
            assert exact <= bound + 1e-10


def test_lemma33_sector_cap():
    with pytest.raises(FockConfigError):
        resolvent_pair_sector_norm(1.0, 1.0, 1.0, 1.0, 13)


def test_linearly_dependent_pair():
    # g2 = 2 g1: one-dimensional span handled via the padded second mode
    val = resolvent_pair_sector_norm(1.0, 1.0, 2.0, 2.0, 2)
    # closed form on occupation k of the single mode: max_k |1/(1+k) - 1/(1+4k)|
    expected = max(abs(1 / (1 + k) - 1 / (1 + 4 * k)) for k in range(3))
    assert val == pytest.approx(expected, abs=1e-12)


def test_monotonicity_single_resolvent():
    sp = build_fock(2, 4)
    blocks = number_resolvent_matrix(sp, 1.0, np.array([0.6, 0.8]))
    ok, norms = sector_norm_monotonicity(blocks)
    assert ok
    assert all(n == pytest.approx(1.0, abs=1e-12) for n in norms)


def test_monotonicity_difference_with_spectator_mode():
    # orthogonal f, g living in modes 1-2; mode 3 gives room for the added
    # particle, as the infinite-dimensional one-particle space would
    sp = build_fock(3, 3)
    A = _dense_number_resolvent(sp, 1.0, np.array([1.0, 0.0, 0.0]))
    B = _dense_number_resolvent(sp, 1.0, np.array([0.0, 1.0, 0.0]))
    ok, norms = sector_norm_monotonicity(_split_sectors(sp, A - B))
    assert ok
    assert norms[1] <= norms[2] <= norms[3]


def test_monotonicity_random_products_seeded():
    rng = np.random.default_rng(20240817)
    sp = build_fock(3, 5)
    for _ in range(20):
        c1 = np.append(rng.normal(size=2) + 1j * rng.normal(size=2), 0.0)
        c2 = np.append(rng.normal(size=2) + 1j * rng.normal(size=2), 0.0)
        lam1, lam2 = rng.uniform(0.5, 2.0, size=2)
        A = _dense_number_resolvent(sp, lam1, c1)
        B = _dense_number_resolvent(sp, lam2, c2)
        ok, _ = sector_norm_monotonicity(_split_sectors(sp, A @ B)[:4])
        assert ok


def test_gibbs_identity():
    # f = 0 leaves lam^(-1) times the identity, whose Gibbs trace is 1/lam
    number = gibbs_number_resolvent(build_fock(2, 44), 2.0, [0.0, 0.0], [0.5, 1.5], 1.0, -0.2)
    field = gibbs_field_resolvent(44, 2.0, 0.0, 0.5, 1.0, -0.2)
    assert number == pytest.approx(0.5, abs=1e-12)
    assert field == pytest.approx(0.5, abs=1e-12)


def test_gibbs_single_mode_occupation():
    # a*(e_0) a(e_0) = N_0, whose Gibbs law is geometric with the Bose
    # occupation as its mean: P(N_0 = k) = (1 - q) q^k, q = nbar / (1 + nbar)
    sp = build_fock(2, 40)
    beta, mu, eps = 1.0, -0.2, [0.5, 1.5]
    nbar = bose_occupation(np.array([eps[0]]), beta, mu)[0]
    q = nbar / (1 + nbar)
    k = np.arange(400)
    for lam in (0.5, 1.0, 2.0):
        val = gibbs_number_resolvent(sp, lam, [1.0, 0.0], eps, beta, mu)
        expected = ((1 - q) * q**k / (lam + k)).sum()
        assert val == pytest.approx(expected, abs=1e-10)


def test_gibbs_matches_geometric_series():
    beta, mu, eps = 1.0, -0.2, [0.5, 1.5]
    coeffs = np.array([0.8, 0.6])
    sp = build_fock(2, 44)
    occ = bose_occupation(np.array(eps), beta, mu)
    norm_sq = float((np.abs(coeffs) ** 2).sum())
    nbar = float((np.abs(coeffs) ** 2 * occ).sum()) / norm_sq
    for lam in (0.5, 1.0, 2.0):
        oracle = gibbs_number_resolvent(sp, lam, coeffs, eps, beta, mu)
        series = geometric_resolvent_series(nbar, norm_sq, lam)
        assert abs(oracle - series) < 1e-8


def test_gibbs_gauge_invariance():
    sp = build_fock(2, 44)
    coeffs = np.array([0.8, 0.6])
    rotated = coeffs * np.exp(1j * np.array([0.7, -1.1]))
    a = gibbs_number_resolvent(sp, 1.0, coeffs, [0.5, 1.5], 1.0, -0.2)
    b = gibbs_number_resolvent(sp, 1.0, rotated, [0.5, 1.5], 1.0, -0.2)
    assert a == pytest.approx(b, abs=1e-12)


def test_truncation_guard():
    small = build_fock(2, 6)
    assert truncation_weight(small, [0.5, 1.5], 1.0, -0.2) > 1e-10
    with pytest.raises(TruncationError):
        gibbs_number_resolvent(small, 1.0, [0.8, 0.6], [0.5, 1.5], 1.0, -0.2)
    # one mode at 0.5 leaves e^(-4.9) = 7e-3 of its Gibbs weight above 6 quanta
    with pytest.raises(TruncationError):
        gibbs_field_resolvent(6, 1.0, 1.0, 0.5, 1.0, -0.2)


def test_gibbs_rejects_mu_above_spectrum():
    with pytest.raises(FockConfigError, match="chemical potential"):
        gibbs_number_resolvent(build_fock(2, 10), 1.0, [0.8, 0.6], [0.5, 1.5], 1.0, 0.6)
    with pytest.raises(FockConfigError, match="chemical potential"):
        gibbs_field_resolvent(10, 1.0, 1.0, 0.5, 1.0, 0.6)


@pytest.mark.parametrize(
    "shape, energies, beta, mu",
    [((2, 36), [0.5, 1.5], 1.0, -0.2), ((3, 9), [1.0, 2.0, 2.5], 2.5, -0.3)],
)
def test_gibbs_number_resolvent_matches_dense_trace(shape, energies, beta, mu):
    sp = build_fock(*shape)
    assert truncation_weight(sp, energies, beta, mu) <= 1e-10
    rng = np.random.default_rng(shape[0])
    coeffs = rng.normal(size=shape[0]) + 1j * rng.normal(size=shape[0])
    for lam in (0.3, 1.0, 2.5):
        dense = _dense_gibbs_trace(sp, _dense_number_resolvent(sp, lam, coeffs), energies, beta, mu)
        got = gibbs_number_resolvent(sp, lam, coeffs, energies, beta, mu)
        assert got == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_number_resolvent_blocks_match_dense_blocks():
    rng = np.random.default_rng(3)
    for shape in ((1, 6), (2, 7), (3, 5)):
        sp = build_fock(*shape)
        coeffs = rng.normal(size=shape[0]) + 1j * rng.normal(size=shape[0])
        dense = _split_sectors(sp, _dense_number_resolvent(sp, 0.8, coeffs))
        blocks = number_resolvent_matrix(sp, 0.8, coeffs)
        assert [b.shape for b in blocks] == [d.shape for d in dense]
        for b, d in zip(blocks, dense):
            assert np.abs(b - d).max() < 1e-13


def test_gibbs_number_resolvent_stays_below_one_dense_matrix():
    sp = build_fock(2, 64)
    dense_bytes = sp.dimension**2 * 16  # one complex D x D matrix, 73.6 MB
    tracemalloc.start()
    try:
        gibbs_number_resolvent(sp, 1.0, [0.8, 0.6], [0.5, 1.5], 1.0, -0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


# the field trace runs on one mode; each case is (1, n_total) at its own
# energy and temperature
@pytest.mark.parametrize(
    "shape, energies, beta, mu",
    [
        ((1, 40), [1.3], 1.0, -0.2),
        ((1, 24), [2.0], 2.5, -0.3),
        ((1, 12), [1.0], 4.0, -0.3),
    ],
)
def test_gibbs_field_resolvent_matches_dense_trace(shape, energies, beta, mu):
    sp = build_fock(*shape)
    assert truncation_weight(sp, energies, beta, mu) <= 1e-10
    rng = np.random.default_rng(40 + shape[1])
    coeff = rng.normal() + 1j * rng.normal()
    af = _dense_annihilator(sp, [coeff])
    for lam in (0.3, 1.0, 2.5):
        R = np.linalg.inv(lam * np.eye(sp.dimension) + 1j * (af + af.conj().T))
        dense = _dense_gibbs_trace(sp, R, energies, beta, mu)
        got = gibbs_field_resolvent(sp.n_total, lam, coeff, energies[0], beta, mu)
        assert got == pytest.approx(dense, rel=1e-12)


def test_gibbs_field_resolvent_forms_no_dense_matrix(monkeypatch):
    # D = 2048: the scalar recursion stays below 1/16 of one complex D x D
    # matrix, and builds no Fock space and calls no LAPACK routine
    def refuse(*args, **kwargs):
        raise AssertionError("the one-mode field trace left scalar arithmetic")

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(fock, "FockSpace", refuse)
    dense_bytes = 2048**2 * 16
    tracemalloc.start()
    try:
        gibbs_field_resolvent(2047, 1.0, 1.0, 1.3, 1.0, -0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 16
