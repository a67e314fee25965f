import numpy as np
import pytest
from scipy.integrate import quad

from thermolim.grids import (
    GridConfigError,
    GridMismatchError,
    bump,
    bump_profile,
    fourier_at,
    inner,
    make_grid,
)

from references import to_momentum


@pytest.fixture(scope="module")
def fine_grid():
    return make_grid(16.0, 2048)


def test_make_grid_spacing():
    assert make_grid(16.0, 64).dx == 0.5
    assert make_grid(64.0, 4096).dx == 0.03125


def test_make_grid_contains_origin(fine_grid):
    assert fine_grid.x[fine_grid.n_points // 2] == 0.0


@pytest.mark.parametrize("L,n", [(10.0, 10), (10.0, 15), (-1.0, 64), (0.0, 64)])
def test_make_grid_rejects_bad_parameters(L, n):
    with pytest.raises(GridConfigError):
        make_grid(L, n)


def test_grid_points_reproducible():
    a = make_grid(28.0, 4096)
    b = make_grid(28.0, 4096)
    assert np.array_equal(a.x, b.x)


def test_bump_normalized(fine_grid):
    f = bump(0.0, 1.0, fine_grid)
    assert abs(f.norm() - 1.0) < 1e-12


def test_bump_even_sample_exact(fine_grid):
    f = bump(0.0, 1.0, fine_grid)
    # reflection x -> -x maps index j to (n - j) mod n
    assert np.array_equal(f.values, f.values[(-np.arange(fine_grid.n_points)) % fine_grid.n_points])


def test_bump_compact_support(fine_grid):
    f = bump(0.0, 1.0, fine_grid)
    out = np.abs(fine_grid.x) >= 1.0
    assert np.all(f.values[out] == 0)


def test_bump_centroid_matches_quadrature_oracle(fine_grid):
    # independent oracle: adaptive quadrature of the shifted profile
    nrm_sq, _ = quad(lambda x: bump_profile(np.array([(x - 3.0)]))[0] ** 2, 2.0, 4.0)
    cen, _ = quad(lambda x: x * bump_profile(np.array([(x - 3.0)]))[0] ** 2, 2.0, 4.0)
    expected = cen / nrm_sq
    f = bump(3.0, 1.0, fine_grid)
    measured = (fine_grid.x * np.abs(f.values) ** 2).sum() * fine_grid.dx
    assert abs(measured - expected) < 1e-8
    assert abs(expected - 3.0) < 1e-12


def test_bump_support_must_fit():
    g = make_grid(4.0, 64)
    with pytest.raises(GridConfigError):
        bump(3.0, 2.0, g)
    with pytest.raises(GridConfigError):
        bump(0.0, -1.0, g)
    with pytest.raises(GridConfigError, match="radius must be positive"):
        bump(0.0, np.nan, g)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_position_that_is_not_finite_is_refused(value):
    g = make_grid(4.0, 64)
    with pytest.raises(GridConfigError, match="bump center must be finite"):
        bump(value, 1.0, g)
    with pytest.raises(GridConfigError, match="grid position x must be finite"):
        g.index_of(value)


def test_inner_normalization_and_disjoint(fine_grid):
    f = bump(-3.0, 1.0, fine_grid)
    g = bump(3.0, 1.0, fine_grid)
    assert abs(inner(f, f) - 1.0) < 1e-12
    assert inner(f, g) == 0.0


def test_inner_conjugate_symmetry(fine_grid):
    rng = np.random.default_rng(7)
    f = bump(0.0, 2.0, fine_grid)
    g = f.with_values(f.values * np.exp(1j * rng.normal(size=fine_grid.n_points)))
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)), abs=1e-14)


def test_inner_grid_mismatch():
    f = bump(0.0, 1.0, make_grid(8.0, 256))
    g = bump(0.0, 1.0, make_grid(8.0, 512))
    with pytest.raises(GridMismatchError):
        inner(f, g)


def test_momentum_zero_component(fine_grid):
    f = bump(0.0, 2.0, fine_grid)
    fh = to_momentum(f)
    expected = f.integral() / np.sqrt(2.0 * np.pi)
    assert abs(fh.values[0] - expected) < 1e-8


def test_plancherel(fine_grid):
    f = bump(1.0, 2.0, fine_grid)
    assert abs(to_momentum(f).norm() - f.norm()) < 1e-10


def test_translation_leaves_magnitude(fine_grid):
    # shift by a whole number of grid cells: |fhat| must be unchanged
    f = bump(0.0, 2.0, fine_grid)
    shift = 64
    g = f.with_values(np.roll(f.values, shift))
    assert np.abs(np.abs(to_momentum(g).values) - np.abs(to_momentum(f).values)).max() < 1e-10


def test_momentum_grid_convention(fine_grid):
    p = fine_grid.momenta()
    assert p[1] == pytest.approx(np.pi / fine_grid.half_width)
    assert p.min() == pytest.approx(-np.pi * (fine_grid.n_points // 2) / fine_grid.half_width)


def test_fourier_at_matches_fft(fine_grid):
    f = bump(1.0, 2.0, fine_grid)
    # exact zeros between two bumps, inside the span the phase recurrence runs over
    gapped = f.with_values(bump(-3.0, 1.0, fine_grid).values + bump(3.0, 1.0, fine_grid).values)
    for g in (f, gapped):
        fh = to_momentum(g)
        p_query = fh.p[[0, 3, 17, 200]]
        direct = fourier_at(g, p_query)
        assert np.abs(direct - fh.values[[0, 3, 17, 200]]).max() < 1e-10


def test_dx_halving_gate():
    # reported L2 norm of a fixed smooth profile moves < 1e-6 under refinement
    def raw_norm(n):
        g = make_grid(16.0, n)
        v = bump_profile(g.x / 2.0)
        return np.sqrt((v**2).sum() * g.dx)

    coarse, fine = raw_norm(1024), raw_norm(2048)
    assert abs(fine - coarse) / coarse < 1e-6
