"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every criterion
line; the whole suite takes a few minutes at the pinned parameters.

Criteria 1 and 6 check the paper's limit claims, not the lab's stricter
local verdicts: criterion 1 compares log-log chord slopes over the inner
and outer parts of the radius window, at every split, instead of every
consecutive slope, and criterion 6 bounds each profile deviation by what
min-max against the hard-wall box [-R, R] allows at that R and x instead
of a flat 2%.  Criterion 1 still fails on the branch c = R, t = 1.0, whose
local slopes oscillate too much in R = 6..14 to show steepening at every
split.  The lab's own `scan[...]` and `profiles` verdicts stay strict, so
`thermolim lemma31` and `thermolim condensate1d` still exit 1 at their
defaults.  The README section "Criteria 1 and 6" gives the derivation and
the evidence.
"""

import numpy as np
import pytest

from thermolim import lab
from thermolim.fock import build_fock, ccr_defect
from thermolim.grids import bump, bump_profile, make_grid
from thermolim.hamiltonians import assemble, diagonalize, soft_wall_trap
from thermolim.propagators import evolve_free, evolve_spectral
from thermolim.quasifree import QuasifreeState

from references import propagator_gap, to_momentum, two_point


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def propagator_report():
    return lab.run("lemma31", {"threads": 2})


@pytest.fixture(scope="module")
def condensate_report():
    return lab.run("condensate1d", {})


def steepening(rows) -> dict:
    """
    Per (c_rule, t) branch of a lemma31 report: (passed, decreasing, R_mid,
    margin).  For every interior radius R_mid of the window, the margin is
    how much steeper the log-log chord slope over R_mid -> R_max is than the
    one over R_min -> R_mid; the smallest margin and its R_mid are returned.
    A branch passes when its gaps strictly decrease and that margin is
    positive.
    """
    points = {}
    for rule, t, R, gap, *_ in rows:
        points.setdefault((rule, t), []).append((R, gap))
    out = {}
    for branch, pts in points.items():
        radii, gaps = zip(*sorted(pts))
        last = len(radii) - 1

        def chord(i, j):
            return np.log(gaps[j] / gaps[i]) / np.log(radii[j] / radii[i])

        decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
        margin, R_mid = min((chord(0, m) - chord(m, last), radii[m]) for m in range(1, last))
        out[branch] = (decreasing and margin > 0, decreasing, R_mid, margin)
    return out


def criterion_1(rep) -> tuple[bool, str]:
    """
    Faster than any fixed power of R: on every branch the gaps strictly
    decrease, and wherever the radius window is split, the outer chord slope
    is strictly steeper than the inner one.  A pure power law has equal
    chords, and a decay that flattens towards one, such as R^-3 (1 + R/10),
    has a shallower outer chord at every split.  Asking for every split keeps
    the verdict from resting on the choice of one interior point.  The lab's
    local verdict (every consecutive slope steeper than the last) is printed
    for information only.
    """
    branches = sorted(steepening(rep.rows).items())
    parts = [
        f"c={rule},t={t}: min margin {margin:.2f} at R_mid={R_mid:.0f}"
        + ("" if decreasing else " NOT DECREASING")
        + f" (local verdict {rep.verdicts[f'scan[{rule},t={t}]']})"
        + ("" if passed else " FAIL")
        for (rule, t), (passed, decreasing, R_mid, margin) in branches
    ]
    return all(v[0] for _, v in branches), (
        "gaps strictly decrease and the outer chord slope is steeper than the "
        "inner one at every split of the radius window, on all 6 branches: "
        + "; ".join(parts)
    )


def test_criterion_1_propagator_convergence(propagator_report):
    ok = report(1, *criterion_1(propagator_report))
    assert ok, "a branch's gap decay is not strictly decreasing and steepening at every split"


def with_gaps(rows, branch, decay):
    return [
        (*row[:3], decay(row[2]), *row[4:]) if (row[0], row[1]) == branch else row
        for row in rows
    ]


def test_criterion_1_rejects_a_flattening_decay(propagator_report):
    rows = propagator_report.rows
    for branch in {(row[0], row[1]) for row in rows}:
        mutated = with_gaps(rows, branch, lambda R: R**-3.0 * (1.0 + R / 10.0))
        assert not steepening(mutated)[branch][0], (
            f"criterion 1 accepts R^-3 (1 + R/10) on branch {branch}"
        )


def test_criterion_1_accepts_a_superpolynomial_decay(propagator_report):
    rows = propagator_report.rows
    for branch in {(row[0], row[1]) for row in rows}:
        mutated = with_gaps(rows, branch, lambda R: np.exp(-np.sqrt(R)))
        assert steepening(mutated)[branch][0], (
            f"criterion 1 rejects exp(-sqrt(R)) on branch {branch}"
        )


def test_criterion_2_duhamel_inequality(propagator_report):
    rep = propagator_report
    checks = {k: v for k, v in rep.verdicts.items() if k.startswith("bound[")}
    margin = min(
        row[4] - row[3] for row in rep.rows if np.isfinite(row[3]) and np.isfinite(row[4])
    )
    ok = report(
        2,
        all(checks.values()),
        f"gap <= integral bound + 1e-8 on every gated run (min bound - gap = {margin:.3e})",
    )
    assert ok


def test_criterion_3_sector_norms(propagator_report):
    rep = lab.run("lemma33", {})
    norms = [row[3] for row in rep.rows]
    # growing-sector bound along R_n = n at t = 1: n * gap(R_n) still decays
    seq = sorted(
        (row[2], row[3]) for row in propagator_report.rows
        if row[0] == "1" and row[1] == 1.0
    )
    n_gap = [R * gap for R, gap in seq]
    ok = report(
        3,
        rep.verdicts["bound"]
        and rep.verdicts["decreasing"]
        and rep.verdicts["sector_monotonicity"]
        and all(a > b for a, b in zip(n_gap, n_gap[1:])),
        f"exact sector norms {['%.3e' % v for v in norms]} under the 2n bound, "
        f"decreasing along R_n = n+5; n*gap(R_n) decreasing along R_n = n; "
        f"20 seeded monotonicity trials pass",
    )
    assert ok


def test_criterion_4_thermal_convergence():
    rep = lab.run("thermal", {})
    devs = [row[4] for row in rep.rows]
    ok = report(
        4,
        rep.passed,
        f"interior density deviations {['%.2e' % d for d in devs]} (monotone, "
        f"{devs[-1] * 100:.4f}% at R=80 vs 1% allowed)",
    )
    assert ok


def test_criterion_5_resolvent_oracles():
    rep = lab.run("resolvent", {})
    worst_series = max(row[3] for row in rep.rows)
    worst_field = max(row[6] for row in rep.rows)
    deltas = ["%.3f" % row[7] for row in rep.rows]
    ok = report(
        5,
        rep.verdicts["oracle_match"] and not rep.gate_failed,
        f"series vs Gibbs trace <= {worst_series:.1e}; quadrature vs closed form "
        f"<= {worst_field:.1e}; truncated field-trace deltas {deltas} (reported only)",
    )
    assert ok


def profile_bound(parity: str, R: float, x: float) -> float:
    """
    Largest relative offset of a renormalised trap mode at |x| <= R.

    The potential vanishes on |x| <= R, so there the renormalised modes are
    exactly cos(kx) (even) and sin(kx)/k (odd) with energy k^2.  Min-max
    against the hard-wall box [-R, R], whose even and odd ground states are
    admissible trial functions, gives k <= pi/2R (even) and k <= pi/R (odd).
    Then 1 - cos^2(kx) <= (kx)^2 and 1 - (sin(kx)/kx)^2 <= (kx)^2 / 3.
    """
    if parity == "even":
        return (np.pi * x / (2.0 * R)) ** 2
    return (np.pi * x / R) ** 2 / 3.0


def criterion_6(rows) -> tuple[bool, str]:
    """Every profile deviation, at every radius, within its min-max bound."""
    ratios = [(row[5] / profile_bound(*row[:3]), row) for row in rows]
    worst, (parity, R, x, *_) = max(ratios, key=lambda r: r[0])
    bad = [
        f"{row[0]} R={row[1]:.0f} x={row[2]:.0f}: {row[5] * 100:.2f}% > "
        f"{profile_bound(*row[:3]) * 100:.2f}%"
        for ratio, row in ratios
        if not ratio <= 1.0
    ]
    ok = len(rows) == 18 and not bad
    return ok, (
        f"condensate density offsets vs kappa^2 / kappa^2 x^2 within the min-max "
        f"bounds (pi x/2R)^2 (even), (pi x/R)^2/3 (odd) on all {len(rows)} rows; "
        f"worst deviation/bound {worst:.3f} ({parity} R={R:.0f} x={x:.0f})"
        + ("" if not bad else " EXCEPT " + "; ".join(bad))
    )


def test_criterion_6_limit_density_profiles(condensate_report):
    ok = report(6, *criterion_6(condensate_report.rows))
    assert ok, "a condensate profile deviation exceeds its min-max bound"


def test_criterion_6_rejects_an_excess_deviation(condensate_report):
    mutated = [
        (*row[:5], 0.034, *row[6:]) if row[:3] == ("odd", 40.0, 4.0) else row
        for row in condensate_report.rows
    ]
    assert mutated != condensate_report.rows
    ok, _ = criterion_6(mutated)
    assert not ok, "criterion 6 accepts a 3.4% odd deviation at R = 40, x = 4"


def test_criterion_7_count_scaling(condensate_report):
    rep = condensate_report
    notes = [n for n in rep.notes if "count exponent" in n]
    ok = report(
        7,
        rep.verdicts["count_exponent[even]"] and rep.verdicts["count_exponent[odd]"],
        "; ".join(notes),
    )
    assert ok


def test_criterion_8_chemical_potential_saturation():
    rep = lab.run("mulimit", {})
    vals = [row[2] for row in rep.rows if row[0] == "mean_one"]
    drop = 100 * (1 - vals[-1] / vals[0])
    ok = report(
        8,
        rep.passed,
        f"unit-mean resolvent drops {drop:.1f}% (>= 95 needed); zero-mean scan "
        f"Cauchy within 1e-4",
    )
    assert ok


def test_criterion_9_axial_profile():
    rep = lab.run("condensate3d", {})
    consts = [row[3] for row in rep.rows]
    ok = report(
        9,
        rep.passed,
        f"bound constants {['%.3f' % c for c in consts]} stable within factor 2; "
        + rep.notes[0],
    )
    assert ok


def test_criterion_10_memory_effect():
    rep = lab.run("memory", {})
    last = rep.rows[-1]
    worst_plateau = max(row[3] for row in rep.rows)
    ok = report(
        10,
        rep.passed,
        f"thermal term decays to {last[1]:.2e} (< 1e-3) by t = {last[0]:.0f}; "
        f"plateau equals 0.25 within {worst_plateau:.1e} at every t",
    )
    assert ok


def test_criterion_11_numerical_hygiene():
    checks = {}

    grid = make_grid(16.0, 2048)
    f = bump(0.0, 2.0, grid)
    checks["plancherel"] = abs(to_momentum(f).norm() - f.norm()) < 1e-10

    R = 8.0
    tgrid = make_grid(2 * R + 16.0, 2048)
    decomp = diagonalize(assemble(tgrid, soft_wall_trap(R, 1.0)))
    ft = bump(0.0, 2.0, tgrid)
    checks["unitarity"] = (
        abs(evolve_spectral(decomp, ft, 1.0).norm() - 1.0) < 1e-10
        and abs(evolve_free(ft, 1.0).norm() - 1.0) < 1e-10
    )

    state = QuasifreeState(beta=1.0, mu=-1.0, decomposition=decomp)
    fam = [bump(c, 1.0, tgrid) for c in (-2.0, 0.0, 2.0)]
    M = np.array([[two_point(state, a, b) for b in fam] for a in fam])
    checks["hermitian_positive"] = (
        np.abs(M - M.conj().T).max() < 1e-12 and np.linalg.eigvalsh(M).min() > 0
    )

    checks["ccr"] = ccr_defect(build_fock(2, 5, 5)) < 1e-12

    def raw_norm(n):
        g = make_grid(16.0, n)
        v = bump_profile(g.x / 2.0)
        return np.sqrt((v * v).sum() * g.dx)

    checks["dx_halving"] = abs(raw_norm(2048) - raw_norm(1024)) / raw_norm(1024) < 1e-6

    def gap_at(L, n):
        g = make_grid(L, n)
        d = diagonalize(assemble(g, soft_wall_trap(R, 1.0)))
        return propagator_gap(d, bump(0.0, 2.0, g), 0.5, R)

    g1, g2 = gap_at(32.0, 2048), gap_at(64.0, 4096)
    checks["L_doubling"] = abs(g2 - g1) / g1 < 1e-2

    failed = [k for k, v in checks.items() if not v]
    ok = report(
        11,
        not failed,
        "Plancherel, unitarity, hermiticity/positivity, CCR, dx-halving and "
        "L-doubling gates" + ("" if not failed else f" FAILED: {failed}"),
    )
    assert ok
