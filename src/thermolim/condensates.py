# condensates.py
#
# Spatial structure of condensate modes in the large-trap limit.
#
# The trap is the soft wall with coupling c = 1 throughout.  Inside it the
# potential vanishes, so the lowest modes are
# trigonometric: the even ground mode is cos(sqrt(eps) x), the first odd
# mode sin(sqrt(eps) x)/sqrt(eps), with eps -> 0 like 1/R^2.  Renormalized
# to unit value (even) or unit slope (odd) at the origin, they converge to
# the constant 1 and to x respectively; their pairings with a fixed test
# function approach Integral(f) resp. Integral(x f) at rate 1/R^2.
# trap_mode solves each trap once for both modes; the pairing and count
# scans only read the solved TrapModes, so a radius that several scans
# share costs one eigensolve.
#
# In 3D the lowest axial (l = 1) mode approaches z with the radial shape
# s(u) = 3 j1(u)/u, normalized so s(0) = 1; the deviation |h(x) - z| is
# bounded by a constant times |z| |x|^2 / R^2 uniformly in R.

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import spherical_jn

from .grids import GridConfigError, RadialGrid, WaveFunction
from .hamiltonians import (
    diagonalize,
    parity_of,
    radial_assemble,
    soft_wall_trap,
    trap_operator,
)


class ParityError(ValueError):
    pass


def axial_shape(u) -> np.ndarray:
    """
    Normalized l = 1 radial shape s(u) = 3 j1(u)/u with s(0) = 1.

    A series branch below |u| = 0.1 avoids the sin/cos cancellation:
    s(u) = 1 - u^2/10 + u^4/280 - u^6/15120 + ...
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    small = np.abs(u) < 0.1
    us = u[small]
    u2 = us * us
    out[small] = 1.0 + u2 * (-1.0 / 10.0 + u2 * (1.0 / 280.0 - u2 / 15120.0))
    ub = u[~small]
    out[~small] = 3.0 * spherical_jn(1, ub) / ub
    return out


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    return float(np.polyfit(lx, ly, 1)[0])


def mode_renormalize(psi: WaveFunction, parity: str) -> WaveFunction:
    """
    Rescale a trap eigenmode to the limit normalization: even modes to value
    1 at the origin, odd modes to unit slope there (centered difference).

    The stated parity must match the mode; the output is exactly
    symmetrized, so pairings with reflected test functions are exact.
    """
    actual = parity_of(psi)
    if actual != parity:
        raise ParityError(f"mode parity is {actual!r}, expected {parity!r}")
    n = psi.grid.n_points
    refl = psi.values[(-np.arange(n)) % n]
    if parity == "even":
        v = 0.5 * (psi.values + refl)
        scale = v[psi.grid.index_origin]
    elif parity == "odd":
        v = 0.5 * (psi.values - refl)
        j0 = psi.grid.index_origin
        scale = (v[j0 + 1] - v[j0 - 1]) / (2.0 * psi.grid.dx)
    else:
        raise ParityError(f"parity must be 'even' or 'odd', got {parity!r}")
    if scale == 0:
        raise ParityError("degenerate normalization: mode vanishes at the origin")
    return WaveFunction(psi.grid, v / scale)


@dataclass(frozen=True)
class TrapModes:
    """
    The lowest even and odd modes of the soft-wall trap of radius R, from
    one two-mode solve: measured eigenvalues and renormalized modes, both
    keyed by parity.
    """

    R: float
    eigenvalues: dict[str, float]
    modes: dict[str, WaveFunction]


def trap_mode(R: float, dx_target: float = 0.03125) -> TrapModes:
    """Solve the trap of radius R (trap_operator's grid) for its two lowest modes."""
    decomp = diagonalize(trap_operator(R, dx_target=dx_target), n_modes=2)
    parities = ("even", "odd")
    return TrapModes(
        R,
        {p: float(decomp.eigenvalues[i]) for i, p in enumerate(parities)},
        {p: mode_renormalize(decomp.mode(i), p) for i, p in enumerate(parities)},
    )


@dataclass
class ModeAsymptotics:
    """R-scan of one mode family: eigenvalues, pairings, deviations, slope."""

    parity: str
    radii: list[float]
    eigenvalues: list[float]
    pairings: list[float]
    limit: float
    deviations: list[float] = field(default_factory=list)
    slope: float = float("nan")


def smeared_mode_limit(parity: str, f, scan) -> ModeAsymptotics:
    """
    Pairings <h_R, f> of renormalized modes against a fixed test function,
    versus the limit pairing (Integral f for even, Integral x f for odd).

    scan holds one TrapModes per radius.  f is a factory grid ->
    WaveFunction so the same function can be sampled on each trap's grid;
    its support must sit well inside the smallest radius.
    """
    scan = sorted(scan, key=lambda t: t.R)
    pairings = []
    limit = None
    for t in scan:
        h = t.modes[parity]
        fR = f(h.grid)
        support = np.abs(fR.values) > 0
        if np.abs(h.grid.x[support]).max() > 0.5 * t.R:
            raise GridConfigError("test function support must stay well inside the trap")
        pairings.append(float((h.values.real * fR.values.real).sum() * h.grid.dx))
        if limit is None:
            limit = float(fR.integral().real if parity == "even" else fR.moment().real)
    radii = [t.R for t in scan]
    eigenvalues = [t.eigenvalues[parity] for t in scan]
    devs = [abs(p - limit) for p in pairings]
    out = ModeAsymptotics(parity, radii, eigenvalues, pairings, limit, devs)
    if all(d > 0 for d in devs):
        out.slope = fit_loglog_slope(radii, devs)
    return out


def condensate_count_scaling(parity: str, kappa: float, scan):
    """
    Particle count of the condensate inside [-R, R],
    kappa^2 Integral_{-R}^{R} h_R(x)^2 dx, for each TrapModes in scan, and
    its fitted growth exponent.
    """
    scan = sorted(scan, key=lambda t: t.R)
    counts = []
    for t in scan:
        h = t.modes[parity]
        m = np.abs(h.grid.x) <= t.R
        counts.append(kappa**2 * float((h.values.real[m] ** 2).sum() * h.grid.dx))
    if kappa == 0:
        return 0.0, counts
    return fit_loglog_slope([t.R for t in scan], counts), counts


# ---------------------------------------------------------------------------
# 3D axial (l = 1) profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Axial condensate mode h(x) = z s(k |x|) with measured k = sqrt(eps)."""

    k: float
    trap_radius: float

    def value(self, z: float, r: float) -> float:
        return z * float(axial_shape(self.k * r)[0])

    def deviation_constant(self, radii: np.ndarray) -> float:
        """sup over radii of |h - z| R^2 / (|z| |x|^2) = (1 - s(kr)) R^2/r^2."""
        radii = np.asarray(radii, dtype=float)
        s = axial_shape(self.k * radii)
        return float(((1.0 - s) * self.trap_radius**2 / radii**2).max())


def axial_trap_mode(R: float) -> RadialProfile:
    """Lowest l = 1 mode of the 3D soft-wall trap from the radial eigensolver."""
    r_max = R + 16.0
    grid = RadialGrid(r_max, int(round(r_max / 0.02)))
    H = radial_assemble(grid, 1, soft_wall_trap(R))
    decomp = diagonalize(H, n_modes=1)
    return RadialProfile(k=float(np.sqrt(decomp.eigenvalues[0])), trap_radius=R)


def l1_profile_check(R_list, f):
    """
    Scan the axial-mode family over trap radii:

    (a) the sup constant of |h(x) - z| R^2 / (|z| |x|^2) over 16 log-spaced
        evaluation radii, per R (bounded and stable across the scan);
    (b) smeared pairings Integral h_R f -> Integral z f with the fitted
        log-log deviation slope;
    (c) the measured k_R values.

    f is a RadialFunction3D; only its axial component enters the pairing.
    """
    radii = sorted(R_list)
    constants, pairings, ks = [], [], []
    limit = f.axial_moment()
    for R in radii:
        prof = axial_trap_mode(R)
        eval_r = np.geomspace(R * 1e-3, R, 16)
        constants.append(prof.deviation_constant(eval_r))
        ks.append(prof.k)
        if f.phi1 is not None:
            r, dr = f.grid.r, f.grid.dr
            pair = 4.0 * np.pi / 3.0 * (r**3 * f.phi1 * axial_shape(prof.k * r)).sum() * dr
        else:
            pair = 0.0
        pairings.append(float(pair))
    devs = [abs(p - limit) for p in pairings]
    slope = fit_loglog_slope(radii, devs) if all(d > 0 for d in devs) else float("nan")
    return {
        "radii": radii,
        "k": ks,
        "bound_constants": constants,
        "pairings": pairings,
        "limit": limit,
        "deviation_slope": slope,
    }
