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
#
# The trap is even, so trap_mode solves it on the mirror-symmetric box:
# rows 1 .. n-1 of trap_operator's grid x_j = -L + j dx, with walls at
# +-L, the origin at row N = n/2, and the right half of trap_operator's
# diagonal mirrored onto the left (which matches it up to the rounding of
# the grid points).  Its even modes are those of rows N .. n-1 with the
# first coupling times sqrt(2) (psi(0) = v_0, psi(+-k dx) = v_k / sqrt(2)),
# its odd ones those of rows N+1 .. n-1 (psi(0) = 0, psi(+-k dx) =
# +-u_k / sqrt(2); Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)).
# One stebz/stein mode of each half block, mirrored in place and set to 0 at
# x = -L, gives the box's two lowest modes with exact parity; even and odd
# levels interlace strictly.  The pairing and count scans only read the
# solved TrapModes, so a radius that several scans share is solved once.
#
# In 3D the lowest axial (l = 1) mode approaches z with the radial shape
# s(u) = 3 j1(u)/u, normalized so s(0) = 1; the deviation |h(x) - z| is
# bounded by a constant times |z| |x|^2 / R^2 uniformly in R.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn

from . import hamiltonians
from .grids import GridConfigError, RadialGrid, WaveFunction
from .hamiltonians import (
    EigensolverError,
    diagonalize,
    radial_assemble,
    soft_wall_trap,
    trap_operator,
)


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


@dataclass(frozen=True)
class TrapModes:
    """
    The lowest even and odd modes of the soft-wall trap of radius R, one
    from each parity block: measured eigenvalues and renormalized modes,
    both keyed by parity.
    """

    R: float
    eigenvalues: dict[str, float]
    modes: dict[str, WaveFunction]


def trap_mode(R: float, dx_target: float) -> TrapModes:
    """
    Lowest even and odd modes of the trap on the mirror-symmetric box of
    trap_operator(R, dx_target)'s grid, one from each half block (module
    header).  The even mode is scaled to h(0) = 1, the odd mode to unit
    slope h(dx) / dx = 1.  Levels that fail to interlace raise
    EigensolverError.
    """
    H = trap_operator(R, dx_target)
    grid, d, e = H.grid, H.diagonal, H.off_diagonal
    N = grid.n_points // 2
    z = np.zeros((grid.n_points, 2))  # row 0, x = -L, stays 0
    even, z[N:, :1] = hamiltonians._window(d[N:], np.append(np.sqrt(2.0) * e[N], e[N + 1:]), 1)
    odd, z[N + 1:, 1:] = hamiltonians._window(d[N + 1:], e[N + 1:], 1)
    if not even[0] < odd[0]:
        raise EigensolverError("the even and odd levels of a mirror-symmetric trap do not interlace")
    z[N + 1:] *= np.sqrt(0.5)
    z[1:N, 0] = z[:N:-1, 0]
    z[1:N, 1] = -z[:N:-1, 1]
    z /= np.sqrt(grid.dx)  # unit grid norm
    return TrapModes(
        R,
        {"even": float(even[0]), "odd": float(odd[0])},
        {"even": WaveFunction(grid, z[:, 0] / z[N, 0]),
         "odd": WaveFunction(grid, z[:, 1] * (grid.dx / z[N + 1, 1]))},
    )


@dataclass
class ModeAsymptotics:
    """R-scan of one mode family: eigenvalues, pairings, limit, deviation slope."""

    parity: str
    radii: list[float]
    eigenvalues: list[float]
    pairings: list[float]
    limit: float
    slope: float  # nan when a deviation is exactly 0


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
    slope = fit_loglog_slope(radii, devs) if all(d > 0 for d in devs) else float("nan")
    return ModeAsymptotics(parity, radii, eigenvalues, pairings, limit, slope)


def condensate_count_scaling(parity: str, kappa: float, scan):
    """
    Particle count of the condensate inside [-R, R],
    kappa^2 Integral_{-R}^{R} h_R(x)^2 dx, for each TrapModes in scan, and
    its fitted growth exponent.  kappa must be positive: a zero count has
    no exponent.
    """
    if not kappa > 0:
        raise ValueError(f"condensate amplitude kappa must be > 0, got {kappa}")
    scan = sorted(scan, key=lambda t: t.R)
    counts = []
    for t in scan:
        h = t.modes[parity]
        m = np.abs(h.grid.x) <= t.R
        counts.append(kappa**2 * float((h.values.real[m] ** 2).sum() * h.grid.dx))
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
    A radius that is not finite and positive is refused before the first
    solve.
    """
    if not np.all(np.isfinite(R_list) & np.greater(R_list, 0)):
        raise GridConfigError(f"trap radii must be finite and positive, got {list(R_list)}")
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
