# The propagator gap scan recomputed on fixed-spacing grids.
#
# `thermolim lemma31` keeps n_points = 4096 on the box [-(2R+16), 2R+16],
# so its grid spacing grows with R.  This script recomputes the same gaps
# with the spacing held fixed, without a full eigensolve, so fine grids
# stay within memory: the soft wall (c = 1) by the Chebyshev propagator,
# whose degree a t is about 2 t/dx^2, the stiff wall (c = R), whose degree
# grows like R^2 L^2, by a sparse matrix exponential (scipy's
# expm_multiply).  `--dx default` uses lemma31's own grids and reproduces
# its gaps.
#
# For each branch (coupling rule, time) it prints the gaps, the local
# log-log slopes, and the margin (inner minus outer chord slope) at every
# interior split R_mid of the radius window.  Acceptance criterion 1 asks
# for strictly decreasing gaps and a positive margin at every split.
#
#   python demos/gap_grid_check.py --dx 0.0137
#   python demos/gap_grid_check.py --dx 0.0078 --branch R,1.0
#
# On 2 cores the three c = 1 branches take 5 s at dx = 0.0137 and 14 s at
# dx = 0.0078.  The stiff wall stays slow: the three c = R branches take
# 9 minutes at dx = 0.0137, the t = 1.0 branch most of it.

import argparse
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from thermolim import assemble, bump, evolve_chebyshev, evolve_free, make_grid, soft_wall_trap

radii = [6.0, 8.0, 10.0, 12.0, 14.0]

parser = argparse.ArgumentParser(description="lemma31 gap scan on fixed-spacing grids")
parser.add_argument("--dx", default="default", help="grid spacing, or 'default' for n_points = 4096")
parser.add_argument(
    "--branch",
    action="append",
    help="coupling rule and time as RULE,T (repeatable); all six branches by default",
)
args = parser.parse_args()
branches = [
    (rule, float(t)) for rule, t in (b.split(",") for b in args.branch)
] if args.branch else [(rule, t) for rule in ("1", "R") for t in (0.25, 0.5, 1.0)]


def gap(R: float, rule: str, t: float) -> float:
    L = 2.0 * R + 16.0
    if args.dx == "default":
        n = 4096
    else:
        n = int(round(2.0 * L / float(args.dx)))
        n += n % 2
    grid = make_grid(L, n)
    H = assemble(grid, soft_wall_trap(R, 1.0 if rule == "1" else R))
    f = bump(0.0, 2.0, grid)
    if rule == "1":
        trapped = evolve_chebyshev(H, f, [t])[0][0].values
    else:
        H = sp.diags([H.off_diagonal, H.diagonal, H.off_diagonal], [-1, 0, 1], format="csr")
        trapped = expm_multiply(-1j * t * H, f.values.astype(complex))
    free = evolve_free(f, t).values
    return float(np.sqrt((np.abs(trapped - free) ** 2).sum() * grid.dx))


def chord(gaps, i, j):
    return math.log(gaps[j] / gaps[i]) / math.log(radii[j] / radii[i])


print(f"dx = {args.dx}; radii {radii}")
for rule, t in branches:
    gaps = [gap(R, rule, t) for R in radii]
    local = [chord(gaps, i, i + 1) for i in range(len(radii) - 1)]
    margins = {
        radii[m]: chord(gaps, 0, m) - chord(gaps, m, len(radii) - 1)
        for m in range(1, len(radii) - 1)
    }
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    print(f"c={rule}, t={t}")
    print("  gaps   " + " ".join(f"{g:.6g}" for g in gaps))
    print("  local  " + " ".join(f"{s:.3f}" for s in local))
    print(
        "  margin " + " ".join(f"R_mid={R:.0f}: {m:.3f}" for R, m in margins.items())
        + ("" if decreasing else "  (gaps not decreasing)")
    )
