# The propagator gap scan recomputed on fixed-spacing grids.
#
# `thermolim lemma31` keeps n_points = 4096 on the box [-(2R+16), 2R+16],
# so its grid spacing grows with R.  This script recomputes the same gaps
# with the spacing held fixed, without a full eigensolve, so fine grids
# stay within memory.  Both walls go through the Chebyshev propagator: the
# soft wall (c = 1) on the whole box, at a degree a t of about 2 t/dx^2;
# the stiff wall (c = R) on the block its packet can reach, whose cut
# level 8/dx^2 keeps the degree near 6 t/dx^2 however high the wall
# climbs at the box edge, and on that block's even half where the grid
# is mirror exact.  `--dx default` uses lemma31's own grids and
# reproduces its gaps.
#
# For each branch (coupling rule, time) it evolves the packets of all
# radii in one batched series and prints the gaps, the local log-log
# slopes, and the margin (inner minus outer chord slope) at every interior
# split R_mid of the radius window.  Acceptance criterion 1 asks for
# strictly decreasing gaps and a positive margin at every split.
#
#   python demos/gap_grid_check.py --dx 0.0137
#   python demos/gap_grid_check.py --dx 0.0078 --branch R,1.0
#   python demos/gap_grid_check.py --dx 0.0137 --branch 1,1.0 --radii 14,16,18,20,22
#
# On 2 cores all six branches take 5 s at dx = 0.0137 (c = R, t = 1.0
# alone 2.4 s) and 27 s at dx = 0.0078.

import argparse
import math

import numpy as np

from thermolim import assemble, bump, evolve_chebyshev_batch, evolve_free, make_grid, soft_wall_trap

parser = argparse.ArgumentParser(description="lemma31 gap scan on fixed-spacing grids")
parser.add_argument("--dx", default="default", help="grid spacing, or 'default' for n_points = 4096")
parser.add_argument(
    "--branch",
    action="append",
    help="coupling rule and time as RULE,T (repeatable); all six branches by default",
)
parser.add_argument("--radii", default="6,8,10,12,14", help="ascending trap radii, comma-separated")
args = parser.parse_args()
radii = [float(R) for R in args.radii.split(",")]
branches = [
    (rule, float(t)) for rule, t in (b.split(",") for b in args.branch)
] if args.branch else [(rule, t) for rule in ("1", "R") for t in (0.25, 0.5, 1.0)]


def packet(R: float, rule: str, t: float):
    L = 2.0 * R + 16.0
    if args.dx == "default":
        n = 4096
    else:
        n = int(round(2.0 * L / float(args.dx)))
        n += n % 2
    grid = make_grid(L, n)
    return assemble(grid, soft_wall_trap(R, 1.0 if rule == "1" else R)), bump(0.0, 2.0, grid), [t]


def gaps_of(rule: str, t: float) -> list[float]:
    packets = [packet(R, rule, t) for R in radii]
    gaps = []
    for (H, f, _), ((trapped,), _) in zip(packets, evolve_chebyshev_batch(packets, 1)):
        diff = trapped.values - evolve_free(f, t).values
        gaps.append(float(np.sqrt((np.abs(diff) ** 2).sum() * H.grid.dx)))
    return gaps


def chord(gaps, i, j):
    return math.log(gaps[j] / gaps[i]) / math.log(radii[j] / radii[i])


print(f"dx = {args.dx}; radii {radii}")
for rule, t in branches:
    gaps = gaps_of(rule, t)
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
