# Trapped dynamics against free dynamics as the trap opens up.
#
# A wave packet confined by a soft quadratic wall at |x| = R evolves almost
# freely once R is large: the L2 gap between the two evolutions shrinks
# faster than any fixed power of R.  The scan below measures the gap, its
# local log-log slope, and the integral (tail-weighted) bound that
# dominates it at every radius.  `evolve` picks the trapped propagator by
# cost; at this soft wall (c = 1) it is the Chebyshev series throughout.

import numpy as np

from thermolim import (
    assemble,
    bump,
    duhamel_bound,
    evolve,
    evolve_free,
    make_grid,
    soft_wall_trap,
)
from thermolim.propagators import gated_gap

radii = [6.0, 8.0, 10.0, 12.0, 14.0]
t = 0.25
n_points = 4096

print(f"packet: unit bump of radius 2 at the origin, evolved to t = {t}")
print(f"{'R':>4} {'gap':>12} {'bound':>12} {'slope':>8}")

gaps = []
for R in radii:
    grid = make_grid(2 * R + 16.0, n_points)
    f = bump(0.0, 2.0, grid)
    trapped = evolve(assemble(grid, soft_wall_trap(R, coupling=1.0)), f, [t])[0]
    gap = gated_gap(evolve_free(f, t), trapped, R)
    bound = duhamel_bound(f, t, R)  # at c = 1; c^2 times this for coupling c
    slope = (
        (np.log(gap) - np.log(gaps[-1])) / (np.log(R) - np.log(radii[len(gaps) - 1]))
        if gaps
        else float("nan")
    )
    gaps.append(gap)
    print(f"{R:4.0f} {gap:12.4e} {bound:12.4e} {slope:8.3f}")

print()
print("slopes grow in magnitude down the scan: the decay is faster than any")
print("fixed power of R, and the bound dominates the gap at every point.")
