# Spatial structure of 1D condensate modes in the large-trap limit.
#
# The renormalized even mode flattens toward the constant 1, the odd mode
# straightens toward x.  A coherent occupation kappa then adds kappa^2,
# respectively kappa^2 x^2, to the particle density, and the particle
# count in the trap grows like R (even) or R^3 (odd).  Each trap radius is
# solved once, for both modes, and every scan below reads that solve.

from thermolim import bump, condensate_count_scaling, smeared_mode_limit, trap_mode

kappa = 0.5
solved = {R: trap_mode(R) for R in (20.0, 40.0, 80.0, 160.0)}
profile_scan = [solved[R] for R in (20.0, 40.0, 80.0)]

print("renormalized mode values against the limit profiles:")
print(f"{'R':>5} {'h_even(4)':>12} {'-> 1':>6} {'h_odd(4)/4':>12} {'-> 1':>6}")
for t in profile_scan:
    h_even, h_odd = t.modes["even"], t.modes["odd"]
    j = h_even.grid.index_of(4.0)
    print(
        f"{t.R:5.0f} {h_even.values[j].real:12.6f} {'':6}"
        f"{h_odd.values[j].real / 4.0:12.6f}"
    )

print()
print("pairings of the modes with a bump at x = 3 approach the integral")
print("and the first moment of the bump, at rate 1/R^2:")
make_f = lambda grid: bump(3.0, 1.0, grid)
for parity in ("even", "odd"):
    asym = smeared_mode_limit(parity, make_f, profile_scan)
    print(
        f"  {parity:5s}: pairings {['%.6f' % p for p in asym.pairings]} "
        f"-> {asym.limit:.6f}   (log-log slope {asym.slope:.2f})"
    )

print()
print(f"condensate particle count inside the trap at kappa = {kappa}:")
for parity, target in (("even", 1), ("odd", 3)):
    expo, counts = condensate_count_scaling(parity, kappa, solved.values())
    print(
        f"  {parity:5s}: counts {['%.3e' % c for c in counts]}, "
        f"growth exponent {expo:.3f} (limit {target})"
    )
