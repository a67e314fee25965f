"""
thermolim: a desk-scale numerical laboratory for the thermodynamic limit of
softly trapped, non-interacting Bose gases.

The library verifies, with exact truncated-Fock-space oracles, that

- trapped single-particle dynamics converges to the free dynamics as the
  trap radius grows, faster than any inverse power of the radius;
- thermal correlation functions of the trapped gas converge to the
  homogeneous equilibrium ones;
- coherent condensate modes develop flat (even), linear (odd) and axial
  (3D, l = 1) spatial profiles in the limit, with particle counts growing
  like R and R^3;
- saturation of the chemical potential empties number resolvents exactly on
  test functions with nonzero mean;
- condensates leave a permanent plateau in temporal correlations while the
  thermal contribution decays.

Modules: grids (discretization, test functions, Fourier transforms),
hamiltonians (tridiagonal operators and eigensolvers), propagators (time
evolution and gap scans), quasifree (thermal states and expectations),
fock (exact truncated second quantization), condensates (limit profiles),
lab (experiment runner behind the `thermolim` command line).
"""

from .grids import (
    Grid1D,
    RadialGrid,
    WaveFunction,
    bump,
    fourier_at,
    inner,
    make_grid,
)
from .hamiltonians import (
    PotentialSpec,
    SpectralDecomposition,
    TridiagonalOperator,
    assemble,
    diagonalize,
    radial_assemble,
    soft_wall_trap,
    trap_operator,
)
from .propagators import (
    DecayReport,
    duhamel_bound,
    evolve_chebyshev,
    evolve_chebyshev_batch,
    evolve_free,
    evolve_spectral,
    gap_decay_scan,
    observable_gap_bound,
)
from .quasifree import (
    HomogeneousState,
    QuasifreeState,
    RadialFunction3D,
    field_resolvent_value,
    homogeneous_density,
    momentum_weight,
    mu_limit_scan,
    number_resolvent_expectation,
    position_density,
    probe_density,
    temporal_correlation,
    thermal_decomposition,
)
from .fock import (
    FockSpace,
    build_fock,
    gibbs_number_resolvent,
    number_resolvent_matrix,
    resolvent_pair_sector_norm,
    sector_norm_monotonicity,
)
from .condensates import (
    ModeAsymptotics,
    RadialProfile,
    TrapModes,
    axial_shape,
    axial_trap_mode,
    condensate_count_scaling,
    l1_profile_check,
    smeared_mode_limit,
    trap_mode,
)

__version__ = "0.1.0"
