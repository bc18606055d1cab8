"""displab: a finite-volume spectral laboratory for random displacement models.

The package discretizes -Delta + p + sum_gamma q(x - gamma - lam omega_gamma)
on periodic boxes, analyzes its Floquet fibers at constant displacement,
certifies the structural hypotheses behind band-edge localization proofs
(unique corner minimizer, quadratic growth, spectral gap per coupling,
radial density regularity), builds signed lattice comparison operators that
pinch the full operator from both sides, and drives Monte-Carlo studies of
the integrated density of states, its band-edge tail, and eigenvalue
proximity statistics.
"""

__version__ = "0.1.0"

from .assumptions import (
    CoercivityReport,
    FieldMinimizerReport,
    MinimizerCertificate,
    coercivity_constant,
    exhaustive_field_scan,
    gap_ratio_table,
    minimize_over_field,
    minimize_over_support,
    robust_linear_minimizer,
)
from .discretize import (
    DiagonalStack,
    GridSpec,
    LatticeOperator,
    assemble_fiber,
    assemble_periodic,
    free_fiber_eigenvalues,
)
from .eigensolve import (
    EigenResult,
    SymmetricOperator,
    count_below,
    count_below_stack,
    ground_bisect,
    smallest_eigenpairs,
)
from .floquet import (
    BandBottom,
    DegenerateBandError,
    ProjectorPack,
    band_bottom,
    band_table,
    build_projectors,
    dispersion_symbol,
    feynman_hellmann_residual,
    fiber_ground,
    gradient_limit_check,
    v_vector,
)
from .potentials import (
    FieldChunk,
    PeriodicPotential,
    SingleSitePotential,
    constant_field,
    eval_total_potential,
    periodic_family,
    single_site_family,
    site_lattice,
)
from .randomfields import (
    DisplacementDistribution,
    radial_density_bound,
    sample_fields,
    site_rng,
)
from .reduced import (
    ReducedModel,
    band_symbol_ratio,
    build_reduced,
    calibrate_sandwich,
    ground_zero_iff_constant,
    sandwich_check,
    sandwich_operators,
    symbol_kinetic,
)
from .spectral_stats import (
    ContinuumFamily,
    IDSCurve,
    IDSSandwichReport,
    ReducedFamily,
    WegnerRecord,
    WegnerReport,
    count_rows,
    lifshitz_fit,
    lifshitz_rows,
    sandwich_families,
    synthetic_tail_curve,
    wegner_report,
    wegner_rows,
)
from . import supports
