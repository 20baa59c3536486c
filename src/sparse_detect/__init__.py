"""Sparse mixture detection: boundaries, adaptive tests, phase diagrams.

The package computes exact and numeric detection boundaries for sparse
mixture testing problems, implements the higher-criticism, likelihood
ratio, and maximum decision rules, and ships a seeded Monte-Carlo
harness that maps empirical phase diagrams against the theory.
"""

from .boundary import (
    AdmissibilityReport,
    BoundaryResult,
    ExponentFunction,
    alpha_family,
    beta_convolution,
    beta_sharp,
    beta_star_general,
    boundary_closed_form,
    check_admissible,
    ess_sup_grid,
    exponent_from_csv,
    gamma_from_alpha,
    hc_achievable_boundary,
    hellinger_exponent,
    laplace_log_integral,
    tail_exponent,
)
from .dists import (
    Dilated,
    Distribution,
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
    Shifted,
    SparseMixture,
    epsilon_from_beta,
    from_spec,
    log_likelihood_ratio,
    mu_from_r,
    to_spec,
)
from .divergence import (
    DecomposedAlternative,
    decompose_alternative,
    error_sum,
    hellinger_sq,
    hellinger_tensorize,
    mixture_hellinger_singular,
    total_variation,
    tv_hellinger_bounds,
)
from .hctest import (
    HCResult,
    hc_decision,
    hc_statistic,
    hc_test,
    hc_threshold,
    lr_test,
    max_test,
    vn_statistic,
)
from .rng import stream
from .sim import (
    ExperimentConfig,
    GammaDiagnostic,
    PhaseCell,
    PhaseTable,
    estimate_gamma,
    family_mixture,
    phase_sweep,
    run_cell,
    wilson_halfwidth,
)

__version__ = "0.1.0"
