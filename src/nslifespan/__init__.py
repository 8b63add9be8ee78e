"""Certified lower bounds for the lifespan of mild Navier-Stokes solutions.

The package evaluates the explicit sharp constants of the heat-semigroup
convolution estimates, solves the associated quadratic recurrence
fixed-point systems for the largest certifiable horizon T0, and emits
machine-replayable certificates; it also evaluates the weighted mixed-norm
a-priori bounds on the solution and two extensions (external forces, the
abstract parabolic contraction rule).
"""

__version__ = "0.1.0"

from .constants import (
    DELTA0,
    ConstantSet,
    ExponentPair,
    beta_fn,
    composite_constants,
    default_delta_grid,
    gamma_fn,
    heat_kernel_grad_norm,
    heat_kernel_norm,
    riesz_constant,
    sobolev_constant,
    young_constant,
)
from .errors import DomainError, InfeasibleExponentError, UnavailableBoundError
from .extensions import (
    AbstractParabolicProblem,
    ForceNorm,
    abstract_parabolic_lifespan,
    force_contribution_k0,
    force_contribution_k0_prime,
    forced_lifespan,
)
from .initial_data import (
    NormBundle,
    PowerBound,
    VortexGaussian,
    grad_norm,
    k0_exact,
    k0_norm_bound,
    k0_prime_exact,
    k0_prime_norm_bound,
    lp_norm,
    norm_bundle_from_vortex,
)
from .lifespan import (
    KatoBoundState,
    KatoEvaluator,
    LifespanCertificate,
    global_certificate,
    global_smallness_threshold,
    optimize_delta,
    replay_certificate,
    state_from_norms,
    state_from_vortex,
    theorem31_bound,
    theorem41_bound,
    theorem41_explicit,
)
from .mixed_norms import (
    SolutionNormInputs,
    ThetaExponents,
    grand_lebesgue_norm,
    nu_bound,
    psi_bound,
    psi_min,
)
from .recurrence import coupled_bound
