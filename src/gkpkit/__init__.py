"""Numerical toolkit for constructing, evaluating and measuring logical
GKP qubit target operators and their finite-dimensional ground states."""

from .analysis import (
    ExtrapolationResult,
    RegressionStats,
    extrapolate_slope,
    ksg_mutual_information,
    regression_per_cutoff,
)
from .bloch import (
    Atlas,
    angles_to_bloch,
    bloch_to_angles,
    core_states,
    logical_infidelity,
    order_greedy,
    sample_sphere,
)
from .errors import (
    DegenerateInputError,
    GkpError,
    InvalidArgumentError,
    MassDeficitError,
    NumericalFailureError,
    SchemaVersionError,
)
from .fock import (
    cosine_of_quadrature,
    displacement_matrix,
    expectation,
    ground_state,
    quadrature_matrix,
    sine_of_quadrature,
)
from .gaussian import (
    GaussianPureParams,
    covariance_from_params,
    gaussian_R,
    gaussian_bound,
    gaussian_expectation,
    minimize_over_gaussians,
)
from .homodyne import (
    QuadratureSamples,
    WitnessEstimate,
    estimate_witness,
    rotated_wavefunction,
    sample_quadrature,
)
from .operators import (
    GkpOperatorSet,
    analytic_complement,
    build_operator_set,
    gkp_operator,
    reduced_zero_operator,
    stabilizer,
)
from .sweep import (
    SweepRecord,
    logical_subspace_identity_check,
    normalize_matrix,
    run_sweep,
)
from .wigner import WignerGrid, marginal_x

__version__ = "0.1.0"
