"""Coordinate-swap invariance bounds with Monte Carlo verification.

The package computes single-coordinate influence measures of smooth
functions, evaluates the swap bounds they imply for inputs with matched
first and second moments, smooths maxima of finite function families with
log-sum-exp, and verifies every bound numerically on three applications:
Wigner-matrix Stieltjes transforms, Sherrington-Kirkpatrick free energy and
ground state, and maxima of random-walk partial sums.
"""

__version__ = "0.1.0"

from .core import (
    BoundTerms,
    GapReport,
    InfiniteGammaError,
    LambdaEstimate,
    LindebergError,
    SmoothFunction,
    TestFunction,
    c_constants,
    clt_experiment,
    estimate_lambda,
    evaluate_bound,
    fd_partial,
    mean_function,
    swap_bound,
    test_function,
    third_moment_bound,
)
from .distributions import (
    CEXP,
    GAUSSIAN,
    RADEMACHER,
    UNIFORM,
    DistributionSpec,
    Family,
    pareto,
    parse_spec,
    third_abs_moment,
    truncated_second_moment,
    truncated_third_moment,
)
from .rng import RandomStream, experiment_code
from .sk import (
    CouplingLayout,
    SKParams,
    free_energy,
    free_energy_lambda,
    ground_state,
    sk_experiment,
    sk_family,
)
from .smoothmax import (
    FunctionFamily,
    coordinate_chain,
    k_constant,
    max_swap_bound,
    optimized_max_bound,
    smoothed_lambda_bounds,
    softmax_state,
)
from .walks import (
    erdos_kac_experiment,
    half_normal_reference,
    max_partial_sums,
    walk_family,
)
from .wigner import (
    WignerLayout,
    build_matrix,
    derivative_bounds,
    pastur_term,
    resolvent,
    semicircle_experiment,
    semicircle_stieltjes,
    stieltjes,
)
