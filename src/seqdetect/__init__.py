"""Minimax signal detection in the sequence model y_k = b_k theta_k + eps xi_k
under noise that is only assumed to have bounded fourth moments.

Public surface: problem geometry (`sequences`), noise families (`noise`), the
calibrated spectral cut-off test (`detector`), separation-radius bounds and
rate checks (`bounds`), Monte Carlo verification (`montecarlo`), and a batch
experiment runner (`cli`).
"""

from .sequences import (
    OperatorFamily,
    ProblemSpec,
    Signal,
    SmoothnessFamily,
    bias_term,
    boundary_signal,
    ellipsoid_membership,
    sum_inv_b_4,
    sum_inv_b_sq,
)
from .noise import (
    AdversarialEquicorrelated,
    CorrelatedGaussian,
    CorrelationMatrix,
    IidGaussian,
    IidRademacher,
    IidScaledUniform,
    LongRangeGaussian,
    NoiseModel,
    adversarial_sigma,
    isserlis_cov_sq,
    long_range_correlation,
    null_variance_decomposition,
    validate_moments,
)
from .detector import (
    DetectorConfig,
    DetectorConstants,
    calibrate,
    decide,
    derive_constants,
    select_bandwidth,
    select_bandwidths,
    solve_c_beta,
    statistic,
    threshold,
)
from .bounds import (
    RadiusBounds,
    bounds_over_grid,
    RateFit,
    fit_rate,
    rate_law,
)
from .montecarlo import (
    McEstimate,
    chi_sq_divergence,
    empirical_separation_radius,
    estimate_type1,
    estimate_type2,
    guaranteed_detectable_signal,
    worst_case_signal,
)

__version__ = "0.1.0"
