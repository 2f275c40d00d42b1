"""The spectral cut-off test.

The statistic ``T_D = sum_{k<=D} b_k^-2 (y_k^2 - eps^2)`` has mean
``sum_{k<=D} theta_k^2`` under every noise law with zero-mean, unit-variance
coordinates, so rejection of the null compares T_D against a threshold that
is calibrated through the Markov inequality from the fourth-moment class
constant C alone.  No quantiles are available in this noise class: only the
moment bound is known.

Derived constants (for noise class constant C and level alpha):

  C1 = C - 1            sharp bound on E[(xi^2 - 1)^2] over the class
  C2 = sqrt(C)          sharp bound on |E[xi^3]| (Cauchy-Schwarz)
  K1 = sqrt(2 C1) / sqrt(alpha)      threshold coefficient
  K2 = 10 + 5 C1 + 2 C2 + 12 sqrt(C1)  variance envelope coefficient

The type II calibration constant solves
``2 K2 / x / (1 - K1/x)^2 = beta``; its quadratic form is solved exactly, and
the practical fallback ``8 K2 / beta`` is exposed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .sequences import ProblemSpec, _inv_b_terms, eps_sq_grid, scan_bandwidths, sum_inv_b_sq

#: Configurations with 1 - K1/C_beta below this are flagged: the type II
#: guarantee constant blows up as the margin closes.
MARGIN_FLAG_LEVEL = 0.1


@dataclass(frozen=True)
class DetectorConstants:
    """Class-wide moment constants and the derived calibration coefficients."""

    c1: float
    c2: float
    k1: float
    k2: float
    alpha: float


def derive_constants(c: float, alpha: float) -> DetectorConstants:
    """Constants for fourth-moment bound ``c`` and type I level ``alpha``.

    ``alpha = 1`` is accepted as the degenerate no-control limit.
    """
    if not 1.0 <= c < math.inf:
        raise ValueError(
            f"fourth moment bound must be finite and at least 1 (unit variance), got {c!r}"
        )
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    c1 = c - 1.0
    c2 = math.sqrt(c)
    k1 = math.sqrt(2.0 * c1 / alpha)
    k2 = 10.0 + 5.0 * c1 + 2.0 * c2 + 12.0 * math.sqrt(c1)
    return DetectorConstants(c1=c1, c2=c2, k1=k1, k2=k2, alpha=alpha)


def threshold(constants: DetectorConstants, spec: ProblemSpec, d: int) -> float:
    """Markov-calibrated rejection threshold K1 * eps^2 * sum_{k<=d} b_k^-2."""
    return constants.k1 * spec.eps**2 * sum_inv_b_sq(spec, d)


def statistic(y: np.ndarray, spec: ProblemSpec, d: int) -> float:
    """Cut-off statistic T_d = sum_{k<=d} b_k^-2 (y_k^2 - eps^2)."""
    spec.check_bandwidth(d)
    obs = np.asarray(y, dtype=float)
    if obs.ndim != 1 or obs.shape[0] < d:
        raise ValueError(f"need at least {d} observations, got shape {obs.shape}")
    w = spec.operator.inv_sq_array(np.arange(1, d + 1))
    return float(w @ (obs[:d] * obs[:d] - spec.eps**2))


@dataclass(frozen=True)
class DetectorConfig:
    """Frozen, fully calibrated test: level, bandwidth, threshold, constants."""

    constants: DetectorConstants
    d: int
    threshold: float
    c_beta: float
    beta: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("bandwidth must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.c_beta <= self.constants.k1:
            raise ValueError("calibration constant must exceed K1")

    @property
    def margin(self) -> float:
        """1 - K1 / C_beta; small margins inflate the type II guarantee."""
        return 1.0 - self.constants.k1 / self.c_beta

    @property
    def margin_flagged(self) -> bool:
        return self.margin < MARGIN_FLAG_LEVEL


def decide(y: np.ndarray, config: DetectorConfig, spec: ProblemSpec) -> bool:
    """True = reject the null.  The boundary T_d == threshold rejects."""
    return statistic(y, spec, config.d) >= config.threshold


def c_beta_residual(constants: DetectorConstants, c_beta: float) -> float:
    """Left-hand side 2 K2/x / (1 - K1/x)^2 of the calibration equation."""
    if c_beta <= 0:
        raise ValueError("calibration constant must be positive")
    denom = 1.0 - constants.k1 / c_beta
    if denom == 0.0:
        return math.inf
    return (2.0 * constants.k2 / c_beta) / (denom * denom)


def solve_c_beta(constants: DetectorConstants, beta: float, mode: str = "exact") -> float:
    """Calibration constant solving 2 K2/x / (1 - K1/x)^2 = beta.

    ``exact`` returns the largest root of the equivalent quadratic
    ``beta x^2 - (2 beta K1 + 2 K2) x + beta K1^2 = 0``, which always
    exceeds K1.  ``practical`` returns 8 K2 / beta, valid whenever its
    residual does not exceed beta (guaranteed for beta small enough).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    k1, k2 = constants.k1, constants.k2
    if mode == "exact":
        p = beta * k1 + k2
        return (p + math.sqrt(p * p - (beta * k1) ** 2)) / beta
    if mode == "practical":
        value = 8.0 * k2 / beta
        if value <= k1 or c_beta_residual(constants, value) > beta * (1.0 + 1e-9):
            raise ValueError(
                f"practical constant 8*K2/beta = {value:.6g} does not satisfy the "
                f"calibration inequality at beta = {beta:.6g}"
            )
        return value
    raise ValueError(f"unknown calibration mode {mode!r}")


class BandwidthSelection(NamedTuple):
    d: int
    value: float
    truncated: bool


def select_bandwidths(
    spec: ProblemSpec, c_beta: float, eps_grid: Iterable[float]
) -> list[BandwidthSelection]:
    """Bandwidths minimising the radius objective c_beta eps^2 sum b^-2 + a_D^-2,
    one per noise level of ``eps_grid`` (the spec's own eps is not used).

    Exact integer search up to the spec's bandwidth limit, in one pass over
    the spectrum for the whole grid; each objective stops once it stops
    improving, and ties go to the smaller bandwidth.  ``truncated`` marks
    minimisers that sit on the scan limit, where the reported optimum is
    suspect.  The objective is non-decreasing in the sum and non-increasing
    in D, as `scan_bandwidths` requires to skip ahead over a constant term.
    """
    if not c_beta > 0:
        raise ValueError("calibration constant must be positive")
    coeffs = c_beta * eps_sq_grid(eps_grid)
    smooth = spec.smoothness

    def value_fn(ks: np.ndarray, sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
        vals = coeffs[rows, np.newaxis] * sums
        vals += smooth.inv_sq_array(ks)
        return vals

    results = scan_bandwidths(
        _inv_b_terms(spec.operator, 2), value_fn, spec.bandwidth_limit, coeffs.size
    )
    return [BandwidthSelection(*result) for result in results]


def select_bandwidth(spec: ProblemSpec, c_beta: float) -> BandwidthSelection:
    """`select_bandwidths` at the spec's own eps."""
    (selection,) = select_bandwidths(spec, c_beta, [spec.eps])
    return selection


def calibrate(
    spec: ProblemSpec,
    alpha: float,
    beta: float,
    d: int | None = None,
    c_beta_mode: str = "exact",
) -> DetectorConfig:
    """Assemble a ready-to-run test for the given spec and error levels.

    The bandwidth defaults to the radius-objective minimiser; pass ``d`` to
    pin it explicitly.
    """
    constants = derive_constants(spec.fourth_moment_bound, alpha)
    c_beta = solve_c_beta(constants, beta, mode=c_beta_mode)
    if d is None:
        d = select_bandwidth(spec, c_beta).d
    spec.check_bandwidth(d)
    return DetectorConfig(
        constants=constants,
        d=int(d),
        threshold=threshold(constants, spec, int(d)),
        c_beta=c_beta,
        beta=beta,
    )
