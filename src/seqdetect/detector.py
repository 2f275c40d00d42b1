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

The one type II calibration constant C_beta solves
``2 K2 / x / (1 - K1/x)^2 = beta``; `solve_c_beta` solves its quadratic form
exactly and refuses a root that is not a finite number above K1, so every
caller gets a usable constant or a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sequences import (
    ProblemSpec,
    ScanResult,
    _is_count,
    eps_sq_grid,
    inv_b_sq_weights,
    scan_spectrum,
    sum_inv_b_sq,
)


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
    w = inv_b_sq_weights(spec, d)
    obs = np.asarray(y, dtype=float)
    if obs.ndim != 1 or obs.shape[0] < d:
        raise ValueError(f"need at least {d} observations, got shape {obs.shape}")
    if not np.isfinite(obs[:d]).all():
        raise ValueError(f"the observations y_k are not finite at every k <= D = {d}")
    return float(w @ (obs[:d] * obs[:d] - spec.eps**2))


@dataclass(frozen=True)
class DetectorConfig:
    """Frozen, fully calibrated test: level, bandwidth, threshold, constants."""

    constants: DetectorConstants
    d: int
    threshold: float
    c_beta: float

    def __post_init__(self) -> None:
        if not _is_count(self.d):
            raise ValueError(f"bandwidth must be a positive integer, got {self.d!r}")
        if not self.constants.k1 < self.c_beta < math.inf:
            raise ValueError("calibration constant must be finite and exceed K1")
        # b_D^-2 is a term of the threshold's sum, so a finite threshold
        # also keeps 1/b_D finite
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold at D = {self.d} must be finite, got {self.threshold!r}")


def decide(y: np.ndarray, config: DetectorConfig, spec: ProblemSpec) -> bool:
    """True = reject the null.  The boundary T_d == threshold rejects."""
    return statistic(y, spec, config.d) >= config.threshold


def c_beta_residual(constants: DetectorConstants, c_beta: float) -> float:
    """Left-hand side 2 K2/x / (1 - K1/x)^2 of the calibration equation."""
    if not c_beta > 0:  # NaN too
        raise ValueError("calibration constant must be positive")
    denom = 1.0 - constants.k1 / c_beta
    if denom == 0.0:
        return math.inf
    return (2.0 * constants.k2 / c_beta) / (denom * denom)


def solve_c_beta(constants: DetectorConstants, beta: float) -> float:
    """Calibration constant solving 2 K2/x / (1 - K1/x)^2 = beta.

    The largest root of the equivalent quadratic
    ``beta x^2 - (2 beta K1 + 2 K2) x + beta K1^2 = 0``, which exceeds K1 in
    exact arithmetic.  A root that is not a finite number above K1 in double
    precision (a tiny alpha puts it on K1, or K1 overflows) raises ValueError.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    k1, k2 = constants.k1, constants.k2
    p = beta * k1 + k2
    root = (p + math.sqrt(p * p - (beta * k1) ** 2)) / beta
    if not k1 < root < math.inf:
        raise ValueError(
            f"the calibration constant c_beta = {root:.17g} is not a finite number above "
            f"K1 = {k1:.17g}; C or the levels are too extreme"
        )
    return root


def _check_c_beta(c_beta: float) -> None:
    """Refuse a calibration constant that is not a positive finite number."""
    if not 0.0 < c_beta < math.inf:
        raise ValueError(
            f"calibration constant c_beta must be a positive finite number, got {c_beta!r}"
        )


def select_bandwidths(
    spec: ProblemSpec, c_beta: float, eps_grid: Iterable[float]
) -> list[ScanResult]:
    """Bandwidths minimising the radius objective c_beta eps^2 sum b^-2 + a_D^-2,
    one per noise level of ``eps_grid`` (the spec's own eps is not used), from
    one `scan_spectrum` pass; ``truncated`` marks a minimiser on the scan
    limit, where the reported optimum is suspect.  A ``c_beta`` that is not
    a positive finite number raises ValueError; one at or below K1 is
    accepted, since the objective is defined for any positive constant.
    """
    _check_c_beta(c_beta)
    with np.errstate(over="ignore"):
        # an overflowed coefficient makes its objective +inf at every D
        coeffs = c_beta * eps_sq_grid(eps_grid)
    smooth = spec.smoothness

    def value_fn(ks: np.ndarray, sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
        vals = coeffs[rows, np.newaxis] * sums
        vals += smooth.inv_sq_array(ks)
        return vals

    return scan_spectrum(spec, 2, value_fn, coeffs.size)


def select_bandwidth(spec: ProblemSpec, c_beta: float) -> ScanResult:
    """`select_bandwidths` at the spec's own eps.  An objective that is +inf
    at every bandwidth (its scan then reports D = 0) leaves none to select
    and raises ValueError."""
    (selection,) = select_bandwidths(spec, c_beta, [spec.eps])
    if selection.d == 0:
        raise ValueError(
            f"at eps = {spec.eps:.17g} the upper bound overflows at every bandwidth; "
            "the operator scale or the noise level is too extreme"
        )
    return selection


def calibrate(
    spec: ProblemSpec,
    alpha: float,
    beta: float,
    d: int | None = None,
) -> DetectorConfig:
    """Assemble a ready-to-run test for the given spec and error levels.

    The bandwidth defaults to the radius-objective minimiser; pass ``d`` to
    pin it explicitly.
    """
    constants = derive_constants(spec.fourth_moment_bound, alpha)
    c_beta = solve_c_beta(constants, beta)
    if d is None:
        d = select_bandwidth(spec, c_beta).d
    spec.check_bandwidth(d)
    return DetectorConfig(
        constants=constants,
        d=int(d),
        threshold=threshold(constants, spec, int(d)),
        c_beta=c_beta,
    )
