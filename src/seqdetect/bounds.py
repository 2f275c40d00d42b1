"""Separation-radius bounds and convergence-rate verification.

For error levels alpha, beta the squared minimax separation radius is pinned
between

  sup_D [ (ln(C_ab)/4) eps^2 sum_{k<=D} b_k^-2  AND  a_D^-2 ]      (lower)
  inf_D [ C_beta eps^2 sum_{k<=D} b_k^-2  +  a_D^-2 ]              (upper)

with C_ab = 1 + 4 (1 - alpha - beta)^2 and C_beta from the detector
calibration.  The classical comparator replaces the variance term by
eps^2 sqrt(sum b_k^-4), which is what independent Gaussian noise would give.

`bounds_over_grid` evaluates all three over an eps grid with one scan per
bound, each a single pass over its spectrum for the whole grid; the per-eps
functions are that computation on a grid of one.  Rate checks fit the decay
of these bounds against the benchmark families on log-log axes and compare
the fitted exponent with the known rate laws.

Scope: every lower bound here rests on Gaussian constructions (E xi^4 = 3),
so an in-class construction backs it only for C >= 3.  Below that, as in
``configs/rates.cfg`` at C = 1, a rate fit checks the formulas only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import detector
from .sequences import (
    CUSTOM,
    MILDLY_ILL_POSED,
    ORDINARY_SMOOTH,
    SEVERELY_ILL_POSED,
    SUPER_SMOOTH,
    WELL_POSED,
    ProblemSpec,
    ScanResult,
    _is_count,
    eps_sq_grid,
    scan_spectrum,
)

_RATIO_FLOOR = 1e-6
_PREASYMPTOTIC_DROP = 2

LOG_EPS = "log_eps"
LOG_LOG_EPS = "log_log_eps"
FIT_MODES = (LOG_EPS, LOG_LOG_EPS)


def c_alpha_beta(alpha: float, beta: float) -> float:
    """Divergence budget 1 + 4 (1 - alpha - beta)^2 of the two-point argument."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("alpha and beta must lie in (0, 1)")
    if alpha + beta >= 1.0:
        raise ValueError("the lower bound requires alpha + beta < 1")
    gap = 1.0 - alpha - beta
    return 1.0 + 4.0 * gap * gap


def lower_coefficient(alpha: float, beta: float) -> float:
    """Prefactor ln(C_ab) / 4 of the lower-bound variance term."""
    return math.log(c_alpha_beta(alpha, beta)) / 4.0


_UPPER_TRUNCATED = "upper-bound minimiser hit the scan limit D = {d}; value is suspect"
_LOWER_TRUNCATED = (
    "lower-bound maximiser hit the scan limit D = {d}; the bound is valid but may be loose"
)
_CLASSICAL_TRUNCATED = "classical-bound minimiser hit the scan limit D = {d}"


def _checked(result: ScanResult, message: str) -> tuple[float, int]:
    """(value, D) of one scan, warning with ``message`` when it is truncated."""
    if result.truncated:
        warnings.warn(message.format(d=result.d), stacklevel=3)
    return result.value, result.d


def _lower_scans(
    spec: ProblemSpec, eps_grid: Iterable[float], alpha: float, beta: float
) -> list[ScanResult]:
    """sup_D [min(coeff eps^2 sum b^-2, a_D^-2)] at every eps of the grid."""
    coeffs = lower_coefficient(alpha, beta) * eps_sq_grid(eps_grid)
    smooth = spec.smoothness

    def value_fn(ks: np.ndarray, sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
        vals = coeffs[rows, np.newaxis] * sums
        return np.minimum(vals, smooth.inv_sq_array(ks), out=vals)

    return scan_spectrum(spec, 2, value_fn, coeffs.size, maximize=True)


def _classical_scans(spec: ProblemSpec, eps_grid: Iterable[float]) -> list[ScanResult]:
    """inf_D [a_D^-2 + eps^2 sqrt(sum b^-4)] at every eps of the grid."""
    eps_sq = eps_sq_grid(eps_grid)
    smooth = spec.smoothness

    def value_fn(ks: np.ndarray, sums: np.ndarray, rows: np.ndarray) -> np.ndarray:
        vals = eps_sq[rows, np.newaxis] * np.sqrt(sums)
        vals += smooth.inv_sq_array(ks)
        return vals

    return scan_spectrum(spec, 4, value_fn, eps_sq.size)


def upper_radius_sq(spec: ProblemSpec, c_beta: float) -> tuple[float, int]:
    """inf_D [c_beta eps^2 sum b^-2 + a_D^-2] with its integer minimiser;
    `detector.select_bandwidth` raises when the objective is +inf at every D."""
    return _checked(detector.select_bandwidth(spec, c_beta), _UPPER_TRUNCATED)


def lower_radius_sq(spec: ProblemSpec, alpha: float, beta: float) -> tuple[float, int]:
    """sup_D [min(coeff eps^2 sum b^-2, a_D^-2)] with its integer maximiser."""
    (result,) = _lower_scans(spec, [spec.eps], alpha, beta)
    return _checked(result, _LOWER_TRUNCATED)


@dataclass(frozen=True)
class RadiusBounds:
    """Two-sided bracket on the squared separation radius."""

    lower_r2: float
    upper_r2: float
    d_lower: int
    d_upper: int
    c_lower: float
    c_beta: float


def _theorem1_grid(
    spec: ProblemSpec,
    eps_grid: Sequence[float],
    alpha: float,
    beta: float,
    c_beta: float | None,
) -> list[RadiusBounds]:
    """Both radius bounds at every eps of the grid, one scan per bound."""
    if c_beta is None:
        constants = detector.derive_constants(spec.fourth_moment_bound, alpha)
        c_beta = detector.solve_c_beta(constants, beta)
    uppers = detector.select_bandwidths(spec, c_beta, eps_grid)
    lowers = _lower_scans(spec, eps_grid, alpha, beta)
    c_lower = lower_coefficient(alpha, beta)
    out = []
    for upper_scan, lower_scan in zip(uppers, lowers):
        upper, d_upper = _checked(upper_scan, _UPPER_TRUNCATED)
        lower, d_lower = _checked(lower_scan, _LOWER_TRUNCATED)
        if lower > upper:
            raise RuntimeError(
                f"radius bounds out of order (lower {lower:.6g} > upper {upper:.6g}); "
                "this indicates an implementation bug"
            )
        out.append(
            RadiusBounds(
                lower_r2=lower,
                upper_r2=upper,
                d_lower=d_lower,
                d_upper=d_upper,
                c_lower=c_lower,
                c_beta=c_beta,
            )
        )
    return out


def theorem1_bounds(
    spec: ProblemSpec,
    alpha: float,
    beta: float,
    c_beta: float | None = None,
) -> RadiusBounds:
    """Assemble both radius bounds; the ordering lower <= upper always holds.

    A violated ordering is mathematically impossible, so it is raised as an
    implementation bug rather than returned.
    """
    (rb,) = _theorem1_grid(spec, [spec.eps], alpha, beta, c_beta)
    return rb


def classical_upper_radius_sq(spec: ProblemSpec) -> tuple[float, int]:
    """inf_D [a_D^-2 + eps^2 sqrt(sum b^-4)]: the independent-noise comparator.

    This is the radius scaling the test achieves once the cross terms of the
    statistic's variance are negligible next to the diagonal ones (decaying
    correlations).
    """
    (result,) = _classical_scans(spec, [spec.eps])
    return _checked(result, _CLASSICAL_TRUNCATED)


class GridBounds(NamedTuple):
    """Theorem 1 bounds and the classical comparator at one eps of a grid."""

    bounds: RadiusBounds
    classical_r2: float
    d_classical: int


def bounds_over_grid(
    spec: ProblemSpec,
    eps_grid: Sequence[float],
    alpha: float,
    beta: float,
    c_beta: float | None = None,
) -> list[GridBounds]:
    """`theorem1_bounds` and `classical_upper_radius_sq` at every eps of a grid.

    The spec's own eps is not used.  Each of the three bounds is one pass over
    its spectrum for the whole grid, so the prefix sums are formed once per
    chunk rather than once per eps; values, bandwidths and truncation
    warnings are those of the per-eps functions.
    """
    radius_bounds = _theorem1_grid(spec, eps_grid, alpha, beta, c_beta)
    classicals = _classical_scans(spec, eps_grid)
    return [
        GridBounds(rb, *_checked(classical, _CLASSICAL_TRUNCATED))
        for rb, classical in zip(radius_bounds, classicals)
    ]


@dataclass(frozen=True)
class HypAbReport:
    """Extremes of the consecutive ratios a_{D-1}/a_D and b_{D-1}/b_D."""

    a_star: float
    a_sup: float
    b_star: float
    b_sup: float
    holds: bool


def check_hyp_ab(spec: ProblemSpec, d_probe: int = 64) -> HypAbReport:
    """Check that consecutive ratios of a and b stay in fixed positive ranges.

    When they do, the two radius bounds are of the same order.  Ratios are
    probed over D = 2..d_probe, capped by the bandwidth limit, which must
    leave at least D = 2; `holds` requires every ratio to stay within
    [1e-6, 1e6].  Power-exponential growth (for example a_k = exp(s k^2))
    drives the a-ratio to 0 and fails the check.
    """
    if not _is_count(d_probe, 2) or spec.bandwidth_limit < 2:
        raise ValueError(
            "need an integer d_probe and the bandwidth limit both >= 2 to form "
            f"consecutive ratios, got d_probe = {d_probe!r} and limit {spec.bandwidth_limit}"
        )
    probe = min(d_probe, spec.bandwidth_limit)
    a_ratios = [spec.smoothness.consecutive_ratio(k) for k in range(2, probe + 1)]
    b_ratios = [spec.operator.consecutive_ratio(k) for k in range(2, probe + 1)]
    a_star, a_sup = min(a_ratios), max(a_ratios)
    b_star, b_sup = min(b_ratios), max(b_ratios)
    holds = (
        min(a_star, b_star) >= _RATIO_FLOOR and max(a_sup, b_sup) <= 1.0 / _RATIO_FLOOR
    )
    return HypAbReport(a_star=a_star, a_sup=a_sup, b_star=b_star, b_sup=b_sup, holds=holds)


@dataclass(frozen=True)
class RateFit:
    """Least-squares rate fit on transformed axes.

    The two grid points with the largest eps are excluded from the regression
    as pre-asymptotic; ``grid`` records the full input.
    """

    exponent: float
    intercept: float
    r_squared_of_fit: float
    grid: tuple[tuple[float, float], ...]


def fit_rate(
    values: Sequence[tuple[float, float]],
    mode: str,
    eps_power_offset: float = 0.0,
) -> RateFit:
    """Fit log r^2 (minus an optional eps-power) against the chosen abscissa.

    mode ``log_eps`` regresses on log eps (pure power laws); ``log_log_eps``
    regresses on log log(1/eps) (logarithmic rates).  For mixed rates of the
    form eps^p * (log 1/eps)^q, pass ``eps_power_offset=p`` with mode
    ``log_log_eps`` to isolate the logarithmic exponent q.
    """
    if mode not in FIT_MODES:
        raise ValueError(f"unknown fit mode {mode!r}")
    pts = [(float(e), float(v)) for e, v in values]
    if len(pts) < 5:
        raise ValueError("rate fitting needs at least 5 grid points")
    eps = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    if not (np.all((eps > 0) & (eps < math.inf)) and np.all(np.diff(eps) < 0)):  # NaN too
        raise ValueError("eps grid must be positive, finite and strictly decreasing")
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("rate values must be positive and finite")
    if not math.isfinite(eps_power_offset):
        raise ValueError(f"eps power offset must be finite, got {eps_power_offset!r}")

    eps = eps[_PREASYMPTOTIC_DROP:]
    vals = vals[_PREASYMPTOTIC_DROP:]
    if mode == LOG_EPS:
        x = np.log(eps)
    else:
        if np.any(eps >= 1.0):
            raise ValueError("log-log fitting needs eps < 1")
        x = np.log(np.log(1.0 / eps))
    y = np.log(vals) - eps_power_offset * np.log(eps)
    if np.ptp(x) <= 0:
        raise ValueError("degenerate grid: abscissa has no spread")

    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        exponent=float(slope),
        intercept=float(intercept),
        r_squared_of_fit=r_sq,
        grid=tuple(pts),
    )


@dataclass(frozen=True)
class RateLaw:
    """How a benchmark cell's squared radius decays, and how to fit it."""

    mode: str
    eps_power_offset: float
    exponent: float


def rate_law(operator_kind: str, smoothness_kind: str, *, s: float, t: float = 0.0) -> RateLaw:
    """Known decay law of the squared separation radius for a benchmark cell.

    Pure powers of eps are fitted directly; cells whose radius carries a
    logarithmic factor are fitted on log log(1/eps), after removing the eps^2
    prefactor where present.
    """
    if operator_kind == CUSTOM or smoothness_kind == CUSTOM:
        raise ValueError("rate laws are defined for the named families only")
    if not s > 0:
        raise ValueError("smoothness exponent must be positive")
    if operator_kind != WELL_POSED and not t > 0:
        raise ValueError("ill-posed cells need a positive operator exponent")

    if smoothness_kind == ORDINARY_SMOOTH:
        if operator_kind == WELL_POSED:
            return RateLaw(LOG_EPS, 0.0, 4.0 * s / (2.0 * s + 1.0))
        if operator_kind == MILDLY_ILL_POSED:
            return RateLaw(LOG_EPS, 0.0, 4.0 * s / (2.0 * s + 2.0 * t + 1.0))
        if operator_kind == SEVERELY_ILL_POSED:
            return RateLaw(LOG_LOG_EPS, 0.0, -2.0 * s)
    if smoothness_kind == SUPER_SMOOTH:
        if operator_kind == WELL_POSED:
            return RateLaw(LOG_LOG_EPS, 2.0, 1.0)
        if operator_kind == MILDLY_ILL_POSED:
            return RateLaw(LOG_LOG_EPS, 2.0, 2.0 * t + 1.0)
        if operator_kind == SEVERELY_ILL_POSED:
            return RateLaw(LOG_EPS, 0.0, 4.0 * s / (2.0 * s + 2.0 * t))
    raise ValueError(f"no rate law for ({operator_kind}, {smoothness_kind})")
