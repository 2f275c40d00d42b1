"""Separation-radius bounds and convergence-rate verification.

For error levels alpha, beta the squared minimax separation radius is pinned
between

  sup_D [ (ln(C_ab)/4) eps^2 sum_{k<=D} b_k^-2  AND  a_D^-2 ]      (lower)
  inf_D [ C_beta eps^2 sum_{k<=D} b_k^-2  +  a_D^-2 ]              (upper)

with C_ab = 1 + 4 (1 - alpha - beta)^2 and C_beta from the detector
calibration.  The classical comparator replaces the variance term by
eps^2 sqrt(sum b_k^-4), which is what independent Gaussian noise would give.

`bounds_over_grid` evaluates all three over an eps grid with one scan per
bound, each a single pass over its spectrum for the whole grid; one eps is a
grid of one.  Rate checks fit the decay of these bounds against the
benchmark families on log-log axes and compare the fitted exponent with the
known rate laws.

Scope: every lower bound here rests on Gaussian constructions (E xi^4 = 3),
so an in-class construction backs it only for C >= 3.  Below that, as in
``configs/rates.cfg`` at C = 1, a rate fit checks the formulas only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    eps_sq_grid,
    scan_spectrum,
)

_PREASYMPTOTIC_DROP = 2

LOG_EPS = "log_eps"
LOG_LOG_EPS = "log_log_eps"
FIT_MODES = (LOG_EPS, LOG_LOG_EPS)


def c_alpha_beta(alpha: float, beta: float) -> float:
    """Divergence budget 1 + 4 (1 - alpha - beta)^2 of the two-point argument."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("alpha and beta must lie in (0, 1)")
    if alpha + beta >= 1.0:
        raise ValueError(f"the lower bound requires alpha + beta < 1, got {alpha!r} + {beta!r}")
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
    """(value, D) of one scan, warning with ``message`` when it is truncated;
    the warning points at the line that called `bounds_over_grid`."""
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
        # a coefficient whose eps^2 underflows to 0 is 0 at an inf sum too,
        # not 0 * inf = NaN, so the maximising corner can freeze its row
        if np.isinf(sums).any():
            vals[np.isnan(vals)] = 0.0
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


@dataclass(frozen=True)
class RadiusBounds:
    """The bounds at one eps of a grid: the two-sided bracket on the squared
    separation radius, the classical comparator, and their bandwidths."""

    lower_r2: float
    upper_r2: float
    classical_r2: float
    d_lower: int
    d_upper: int
    d_classical: int


def bounds_over_grid(
    spec: ProblemSpec,
    eps_grid: Iterable[float],
    alpha: float,
    beta: float,
    c_beta: float | None = None,
) -> list[RadiusBounds]:
    """Both radius bounds and the classical comparator at every eps of a grid.

    The spec's own eps is not used; one eps is a grid of one.  Each of the
    three bounds is one pass over its spectrum for the whole grid, so the
    prefix sums are formed once per chunk rather than once per eps.
    ``c_beta`` defaults to `detector.solve_c_beta` at the spec's fourth
    moment bound; a caller's value must be a positive finite number of at
    least `lower_coefficient`, which keeps every lower term at or below every
    upper term.  A scan that stops on the scan limit warns, at the caller's
    line.  The ordering lower <= upper then always holds, so a violation is
    raised as an implementation bug rather than returned.
    """
    eps_grid = tuple(eps_grid)  # read by three scans
    if c_beta is None:
        constants = detector.derive_constants(spec.fourth_moment_bound, alpha)
        c_beta = detector.solve_c_beta(constants, beta)
    detector._check_c_beta(c_beta)
    coeff = lower_coefficient(alpha, beta)
    if c_beta < coeff:
        raise ValueError(
            f"calibration constant c_beta = {c_beta!r} is below the lower-bound "
            f"coefficient ln(C_ab)/4 = {coeff!r}, so the lower bound could exceed the upper"
        )
    uppers = detector.select_bandwidths(spec, c_beta, eps_grid)
    lowers = _lower_scans(spec, eps_grid, alpha, beta)
    classicals = _classical_scans(spec, eps_grid)
    out = []
    for upper_scan, lower_scan, classical_scan in zip(uppers, lowers, classicals):
        upper, d_upper = _checked(upper_scan, _UPPER_TRUNCATED)
        lower, d_lower = _checked(lower_scan, _LOWER_TRUNCATED)
        if lower > upper:
            raise RuntimeError(
                f"radius bounds out of order (lower {lower:.6g} > upper {upper:.6g}); "
                "this indicates an implementation bug"
            )
        classical, d_classical = _checked(classical_scan, _CLASSICAL_TRUNCATED)
        out.append(RadiusBounds(lower, upper, classical, d_lower, d_upper, d_classical))
    return out


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
    if not 0.0 < s < math.inf:
        raise ValueError("smoothness exponent must be positive and finite")
    if operator_kind != WELL_POSED and not 0.0 < t < math.inf:
        raise ValueError("ill-posed cells need a positive finite operator exponent")

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
