"""Replicated simulation of the full testing pipeline.

Type I / type II error rates are estimated by exact rejection counting over
independent replications.  Replications run in fixed-size blocks: block b
draws the noise of all its rows from one stream derived from (seed, b), and
the statistic of the whole block is one matrix-vector product.  The block
size depends on the bandwidth alone, so estimates are identical for any
thread count and any reduction order.

The module also carries the machinery of the two-point lower-bound argument:
the least-favourable signal aligned with an adversarial covariance, and the
chi-square divergence E_0[L^2] of the induced likelihood ratio, in closed
form and as a Monte Carlo cross-check.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import detector
from .noise import CorrelationMatrix, NoiseModel
from .sequences import (
    ProblemSpec,
    Signal,
    bias_term,
    boundary_signal,
    ellipsoid_membership,
    sum_inv_b_sq,
    within_cap,
)

_U64_MASK = (1 << 64) - 1
_MIN_REPS = 1_000
#: The likelihood-ratio moment estimator has finite variance only while the
#: divergence is moderate; both limits are enforced, not advisory.
_MC_DIVERGENCE_MAX_D = 5
_MC_DIVERGENCE_MAX_VALUE = 5.0
_MC_CHUNK = 1 << 17
#: Noise values per replication block of the error-rate estimates: a block
#: holds max(1, _MC_BLOCK_ELEMENTS // D) replications, a count fixed by D
#: alone and never by the thread count.
_MC_BLOCK_ELEMENTS = 1 << 13


def replication_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one replication block, keyed by (seed, block)."""
    if not 0 <= int(seed) <= _U64_MASK:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return np.random.default_rng((int(seed), int(block)))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo probability estimate with its provenance."""

    p_hat: float
    reps: int
    std_err: float
    seed: int
    wall_time: float


def _check_reps(reps: int) -> None:
    if reps < _MIN_REPS:
        raise ValueError(f"need at least {_MIN_REPS} replications, got {reps}")


def _count_rejections(
    spec: ProblemSpec,
    config: detector.DetectorConfig,
    model: NoiseModel,
    shift: np.ndarray | None,
    reps: int,
    seed: int,
    threads: int,
) -> int:
    """Number of replications with T_D >= threshold for y = shift + eps xi.

    Replications come in blocks of ``max(1, _MC_BLOCK_ELEMENTS // D)`` rows
    (the last block may be shorter); block b draws all its rows from
    ``replication_rng(seed, b)``.  Threads split the block indices and the
    per-block counts are integers, so the total is the same at any thread
    count.
    """
    d = config.d
    w = spec.operator.inv_sq_array(np.arange(1, d + 1))
    eps = spec.eps
    eps2 = eps**2
    thr = config.threshold
    rows = max(1, _MC_BLOCK_ELEMENTS // d)
    n_blocks = -(-reps // rows)

    def run_blocks(lo: int, hi: int) -> int:
        count = 0
        for b in range(lo, hi):
            n = min(rows, reps - b * rows)
            y = eps * model.sample_block(n, d, replication_rng(seed, b))
            if shift is not None:
                y += shift
            count += int(np.count_nonzero((y * y - eps2) @ w >= thr))
        return count

    if threads <= 1:
        return run_blocks(0, n_blocks)
    bounds = np.linspace(0, n_blocks, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_blocks, int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])]
        return sum(f.result() for f in futures)


def _estimate(count: int, reps: int, seed: int, start: float) -> McEstimate:
    p = count / reps
    return McEstimate(
        p_hat=p,
        reps=reps,
        std_err=math.sqrt(p * (1.0 - p) / reps),
        seed=int(seed),
        wall_time=time.perf_counter() - start,
    )


def estimate_type1(
    spec: ProblemSpec,
    config: detector.DetectorConfig,
    model: NoiseModel,
    reps: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Fraction of replications rejecting the null under theta = 0."""
    start = time.perf_counter()
    _check_reps(reps)
    spec.check_bandwidth(config.d)
    count = _count_rejections(spec, config, model, None, reps, seed, threads)
    return _estimate(count, reps, seed, start)


def estimate_type2(
    spec: ProblemSpec,
    config: detector.DetectorConfig,
    model: NoiseModel,
    theta: Signal,
    reps: int,
    seed: int,
    threads: int = 1,
) -> McEstimate:
    """Fraction of replications accepting the null under the given signal.

    The signal must belong to the smoothness ellipsoid.
    """
    start = time.perf_counter()
    _check_reps(reps)
    check = ellipsoid_membership(spec.smoothness, theta)
    if not check.inside:
        raise ValueError(
            f"signal lies outside the ellipsoid (weighted mass {check.value:.6g} > 1)"
        )
    d = config.d
    spec.check_bandwidth(d)
    shift = spec.operator.value_array(np.arange(1, d + 1)) * theta.array(d)
    count = _count_rejections(spec, config, model, shift, reps, seed, threads)
    return _estimate(reps - count, reps, seed, start)


@dataclass(frozen=True)
class AlternativeSignal:
    """Single-spike signal whose squared norm equals the type II radius."""

    signal: Signal
    d: int
    norm_sq: float
    coordinate: int


def guaranteed_detectable_signal(
    spec: ProblemSpec, c_beta: float, d: int | None = None
) -> AlternativeSignal:
    """Spike signal at the radius where the type II guarantee kicks in.

    The squared norm is c_beta eps^2 sum_{k<=D} b_k^-2 + a_D^-2 at the chosen
    bandwidth (the radius-objective minimiser by default).  That norm always
    exceeds the ellipsoid cap a_D^-2 at coordinate D itself, so the spike is
    placed at the largest coordinate <= D that keeps it inside the ellipsoid;
    the statistic's mean shift only involves the total mass below D, so the
    guarantee is unaffected by the placement.
    """
    if d is None:
        sel = detector.select_bandwidth(spec, c_beta)
        d = sel.d
        r_sq = sel.value
    else:
        spec.check_bandwidth(d)
        r_sq = c_beta * spec.eps**2 * sum_inv_b_sq(spec, d) + bias_term(spec, d)
    for j in range(d, 0, -1):
        if within_cap(r_sq, bias_term(spec, j)):
            return AlternativeSignal(
                signal=boundary_signal(spec, j, math.sqrt(r_sq)),
                d=int(d),
                norm_sq=r_sq,
                coordinate=j,
            )
    raise ValueError(
        f"radius^2 {r_sq:.6g} exceeds the ellipsoid capacity a_1^-2 = "
        f"{bias_term(spec, 1):.6g}; no in-ellipsoid signal attains it"
    )


@dataclass(frozen=True)
class SeparationEstimate:
    """Bisection estimate of the empirical separation radius.

    ``bracketed`` is False when the type II curve never crosses beta inside
    [0, a_D^-1]: either the test is miscalibrated (type II <= beta at r = 0)
    or no in-ellipsoid spike at bandwidth D separates (type II > beta at the
    cap).
    """

    radius: float
    bracketed: bool
    d: int
    iterations: int


def empirical_separation_radius(
    spec: ProblemSpec,
    alpha: float,
    beta: float,
    model: NoiseModel,
    reps: int,
    seed: int,
    *,
    d: int | None = None,
    rel_tol: float = 0.02,
    max_iterations: int = 20,
    threads: int = 1,
) -> SeparationEstimate:
    """Smallest spike radius at which the empirical type II error drops to beta.

    Bisection over r in [0, a_D^-1] at the selected bandwidth D (pass ``d``
    to pin it), with common random numbers across probes (the same seed is
    reused, so the type II curve is monotone in r up to shared-randomness
    noise).
    """
    _check_reps(reps)
    config = detector.calibrate(spec, alpha, beta, d=d)
    d = config.d
    r_cap = math.sqrt(bias_term(spec, d))

    def type2_at(r: float) -> float:
        theta = boundary_signal(spec, d, r) if r > 0 else Signal.zero()
        return estimate_type2(spec, config, model, theta, reps, seed, threads).p_hat

    if type2_at(0.0) <= beta:
        return SeparationEstimate(radius=0.0, bracketed=False, d=d, iterations=0)
    if type2_at(r_cap) > beta:
        return SeparationEstimate(radius=r_cap, bracketed=False, d=d, iterations=0)

    lo, hi = 0.0, r_cap
    iterations = 0
    while iterations < max_iterations and (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if type2_at(mid) <= beta:
            hi = mid
        else:
            lo = mid
    return SeparationEstimate(radius=0.5 * (lo + hi), bracketed=True, d=d, iterations=iterations)


@dataclass(frozen=True)
class WorstCaseSignal:
    """Signal aligned with the adversarial covariance direction.

    theta_k = r b_k^-1 (Sigma v)_k / rho for k <= D with v = (1/sqrt(D), ...),
    rho^2 = sum_k b_k^-2 (Sigma v)_k^2, so the norm is exactly r.
    """

    theta_star: Signal
    rho_sq: float
    direction: np.ndarray


def direction_stats(
    spec: ProblemSpec, d: int, sigma_star: CorrelationMatrix
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(v, Sigma v, rho^2, v' Sigma v) for the flat unit direction v_k = 1/sqrt(D).

    These are the two quantities the lower-bound argument actually bounds:
    the alignment rho^2 = sum_k b_k^-2 (Sigma v)_k^2 and the quadratic form
    v' Sigma v (at most D, the largest possible eigenvalue)."""
    sigma = sigma_star.submatrix(d)
    v = np.full(d, 1.0 / math.sqrt(d))
    u = sigma @ v
    w = spec.operator.inv_sq_array(np.arange(1, d + 1))
    rho_sq = float(w @ (u * u))
    v_sigma_v = float(v @ u)
    return v, u, rho_sq, v_sigma_v


def _worst_case_coefficients(
    spec: ProblemSpec, d: int, r: float, sigma_star: CorrelationMatrix
) -> tuple[np.ndarray, float]:
    """Coefficients r b_k^-1 (Sigma v)_k / rho and rho^2, without the
    ellipsoid cap (the likelihood-ratio formulas hold for any radius)."""
    spec.check_bandwidth(d)
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be non-negative and finite")
    _, u, rho_sq, _ = direction_stats(spec, d, sigma_star)
    w = spec.operator.inv_sq_array(np.arange(1, d + 1))
    return r * np.sqrt(w) * u / math.sqrt(rho_sq), rho_sq


def worst_case_signal(
    spec: ProblemSpec, d: int, r: float, sigma_star: CorrelationMatrix
) -> WorstCaseSignal:
    """Least-favourable signal of norm r for the covariance sigma_star.

    Requires r^2 <= a_D^-2 so the signal stays inside the ellipsoid.
    """
    cap = bias_term(spec, d)
    if not within_cap(r * r, cap):
        raise ValueError(f"radius^2 {r * r:.6g} exceeds the ellipsoid cap {cap:.6g} at D={d}")
    coeffs, rho_sq = _worst_case_coefficients(spec, d, r, sigma_star)
    direction = np.full(d, 1.0 / math.sqrt(d))
    direction.setflags(write=False)
    return WorstCaseSignal(
        theta_star=Signal(tuple(float(c) for c in coeffs)),
        rho_sq=rho_sq,
        direction=direction,
    )


def chi_sq_divergence(
    spec: ProblemSpec, d: int, r: float, sigma_star: CorrelationMatrix
) -> float:
    """Closed-form E_0[L^2] = exp(r^2 v' Sigma v / (eps^2 rho^2)).

    L is the likelihood ratio between the worst-case signal at radius r and
    the null, both under Gaussian noise with covariance sigma_star; the
    matrix must be strictly positive definite for the densities to exist.
    """
    spec.check_bandwidth(d)
    if r < 0:
        raise ValueError("radius must be non-negative")
    sub = sigma_star.submatrix(d)
    if d > 0 and float(np.linalg.eigvalsh(sub)[0]) <= 1e-12:
        raise ValueError("covariance must be strictly positive definite")
    _, _, rho_sq, v_sigma_v = direction_stats(spec, d, sigma_star)
    return math.exp(r * r * v_sigma_v / (spec.eps**2 * rho_sq))


def chi_sq_divergence_mc(
    spec: ProblemSpec,
    d: int,
    r: float,
    sigma_star: CorrelationMatrix,
    reps: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of E_0[L^2] by averaging the squared likelihood
    ratio over draws from the null.

    Limited to d <= 5 and closed-form divergence <= 5: beyond that the
    estimator's variance (a fourth moment of the likelihood ratio) explodes.
    """
    if d > _MC_DIVERGENCE_MAX_D:
        raise ValueError(f"Monte Carlo divergence estimation is limited to D <= {_MC_DIVERGENCE_MAX_D}")
    if reps < 1:
        raise ValueError("need at least one sample")
    closed = chi_sq_divergence(spec, d, r, sigma_star)
    if closed > _MC_DIVERGENCE_MAX_VALUE:
        raise ValueError(
            f"divergence {closed:.4g} exceeds the Monte Carlo stability limit "
            f"{_MC_DIVERGENCE_MAX_VALUE}"
        )
    sigma = sigma_star.submatrix(d)
    coeffs, _ = _worst_case_coefficients(spec, d, r, sigma_star)
    b_theta = spec.operator.value_array(np.arange(1, d + 1)) * coeffs
    m = np.linalg.solve(sigma, b_theta)
    eps2 = spec.eps**2
    quad = float(b_theta @ m) / eps2

    w, v = np.linalg.eigh(sigma)
    factor = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    rng = replication_rng(seed, 0)
    total = 0.0
    done = 0
    while done < reps:
        n = min(_MC_CHUNK, reps - done)
        y = spec.eps * (rng.standard_normal((n, d)) @ factor)
        log_l = (y @ m) / eps2 - 0.5 * quad
        total += float(np.exp(2.0 * log_l).sum())
        done += n
    return total / reps
