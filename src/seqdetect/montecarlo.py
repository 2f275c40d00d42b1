"""Replicated simulation of the full testing pipeline.

Type I / type II error rates are estimated by exact rejection counting over
independent replications.  Replications run in fixed-size blocks: block b
draws the noise of all its rows from one stream derived from (seed, b), and
the statistic of the whole block is one matrix-vector product.  The block
size depends on the bandwidth alone, so estimates are identical for any
thread count and any reduction order.  Both error types are counted from one
draw: a block's type I count is taken on y = eps xi, then the signal shift is
added to y in place and its type II count taken, so `estimate_type2` also
returns the type I estimate of the same replications.

The empirical separation radius reuses those blocks.  For a spike at
coordinate D the statistic of each replication is a quadratic in the spike
radius, so one pass over the null noise gives every replication's accept
interval, and the radius where the type II error last drops to beta is read
off the sorted interval endpoints, with no re-draws.

The module also carries the machinery of the two-point lower-bound argument:
the least-favourable signal aligned with an adversarial covariance, and the
chi-square divergence E_0[L^2] of the induced likelihood ratio, in closed
form and as a Monte Carlo cross-check over the same replication blocks.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from . import detector
from .noise import CorrelatedGaussian, CorrelationMatrix, NoiseModel
from .sequences import (
    ProblemSpec,
    Signal,
    bias_term,
    boundary_signal,
    ellipsoid_membership,
    sum_inv_b_sq,
    within_cap,
)

_R = TypeVar("_R")

_U64_MASK = (1 << 64) - 1
_MIN_REPS = 1_000
#: The likelihood-ratio moment estimator has finite variance only while the
#: divergence is moderate; both limits are enforced, not advisory.
_MC_DIVERGENCE_MAX_D = 5
_MC_DIVERGENCE_MAX_VALUE = 5.0
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
    """Monte Carlo probability estimate with its provenance.

    ``type1`` is set on the results of `estimate_type2` only: the type I
    estimate from the same replications, equal to `estimate_type1` with the
    same seed.
    """

    p_hat: float
    reps: int
    std_err: float
    seed: int
    wall_time: float
    type1: McEstimate | None = None


def _check_reps(reps: int) -> None:
    if reps < _MIN_REPS:
        raise ValueError(f"need at least {_MIN_REPS} replications, got {reps}")


def _map_blocks(
    model: NoiseModel,
    d: int,
    eps: float,
    reps: int,
    seed: int,
    threads: int,
    reduce: Callable[[np.ndarray], _R],
) -> list[_R]:
    """``reduce(y)`` of every replication block, in block order.

    Replications come in blocks of ``max(1, _MC_BLOCK_ELEMENTS // D)`` rows
    (the last block may be shorter); block b draws all its rows from
    ``replication_rng(seed, b)`` and holds y = eps xi, one row per
    replication, in a fresh array that ``reduce`` may overwrite.  Threads
    split the block indices into contiguous ranges and the results are
    returned in block order, so they are the same at any thread count.
    """
    rows = max(1, _MC_BLOCK_ELEMENTS // d)
    n_blocks = -(-reps // rows)

    def run_blocks(lo: int, hi: int) -> list[_R]:
        out = []
        for b in range(lo, hi):
            n = min(rows, reps - b * rows)
            out.append(reduce(eps * model.sample_block(n, d, replication_rng(seed, b))))
        return out

    if threads <= 1:
        return run_blocks(0, n_blocks)
    bounds = np.linspace(0, n_blocks, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_blocks, int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])]
        return [r for f in futures for r in f.result()]


def _count_rejections(
    spec: ProblemSpec,
    config: detector.DetectorConfig,
    model: NoiseModel,
    shift: np.ndarray | None,
    reps: int,
    seed: int,
    threads: int,
) -> list[int]:
    """Numbers of replications with T_D >= threshold, for y = eps xi and,
    when a shift is given, for y = shift + eps xi on the same draws.

    The per-block counts are integers, so the totals are exact at any thread
    count.
    """
    d = config.d
    w = spec.operator.inv_sq_array(np.arange(1, d + 1))
    eps2 = spec.eps**2
    thr = config.threshold

    def reduce(y: np.ndarray) -> list[int]:
        counts = [int(np.count_nonzero((y * y - eps2) @ w >= thr))]
        if shift is not None:
            y += shift
            counts.append(int(np.count_nonzero((y * y - eps2) @ w >= thr)))
        return counts

    blocks = _map_blocks(model, d, spec.eps, reps, seed, threads, reduce)
    return [sum(column) for column in zip(*blocks)]


def _estimate(
    count: int, reps: int, seed: int, start: float, type1: McEstimate | None = None
) -> McEstimate:
    p = count / reps
    return McEstimate(
        p_hat=p,
        reps=reps,
        std_err=math.sqrt(p * (1.0 - p) / reps),
        seed=int(seed),
        wall_time=time.perf_counter() - start,
        type1=type1,
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
    (count,) = _count_rejections(spec, config, model, None, reps, seed, threads)
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

    The signal must belong to the smoothness ellipsoid.  The result's
    ``type1`` is the type I estimate counted on the same noise draws before
    the signal is added: it equals `estimate_type1` at this seed, so one call
    gives both error rates of a row.
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
    null, count = _count_rejections(spec, config, model, shift, reps, seed, threads)
    return _estimate(reps - count, reps, seed, start, _estimate(null, reps, seed, start))


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
    """Exact empirical separation radius of one noise draw.

    ``bracketed`` is False when the type II curve never crosses beta inside
    [0, a_D^-1]: either the test is miscalibrated (type II <= beta at r = 0)
    or no in-ellipsoid spike at bandwidth D separates (type II > beta at the
    cap).  ``iterations`` is always 0: the radius is solved in closed form
    from one pass over the noise, with no probes.
    """

    radius: float
    bracketed: bool
    d: int
    iterations: int


def _null_statistics(
    spec: ProblemSpec, d: int, model: NoiseModel, reps: int, seed: int, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """(T_D, eps xi_D) of every replication under the null, in replication
    order, from the same blocks and streams as `estimate_type1`."""
    w = spec.operator.inv_sq_array(np.arange(1, d + 1))
    eps2 = spec.eps**2
    parts = _map_blocks(
        model, d, spec.eps, reps, seed, threads,
        # a copy, so no view keeps the whole block alive
        lambda y: ((y * y - eps2) @ w, y[:, -1].copy()),
    )
    return np.concatenate([t0 for t0, _ in parts]), np.concatenate([z for _, z in parts])


def _last_down_crossing(
    t0: np.ndarray,
    z: np.ndarray,
    *,
    threshold: float,
    w_d: float,
    b_d: float,
    beta: float,
    r_cap: float,
) -> tuple[float, bool]:
    """(r*, bracketed) for the exact type II curve of a spike at coordinate D.

    Replication i has null statistic ``t0[i]`` and coordinate-D noise
    ``z[i] = eps xi_D``; a spike of radius r shifts y_D by s = b_D r, so
    T(r) = t0 + w_D (s^2 + 2 s z) and the replication accepts (T < threshold)
    exactly on the open interval of s between the roots of
    s^2 + 2 z s - (threshold - t0) / w_D, or nowhere.  The empirical type II
    error F(r) is the fraction of these intervals that contain b_D r, and

        r* = inf{r in [0, r_cap] : F <= beta on all of [r, r_cap]},

    the last down-crossing of beta, which is monotone in beta.  F(0) <= beta
    gives (0, False) and F(r_cap) > beta gives (r_cap, False).
    """
    reps = t0.size
    c = (threshold - t0) / w_d
    disc = z * z + c
    accepts = disc > 0
    z, c, root = z[accepts], c[accepts], np.sqrt(disc[accepts])
    # one root without cancellation, the other from the product -c
    q = -(z + np.copysign(root, z))
    lo = np.minimum(q, -c / q) / b_d
    hi = np.maximum(q, -c / q) / b_d

    def type2(r: float) -> float:
        return np.count_nonzero((lo < r) & (r < hi)) / reps

    if type2(0.0) <= beta:
        return 0.0, False
    if type2(r_cap) > beta:
        return r_cap, False
    points = np.concatenate([lo, hi])
    order = np.argsort(points, kind="stable")
    x = points[order]
    # accepting count on the open segment (x[j], x[j+1]) between distinct
    # endpoints: every interval that starts at or before x[j] and has not ended
    inside = np.cumsum(np.where(order < lo.size, 1, -1))[:-1]
    above = (x[:-1] < x[1:]) & (inside / reps > beta) & (x[1:] > 0) & (x[:-1] < r_cap)
    last = int(np.flatnonzero(above)[-1])
    return float(min(x[last + 1], r_cap)), True


def empirical_separation_radius(
    spec: ProblemSpec,
    alpha: float,
    beta: float,
    model: NoiseModel,
    reps: int,
    seed: int,
    *,
    d: int | None = None,
    threads: int = 1,
) -> SeparationEstimate:
    """Smallest spike radius past which the empirical type II error stays <= beta.

    The spike sits at the selected bandwidth D (pass ``d`` to pin it) and r
    ranges over [0, a_D^-1].  The noise is drawn once, in the replication
    blocks of `estimate_type2` with the same seed, so the type II curve is
    the one `estimate_type2` measures (up to rounding of the statistic), as
    an exact step function of r.  The radius is its last down-crossing of
    beta, r* = inf{r : type II <= beta on all of [r, a_D^-1]}, which is
    monotone in beta.  ``iterations`` is 0: there are no probes.
    """
    _check_reps(reps)
    config = detector.calibrate(spec, alpha, beta, d=d)
    d = config.d
    t0, z = _null_statistics(spec, d, model, reps, seed, threads)
    last = np.array([d])
    radius, bracketed = _last_down_crossing(
        t0,
        z,
        threshold=config.threshold,
        w_d=float(spec.operator.inv_sq_array(last)[0]),
        b_d=float(spec.operator.value_array(last)[0]),
        beta=beta,
        r_cap=math.sqrt(bias_term(spec, d)),
    )
    return SeparationEstimate(radius=radius, bracketed=bracketed, d=d, iterations=0)


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
    ratio over draws from the null, in the replication blocks of the
    error-rate estimates.

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
    model = CorrelatedGaussian(CorrelationMatrix(sigma, validate_psd=False))
    sums = _map_blocks(
        model, d, spec.eps, reps, seed, 1,
        lambda y: float(np.exp(2.0 * ((y @ m) / eps2 - 0.5 * quad)).sum()),
    )
    return math.fsum(sums) / reps
