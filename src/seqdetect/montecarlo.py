"""Replicated simulation of the full testing pipeline.

Type I / type II error rates are estimated by exact rejection counting over
independent replications.  Replications run in fixed-size blocks: block b
draws the noise of all its rows from one stream derived from (seed, b).  The
block size depends on the bandwidth alone, so estimates are identical for any
thread count and any reduction order.

Every estimate reads the statistic off two numbers per replication of a
block y = eps xi (`_null_blocks`): the null statistic
T0 = sum_{k<=D} w_k (y_k^2 - eps^2), w_k = b_k^-2, and a projection
L = y . v.  Since w_k b_k^2 = 1, the same noise under a signal theta has the
statistic T0 + s'Ws + 2 y'Ws, with s = b theta and W = diag(w).  So with
v = 2Ws one pass counts type I (T0 >= threshold) and type II
(T0 + L + s'Ws < threshold) on the same draws, and `estimate_type1` is the
type I half of that pass at theta = 0.

The empirical separation radius reuses those blocks.  For a spike of radius r
at coordinate D, v = e_D / b_D gives T(r) = T0 + r^2 + 2 r L, so one pass
over the null noise gives every replication's accept interval in r, and the
radius where the type II error last drops to beta is read off the sorted
interval endpoints, with no re-draws.

The module also carries the machinery of the two-point lower-bound argument:
the least-favourable signal aligned with an adversarial covariance, and the
chi-square divergence of the induced likelihood ratio, in closed form.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import detector
from .noise import CorrelationMatrix, NoiseModel
from .sequences import (
    ProblemSpec,
    Signal,
    _exp_or_inf,
    _is_count,
    bias_term,
    boundary_signal,
    ellipsoid_membership,
    inv_b_sq_weights,
    sum_inv_b_sq,
    within_cap,
)

_U64_MASK = (1 << 64) - 1
#: Fewest replications an estimate accepts.
MIN_REPS = 1_000
#: Noise values per replication block of the error-rate estimates: a block
#: holds max(1, _MC_BLOCK_ELEMENTS // D) replications, a count fixed by D
#: alone and never by the thread count.
_MC_BLOCK_ELEMENTS = 1 << 13


def replication_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one replication block, keyed by (seed, block),
    each an integer in [0, 2^64)."""
    if not all(_is_count(n, 0) and n <= _U64_MASK for n in (seed, block)):
        raise ValueError(
            f"seed must be an unsigned 64-bit integer, got seed {seed!r} and block {block!r}"
        )
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
    if not _is_count(reps, MIN_REPS):
        raise ValueError(f"need an integer of at least {MIN_REPS} replications, got {reps!r}")


def _null_blocks(
    model: NoiseModel,
    w: np.ndarray,
    eps: float,
    v: np.ndarray,
    reps: int,
    seed: int,
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(T0, L) of every replication block, in block order.

    Replications come in blocks of ``max(1, _MC_BLOCK_ELEMENTS // D)`` rows,
    D = len(w) (the last block may be shorter); block b draws all its rows
    from ``replication_rng(seed, b)`` and holds y = eps xi, one row per
    replication.  Row i gives the null statistic
    T0[i] = sum_k w_k (y_ik^2 - eps^2), for the weights w_k = b_k^-2, and the
    projection L[i] = y_i . v; every estimate of this module is a function of
    these two numbers.  Up to ``threads`` workers, never more than there are
    blocks, draw whole blocks, and a block is the same whichever worker draws
    it, so the blocks are the same at any thread count.
    """
    d = w.size
    rows = max(1, _MC_BLOCK_ELEMENTS // d)
    n_blocks = -(-reps // rows)
    eps2 = eps**2

    def block(b: int) -> tuple[np.ndarray, np.ndarray]:
        y = eps * model.sample_block(min(rows, reps - b * rows), d, replication_rng(seed, b))
        return (y * y - eps2) @ w, y @ v

    workers = min(threads, n_blocks)
    if workers <= 1:
        yield from map(block, range(n_blocks))
        return
    # imported here, where a pool starts, to keep it off every import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(block, range(n_blocks))


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
) -> McEstimate:
    """Fraction of replications rejecting the null under theta = 0: the
    ``type1`` of `estimate_type2` at the zero signal."""
    return estimate_type2(spec, config, model, Signal(), reps, seed).type1


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
    ``type1`` is the type I estimate counted on the same noise draws: it
    equals `estimate_type1` at this seed, so one call gives both error rates
    of a row.
    """
    start = time.perf_counter()
    _check_reps(reps)
    if not _is_count(threads):
        raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")
    check = ellipsoid_membership(spec.smoothness, theta)
    if not check.inside:
        raise ValueError(
            f"signal lies outside the ellipsoid (weighted mass {check.value:.6g} > 1)"
        )
    d = config.d
    w = inv_b_sq_weights(spec, d)
    s = spec.operator.value_array(np.arange(1, d + 1)) * theta.array(d)
    ws = w * s
    shift = float(s @ ws)
    thr = config.threshold
    null = count = 0
    for t0, proj in _null_blocks(model, w, spec.eps, 2.0 * ws, reps, seed, threads):
        null += int(np.count_nonzero(t0 >= thr))
        count += int(np.count_nonzero(t0 + (proj + shift) >= thr))
    return _estimate(reps - count, reps, seed, start, _estimate(null, reps, seed, start))


@dataclass(frozen=True)
class AlternativeSignal:
    """Single-spike signal whose squared norm equals the type II radius."""

    signal: Signal
    d: int
    norm_sq: float
    coordinate: int


def guaranteed_detectable_signal(
    spec: ProblemSpec, config: detector.DetectorConfig
) -> AlternativeSignal:
    """Spike signal at the radius where the type II guarantee of the
    calibrated test ``config`` kicks in.

    The squared norm is c_beta eps^2 sum_{k<=D} b_k^-2 + a_D^-2 at the
    test's constant c_beta and bandwidth D.  That norm always exceeds the
    ellipsoid cap a_D^-2 at coordinate D itself, so the spike is placed at
    the largest coordinate <= D that keeps it inside the ellipsoid; the
    statistic's mean shift only involves the total mass below D, so the
    guarantee is unaffected by the placement.  Since a is non-decreasing, the
    caps a_j^-2 do not grow with j, so the coordinates that keep the spike
    inside form a prefix 1..j, whose end is found by bisection.
    """
    d = config.d
    r_sq = config.c_beta * spec.eps**2 * sum_inv_b_sq(spec, d) + bias_term(spec, d)
    j = bisect.bisect_left(
        range(1, d + 1), True, key=lambda k: not within_cap(r_sq, bias_term(spec, k))
    )
    if j == 0:
        raise ValueError(
            f"radius^2 {r_sq:.6g} exceeds the ellipsoid capacity a_1^-2 = "
            f"{bias_term(spec, 1):.6g}; no in-ellipsoid signal attains it"
        )
    return AlternativeSignal(
        signal=boundary_signal(spec, j, math.sqrt(r_sq)), d=int(d), norm_sq=r_sq, coordinate=j
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


def _last_down_crossing(
    t0: np.ndarray,
    proj: np.ndarray,
    *,
    threshold: float,
    beta: float,
    r_cap: float,
) -> tuple[float, bool]:
    """(r*, bracketed) for the exact type II curve of a spike at coordinate D.

    Replication i has null statistic ``t0[i]`` and projection
    ``proj[i] = y_iD / b_D``; a spike of radius r gives
    T(r) = t0 + r^2 + 2 proj r, so the replication accepts (T < threshold)
    exactly on the open interval of r between the roots of
    r^2 + 2 proj r - (threshold - t0), or nowhere.
    The empirical type II error F(r) is the fraction of these intervals that
    contain r, and

        r* = inf{r in [0, r_cap] : F <= beta on all of [r, r_cap]},

    the last down-crossing of beta, which is monotone in beta.  F(0) <= beta
    gives (0, False) and F(r_cap) > beta gives (r_cap, False).
    """
    reps = t0.size
    c = threshold - t0
    disc = proj * proj + c
    accepts = disc > 0
    proj, c, root = proj[accepts], c[accepts], np.sqrt(disc[accepts])
    # one root without cancellation, the other from the product -c
    q = -(proj + np.copysign(root, proj))
    lo = np.minimum(q, -c / q)
    hi = np.maximum(q, -c / q)

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
    v = np.zeros(d)
    v[-1] = 1.0 / spec.operator.value_array(np.array([d]))[0]
    w = inv_b_sq_weights(spec, d)
    t0, proj = map(np.concatenate, zip(*_null_blocks(model, w, spec.eps, v, reps, seed)))
    radius, bracketed = _last_down_crossing(
        t0, proj, threshold=config.threshold, beta=beta, r_cap=math.sqrt(bias_term(spec, d))
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


def direction_stats(
    spec: ProblemSpec, d: int, sigma_star: CorrelationMatrix
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(v, Sigma v, rho^2, v' Sigma v) for the flat unit direction v_k = 1/sqrt(D).

    These are the two quantities the lower-bound argument actually bounds:
    the alignment rho^2 = sum_k b_k^-2 (Sigma v)_k^2 and the quadratic form
    v' Sigma v (at most D, the largest possible eigenvalue)."""
    w = inv_b_sq_weights(spec, d)
    sigma = sigma_star.submatrix(d)
    v = np.full(d, 1.0 / math.sqrt(d))
    u = sigma @ v
    with np.errstate(over="ignore"):
        # past the largest double, rho^2 is +inf, as the partial sums are
        rho_sq = float(w @ (u * u))
    v_sigma_v = float(v @ u)
    return v, u, rho_sq, v_sigma_v


def worst_case_signal(
    spec: ProblemSpec, d: int, r: float, sigma_star: CorrelationMatrix
) -> WorstCaseSignal:
    """Least-favourable signal of norm r for the covariance sigma_star.

    Requires r^2 <= a_D^-2 so the signal stays inside the ellipsoid, and r
    itself non-negative and finite: the cap alone, a test of r^2, would let
    a negative radius through.  An alignment rho^2 that is 0 (every b_k^-2
    underflows) or +inf (its sum overflows) raises ValueError.
    """
    cap = bias_term(spec, d)
    if not within_cap(r * r, cap):
        raise ValueError(f"radius^2 {r * r:.6g} exceeds the ellipsoid cap {cap:.6g} at D={d}")
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be non-negative and finite")
    _, u, rho_sq, _ = direction_stats(spec, d, sigma_star)
    if not 0.0 < rho_sq < math.inf:
        raise ValueError(f"alignment rho^2 = {rho_sq!r} at D={d} is not positive and finite")
    w = inv_b_sq_weights(spec, d)
    coeffs = r * np.sqrt(w) * u / math.sqrt(rho_sq)
    return WorstCaseSignal(theta_star=Signal(tuple(float(c) for c in coeffs)), rho_sq=rho_sq)


def chi_sq_divergence(
    spec: ProblemSpec, d: int, r: float, sigma_star: CorrelationMatrix
) -> float:
    """Closed-form E_0[L^2] = exp(r^2 v' Sigma v / (eps^2 rho^2)).

    L is the likelihood ratio between the worst-case signal at radius r and
    the null, both under Gaussian noise with covariance sigma_star; the
    matrix must be strictly positive definite for the densities to exist.
    It is 1 at r = 0 and where rho^2 overflows to +inf, and +inf where the
    exponential overflows, so also for r > 0 at eps^2 = 0, the noise-free
    limit, where the two laws are mutually singular.
    """
    spec.check_bandwidth(d)
    if not r >= 0:  # NaN too
        raise ValueError("radius must be non-negative")
    if float(np.linalg.eigvalsh(sigma_star.submatrix(d))[0]) <= 1e-12:
        raise ValueError("covariance must be strictly positive definite")
    if r == 0.0:
        return 1.0
    _, _, rho_sq, v_sigma_v = direction_stats(spec, d, sigma_star)
    scale = spec.eps**2 * rho_sq
    return _exp_or_inf(r * r * v_sigma_v / scale) if scale > 0.0 else math.inf
