"""Tests for the Monte Carlo verification machinery.

Covers:
1. Replication streams: determinism across runs and thread counts
2. Type I / type II estimation, including the exact complement identity at
   theta = 0 and ellipsoid enforcement; the blocked kernel against a
   row-by-row reference; the type I estimate carried by `estimate_type2`;
   negative controls that the estimates must fail
3. The guaranteed-detectable spike signal and its placement rule, whose
   bisection finds the coordinate of a linear walk down from D
4. The least-favourable signal construction and its norm identity
5. Chi-square divergence: closed form, the Monte Carlo cross-check, and the
   enforced stability limits
6. Empirical separation radius: bracketing, monotonicity in beta, and the
   noise-level scaling implied by the well-posed rate; the exact endpoint
   sweep on handcrafted replications, agreement with the type II kernel,
   and determinism of the one-pass solve
"""

import concurrent.futures
import dataclasses
import math
import re

import numpy as np
import pytest

from seqdetect import bounds, detector, montecarlo
from seqdetect.noise import (
    AdversarialEquicorrelated,
    CorrelationMatrix,
    IidGaussian,
    IidRademacher,
    IidScaledUniform,
    LongRangeGaussian,
    adversarial_sigma,
)
from seqdetect.sequences import (
    OperatorFamily,
    ProblemSpec,
    Signal,
    SmoothnessFamily,
    bias_term,
    boundary_signal,
    ellipsoid_membership,
    sum_inv_b_sq,
    within_cap,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def flat_spec(eps=0.1, c=3.0, s=1.0):
    return ProblemSpec(
        OperatorFamily.well_posed(),
        SmoothnessFamily.ordinary_smooth(s),
        eps=eps,
        fourth_moment_bound=c,
    )


class TestReplicationStreams:
    def test_same_key_same_draw(self):
        a = montecarlo.replication_rng(7, 3).standard_normal(4)
        b = montecarlo.replication_rng(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = montecarlo.replication_rng(7, 3).standard_normal(4)
        b = montecarlo.replication_rng(7, 4).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError, match="64-bit"):
            montecarlo.replication_rng(-1, 0)


class TestErrorEstimates:
    def test_reps_floor(self):
        spec = flat_spec()
        config = detector.calibrate(spec, 0.1, 0.1, d=4)
        with pytest.raises(ValueError, match="replications"):
            montecarlo.estimate_type1(spec, config, IidGaussian(), 10, 0)

    def test_std_err_formula(self):
        spec = flat_spec(eps=0.2)
        config = detector.calibrate(spec, 0.1, 0.1, d=5)
        est = montecarlo.estimate_type1(spec, config, IidGaussian(), 1000, 3)
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.reps)
        )

    def test_zero_signal_is_exact_complement_of_type1(self):
        # same seed, same draws: accept counts are exactly 1 - reject counts
        spec = flat_spec(eps=0.2)
        config = detector.calibrate(spec, 0.1, 0.1, d=5)
        model = AdversarialEquicorrelated(5)
        p1 = montecarlo.estimate_type1(spec, config, model, 2000, 99).p_hat
        p2 = montecarlo.estimate_type2(spec, config, model, Signal.zero(), 2000, 99).p_hat
        assert p1 + p2 == pytest.approx(1.0)

    def test_out_of_ellipsoid_signal_rejected(self):
        spec = flat_spec()
        config = detector.calibrate(spec, 0.1, 0.1, d=3)
        with pytest.raises(ValueError, match="outside the ellipsoid"):
            montecarlo.estimate_type2(
                spec, config, IidGaussian(), Signal((0.0, 0.8)), 1000, 0
            )

    def test_thread_count_does_not_change_estimate(self):
        spec = flat_spec(eps=0.15)
        config = detector.calibrate(spec, 0.1, 0.1, d=6)
        model = IidGaussian()
        single = montecarlo.estimate_type1(spec, config, model, 3000, 5, threads=1)
        pooled = montecarlo.estimate_type1(spec, config, model, 3000, 5, threads=4)
        assert single.p_hat == pooled.p_hat

    def test_dominant_signal_never_accepted(self):
        spec = flat_spec(eps=0.01)
        config = detector.calibrate(spec, 0.1, 0.1, d=2)
        theta = boundary_signal(spec, 1, 0.9)  # mass far above the threshold
        est = montecarlo.estimate_type2(spec, config, IidGaussian(), theta, 1000, 1)
        assert est.p_hat == 0.0


def _reference_rejections(spec, config, model, shift, reps, seed):
    """Rejection count of the blocked kernel, recomputed one row at a time
    with the detector's own decision rule."""
    d = config.d
    rows = max(1, montecarlo._MC_BLOCK_ELEMENTS // d)
    count = 0
    for b in range(-(-reps // rows)):
        n = min(rows, reps - b * rows)
        xi = model.sample_block(n, d, montecarlo.replication_rng(seed, b))
        count += sum(detector.decide(shift + spec.eps * row, config, spec) for row in xi)
    return count


class TestBlockedKernelReference:
    # (d, reps): d = 1 has the largest block (8192 rows); 7 and 30 do not
    # divide the block budget.  Every case has at least three blocks and a
    # ragged last one.
    CASES = [(1, 2 * 8192 + 100), (7, 3 * (8192 // 7) + 17), (30, 1000)]

    @staticmethod
    def _inputs(d):
        """(spec, signal, noise models): a spike on the flat spectrum, and on
        b_k = k^-1/2 a signal on every coordinate with alternating signs,
        whose terms w_k s_k^2 of s'Ws are not theta_k^2 bitwise, so the
        counts check the identity T0 + s'Ws + 2 y'Ws itself."""
        flat = flat_spec(eps=0.1)
        mild = ProblemSpec(
            OperatorFamily.mildly_ill_posed(0.5),
            SmoothnessFamily.ordinary_smooth(1.0),
            eps=0.1,
            fourth_moment_bound=3.0,
        )
        spread = Signal(tuple((-1.0) ** k * 0.02 / k for k in range(1, 31)))
        ks = np.arange(1, d + 1)
        s = mild.operator.value_array(ks) * spread.array(d)
        assert d == 1 or np.any(s * (mild.operator.inv_sq_array(ks) * s) != spread.array(d) ** 2)
        return [
            (flat, boundary_signal(flat, 1, 0.05), [IidGaussian(), AdversarialEquicorrelated(d)]),
            (mild, spread, [IidGaussian(), AdversarialEquicorrelated(d), LongRangeGaussian(d)]),
        ]

    @pytest.mark.parametrize("d,reps", CASES)
    def test_counts_match_row_by_row_decisions(self, d, reps):
        rows = max(1, montecarlo._MC_BLOCK_ELEMENTS // d)
        assert -(-reps // rows) >= 3 and reps % rows != 0
        for spec, theta, models in self._inputs(d):
            # threshold 0 puts the rejection rate well inside (0, 1), so both
            # the rejecting and the accepting rows are exercised
            config = dataclasses.replace(detector.calibrate(spec, 0.1, 0.1, d=d), threshold=0.0)
            shift = spec.operator.value_array(np.arange(1, d + 1)) * theta.array(d)
            for i, model in enumerate(models):
                seed = 1000 + d + i
                ref1 = _reference_rejections(spec, config, model, np.zeros(d), reps, seed)
                ref2 = _reference_rejections(spec, config, model, shift, reps, seed)
                assert 0 < ref1 < reps and 0 < ref2 < reps
                # four threads exceed the three blocks of the d = 1 case
                for threads in (1, 2, 4):
                    est1 = montecarlo.estimate_type1(
                        spec, config, model, reps, seed, threads=threads
                    )
                    est2 = montecarlo.estimate_type2(
                        spec, config, model, theta, reps, seed, threads=threads
                    )
                    assert est1.p_hat == ref1 / reps, (model.kind, threads)
                    assert est2.p_hat == (reps - ref2) / reps, (model.kind, threads)

    def test_pool_never_exceeds_the_blocks(self, monkeypatch):
        # D = 7: two full blocks and a ragged third; 64 threads ask for no
        # more workers than there are blocks, and the counts do not move
        d, reps = 7, 2 * (8192 // 7) + 17
        spec = flat_spec(eps=0.1)
        config = dataclasses.replace(detector.calibrate(spec, 0.1, 0.1, d=d), threshold=0.0)
        want = montecarlo.estimate_type1(spec, config, IidGaussian(), reps, 5)
        workers = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recording_pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers=max_workers)

        # the pool class is imported where a pool starts
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        got = montecarlo.estimate_type1(spec, config, IidGaussian(), reps, 5, threads=64)
        assert workers and max(workers) <= 3
        assert got.p_hat == want.p_hat


class TestTypeOneFromTheTypeTwoDraws:
    """`estimate_type2` counts type I on the same blocks as type II, so its
    ``type1`` is `estimate_type1` at the same seed."""

    def test_matches_estimate_type1(self):
        # D = 7: three full blocks of 1170 rows and a ragged last one of 17
        d, reps = 7, 3 * (8192 // 7) + 17
        spec = flat_spec(eps=0.1)
        # threshold 0 keeps the Gaussian rejection rates inside (0, 1)
        config = dataclasses.replace(detector.calibrate(spec, 0.1, 0.1, d=d), threshold=0.0)
        theta = boundary_signal(spec, 1, 0.05)
        models = [IidGaussian(), IidRademacher(), AdversarialEquicorrelated(d, INV_SQRT2)]
        for i, model in enumerate(models):
            seed = 300 + i
            want = montecarlo.estimate_type1(spec, config, model, reps, seed)
            assert want.type1 is None
            for threads in (1, 2, 4):
                est = montecarlo.estimate_type2(
                    spec, config, model, theta, reps, seed, threads=threads
                )
                got = est.type1
                assert got.type1 is None
                assert (got.p_hat, got.std_err, got.seed, got.reps) == (
                    want.p_hat, want.std_err, want.seed, want.reps
                ), (model.kind, threads)
                assert est.seed == seed and est.reps == reps


def _shipped_models(d):
    return [
        IidGaussian(),
        AdversarialEquicorrelated(d, INV_SQRT2),
        IidRademacher(),
        IidScaledUniform(),
        LongRangeGaussian(d, 1.0, 0.5),
    ]


class TestNegativeControls:
    """A broken test must fail the Monte Carlo check, or the check shows nothing."""

    ALPHA = BETA = 0.1

    def _setup(self):
        spec = flat_spec(eps=0.2)
        return spec, detector.calibrate(spec, self.ALPHA, self.BETA, d=5)

    @pytest.mark.parametrize("index", range(5))
    def test_zero_threshold_fails_type1_check(self, index):
        spec, config = self._setup()
        model = _shipped_models(config.d)[index]
        broken = dataclasses.replace(config, threshold=0.0)
        est = montecarlo.estimate_type1(spec, broken, model, 2000, 41 + index)
        assert est.p_hat > self.ALPHA + 3.0 * est.std_err, model.kind
        if model.kind == "iid_rademacher":
            # y_k^2 = eps^2 exactly, so T_D = 0 >= 0 in every replication
            assert est.p_hat == 1.0

    @pytest.mark.parametrize("index", range(5))
    def test_zero_signal_fails_type2_check(self, index):
        spec, config = self._setup()
        model = _shipped_models(config.d)[index]
        est = montecarlo.estimate_type2(spec, config, model, Signal.zero(), 2000, 51 + index)
        assert est.p_hat > self.BETA + 3.0 * est.std_err, model.kind


class TestMarkovSlackOneSided:
    def test_type_one_never_exceeds_level_across_random_configs(self):
        # the Markov calibration is conservative for every family in the
        # class, whatever the geometry: 20 randomized configs x 5 families
        rng = np.random.default_rng(314)
        for _ in range(20):
            alpha = float(rng.uniform(0.02, 0.3))
            d = int(rng.integers(2, 12))
            eps = float(10.0 ** rng.uniform(-2, 0))
            t = float(rng.uniform(0.2, 1.0))
            op = OperatorFamily.well_posed() if rng.integers(0, 2) == 0 else (
                OperatorFamily.mildly_ill_posed(t)
            )
            spec = ProblemSpec(
                op,
                SmoothnessFamily.ordinary_smooth(1.0),
                eps=eps,
                fourth_moment_bound=3.0,
            )
            config = detector.calibrate(spec, alpha, 0.1, d=d)
            for i, model in enumerate(_shipped_models(d)):
                est = montecarlo.estimate_type1(
                    spec, config, model, 1000, seed=int(rng.integers(0, 2**32)) + i
                )
                assert est.p_hat <= alpha + 3.0 * est.std_err, (
                    alpha,
                    d,
                    eps,
                    model.kind,
                    est.p_hat,
                )


class TestGuaranteedDetectableSignal:
    def test_norm_matches_radius_objective(self):
        spec = flat_spec(eps=0.01)
        config = detector.calibrate(spec, 0.1, 0.1)
        alt = montecarlo.guaranteed_detectable_signal(spec, config.c_beta)
        upper, d_upper = bounds.upper_radius_sq(spec, config.c_beta)
        assert alt.d == d_upper
        assert alt.norm_sq == pytest.approx(upper)
        assert alt.signal.norm_sq() == pytest.approx(upper, rel=1e-12)

    def test_signal_is_ellipsoid_member(self):
        spec = flat_spec(eps=0.01)
        config = detector.calibrate(spec, 0.1, 0.1)
        alt = montecarlo.guaranteed_detectable_signal(spec, config.c_beta)
        assert ellipsoid_membership(spec.smoothness, alt.signal).inside
        # the radius exceeds the cap at the selected bandwidth, so the spike
        # must sit strictly below it
        assert alt.coordinate <= alt.d
        assert alt.norm_sq > bias_term(spec, alt.d)

    def test_capacity_exhaustion_raises(self):
        spec = flat_spec(eps=10.0)
        config = detector.calibrate(spec, 0.1, 0.1, d=1)
        with pytest.raises(ValueError, match="capacity"):
            montecarlo.guaranteed_detectable_signal(spec, config.c_beta, d=1)

    @pytest.mark.parametrize(
        "smoothness",
        [
            SmoothnessFamily.ordinary_smooth(1.0),
            SmoothnessFamily.ordinary_smooth(0.25),
            SmoothnessFamily.super_smooth(0.2),
            # plateaus: equal caps on runs of coordinates
            SmoothnessFamily.custom(np.repeat(np.arange(1.0, 33.0) ** 0.75, 4)),
        ],
        ids=["ordinary-1", "ordinary-0.25", "super-0.2", "custom-plateaus"],
    )
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 100, 128])
    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 1.0])
    def test_bisection_matches_the_linear_walk(self, smoothness, d, eps):
        # the largest coordinate j <= D whose cap a_j^-2 holds the radius, by
        # walking down from D; eps = 1 puts the radius beyond a_1^-2
        spec = ProblemSpec(
            OperatorFamily.well_posed(), smoothness, eps=eps, fourth_moment_bound=3.0
        )
        c_beta = 30.0
        r_sq = c_beta * eps**2 * sum_inv_b_sq(spec, d) + bias_term(spec, d)
        walk = next((j for j in range(d, 0, -1) if within_cap(r_sq, bias_term(spec, j))), None)
        if walk is None:
            message = (
                f"radius^2 {r_sq:.6g} exceeds the ellipsoid capacity a_1^-2 = "
                f"{bias_term(spec, 1):.6g}; no in-ellipsoid signal attains it"
            )
            with pytest.raises(ValueError, match=re.escape(message)):
                montecarlo.guaranteed_detectable_signal(spec, c_beta, d)
        else:
            alt = montecarlo.guaranteed_detectable_signal(spec, c_beta, d)
            assert (alt.coordinate, alt.d, alt.norm_sq) == (walk, d, r_sq)

    def test_logarithmically_many_cap_evaluations(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            montecarlo, "bias_term", lambda spec, j: calls.append(j) or bias_term(spec, j)
        )
        with pytest.raises(ValueError, match="capacity"):
            montecarlo.guaranteed_detectable_signal(flat_spec(eps=1.0), 30.0, d=65536)
        assert len(calls) <= 20


class TestWorstCaseSignal:
    def test_one_dimensional(self):
        spec = flat_spec(eps=1.0, s=1.0)
        w = montecarlo.worst_case_signal(spec, 1, 0.4, CorrelationMatrix.identity(1))
        assert w.theta_star.coefficients == pytest.approx((0.4,))
        assert w.rho_sq == pytest.approx(1.0)

    def test_equicorrelated_two_dim(self):
        spec = flat_spec(eps=1.0)
        sigma = adversarial_sigma(2, INV_SQRT2)
        w = montecarlo.worst_case_signal(spec, 2, 0.3, sigma)
        assert w.rho_sq == pytest.approx(2.25)
        assert w.theta_star.coefficients == pytest.approx(
            (0.3 / math.sqrt(2.0), 0.3 / math.sqrt(2.0))
        )

    def test_norm_identity_random_inputs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            t = float(rng.uniform(0.0, 1.0))
            op = OperatorFamily.well_posed() if t < 0.2 else OperatorFamily.mildly_ill_posed(t)
            spec = ProblemSpec(op, SmoothnessFamily.ordinary_smooth(1.0), eps=0.5)
            f = rng.normal(size=(d, d + 2))
            m = f @ f.T
            scale = np.sqrt(np.diag(m))
            sigma = CorrelationMatrix(m / np.outer(scale, scale))
            r = float(rng.uniform(0.0, 1.0)) * math.sqrt(bias_term(spec, d))
            w = montecarlo.worst_case_signal(spec, d, r, sigma)
            assert w.theta_star.norm_sq() == pytest.approx(r * r, rel=1e-10, abs=1e-300)
            assert ellipsoid_membership(spec.smoothness, w.theta_star).inside

    def test_radius_cap_enforced(self):
        spec = flat_spec()
        with pytest.raises(ValueError, match="ellipsoid cap"):
            montecarlo.worst_case_signal(spec, 2, 0.6, CorrelationMatrix.identity(2))


class TestChiSquareDivergence:
    def test_zero_radius_gives_one(self):
        spec = flat_spec(eps=1.0)
        assert montecarlo.chi_sq_divergence(spec, 3, 0.0, CorrelationMatrix.identity(3)) == 1.0

    def test_equicorrelated_closed_form(self):
        spec = flat_spec(eps=1.0)
        sigma = adversarial_sigma(2, INV_SQRT2)
        assert montecarlo.chi_sq_divergence(spec, 2, 1.0, sigma) == pytest.approx(
            math.exp(2.0 / 3.0), rel=1e-12
        )

    def test_singular_matrix_rejected(self):
        spec = flat_spec(eps=1.0)
        ones = np.ones((2, 2))
        sigma = CorrelationMatrix(ones)  # rank one: singular
        with pytest.raises(ValueError, match="positive definite"):
            montecarlo.chi_sq_divergence(spec, 2, 0.1, sigma)

    def test_budget_holds_at_lower_radius(self):
        # at the lower-bound radius the divergence stays within the two-point
        # budget for every bandwidth
        alpha = beta = 0.05
        budget = bounds.c_alpha_beta(alpha, beta)
        coeff = bounds.lower_coefficient(alpha, beta)
        spec = flat_spec(eps=1.0)
        for d in range(1, 17):
            sigma = adversarial_sigma(d, INV_SQRT2)
            r_sq = min(coeff * spec.eps**2 * d, bias_term(spec, d))
            value = montecarlo.chi_sq_divergence(spec, d, math.sqrt(r_sq), sigma)
            assert value <= budget + 1e-10

    def test_monte_carlo_matches_closed_form(self):
        spec = flat_spec(eps=1.0)
        sigma = adversarial_sigma(3, INV_SQRT2)
        closed = montecarlo.chi_sq_divergence(spec, 3, 1.0, sigma)
        mc = montecarlo.chi_sq_divergence_mc(spec, 3, 1.0, sigma, 400_000, 12)
        assert mc == pytest.approx(closed, rel=0.05)

    def test_stability_limits_enforced(self):
        spec = flat_spec(eps=1.0)
        with pytest.raises(ValueError, match="D <= 5"):
            montecarlo.chi_sq_divergence_mc(spec, 6, 0.1, adversarial_sigma(6, 0.8), 1000, 0)
        with pytest.raises(ValueError, match="stability limit"):
            montecarlo.chi_sq_divergence_mc(spec, 2, 3.0, adversarial_sigma(2, 0.8), 1000, 0)


class TestSeparationRadius:
    def test_bracketing_and_upper_bound(self):
        spec = flat_spec(eps=0.01)
        est = montecarlo.empirical_separation_radius(spec, 0.1, 0.1, IidGaussian(), 2000, 5)
        assert est.bracketed
        config = detector.calibrate(spec, 0.1, 0.1)
        upper, _ = bounds.upper_radius_sq(spec, config.c_beta)
        assert est.radius <= math.sqrt(upper) * 1.02

    def test_monotone_in_beta(self):
        # at a pinned bandwidth the probes share one type II curve, so a
        # stricter beta can only push the crossing radius up
        spec = flat_spec(eps=0.01)
        radii = [
            montecarlo.empirical_separation_radius(
                spec, 0.1, b, IidGaussian(), 2000, 5, d=3
            ).radius
            for b in (0.2, 0.1, 0.05)
        ]
        assert radii[0] <= radii[1] * 1.05
        assert radii[1] <= radii[2] * 1.05

    def test_non_bracketing_when_noise_dominates(self):
        # at huge eps even the largest in-ellipsoid spike cannot separate
        spec = flat_spec(eps=5.0)
        est = montecarlo.empirical_separation_radius(spec, 0.1, 0.1, IidGaussian(), 1000, 4)
        assert not est.bracketed
        assert est.radius == pytest.approx(math.sqrt(bias_term(spec, est.d)))

    def test_cap_probe_accepts_spike_at_the_cap(self):
        # the spike at r = a_D^-1 has weighted mass one ulp above 1 here, so
        # the cap probe relies on the membership slack to accept it
        spec = ProblemSpec(
            OperatorFamily.well_posed(),
            SmoothnessFamily.ordinary_smooth(2.0273208137425875),
            eps=0.1,
        )
        est = montecarlo.empirical_separation_radius(
            spec, 0.1, 0.1, IidGaussian(), 1000, 1, d=24
        )
        assert not est.bracketed
        assert est.radius == math.sqrt(bias_term(spec, 24))

    def test_radius_scaling_follows_rate(self):
        # well-posed, s = 1: r^2 ~ eps^(4/3), so halving eps shrinks the
        # radius by about 2^(-2/3)
        r = []
        for eps in (0.02, 0.01):
            spec = flat_spec(eps=eps)
            r.append(
                montecarlo.empirical_separation_radius(
                    spec, 0.1, 0.1, IidGaussian(), 4000, 17
                ).radius
            )
        assert r[1] / r[0] == pytest.approx(2.0 ** (-2.0 / 3.0), rel=0.15)


def _crossing(t0, z, beta, r_cap=10.0):
    # threshold 0: replication i accepts on the open r interval where
    # r^2 + 2 z_i r + t0_i < 0
    return montecarlo._last_down_crossing(
        np.array(t0, dtype=float),
        np.array(z, dtype=float),
        threshold=0.0,
        beta=beta,
        r_cap=r_cap,
    )


class TestLastDownCrossing:
    """The endpoint sweep on handcrafted (T_0, z); every root below is exact
    in binary floating point."""

    def test_replication_rejecting_at_zero_accepts_in_the_middle(self):
        # (t0, z) = (-1, 0) accepts on (-1, 1); (1, -2) rejects at r = 0 and
        # accepts on (2 - sqrt 3, 2 + sqrt 3), so type II rises, then falls
        radius, bracketed = _crossing([-1.0, 1.0], [0.0, -2.0], beta=0.4)
        assert bracketed
        assert radius == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-15)
        assert _crossing([-1.0], [0.0], beta=0.4) == (1.0, True)
        # T_0 at the threshold rejects at r = 0 (as in the kernel) and
        # accepts on (0, 2) just above it
        assert _crossing([0.0], [-1.0], beta=0.5) == (0.0, False)

    def test_empty_accept_sets_count_as_rejections(self):
        # (5, 1) never accepts (negative discriminant); (1, 1) touches zero
        # at s = 1 only, and an open interval of length zero is empty
        t0, z = [-1.0, 5.0, 1.0, 5.0], [0.0, 1.0, 1.0, 1.0]
        assert _crossing(t0, z, beta=0.2) == (1.0, True)
        assert _crossing(t0, z, beta=0.25) == (0.0, False)
        assert _crossing(t0[1:], z[1:], beta=0.2) == (0.0, False)

    def test_tied_endpoints(self):
        # two copies of (-1, 1), then (1.5, 2) and (2, 2.5) meeting at s = 2:
        # at most one replication accepts past s = 1, so the tie at 2 must
        # not count the entering interval before the leaving one
        t0, z = [-1.0, -1.0, 3.0, 5.0], [0.0, 0.0, -1.75, -2.25]
        assert _crossing(t0, z, beta=0.25) == (1.0, True)
        # three endpoints tied at s = 1: the (-1, 1) pair leaves as (1, 3) enters
        assert _crossing([-1.0, -1.0, 3.0], [0.0, 0.0, -2.0], beta=0.5) == (1.0, True)

    def test_last_down_crossing_wins(self):
        # type II is 1/2 on (0, 1), 0 on (1, 2), 1/2 on (2, 3), 0 after 3
        t0, z = [-1.0, -1.0, 6.0, 6.0], [0.0, 0.0, -2.5, -2.5]
        assert _crossing(t0, z, beta=0.25) == (3.0, True)
        assert _crossing(t0, z, beta=0.25, r_cap=2.5) == (2.5, False)
        assert _crossing(t0, z, beta=0.25, r_cap=1.5) == (1.0, True)
        assert _crossing(t0, z, beta=0.5) == (0.0, False)


def _pinned_radius_cases():
    d = 8
    mild = ProblemSpec(
        OperatorFamily.mildly_ill_posed(0.5),
        SmoothnessFamily.ordinary_smooth(1.0),
        eps=0.005,
        fourth_moment_bound=3.0,
    )
    models = [IidGaussian(), LongRangeGaussian(d, 1.0, 0.5), AdversarialEquicorrelated(d, INV_SQRT2)]
    return [
        pytest.param(spec, d, model, id=f"{name}-{model.kind}")
        for name, spec in (("well_posed", flat_spec(eps=0.01)), ("mildly_ill_posed", mild))
        for model in models
    ]


class _CountingGaussian(IidGaussian):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def sample_block(self, n, d, rng):
        self.calls += 1
        return super().sample_block(n, d, rng)


class TestExactSeparationRadius:
    REPS = 2000

    @pytest.mark.parametrize("spec,d,model", _pinned_radius_cases())
    def test_agrees_with_the_type2_kernel(self, spec, d, model):
        seed = 70
        est = montecarlo.empirical_separation_radius(spec, 0.1, 0.1, model, self.REPS, seed, d=d)
        assert est.bracketed and est.iterations == 0
        assert type(est.radius) is float
        assert est.radius < math.sqrt(bias_term(spec, d))
        config = detector.calibrate(spec, 0.1, 0.1, d=d)

        def type2(r):
            theta = boundary_signal(spec, d, r)
            return montecarlo.estimate_type2(spec, config, model, theta, self.REPS, seed).p_hat

        assert type2(est.radius * (1 + 1e-9)) <= 0.1
        assert type2(est.radius * (1 - 1e-9)) > 0.1

    def test_identical_across_threads_and_reruns(self):
        spec = flat_spec(eps=0.01)
        # 5000 reps at D = 8 are five blocks of 1024 rows, the last ragged
        runs = [
            montecarlo.empirical_separation_radius(
                spec, 0.1, 0.1, AdversarialEquicorrelated(8, INV_SQRT2), 5000, 3,
                d=8, threads=threads,
            )
            for threads in (1, 2, 4, 1)
        ]
        assert runs[0].bracketed
        assert all(run == runs[0] for run in runs)

    def test_each_block_is_drawn_once(self):
        model = _CountingGaussian()
        montecarlo.empirical_separation_radius(flat_spec(eps=0.01), 0.1, 0.1, model, 5000, 3, d=8)
        assert model.calls == 5

    def test_null_statistics_match_row_by_row(self):
        # D = 7 does not divide the block budget: three full blocks of 1170
        # rows and a ragged last block of 17
        d, reps, seed = 7, 3 * (8192 // 7) + 17, 11
        spec = flat_spec(eps=0.1)
        model = AdversarialEquicorrelated(d, INV_SQRT2)
        v = np.zeros(d)
        v[-1] = 1.0  # b_D = 1 on the flat spectrum, so L = y_D
        w = spec.operator.inv_sq_array(np.arange(1, d + 1))
        parts = montecarlo._map_blocks(
            model, d, spec.eps, reps, seed, 2, montecarlo._statistics(w, spec.eps, v)
        )
        t0 = np.concatenate([t0 for t0, _ in parts])
        z = np.concatenate([z for _, z in parts])
        rows = max(1, montecarlo._MC_BLOCK_ELEMENTS // d)
        ref_t0, ref_z, scale = [], [], []
        for b in range(-(-reps // rows)):
            n = min(rows, reps - b * rows)
            xi = model.sample_block(n, d, montecarlo.replication_rng(seed, b))
            for row in spec.eps * xi:
                ref_t0.append(detector.statistic(row, spec, d))
                ref_z.append(row[-1])
                scale.append(float(np.abs(row * row - spec.eps**2).sum()))
        assert len(ref_t0) == reps and t0.shape == z.shape == (reps,)
        assert np.array_equal(z, ref_z)
        # the block product and the row dot product may sum in another order
        assert np.all(np.abs(t0 - ref_t0) <= d * 2.0**-52 * np.array(scale))
