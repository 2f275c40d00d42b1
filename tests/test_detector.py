"""Tests for the spectral cut-off test and its calibration.

Covers:
1. Derived constants (C1, C2, K1, K2) at frozen oracle values
2. Threshold and statistic arithmetic, boundary rejection convention; the
   statistic refuses a D at which a weight b_k^-2 overflows, and a
   non-finite observation y_k at k <= D
3. The calibration equation: exact root, residual, the refusal of an
   unusable root, and the residual of the practical 8 K2/beta; a
   calibrated test's threshold must be finite
4. Bandwidth selection against a brute-force grid search
5. Statistical behaviour: type I control, mean of the statistic, the
   variance envelope, and threshold dominance over the null variance
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from seqdetect import detector
from seqdetect.noise import (
    AdversarialEquicorrelated,
    CorrelationMatrix,
    IidGaussian,
    IidRademacher,
    IidScaledUniform,
    LongRangeGaussian,
    null_variance_decomposition,
)
from seqdetect.sequences import (
    OperatorFamily,
    ProblemSpec,
    ScanResult,
    Signal,
    SmoothnessFamily,
    bias_term,
    boundary_signal,
    sum_inv_b_sq,
)


def flat_spec(eps=0.1, c=3.0, **kwargs):
    return ProblemSpec(
        OperatorFamily("well_posed"),
        SmoothnessFamily("ordinary_smooth", 1.0),
        eps=eps,
        fourth_moment_bound=c,
        **kwargs,
    )


class TestDeriveConstants:
    def test_gaussian_class_constants(self):
        c = detector.derive_constants(3.0, 0.04)
        assert c.c1 == 2.0
        assert c.c2 == pytest.approx(math.sqrt(3.0))
        assert c.k1 == pytest.approx(10.0)
        assert c.k2 == pytest.approx(20.0 + 2.0 * math.sqrt(3.0) + 12.0 * math.sqrt(2.0))

    def test_degenerate_sign_class(self):
        c = detector.derive_constants(1.0, 0.3)
        assert (c.c1, c.k1, c.k2) == (0.0, 0.0, 12.0)

    def test_alpha_one_limit(self):
        assert detector.derive_constants(3.0, 1.0).k1 == pytest.approx(2.0)

    def test_rejects_impossible_fourth_moment(self):
        with pytest.raises(ValueError, match="unit variance"):
            detector.derive_constants(0.9, 0.05)


class TestThresholdAndStatistic:
    def test_threshold_uses_partial_sum(self):
        constants = detector.derive_constants(3.0, 0.04)  # K1 = 10
        spec = ProblemSpec(
            OperatorFamily("mildly_ill_posed", 1.0),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=0.1,
        )
        assert detector.threshold(constants, spec, 3) == pytest.approx(1.4)

    def test_threshold_scales_with_eps_squared(self):
        constants = detector.derive_constants(3.0, 0.1)
        t1 = detector.threshold(constants, flat_spec(eps=0.1), 5)
        t2 = detector.threshold(constants, flat_spec(eps=0.05), 5)
        assert t1 == pytest.approx(4.0 * t2)
        # noiseless limit: the threshold vanishes with the noise level
        assert detector.threshold(constants, flat_spec(eps=1e-12), 5) < 1e-22

    def test_statistic_direct_value(self):
        spec = flat_spec(eps=1.0)
        assert detector.statistic(np.array([1.0, 2.0]), spec, 2) == pytest.approx(3.0)

    def test_statistic_length_check(self):
        with pytest.raises(ValueError, match="observations"):
            detector.statistic(np.array([1.0]), flat_spec(), 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_statistic_refuses_a_non_finite_observation(self, value):
        # a NaN statistic would accept the null without a word, and an
        # infinite one reject it; y_k past D is not read
        spec = flat_spec(eps=0.01)
        config = detector.calibrate(spec, 0.1, 0.1)
        d = config.d
        assert d == 3
        for k in (1, d):
            y = np.ones(d + 1)
            y[k - 1] = value
            with pytest.raises(ValueError, match=f"y_k are not finite at every k <= D = {d}$"):
                detector.decide(y, config, spec)
        y = np.ones(d + 1)
        y[d] = value
        assert detector.decide(y, config, spec)

    @pytest.mark.parametrize("d", [354, 355, 400])
    def test_statistic_refuses_an_overflowed_weight(self, d):
        # b_k = e^-k: b_k^-2 = e^2k is +inf from k = 355 on, where y_k = eps
        # would give inf * 0 = nan; up to 354 every weight is finite
        spec = ProblemSpec(
            OperatorFamily("severely_ill_posed", 1.0),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=1e-3,
        )
        y = np.full(d, 1e-3)
        y[0] = 1.0
        if d < 355:
            assert detector.statistic(y, spec, d) == pytest.approx(math.e**2 * (1.0 - 1e-6))
        else:
            with pytest.raises(ValueError, match=f"not finite at every k <= D = {d}$"):
                detector.statistic(y, spec, d)

    @pytest.mark.parametrize(
        "model",
        [
            IidGaussian(),
            IidRademacher(),
            IidScaledUniform(),
            LongRangeGaussian(6, 1.0, 0.5),
            AdversarialEquicorrelated(),
        ],
        ids=lambda m: m.kind,
    )
    def test_statistic_mean_equals_signal_mass(self, model):
        # E T_D = sum_{k<=D} theta_k^2 for any noise with unit variance,
        # whatever the dependence structure
        spec = flat_spec(eps=0.5)
        d = 6
        rng = np.random.default_rng(42)
        coeffs = rng.uniform(-0.3, 0.3, size=4) / np.arange(1, 5)
        theta = Signal(tuple(coeffs))
        b = spec.operator.value_array(np.arange(1, d + 1))
        shift = b * theta.array(d)
        xi = model.sample_block(60_000, d, rng)
        y = shift + spec.eps * xi
        w = spec.operator.inv_sq_array(np.arange(1, d + 1))
        t_vals = (y * y - spec.eps**2) @ w
        se = t_vals.std(ddof=1) / math.sqrt(len(t_vals))
        assert abs(t_vals.mean() - theta.norm_sq()) <= 3.0 * se


class TestDecide:
    def _config(self, threshold):
        constants = detector.derive_constants(3.0, 0.1)
        return detector.DetectorConfig(
            constants=constants, d=2, threshold=threshold, c_beta=100.0
        )

    def test_above_threshold_rejects(self):
        spec = flat_spec(eps=1.0)
        assert detector.decide(np.array([1.0, 2.0]), self._config(2.0), spec)

    def test_boundary_rejects(self):
        spec = flat_spec(eps=1.0)
        # statistic is exactly 3.0 here; threshold 3.0 must reject
        assert detector.decide(np.array([1.0, 2.0]), self._config(3.0), spec)

    def test_below_threshold_accepts(self):
        spec = flat_spec(eps=1.0)
        assert not detector.decide(np.array([1.0, 2.0]), self._config(3.1), spec)


class TestCalibrationEquation:
    def test_exact_root_frozen_value(self):
        constants = detector.DetectorConstants(c1=2.0, c2=0.0, k1=2.0, k2=10.0, alpha=0.5)
        root = detector.solve_c_beta(constants, 0.5)
        assert root == pytest.approx(22.0 + math.sqrt(480.0), rel=1e-12)
        assert detector.c_beta_residual(constants, root) == pytest.approx(0.5, abs=1e-4)

    def test_practical_value(self):
        # the practical 8 K2/beta = 160 that `calibrate` reports next to the
        # exact root
        constants = detector.DetectorConstants(c1=0.0, c2=0.0, k1=2.0, k2=10.0, alpha=0.5)
        assert detector.c_beta_residual(constants, 160.0) == pytest.approx(
            0.125 / 0.9875**2, rel=1e-12
        )

    def test_residual_refuses_nan_and_reads_its_limits(self):
        constants = detector.derive_constants(3.0, 0.1)
        for c_beta in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="calibration constant must be positive"):
                detector.c_beta_residual(constants, c_beta)
        assert detector.c_beta_residual(constants, math.inf) == 0.0
        assert detector.c_beta_residual(constants, constants.k1) == math.inf

    def test_degenerate_k1_zero(self):
        constants = detector.derive_constants(1.0, 0.5)  # K1 = 0, K2 = 12
        assert detector.solve_c_beta(constants, 0.25) == pytest.approx(2.0 * 12.0 / 0.25)

    def test_residual_inverts_root_over_random_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            constants = detector.DetectorConstants(
                c1=0.0,
                c2=0.0,
                k1=float(rng.uniform(0.0, 20.0)),
                k2=float(rng.uniform(1.0, 100.0)),
                alpha=0.1,
            )
            beta = float(rng.uniform(0.01, 0.99))
            root = detector.solve_c_beta(constants, beta)
            assert root > constants.k1
            residual = detector.c_beta_residual(constants, root)
            assert abs(residual - beta) <= 1e-8 * beta

    @pytest.mark.parametrize(
        "c, alpha, message",
        [
            # the root rounds onto K1 = 2e150
            (3.0, 1e-300, "c_beta = 2e+150 is not a finite number above K1 = 2e+150;"),
            # K1 overflows and the root is nan
            (1e300, 1e-300, "c_beta = nan is not a finite number above K1 = inf;"),
        ],
        ids=["root-on-K1", "K1-overflows"],
    )
    def test_unusable_root_rejected(self, c, alpha, message):
        constants = detector.derive_constants(c, alpha)
        with pytest.raises(ValueError, match=re.escape(message)):
            detector.solve_c_beta(constants, 0.1)


class TestBandwidthSelection:
    def test_matches_integer_grid_oracle(self):
        spec = flat_spec(eps=1.0)
        sel = detector.select_bandwidth(spec, 0.002)
        objective = lambda d: 0.002 * d + d**-2.0
        brute = min(range(1, 200), key=objective)
        assert sel.d == brute == 10
        assert sel.value == pytest.approx(0.03)

    def test_huge_noise_picks_first_bandwidth(self):
        spec = flat_spec(eps=1000.0)
        assert detector.select_bandwidth(spec, 100.0).d == 1

    def test_vanishing_noise_hits_truncation(self):
        spec = flat_spec(eps=1e-30, d_max=512)
        sel = detector.select_bandwidth(spec, 100.0)
        assert sel.truncated and sel.d == 512

    def test_returns_the_scan_results(self):
        spec = flat_spec(eps=1.0)
        (sel,) = detector.select_bandwidths(spec, 0.002, [1.0])
        assert type(sel) is ScanResult
        assert sel == detector.select_bandwidth(spec, 0.002) == (10, sel.value, False)

    def test_random_specs_match_bounded_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            t = float(rng.uniform(0.3, 1.2))
            s = float(rng.uniform(0.5, 1.5))
            spec = ProblemSpec(
                OperatorFamily("mildly_ill_posed", t),
                SmoothnessFamily("ordinary_smooth", s),
                eps=float(rng.uniform(0.01, 0.3)),
            )
            c_beta = float(rng.uniform(1.0, 50.0))
            sel = detector.select_bandwidth(spec, c_beta)
            objective = lambda d: (
                c_beta * spec.eps**2 * sum_inv_b_sq(spec, d) + bias_term(spec, d)
            )
            brute = min(range(1, 2000), key=objective)
            assert sel.d == brute
            assert sel.value == pytest.approx(objective(brute), rel=1e-12)


class TestCalibrateConfig:
    @pytest.mark.parametrize("c_beta", [1.0, math.nan, math.inf])
    def test_c_beta_must_exceed_k1(self, c_beta):
        constants = detector.derive_constants(3.0, 0.01)
        with pytest.raises(ValueError, match="finite and exceed K1"):
            detector.DetectorConfig(
                constants=constants, d=1, threshold=1.0, c_beta=c_beta
            )

    @pytest.mark.parametrize("d", [2.5, 3.0, math.nan, 0, True])
    def test_bandwidth_must_be_a_positive_integer(self, d):
        # 2.5 used to build, and failed only inside estimate_type1; True built
        constants = detector.derive_constants(3.0, 0.01)
        with pytest.raises(ValueError, match=f"bandwidth must be a positive integer, got {d!r}"):
            detector.DetectorConfig(
                constants=constants, d=d, threshold=1.0, c_beta=100.0
            )

    def test_degenerate_rademacher_calibration(self):
        # C = 1 makes K1 = 0: the threshold collapses to 0 and the boundary
        # convention rejects the (degenerate) statistic that is identically 0
        spec = flat_spec(eps=0.1, c=1.0)
        config = detector.calibrate(spec, 0.1, 0.1, d=4)
        assert config.threshold == 0.0
        xi = IidRademacher().sample(4, np.random.default_rng(0))
        assert detector.decide(spec.eps * xi, config, spec)

    @pytest.mark.parametrize("d", [None, 3])
    def test_unusable_calibration_constant_raises(self, d):
        # K1 overflows, so the root is nan; calibrate refuses it with or
        # without a pinned bandwidth
        with pytest.raises(ValueError, match="c_beta = nan is not a finite number above K1"):
            detector.calibrate(flat_spec(c=1e300), 1e-300, 0.1, d=d)

    def test_upper_bound_overflowing_everywhere_raises(self):
        # every weight b_k^-2 is 1e308, so c_beta eps^2 sum b^-2 overflows
        # at every bandwidth: none is left to select
        spec = ProblemSpec(
            OperatorFamily("well_posed", scale=1e-154), SmoothnessFamily("ordinary_smooth", 1.0),
            1.0,
        )
        with pytest.raises(
            ValueError,
            match="at eps = 1 the upper bound overflows at every bandwidth; the operator "
            "scale or the noise level is too extreme",
        ):
            detector.calibrate(spec, 0.1, 0.1)

    def test_threshold_must_be_finite(self):
        # on b_k = e^-k the sum of b_k^-2 = e^2k overflows past k = 354: a
        # test at D = 355 would accept every draw, and 1/b_D would be 0
        spec = ProblemSpec(
            OperatorFamily("severely_ill_posed", 1.0), SmoothnessFamily("ordinary_smooth", 1.0),
            1e-3,
        )
        config = detector.calibrate(spec, 0.1, 0.1, d=354)
        assert math.isfinite(config.threshold)
        with pytest.raises(ValueError, match="threshold at D = 355 must be finite, got inf"):
            detector.calibrate(spec, 0.1, 0.1, d=355)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_replaced_threshold_must_be_finite(self, value):
        config = detector.calibrate(flat_spec(), 0.1, 0.1, d=4)
        with pytest.raises(ValueError, match="threshold at D = 4 must be finite"):
            dataclasses.replace(config, threshold=value)


class TestStatisticalBehaviour:
    @pytest.mark.parametrize(
        "model",
        [
            IidGaussian(),
            IidRademacher(),
            IidScaledUniform(),
            LongRangeGaussian(8, 1.0, 0.5),
            AdversarialEquicorrelated(),
        ],
        ids=lambda m: m.kind,
    )
    def test_type_one_control_markov_conservative(self, model):
        spec = flat_spec(eps=0.2, c=3.0)
        config = detector.calibrate(spec, 0.1, 0.1, d=8)
        rng = np.random.default_rng(100)
        reps = 4000
        xi = model.sample_block(reps, 8, rng)
        y = spec.eps * xi
        w = spec.operator.inv_sq_array(np.arange(1, 9))
        t_vals = (y * y - spec.eps**2) @ w
        rate = float(np.mean(t_vals >= config.threshold))
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / reps)
        assert rate <= 0.1 + 3.0 * se

    def test_threshold_dominance_over_null_variance(self):
        # alpha * threshold^2 >= R0 + S0 for every unit-diagonal Gaussian
        # covariance, by the envelope R0 + S0 <= 2 C1 eps^4 (sum b^-2)^2
        rng = np.random.default_rng(55)
        spec = ProblemSpec(
            OperatorFamily("mildly_ill_posed", 0.6),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=0.4,
        )
        constants = detector.derive_constants(3.0, 0.07)
        for _ in range(25):
            d = int(rng.integers(2, 10))
            f = rng.normal(size=(d, d + 3))
            m = f @ f.T
            scale = np.sqrt(np.diag(m))
            cov = CorrelationMatrix(m / np.outer(scale, scale))
            r0, s0 = null_variance_decomposition(spec, cov, d)
            thr = detector.threshold(constants, spec, d)
            assert constants.alpha * thr * thr >= (r0 + s0) * (1.0 - 1e-12)

    def test_variance_envelope_under_alternative(self):
        # Var(T_D) <= K2 (gamma (sum theta^2)^2 + gamma^-1 eps^4 (sum b^-2)^2)
        # with gamma = 1/C_beta, for Gaussian noise and random spike signals
        rng = np.random.default_rng(77)
        spec = flat_spec(eps=0.3, c=3.0)
        config = detector.calibrate(spec, 0.1, 0.1, d=6)
        gamma = 1.0 / config.c_beta
        model = AdversarialEquicorrelated(0.8)
        for trial in range(4):
            d = 6
            r = float(rng.uniform(0.02, 1.0 / 6.0))
            theta = boundary_signal(spec, d, r)
            b = spec.operator.value_array(np.arange(1, d + 1))
            shift = b * theta.array(d)
            xi = model.sample_block(60_000, d, np.random.default_rng(trial))
            y = shift + spec.eps * xi
            w = spec.operator.inv_sq_array(np.arange(1, d + 1))
            t_vals = (y * y - spec.eps**2) @ w
            envelope = config.constants.k2 * (
                gamma * theta.norm_sq() ** 2
                + spec.eps**4 * float(w.sum()) ** 2 / gamma
            )
            assert float(np.var(t_vals, ddof=1)) <= envelope * 1.05
