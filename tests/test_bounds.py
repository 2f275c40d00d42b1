"""Tests for the separation-radius bounds and rate machinery.

Covers:
1. The lower-bound coefficient and both optimisations against grid oracles
2. Ordering lower <= upper over randomized specs, and the truncation warning
3. The classical comparator: termwise domination and bias-only limit
4. Rate fitting on synthetic data and the known rate laws per cell,
   including the upper bound fitted deep in its asymptotic regime
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from seqdetect import bounds, detector
from seqdetect.sequences import (
    OperatorFamily,
    ProblemSpec,
    SmoothnessFamily,
    sum_inv_b_4,
    sum_inv_b_sq,
)


def make_spec(op, sm, eps, c=3.0, d_max=1 << 16):
    return ProblemSpec(op, sm, eps=eps, fourth_moment_bound=c, d_max=d_max)


class TestLowerCoefficient:
    def test_frozen_value(self):
        assert bounds.c_alpha_beta(0.05, 0.05) == pytest.approx(4.24)
        assert bounds.lower_coefficient(0.05, 0.05) == pytest.approx(
            math.log(4.24) / 4.0, rel=1e-12
        )

    def test_levels_must_leave_room(self):
        with pytest.raises(ValueError, match="alpha \\+ beta"):
            bounds.lower_coefficient(0.6, 0.5)


class TestRadiusOptimisations:
    def test_lower_grid_oracle(self):
        # coeff * eps^2 = 0.001 against bias D^-2: crossover at D = 10
        coeff = bounds.lower_coefficient(0.05, 0.05)
        eps = math.sqrt(0.001 / coeff)
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), eps
        )
        (rb,) = bounds.bounds_over_grid(spec, [eps], 0.05, 0.05)
        brute = max(range(1, 200), key=lambda k: min(0.001 * k, k**-2.0))
        assert rb.d_lower == brute == 10
        assert rb.lower_r2 == pytest.approx(0.01, rel=1e-12)

    def test_upper_delegates_to_bandwidth_selection(self):
        # c_beta eps^2 = 0.002 against bias D^-2: minimised at D = 10
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), eps=1.0
        )
        eps = math.sqrt(0.001)
        (rb,) = bounds.bounds_over_grid(spec, [eps], 0.05, 0.05, c_beta=2.0)
        assert (rb.upper_r2, rb.d_upper) == (pytest.approx(0.03), 10)
        selection = detector.select_bandwidth(replace(spec, eps=eps), 2.0)
        assert (rb.upper_r2, rb.d_upper) == (selection.value, selection.d)

    def test_upper_monotone_in_eps(self):
        spec = make_spec(
            OperatorFamily("mildly_ill_posed", 0.5), SmoothnessFamily("ordinary_smooth", 1.0), 0.2
        )
        hi, lo = bounds.bounds_over_grid(spec, [0.2, 0.1], 0.05, 0.05, c_beta=50.0)
        assert lo.upper_r2 <= hi.upper_r2

    def test_upper_overflowing_everywhere_raises(self):
        # every weight b_k^-2 is 1e308: no bandwidth has a finite objective
        spec = make_spec(
            OperatorFamily("well_posed", scale=1e-154), SmoothnessFamily("ordinary_smooth", 1.0),
            1.0,
        )
        with pytest.raises(ValueError, match="upper bound overflows at every bandwidth"):
            detector.select_bandwidth(spec, 2.0)

    def test_truncation_warns_at_the_caller(self):
        # all three optima lie past D = 256, so each eps warns three times,
        # upper, lower and classical in turn, and every warning names this file
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 1e-30,
            d_max=256,
        )
        with pytest.warns(UserWarning, match="scan limit") as record:
            bounds.bounds_over_grid(spec, [1e-30, 1e-31], 0.05, 0.05, c_beta=100.0)
        assert [str(w.message).split("-")[0] for w in record] == [
            "upper", "lower", "classical"
        ] * 2
        assert {w.filename for w in record} == {__file__}


class TestTheorem1Bounds:
    def test_ordering_over_randomized_specs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            kind = int(rng.integers(0, 3))
            t = float(rng.uniform(0.3, 1.2))
            s = float(rng.uniform(0.5, 1.5))
            op = [
                OperatorFamily("well_posed"),
                OperatorFamily("mildly_ill_posed", t),
                OperatorFamily("severely_ill_posed", t),
            ][kind]
            sm = (
                SmoothnessFamily("ordinary_smooth", s)
                if rng.integers(0, 2) == 0
                else SmoothnessFamily("super_smooth", s)
            )
            eps = float(10.0 ** rng.uniform(-4, -0.5))
            alpha = float(rng.uniform(0.02, 0.4))
            beta = float(rng.uniform(0.02, 0.4))
            (rb,) = bounds.bounds_over_grid(make_spec(op, sm, eps), [eps], alpha, beta)
            assert rb.lower_r2 <= rb.upper_r2
            assert rb.lower_r2 > 0

    @pytest.mark.parametrize(
        "c, message",
        [
            # the root rounds onto K1 = 2e150: the upper bound was 2e146
            (3.0, "c_beta = 2e+150 is not a finite number above K1 = 2e+150;"),
            # K1 overflows and the root is nan
            (1e300, "c_beta = nan is not a finite number above K1 = inf;"),
        ],
        ids=["root-on-K1", "K1-overflows"],
    )
    def test_unusable_calibration_constant_raises(self, c, message):
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 0.1, c=c
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            bounds.bounds_over_grid(spec, [0.1], 1e-300, 0.1)

    @pytest.mark.parametrize("c_beta", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_caller_c_beta_raises(self, c_beta):
        # unchecked, c_beta = inf comes back as upper_r2 = inf, d_upper = 0
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 0.01
        )
        message = f"c_beta must be a positive finite number, got {c_beta!r}"
        for call in (
            lambda: detector.select_bandwidths(spec, c_beta, [0.01]),
            lambda: detector.select_bandwidth(spec, c_beta),
            lambda: bounds.bounds_over_grid(spec, [0.01], 0.1, 0.1, c_beta=c_beta),
            lambda: bounds.bounds_over_grid(spec, [0.01, 0.02], 0.1, 0.1, c_beta=c_beta),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        # a finite c_beta whose objective overflows everywhere is a scan that
        # selects no bandwidth, D = 0, as before
        (point,) = bounds.bounds_over_grid(spec, [10.0], 0.1, 0.1, c_beta=1e308)
        assert (point.upper_r2, point.d_upper) == (math.inf, 0)

    def test_caller_c_beta_below_lower_coefficient_raises(self):
        # below ln(C_ab)/4 the lower bound can exceed the upper one: here
        # 0.000984 against 0.000189, which is the caller's error, not a bug
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 0.01
        )
        coeff = bounds.lower_coefficient(0.1, 0.1)
        message = f"c_beta = 0.01 is below the lower-bound coefficient ln(C_ab)/4 = {coeff!r}"
        for eps_grid in ([0.01], [0.1, 0.01]):
            with pytest.raises(ValueError, match=re.escape(message)):
                bounds.bounds_over_grid(spec, eps_grid, 0.1, 0.1, c_beta=0.01)
        # at the coefficient itself every lower term is at most every upper term
        points = bounds.bounds_over_grid(spec, [0.1, 0.01], 0.1, 0.1, c_beta=coeff)
        assert all(0.0 < p.lower_r2 <= p.upper_r2 for p in points)


class TestClassicalComparator:
    def test_never_exceeds_general_upper_bound(self):
        # termwise: eps^2 sqrt(sum b^-4) <= C_beta eps^2 sum b^-2 for C_beta >= 1
        rng = np.random.default_rng(9)
        for _ in range(15):
            t = float(rng.uniform(0.3, 1.0))
            spec = make_spec(
                OperatorFamily("mildly_ill_posed", t),
                SmoothnessFamily("ordinary_smooth", 1.0),
                eps=float(10.0 ** rng.uniform(-3, -1)),
            )
            (point,) = bounds.bounds_over_grid(spec, [spec.eps], 0.1, 0.1, c_beta=25.0)
            assert point.classical_r2 <= point.upper_r2 * (1.0 + 1e-12)

    def test_bias_only_limit_hits_truncation(self):
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 1e-300,
            d_max=128,
        )
        with pytest.warns(UserWarning, match="scan limit") as record:
            (point,) = bounds.bounds_over_grid(spec, [spec.eps], 0.1, 0.1)
        assert "classical-bound minimiser hit the scan limit D = 128" in [
            str(w.message) for w in record
        ]
        assert point.d_classical == 128
        assert point.classical_r2 == pytest.approx(128.0**-2.0, rel=1e-6)

    def test_brute_force_interior_minimiser(self):
        # D^-2 + eps^2 sqrt(D) at eps = 0.1 is minimised near D = 400^0.4 = 11,
        # well inside d_max = 64, so the scan must not warn
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 0.1, d_max=64
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (point,) = bounds.bounds_over_grid(spec, [0.1], 0.1, 0.1)
        oracle = {k: k**-2.0 + 0.1**2 * math.sqrt(k) for k in range(1, 65)}
        best = min(oracle, key=oracle.get)
        assert point.d_classical == best == 11
        assert point.classical_r2 == pytest.approx(oracle[best], rel=1e-14)

    def test_well_posed_rate_exponent(self):
        # balancing eps^2 sqrt(D) against D^-2s gives r^2 ~ eps^(8s/(4s+1))
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 0.1
        )
        eps_grid = [2.0**-k for k in range(6, 17)]
        points = bounds.bounds_over_grid(spec, eps_grid, 0.1, 0.1)
        grid = [(eps, point.classical_r2) for eps, point in zip(eps_grid, points)]
        fit = bounds.fit_rate(grid, bounds.LOG_EPS)
        assert fit.exponent == pytest.approx(8.0 / 5.0, abs=0.05)

    def test_classical_radii_shrink_faster_when_mildly_ill_posed(self):
        # sqrt(sum b^-4) grows slower than sum b^-2, so independent noise
        # buys a strictly faster decay exponent for polynomial spectra
        s, t = 1.0, 0.5
        c_beta = detector.solve_c_beta(detector.derive_constants(1.0, 0.25), 0.25)
        spec = make_spec(
            OperatorFamily("mildly_ill_posed", t), SmoothnessFamily("ordinary_smooth", s), 0.1,
            c=1.0,
        )
        eps_grid = [2.0**-k for k in range(4, 15)]
        points = bounds.bounds_over_grid(spec, eps_grid, 0.25, 0.25, c_beta)
        classical_fit, general_fit = (
            bounds.fit_rate(list(zip(eps_grid, values)), bounds.LOG_EPS).exponent
            for values in zip(*((p.classical_r2, p.upper_r2) for p in points))
        )
        assert classical_fit == pytest.approx(8.0 * s / (4.0 * s + 4.0 * t + 1.0), abs=0.05)
        assert general_fit == pytest.approx(4.0 * s / (2.0 * s + 2.0 * t + 1.0), abs=0.05)
        assert classical_fit > general_fit + 0.05

    def test_severely_ill_posed_exponents_coincide(self):
        # exponential spectra make both variance terms the same exponential
        # scale, so dependence costs nothing in the rate
        s = t = 0.25
        c_beta = detector.solve_c_beta(detector.derive_constants(1.0, 0.25), 0.25)
        spec = make_spec(
            OperatorFamily("severely_ill_posed", t), SmoothnessFamily("super_smooth", s), 0.1,
            c=1.0,
        )
        eps_grid = [2.0**-k for k in range(4, 15)]
        points = bounds.bounds_over_grid(spec, eps_grid, 0.25, 0.25, c_beta)
        classical_fit, general_fit = (
            bounds.fit_rate(list(zip(eps_grid, values)), bounds.LOG_EPS).exponent
            for values in zip(*((p.classical_r2, p.upper_r2) for p in points))
        )
        assert abs(classical_fit - general_fit) <= 0.05


def _grid_specs():
    """(spec, eps grid) for the six named cells, a custom spectrum and an
    overflowing severely ill-posed spectrum.  b_k^-2 = e^{10 k} of the last is
    +inf from k = 71 on and b_k^-4 from k = 36 on, so on its deep grid the
    lower maximiser reaches the first overflow and the classical minimiser
    stops below the second."""
    grid = [2.0**-k for k in range(2, 14)]
    s, t = 0.75, 0.5
    specs = {}
    for op in (
        OperatorFamily("well_posed"),
        OperatorFamily("mildly_ill_posed", t),
        OperatorFamily("severely_ill_posed", t),
    ):
        for sm in (SmoothnessFamily("ordinary_smooth", s), SmoothnessFamily("super_smooth", s)):
            specs[f"{op.kind}/{sm.kind}"] = make_spec(op, sm, 0.1, c=1.0), grid
    rng = np.random.default_rng(17)
    specs["custom"] = make_spec(
        OperatorFamily.custom(np.sort(rng.uniform(0.05, 1.0, 300))[::-1]),
        SmoothnessFamily("ordinary_smooth", 1.0),
        0.1,
    ), grid
    specs["overflowing"] = make_spec(
        OperatorFamily("severely_ill_posed", 5.0), SmoothnessFamily("super_smooth", 0.1), 0.1
    ), [10.0**-k for k in range(10, 161, 15)]
    return specs


GRID_SPECS = _grid_specs()


class TestGridScan:
    """`bounds_over_grid` on a grid against its grids of one, compared exactly."""

    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_grid_equals_per_eps_calls(self, name):
        spec, eps_grid = GRID_SPECS[name]
        alpha, beta = 0.25, 0.25
        c_beta = detector.solve_c_beta(detector.derive_constants(1.0, alpha), beta)
        with warnings.catch_warnings(record=True) as grid_caught:
            warnings.simplefilter("always")
            grid = bounds.bounds_over_grid(spec, eps_grid, alpha, beta, c_beta)
        selections = detector.select_bandwidths(spec, c_beta, eps_grid)
        assert len(grid) == len(selections) == len(eps_grid)
        with warnings.catch_warnings(record=True) as single_caught:
            warnings.simplefilter("always")
            for eps, point, selection in zip(eps_grid, grid, selections):
                assert [point] == bounds.bounds_over_grid(spec, [eps], alpha, beta, c_beta)
                assert selection == detector.select_bandwidth(replace(spec, eps=eps), c_beta)
        assert sorted(str(w.message) for w in grid_caught) == sorted(
            str(w.message) for w in single_caught
        )

    def test_overflowing_spectrum_reaches_inf(self):
        spec, eps_grid = GRID_SPECS["overflowing"]
        assert math.isinf(sum_inv_b_sq(spec, 71)) and math.isfinite(sum_inv_b_sq(spec, 70))
        assert math.isinf(sum_inv_b_4(spec, 36)) and math.isfinite(sum_inv_b_4(spec, 35))
        deepest = bounds.bounds_over_grid(spec, eps_grid, 0.25, 0.25)[-1]
        assert (deepest.d_lower, deepest.d_classical) == (71, 35)

    def test_only_deepest_eps_warns(self):
        # classical minimisers sit at D = 5, 9, ..., 147 for eps = 2^-2..2^-8
        # and at D = 256 for eps = 2^-9; lower maximisers stay below 100
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 0.1, d_max=200
        )
        grid = [2.0**-k for k in range(2, 10)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = bounds.bounds_over_grid(spec, grid, 0.1, 0.1)
        assert [str(w.message) for w in caught] == [
            "classical-bound minimiser hit the scan limit D = 200"
        ]
        assert [p.d_classical for p in points][-2:] == [147, 200]
        assert max(p.d_lower for p in points) < 200

    def test_iterator_grid_equals_the_list(self):
        # the grid is read by three scans, so a one-shot iterable must be
        # read once
        spec = make_spec(
            OperatorFamily("mildly_ill_posed", 1.0), SmoothnessFamily("ordinary_smooth", 1.0), 0.1
        )
        grid = [0.1, 0.01, 0.001]
        want = bounds.bounds_over_grid(spec, grid, 0.1, 0.1)
        assert len(want) == len(grid)
        assert bounds.bounds_over_grid(spec, iter(grid), 0.1, 0.1) == want

    @pytest.mark.parametrize(
        "eps_grid",
        [[], [0.1, 0.0], [0.1, -0.01], [0.1, math.nan], [math.inf]],
        ids=["empty", "zero", "negative", "nan", "inf"],
    )
    def test_invalid_grid_rejected(self, eps_grid):
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), 0.1
        )
        with pytest.raises(ValueError):
            bounds.bounds_over_grid(spec, eps_grid, 0.1, 0.1)
        with pytest.raises(ValueError):
            detector.select_bandwidths(spec, 25.0, eps_grid)


class TestRateFitting:
    def test_recovers_synthetic_power(self):
        grid = [(e, 3.0 * e**1.5) for e in np.geomspace(0.1, 1e-4, 9)]
        fit = bounds.fit_rate(grid, bounds.LOG_EPS)
        assert fit.exponent == pytest.approx(1.5, abs=1e-9)
        assert fit.r_squared_of_fit == pytest.approx(1.0)

    def test_recovers_synthetic_log_power(self):
        grid = [(e, math.log(1.0 / e) ** -2.0) for e in np.geomspace(0.1, 1e-5, 10)]
        fit = bounds.fit_rate(grid, bounds.LOG_LOG_EPS)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)

    def test_offset_isolates_log_factor(self):
        grid = [(e, e**2.0 * math.log(1.0 / e) ** 3.0) for e in np.geomspace(0.1, 1e-5, 10)]
        fit = bounds.fit_rate(grid, bounds.LOG_LOG_EPS, eps_power_offset=2.0)
        assert fit.exponent == pytest.approx(3.0, abs=1e-9)

    def test_input_validation(self):
        good = [(10.0 ** -k, 1.0) for k in range(1, 6)]
        with pytest.raises(ValueError, match="5 grid points"):
            bounds.fit_rate(good[:4], bounds.LOG_EPS)
        with pytest.raises(ValueError, match="strictly decreasing"):
            bounds.fit_rate(list(reversed(good)), bounds.LOG_EPS)
        with pytest.raises(ValueError, match="unknown fit mode"):
            bounds.fit_rate(good, "loglog")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("at", [0, 3])
    def test_non_finite_eps_is_refused(self, bad, at):
        # at 0, among the dropped pre-asymptotic points, NaN used to land in
        # the fit's grid; at 3, in the regression, it failed inside LAPACK
        grid = [(10.0 ** -k, 10.0 ** -k) for k in range(1, 7)]
        grid[at] = (bad, 1.0)
        with pytest.raises(ValueError, match="finite and strictly decreasing"):
            bounds.fit_rate(grid, bounds.LOG_EPS)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_is_refused(self, offset):
        # NaN used to return an all-NaN fit, and inf to warn in a subtraction
        grid = [(e, e**2.0 * math.log(1.0 / e) ** 3.0) for e in np.geomspace(0.1, 1e-5, 10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"eps power offset must be finite, got {offset!r}"):
                bounds.fit_rate(grid, bounds.LOG_LOG_EPS, eps_power_offset=offset)

    def test_grid_is_recorded_in_full(self):
        grid = [(e, e) for e in np.geomspace(0.1, 1e-4, 7)]
        fit = bounds.fit_rate(grid, bounds.LOG_EPS)
        assert len(fit.grid) == 7


class TestRateLaws:
    def test_all_six_cells(self):
        assert bounds.rate_law("well_posed", "ordinary_smooth", s=1.0).exponent == pytest.approx(
            4.0 / 3.0
        )
        assert bounds.rate_law(
            "mildly_ill_posed", "ordinary_smooth", s=1.0, t=1.0
        ).exponent == pytest.approx(0.8)
        law = bounds.rate_law("severely_ill_posed", "ordinary_smooth", s=1.0, t=1.0)
        assert (law.mode, law.exponent) == (bounds.LOG_LOG_EPS, -2.0)
        law = bounds.rate_law("well_posed", "super_smooth", s=1.0)
        assert (law.mode, law.eps_power_offset, law.exponent) == (bounds.LOG_LOG_EPS, 2.0, 1.0)
        law = bounds.rate_law("mildly_ill_posed", "super_smooth", s=1.0, t=1.0)
        assert law.exponent == pytest.approx(3.0)
        law = bounds.rate_law("severely_ill_posed", "super_smooth", s=1.0, t=1.0)
        assert (law.mode, law.exponent) == (bounds.LOG_EPS, 1.0)

    def test_custom_rejected(self):
        with pytest.raises(ValueError, match="named families"):
            bounds.rate_law("custom", "ordinary_smooth", s=1.0)

    @pytest.mark.parametrize("exponent", [0.0, math.nan, math.inf])
    def test_exponents_must_be_positive_and_finite(self, exponent):
        with pytest.raises(ValueError, match="smoothness exponent must be positive"):
            bounds.rate_law("well_posed", "ordinary_smooth", s=exponent)
        with pytest.raises(ValueError, match="operator exponent"):
            bounds.rate_law("mildly_ill_posed", "super_smooth", s=1.0, t=exponent)
        # a well-posed cell has no operator exponent to check
        assert bounds.rate_law("well_posed", "super_smooth", s=1.0, t=exponent).exponent == 1.0


class TestUpperBoundDeepAsymptotics:
    """Log-factor cells need very small eps before the upper bound's constant
    C_beta (>= 24 for every admissible calibration) stops polluting the fitted
    exponent; these fits run at eps in [2^-80, 2^-30] where it has converged.
    """

    @pytest.mark.parametrize(
        "op,sm,s,t",
        [
            (OperatorFamily("severely_ill_posed", 1.0), SmoothnessFamily("ordinary_smooth", 0.5),
             0.5, 1.0),
            (OperatorFamily("well_posed"), SmoothnessFamily("super_smooth", 0.5), 0.5, 0.0),
            (OperatorFamily("mildly_ill_posed", 0.5), SmoothnessFamily("super_smooth", 0.5),
             0.5, 0.5),
        ],
        ids=["severely-ordinary", "wellposed-super", "mildly-super"],
    )
    def test_log_cells_fit_on_deep_grid(self, op, sm, s, t):
        c_beta = detector.solve_c_beta(detector.derive_constants(1.0, 0.25), 0.25)
        law = bounds.rate_law(op.kind, sm.kind, s=s, t=t)
        spec = make_spec(op, sm, eps=0.1, c=1.0)
        eps_grid = [2.0**-k for k in range(30, 85, 5)]
        selections = detector.select_bandwidths(spec, c_beta, eps_grid)
        grid = [(eps, selection.value) for eps, selection in zip(eps_grid, selections)]
        fit = bounds.fit_rate(grid, law.mode, law.eps_power_offset)
        assert fit.exponent == pytest.approx(law.exponent, abs=0.3)
