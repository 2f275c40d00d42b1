"""Tests for the separation-radius bounds and rate machinery.

Covers:
1. The lower-bound coefficient and both optimisations against grid oracles
2. Ordering lower <= upper over randomized specs, and the truncation warning
3. The classical comparator: termwise domination and bias-only limit
4. Consecutive-ratio regularity check, including the power-exponential
   counterexample that must fail it
5. Rate fitting on synthetic data and the known rate laws per cell,
   including the upper bound fitted deep in its asymptotic regime
"""

import math
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
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), eps
        )
        value, d = bounds.lower_radius_sq(spec, 0.05, 0.05)
        brute = max(range(1, 200), key=lambda k: min(0.001 * k, k**-2.0))
        assert d == brute == 10
        assert value == pytest.approx(0.01, rel=1e-12)

    def test_upper_delegates_to_bandwidth_selection(self):
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), eps=1.0
        )
        value, d = bounds.upper_radius_sq(spec, 0.002)
        assert (value, d) == (pytest.approx(0.03), 10)

    def test_upper_monotone_in_eps(self):
        spec_hi = make_spec(
            OperatorFamily.mildly_ill_posed(0.5), SmoothnessFamily.ordinary_smooth(1.0), 0.2
        )
        spec_lo = replace(spec_hi, eps=0.1)
        assert bounds.upper_radius_sq(spec_lo, 50.0)[0] <= bounds.upper_radius_sq(spec_hi, 50.0)[0]

    def test_truncation_warns(self):
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), 1e-30, d_max=256
        )
        with pytest.warns(UserWarning, match="scan limit"):
            bounds.upper_radius_sq(spec, 100.0)


class TestTheorem1Bounds:
    def test_ordering_over_randomized_specs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            kind = int(rng.integers(0, 3))
            t = float(rng.uniform(0.3, 1.2))
            s = float(rng.uniform(0.5, 1.5))
            op = [
                OperatorFamily.well_posed(),
                OperatorFamily.mildly_ill_posed(t),
                OperatorFamily.severely_ill_posed(t),
            ][kind]
            sm = (
                SmoothnessFamily.ordinary_smooth(s)
                if rng.integers(0, 2) == 0
                else SmoothnessFamily.super_smooth(s)
            )
            eps = float(10.0 ** rng.uniform(-4, -0.5))
            alpha = float(rng.uniform(0.02, 0.4))
            beta = float(rng.uniform(0.02, 0.4))
            rb = bounds.theorem1_bounds(make_spec(op, sm, eps), alpha, beta)
            assert rb.lower_r2 <= rb.upper_r2
            assert rb.lower_r2 > 0

    def test_reports_components(self):
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), 0.1
        )
        rb = bounds.theorem1_bounds(spec, 0.05, 0.05)
        assert rb.c_lower == pytest.approx(bounds.lower_coefficient(0.05, 0.05))
        constants = detector.derive_constants(3.0, 0.05)
        assert rb.c_beta == pytest.approx(detector.solve_c_beta(constants, 0.05))


class TestClassicalComparator:
    def test_never_exceeds_general_upper_bound(self):
        # termwise: eps^2 sqrt(sum b^-4) <= C_beta eps^2 sum b^-2 for C_beta >= 1
        rng = np.random.default_rng(9)
        for _ in range(15):
            t = float(rng.uniform(0.3, 1.0))
            spec = make_spec(
                OperatorFamily.mildly_ill_posed(t),
                SmoothnessFamily.ordinary_smooth(1.0),
                eps=float(10.0 ** rng.uniform(-3, -1)),
            )
            classical, _ = bounds.classical_upper_radius_sq(spec)
            general, _ = bounds.upper_radius_sq(spec, 25.0)
            assert classical <= general * (1.0 + 1e-12)

    def test_bias_only_limit_hits_truncation(self):
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), 1e-300,
            d_max=128,
        )
        with pytest.warns(UserWarning, match="scan limit"):
            value, d = bounds.classical_upper_radius_sq(spec)
        assert d == 128
        assert value == pytest.approx(128.0**-2.0, rel=1e-6)

    def test_brute_force_interior_minimiser(self):
        # D^-2 + eps^2 sqrt(D) at eps = 0.1 is minimised near D = 400^0.4 = 11,
        # well inside d_max = 64, so the scan must not warn
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), 0.1, d_max=64
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, d = bounds.classical_upper_radius_sq(spec)
        oracle = {k: k**-2.0 + 0.1**2 * math.sqrt(k) for k in range(1, 65)}
        best = min(oracle, key=oracle.get)
        assert d == best == 11
        assert value == pytest.approx(oracle[best], rel=1e-14)

    def test_well_posed_rate_exponent(self):
        # balancing eps^2 sqrt(D) against D^-2s gives r^2 ~ eps^(8s/(4s+1))
        spec0 = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), 0.1
        )
        grid = []
        for k in range(6, 17):
            spec = replace(spec0, eps=2.0**-k)
            grid.append((2.0**-k, bounds.classical_upper_radius_sq(spec)[0]))
        fit = bounds.fit_rate(grid, bounds.LOG_EPS)
        assert fit.exponent == pytest.approx(8.0 / 5.0, abs=0.05)

    def test_classical_radii_shrink_faster_when_mildly_ill_posed(self):
        # sqrt(sum b^-4) grows slower than sum b^-2, so independent noise
        # buys a strictly faster decay exponent for polynomial spectra
        s, t = 1.0, 0.5
        c_beta = detector.solve_c_beta(detector.derive_constants(1.0, 0.25), 0.25)
        spec0 = make_spec(
            OperatorFamily.mildly_ill_posed(t), SmoothnessFamily.ordinary_smooth(s), 0.1, c=1.0
        )
        classical_grid, general_grid = [], []
        for k in range(4, 15):
            spec = replace(spec0, eps=2.0**-k)
            classical_grid.append((2.0**-k, bounds.classical_upper_radius_sq(spec)[0]))
            general_grid.append((2.0**-k, bounds.upper_radius_sq(spec, c_beta)[0]))
        classical_fit = bounds.fit_rate(classical_grid, bounds.LOG_EPS).exponent
        general_fit = bounds.fit_rate(general_grid, bounds.LOG_EPS).exponent
        assert classical_fit == pytest.approx(8.0 * s / (4.0 * s + 4.0 * t + 1.0), abs=0.05)
        assert general_fit == pytest.approx(4.0 * s / (2.0 * s + 2.0 * t + 1.0), abs=0.05)
        assert classical_fit > general_fit + 0.05

    def test_severely_ill_posed_exponents_coincide(self):
        # exponential spectra make both variance terms the same exponential
        # scale, so dependence costs nothing in the rate
        s = t = 0.25
        c_beta = detector.solve_c_beta(detector.derive_constants(1.0, 0.25), 0.25)
        spec0 = make_spec(
            OperatorFamily.severely_ill_posed(t), SmoothnessFamily.super_smooth(s), 0.1, c=1.0
        )
        classical_grid, general_grid = [], []
        for k in range(4, 15):
            spec = replace(spec0, eps=2.0**-k)
            classical_grid.append((2.0**-k, bounds.classical_upper_radius_sq(spec)[0]))
            general_grid.append((2.0**-k, bounds.upper_radius_sq(spec, c_beta)[0]))
        classical_fit = bounds.fit_rate(classical_grid, bounds.LOG_EPS).exponent
        general_fit = bounds.fit_rate(general_grid, bounds.LOG_EPS).exponent
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
        OperatorFamily.well_posed(),
        OperatorFamily.mildly_ill_posed(t),
        OperatorFamily.severely_ill_posed(t),
    ):
        for sm in (SmoothnessFamily.ordinary_smooth(s), SmoothnessFamily.super_smooth(s)):
            specs[f"{op.kind}/{sm.kind}"] = make_spec(op, sm, 0.1, c=1.0), grid
    rng = np.random.default_rng(17)
    specs["custom"] = make_spec(
        OperatorFamily.custom(np.sort(rng.uniform(0.05, 1.0, 300))[::-1]),
        SmoothnessFamily.ordinary_smooth(1.0),
        0.1,
    ), grid
    specs["overflowing"] = make_spec(
        OperatorFamily.severely_ill_posed(5.0), SmoothnessFamily.super_smooth(0.1), 0.1
    ), [10.0**-k for k in range(10, 161, 15)]
    return specs


GRID_SPECS = _grid_specs()


class TestGridScan:
    """`bounds_over_grid` against its grid-of-one wrappers, compared exactly."""

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
                single = replace(spec, eps=eps)
                assert point.bounds == bounds.theorem1_bounds(single, alpha, beta, c_beta)
                assert (point.classical_r2, point.d_classical) == (
                    bounds.classical_upper_radius_sq(single)
                )
                assert selection == detector.select_bandwidth(single, c_beta)
        assert sorted(str(w.message) for w in grid_caught) == sorted(
            str(w.message) for w in single_caught
        )

    def test_overflowing_spectrum_reaches_inf(self):
        spec, eps_grid = GRID_SPECS["overflowing"]
        assert math.isinf(sum_inv_b_sq(spec, 71)) and math.isfinite(sum_inv_b_sq(spec, 70))
        assert math.isinf(sum_inv_b_4(spec, 36)) and math.isfinite(sum_inv_b_4(spec, 35))
        deepest = bounds.bounds_over_grid(spec, eps_grid, 0.25, 0.25)[-1]
        assert (deepest.bounds.d_lower, deepest.d_classical) == (71, 35)

    def test_only_deepest_eps_warns(self):
        # classical minimisers sit at D = 5, 9, ..., 147 for eps = 2^-2..2^-8
        # and at D = 256 for eps = 2^-9; lower maximisers stay below 100
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), 0.1, d_max=200
        )
        grid = [2.0**-k for k in range(2, 10)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = bounds.bounds_over_grid(spec, grid, 0.1, 0.1)
        assert [str(w.message) for w in caught] == [
            "classical-bound minimiser hit the scan limit D = 200"
        ]
        assert [p.d_classical for p in points][-2:] == [147, 200]
        assert max(p.bounds.d_lower for p in points) < 200

    @pytest.mark.parametrize(
        "eps_grid",
        [[], [0.1, 0.0], [0.1, -0.01], [0.1, math.nan], [math.inf]],
        ids=["empty", "zero", "negative", "nan", "inf"],
    )
    def test_invalid_grid_rejected(self, eps_grid):
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(1.0), 0.1
        )
        with pytest.raises(ValueError):
            bounds.bounds_over_grid(spec, eps_grid, 0.1, 0.1)
        with pytest.raises(ValueError):
            detector.select_bandwidths(spec, 25.0, eps_grid)


class TestHypAbCheck:
    def test_ordinary_smooth_holds(self):
        spec = make_spec(
            OperatorFamily.mildly_ill_posed(1.0), SmoothnessFamily.ordinary_smooth(2.0), 0.1
        )
        report = bounds.check_hyp_ab(spec, 64)
        assert report.holds
        assert report.a_star == pytest.approx(2.0**-2.0)  # ratio extreme at D = 2
        assert report.a_sup < 1.0
        assert report.b_sup == pytest.approx(2.0)

    def test_super_smooth_constant_ratio(self):
        spec = make_spec(
            OperatorFamily.severely_ill_posed(0.5), SmoothnessFamily.super_smooth(1.0), 0.1
        )
        report = bounds.check_hyp_ab(spec, 32)
        assert report.holds
        assert report.a_star == pytest.approx(math.exp(-1.0))
        assert report.a_sup == pytest.approx(math.exp(-1.0))
        assert report.b_star == pytest.approx(math.exp(0.5))

    def test_power_exponential_fails(self):
        # a_k = exp(s k^2): consecutive ratio exp(-s (2k - 1)) -> 0
        values = [math.exp(min(0.5 * k * k, 700.0)) for k in range(1, 65)]
        sm = SmoothnessFamily.custom(values)
        spec = make_spec(OperatorFamily.well_posed(), sm, 0.1)
        report = bounds.check_hyp_ab(spec, 40)
        assert not report.holds
        assert report.a_star < 1e-6

    @pytest.mark.parametrize(
        "op",
        [
            OperatorFamily.well_posed(),
            OperatorFamily.mildly_ill_posed(1.3),
            OperatorFamily.severely_ill_posed(0.9),
        ],
        ids=lambda f: f.kind,
    )
    @pytest.mark.parametrize(
        "sm",
        [SmoothnessFamily.ordinary_smooth(1.1), SmoothnessFamily.super_smooth(0.6)],
        ids=lambda f: f.kind,
    )
    def test_all_named_combinations_hold(self, op, sm):
        report = bounds.check_hyp_ab(make_spec(op, sm, 0.1), 128)
        assert report.holds
        assert 0.0 < report.a_star <= report.a_sup <= 1.0
        assert 1.0 <= report.b_star <= report.b_sup


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


class TestUpperBoundDeepAsymptotics:
    """Log-factor cells need very small eps before the upper bound's constant
    C_beta (>= 24 for every admissible calibration) stops polluting the fitted
    exponent; these fits run at eps in [2^-80, 2^-30] where it has converged.
    """

    @pytest.mark.parametrize(
        "op,sm,s,t",
        [
            (OperatorFamily.severely_ill_posed(1.0), SmoothnessFamily.ordinary_smooth(0.5), 0.5, 1.0),
            (OperatorFamily.well_posed(), SmoothnessFamily.super_smooth(0.5), 0.5, 0.0),
            (OperatorFamily.mildly_ill_posed(0.5), SmoothnessFamily.super_smooth(0.5), 0.5, 0.5),
        ],
        ids=["severely-ordinary", "wellposed-super", "mildly-super"],
    )
    def test_log_cells_fit_on_deep_grid(self, op, sm, s, t):
        c_beta = detector.solve_c_beta(detector.derive_constants(1.0, 0.25), 0.25)
        law = bounds.rate_law(op.kind, sm.kind, s=s, t=t)
        grid = []
        for k in range(30, 85, 5):
            spec = make_spec(op, sm, eps=2.0**-k, c=1.0)
            value, _ = bounds.upper_radius_sq(spec, c_beta)
            grid.append((2.0**-k, value))
        fit = bounds.fit_rate(grid, law.mode, law.eps_power_offset)
        assert fit.exponent == pytest.approx(law.exponent, abs=0.3)
