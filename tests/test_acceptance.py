"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s`` to see
them).  The criteria:

1. Type I control at level alpha for every shipped noise family
2. Type II control at the calibrated radius for Gaussian and adversarial noise
3. Radius-bound ordering on a randomized spec grid, and boundedness of the
   upper/lower ratio (no trend in log eps) whenever the ratio-regularity
   check holds
4. Rate-table reproduction for all six operator x smoothness cells
5. The adversarial lower-bound chain: divergence budget, spectral bound,
   alignment bound, and the Monte Carlo divergence cross-check
6. Gaussian squared-noise covariance identity and the analytic null variance
7. Decay of the cross-term share S0/R0 for long-range noise (expected
   failure: the claimed decay rate is not attained by the exact second-order
   sums, whose ratio tends to a positive constant; see the xfail reason)
8. Calibration-equation residuals, exact and practical
9. Byte-level determinism of the simulate pipeline across thread counts
"""

import math

import numpy as np
import pytest

from seqdetect import bounds, cli, detector, montecarlo
from seqdetect.noise import (
    AdversarialEquicorrelated,
    CorrelatedGaussian,
    IidGaussian,
    IidRademacher,
    IidScaledUniform,
    LongRangeGaussian,
    adversarial_sigma,
    long_range_correlation,
    null_variance_decomposition,
    isserlis_cov_sq,
)
from seqdetect.sequences import (
    OPERATOR_KINDS,
    OperatorFamily,
    ProblemSpec,
    SmoothnessFamily,
    bias_term,
    sum_inv_b_sq,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
D_MAX = 1 << 19


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def shipped_models(d: int):
    return [
        IidGaussian(),
        IidRademacher(),
        IidScaledUniform(),
        LongRangeGaussian(d, 1.0, 0.5),
        AdversarialEquicorrelated(INV_SQRT2),
    ]


class TestCriterion1TypeI:
    def test_type_one_control_all_families(self):
        alpha, d, reps = 0.1, 10, 10_000
        operators = [OperatorFamily("well_posed"), OperatorFamily("mildly_ill_posed", 1.0)]
        failures = []
        for op in operators:
            spec = ProblemSpec(
                op, SmoothnessFamily("ordinary_smooth", 1.0), eps=0.1, fourth_moment_bound=3.0
            )
            config = detector.calibrate(spec, alpha, 0.1, d=d)
            for i, model in enumerate(shipped_models(d)):
                est = montecarlo.estimate_type1(spec, config, model, reps, seed=1000 + i)
                if est.p_hat > alpha + 3.0 * est.std_err:
                    failures.append((op.kind, model.kind, est.p_hat))
        report("1 type-I control", not failures, f"{2 * 5} scenarios, reps={reps}")
        assert not failures, failures


class TestCriterion2TypeII:
    def test_type_two_control_at_calibrated_radius(self):
        alpha = beta = 0.1
        reps = 10_000
        spec = ProblemSpec(
            OperatorFamily("well_posed"),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=0.01,
            fourth_moment_bound=3.0,
        )
        config = detector.calibrate(spec, alpha, beta)
        alt = montecarlo.guaranteed_detectable_signal(spec, config.c_beta, config.d)
        assert alt.norm_sq == pytest.approx(
            config.c_beta * spec.eps**2 * sum_inv_b_sq(spec, config.d)
            + bias_term(spec, config.d)
        )
        failures = []
        for i, model in enumerate(
            [IidGaussian(), AdversarialEquicorrelated(INV_SQRT2)]
        ):
            est = montecarlo.estimate_type2(
                spec, config, model, alt.signal, reps, seed=2000 + i
            )
            if est.p_hat > beta + 3.0 * est.std_err:
                failures.append((model.kind, est.p_hat))
        report("2 type-II control", not failures, f"D={config.d}, reps={reps}")
        assert not failures, failures


def _ratios_hold(spec: ProblemSpec) -> bool:
    """Every consecutive ratio a_{k-1}/a_k and b_{k-1}/b_k, k <= 64, lies in
    [1e-6, 1e6]: the regularity under which the two radius bounds are of the
    same order."""
    ks = np.arange(1, 65)
    for family in (spec.smoothness, spec.operator):
        values = family.value_array(ks)
        ratios = values[:-1] / values[1:]
        if not np.all((ratios >= 1e-6) & (ratios <= 1e6)):
            return False
    return True


def _random_spec(rng) -> ProblemSpec:
    kind = int(rng.integers(0, 3))
    t = float(rng.uniform(0.3, 1.2))
    s = float(rng.uniform(0.7, 1.5))
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
    return ProblemSpec(op, sm, eps=0.1, fourth_moment_bound=3.0, d_max=D_MAX)


def _slope_window(spec: ProblemSpec) -> np.ndarray:
    """Four-decade eps window inside the family's asymptotic regime.

    Pure-power cells converge quickly; every cell whose rate carries a
    logarithmic factor needs far smaller eps before the bound constants stop
    biasing the ratio, and the bandwidths there grow only like log(1/eps).
    """
    op, sm = spec.operator.kind, spec.smoothness.kind
    if sm == "ordinary_smooth" and op == "well_posed":
        return np.geomspace(1e-2, 1e-6, 33)
    if sm == "ordinary_smooth" and op == "mildly_ill_posed":
        return np.geomspace(1e-3, 1e-7, 33)
    return np.geomspace(2.0**-40, 2.0**-80, 33)


class TestCriterion3OrderingAndSameOrder:
    # the classical comparator, which this criterion does not read, reaches
    # the scan limit at the deepest eps of the slope windows
    @pytest.mark.filterwarnings("ignore:classical-bound minimiser hit the scan limit:UserWarning")
    def test_ordering_and_ratio_slope(self):
        alpha = beta = 0.1
        rng = np.random.default_rng(20250811)
        c_beta = detector.solve_c_beta(detector.derive_constants(3.0, alpha), beta)
        specs = [_random_spec(rng) for _ in range(48)]
        # two power-exponential weight sequences: ordering still holds but the
        # ratio-regularity check must reject them
        blowup = [math.exp(min(0.4 * k * k, 700.0)) for k in range(1, 65)]
        for op in (OperatorFamily("well_posed"), OperatorFamily("mildly_ill_posed", 0.8)):
            specs.append(
                ProblemSpec(
                    op,
                    SmoothnessFamily.custom(blowup),
                    eps=0.1,
                    fourth_moment_bound=3.0,
                    d_max=D_MAX,
                )
            )
        assert len(specs) == 50

        eps_grid = np.geomspace(1e-1, 1e-5, 8)
        ordering_ok = True
        for spec in specs:
            for rb in bounds.bounds_over_grid(spec, eps_grid, alpha, beta, c_beta=c_beta):
                ordering_ok = ordering_ok and rb.lower_r2 <= rb.upper_r2

        worst_slope = 0.0
        checked = 0
        for spec in specs:
            if not _ratios_hold(spec):
                continue
            checked += 1
            window = _slope_window(spec)
            ratios = [
                rb.upper_r2 / rb.lower_r2
                for rb in bounds.bounds_over_grid(spec, window, alpha, beta, c_beta=c_beta)
            ]
            slope = float(np.polyfit(np.log(window), np.log(ratios), 1)[0])
            worst_slope = max(worst_slope, abs(slope))

        passed = ordering_ok and worst_slope <= 0.05 and checked == 48
        report(
            "3 ordering and same-order",
            passed,
            f"50 specs x 8 eps; worst |slope| {worst_slope:.4f}",
        )
        assert ordering_ok
        assert checked == 48  # the two power-exponential specs must fail the ratio check
        assert worst_slope <= 0.05


#: Cell parameters for the rate table: exponents are free parameters of each
#: benchmark family; these keep the integer-bandwidth optimum well inside
#: (1, D_max) across the pinned eps grid.
RATE_CELLS = [
    ("well_posed", "ordinary_smooth", 1.0, 0.0),
    ("mildly_ill_posed", "ordinary_smooth", 1.0, 0.5),
    ("severely_ill_posed", "ordinary_smooth", 0.5, 1.0),
    ("well_posed", "super_smooth", 0.5, 0.0),
    ("mildly_ill_posed", "super_smooth", 0.5, 0.5),
    ("severely_ill_posed", "super_smooth", 0.25, 0.25),
]


def _family(kind: str, exponent: float):
    return (OperatorFamily if kind in OPERATOR_KINDS else SmoothnessFamily)(kind, exponent)


class TestCriterion4RateTable:
    def test_all_six_cells(self):
        # alpha = beta = 0.25 with class constant 1 keeps the bound constants
        # as small as the calibration permits (C_beta = 96)
        alpha = beta = 0.25
        c = 1.0
        c_beta = detector.solve_c_beta(detector.derive_constants(c, alpha), beta)
        eps_grid = [2.0**-k for k in range(4, 15)]
        failures = []
        for op_kind, sm_kind, s, t in RATE_CELLS:
            op = _family(op_kind, t)
            sm = _family(sm_kind, s)
            law = bounds.rate_law(op_kind, sm_kind, s=s, t=t)
            tol = 0.05 if law.mode == bounds.LOG_EPS else 0.3
            spec = ProblemSpec(op, sm, eps=eps_grid[0], fourth_moment_bound=c, d_max=D_MAX)
            points = bounds.bounds_over_grid(spec, eps_grid, alpha, beta, c_beta=c_beta)
            upper_grid = [(eps, rb.upper_r2) for eps, rb in zip(eps_grid, points)]
            lower_grid = [(eps, rb.lower_r2) for eps, rb in zip(eps_grid, points)]
            lower_fit = bounds.fit_rate(lower_grid, law.mode, law.eps_power_offset)
            if abs(lower_fit.exponent - law.exponent) > tol:
                failures.append((op_kind, sm_kind, "lower", lower_fit.exponent, law.exponent))
            if law.mode == bounds.LOG_EPS:
                # pure powers are constant-robust: the upper bound must fit
                # here too (log-factor cells reach their asymptotic regime
                # only at far smaller eps; see tests/test_bounds.py)
                upper_fit = bounds.fit_rate(upper_grid, law.mode, law.eps_power_offset)
                if abs(upper_fit.exponent - law.exponent) > tol:
                    failures.append(
                        (op_kind, sm_kind, "upper", upper_fit.exponent, law.exponent)
                    )
        report("4 rate table", not failures, "6 cells, eps 2^-4..2^-14")
        assert not failures, failures


def _mc_divergence(spec: ProblemSpec, d: int, r: float, sigma, reps: int, seed: int) -> float:
    """Monte Carlo E_0[L^2]: the squared likelihood ratio of the worst-case
    signal against the null, averaged over Gaussian null draws with
    covariance sigma in the replication blocks of the error-rate estimates."""
    theta = montecarlo.worst_case_signal(spec, d, r, sigma).theta_star.array(d)
    b_theta = spec.operator.value_array(np.arange(1, d + 1)) * theta
    m = np.linalg.solve(sigma.submatrix(d), b_theta)
    eps2 = spec.eps**2
    quad = float(b_theta @ m) / eps2
    sums = montecarlo._map_blocks(
        CorrelatedGaussian(sigma), d, spec.eps, reps, seed, 1,
        lambda y: float(np.exp(2.0 * ((y @ m) / eps2 - 0.5 * quad)).sum()),
    )
    return math.fsum(sums) / reps


class TestCriterion5LowerBoundChain:
    def test_divergence_chain_and_monte_carlo(self):
        alpha = beta = 0.05
        budget = bounds.c_alpha_beta(alpha, beta)
        coeff = bounds.lower_coefficient(alpha, beta)
        spec = ProblemSpec(
            OperatorFamily("well_posed"),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=1.0,
            fourth_moment_bound=3.0,
        )
        chain_ok = True
        for d in range(1, 65):
            sigma = adversarial_sigma(d, INV_SQRT2)
            s_w = sum_inv_b_sq(spec, d)
            r_sq = min(coeff * spec.eps**2 * s_w, bias_term(spec, d))
            value = montecarlo.chi_sq_divergence(spec, d, math.sqrt(r_sq), sigma)
            _, _, rho_sq, v_sigma_v = montecarlo.direction_stats(spec, d, sigma)
            chain_ok = chain_ok and value <= budget + 1e-10
            chain_ok = chain_ok and v_sigma_v <= d
            chain_ok = chain_ok and rho_sq >= 0.25 * d * s_w

        mc_ok = True
        worst_rel = 0.0
        for d in range(1, 6):
            sigma = adversarial_sigma(d, INV_SQRT2)
            r_sq = min(coeff * d, bias_term(spec, d))
            closed = montecarlo.chi_sq_divergence(spec, d, math.sqrt(r_sq), sigma)
            mc = _mc_divergence(spec, d, math.sqrt(r_sq), sigma, 1_000_000, seed=500 + d)
            rel = abs(mc - closed) / closed
            worst_rel = max(worst_rel, rel)
            mc_ok = mc_ok and rel <= 0.05

        report(
            "5 lower-bound chain",
            chain_ok and mc_ok,
            f"D=1..64 analytic; MC worst rel err {worst_rel:.4f}",
        )
        assert chain_ok
        assert mc_ok


class TestCriterion6SecondOrderOracles:
    def test_isserlis_and_null_variance(self):
        reps = 100_000
        # squared-coordinate covariance against the Gaussian identity
        cov = adversarial_sigma(6, 0.75)
        x = CorrelatedGaussian(cov).sample_block(reps, 6, np.random.default_rng(61))
        sq = x * x
        expected = isserlis_cov_sq(cov)
        centred = sq - sq.mean(axis=0)
        isserlis_ok = True
        for k in range(6):
            for l in range(6):
                prods = centred[:, k] * centred[:, l]
                se = prods.std(ddof=1) / math.sqrt(reps)
                if abs(prods.mean() - expected[k, l]) > 3.0 * se:
                    isserlis_ok = False

        # analytic null variance against the empirical statistic variance
        spec = ProblemSpec(
            OperatorFamily("mildly_ill_posed", 0.5),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=0.3,
        )
        w = spec.operator.inv_sq_array(np.arange(1, 9))
        variance_ok = True
        worst = 0.0
        for i, cov8 in enumerate(
            [adversarial_sigma(8, 0.72), long_range_correlation(8, 1.0, 0.5)]
        ):
            r0, s0 = null_variance_decomposition(spec, cov8, 8)
            x = CorrelatedGaussian(cov8).sample_block(reps, 8, np.random.default_rng(70 + i))
            y = spec.eps * x
            t_vals = (y * y - spec.eps**2) @ w
            rel = abs(float(np.var(t_vals, ddof=1)) - (r0 + s0)) / (r0 + s0)
            worst = max(worst, rel)
            variance_ok = variance_ok and rel <= 0.05

        report(
            "6 second-order oracles",
            isserlis_ok and variance_ok,
            f"worst variance rel err {worst:.4f}",
        )
        assert isserlis_ok
        assert variance_ok


class TestCriterion7CrossTermDecay:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the claimed decay cannot hold: for decay exponent s > 1/2 the "
            "exact cross term S0 is of the same order as R0 (the near-diagonal "
            "band sums sum_m m^(-2s) converge instead of growing like k^(1-2s)), "
            "so S0/R0 tends to a positive constant (~zeta(2)/2 here) rather than "
            "falling like D^(1-2s)"
        ),
    )
    def test_cross_term_share_decays(self):
        s, t = 1.0, 0.5
        spec = ProblemSpec(
            OperatorFamily("mildly_ill_posed", t),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=0.1,
        )
        ds, ratios = [], []
        for p in range(4, 11):
            d = 2**p
            cov = long_range_correlation(d, s, 0.5)
            r0, s0 = null_variance_decomposition(spec, cov, d)
            ds.append(d)
            ratios.append(s0 / r0)
        slope = float(np.polyfit(np.log(ds), np.log(ratios), 1)[0])
        passed = abs(slope - (1.0 - 2.0 * s)) <= 0.25
        report(
            "7 cross-term decay",
            passed,
            f"fitted slope {slope:+.4f}, claimed {1.0 - 2.0 * s:+.1f} +- 0.25",
        )
        assert passed, f"S0/R0 slope {slope:+.4f}; ratios {ratios}"


class TestCriterion8Calibration:
    def test_residuals_exact_and_practical(self):
        rng = np.random.default_rng(88)
        exact_ok = True
        practical_ok = True
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
            residual = detector.c_beta_residual(constants, root)
            exact_ok = exact_ok and abs(residual - beta) <= 1e-8 * beta

            practical = 8.0 * constants.k2 / beta
            if 1.0 - constants.k1 / practical >= 0.5:
                practical_ok = (
                    practical_ok
                    and detector.c_beta_residual(constants, practical) <= beta * (1 + 1e-12)
                )
        report("8 calibration residuals", exact_ok and practical_ok, "100 random triples")
        assert exact_ok
        assert practical_ok


SIM_CONFIG = """
operator.kind = well_posed
smoothness.kind = ordinary_smooth
smoothness.s = 1.0
eps = 0.01
C = 3.0

noise.kind = iid_gaussian
noise.kind = adversarial_equicorrelated
noise.d = 0.7071067811865476

rng.seed = 424242
test.alpha = 0.1
test.beta = 0.1
run.reps = 1000
"""


class TestCriterion9Determinism:
    def test_simulate_bytes_identical_across_threads(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG)
        outputs = set()
        for threads in (1, 4, 8):
            for attempt in ("x", "y"):
                out = tmp_path / f"run{threads}{attempt}"
                code = cli.main(
                    [
                        "simulate",
                        "--config",
                        str(cfg),
                        "--output",
                        str(out),
                        "--threads",
                        str(threads),
                    ]
                )
                assert code == 0
                outputs.add((out / "simulate.csv").read_bytes())
        passed = len(outputs) == 1
        report("9 determinism", passed, "threads 1/4/8, two runs each")
        assert passed
