"""Tests for the noise families and second-order analysis.

Covers:
1. The equicorrelated adversarial matrix and its sampling representation
2. Long-range correlation construction, PSD repair, and the decay envelope;
   every amplitude in (0, 1] builds, in at most five ``eigh`` calls, and the
   Polya bound on the amplitude that this count rests on
3. Closed-form moments of every shipped family (validate_moments at 1e5)
4. The Gaussian squared-noise identities: empirical Cov(xi_k^2, xi_l^2)
   against 2 Sigma_kl^2 and E[(xi_k^2 - 1) xi_l] against 0
5. The null variance split R0 + S0, its exact small cases, the
   class-wide envelope 2 C1 eps^4 (sum b^-2)^2, and S0 = 0 for independent
   noise however large the weights
6. The size limit of the dense correlated families
7. The long-range family builds each matrix once: its matrix, sampling
   factor and draws equal those of the dense c |k-l|^-s construction bit
   for bit.  The adversarial model checks its one loading at construction,
   samples any dimension, and builds its D x D matrix only when asked for it
8. Each family's class constant C is a class attribute fixed by its law,
   never a constructor argument
"""

import inspect
import itertools
import math

import numpy as np
import pytest

from seqdetect import noise
from seqdetect.noise import (
    AdversarialEquicorrelated,
    CorrelatedGaussian,
    CorrelationMatrix,
    IidGaussian,
    IidRademacher,
    IidScaledUniform,
    LongRangeGaussian,
    adversarial_sigma,
    isserlis_cov_sq,
    long_range_correlation,
    null_variance_decomposition,
    validate_moments,
)
from seqdetect.sequences import OperatorFamily, ProblemSpec, SmoothnessFamily

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: The long-range grid over which the build loop's bound is checked: the
#: extreme exponents give all-equal (s = 1e-300) and tridiagonal (s = 1e300)
#: proposals, the amplitudes run from near the identity to 1.
LOOP_DIMENSIONS = (1, 2, 3, 7, 64, 128)
LOOP_EXPONENTS = (1e-300, 0.1, 0.5, 1.0, 10.0, 1e300)
LOOP_AMPLITUDES = (1e-300, 5e-4, 0.5, 0.7, 0.9, 1.0)


def flat_spec(eps=1.0):
    return ProblemSpec(
        OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 1.0), eps=eps
    )


class TestAdversarialSigma:
    def test_two_by_two_equals_half(self):
        m = adversarial_sigma(2, INV_SQRT2).entries
        assert m == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-12)

    def test_dimension_one(self):
        assert adversarial_sigma(1, 0.9).entries == pytest.approx(np.array([[1.0]]))

    def test_products_off_diagonal(self):
        m = adversarial_sigma(3, 0.8).entries
        off = m[~np.eye(3, dtype=bool)]
        assert off == pytest.approx(0.64)
        assert np.all(off >= 0.5)

    def test_loading_range_enforced(self):
        with pytest.raises(ValueError, match="factor loadings"):
            adversarial_sigma(3, 0.5)
        with pytest.raises(ValueError, match="factor loadings"):
            adversarial_sigma(3, 1.0)

    def test_always_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(1, 40))
            loading = float(rng.uniform(INV_SQRT2, 0.999))
            sigma = adversarial_sigma(d, loading)
            assert np.linalg.eigvalsh(sigma.entries)[0] >= -1e-12


class TestLongRangeCorrelation:
    def test_small_case_exact(self):
        m = long_range_correlation(2, 1.0, 0.5).entries
        assert m == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_tiny_amplitude_near_identity(self):
        m = long_range_correlation(6, 1.0, 0.002).entries
        off = m[~np.eye(6, dtype=bool)]
        assert np.all(np.abs(off) <= 0.002 + 1e-12)

    def test_amplitude_below_a_thousandth_builds(self):
        # every c in (0, 1] is an amplitude; the search used to refuse c < 1e-3
        # at every dimension, the 1 x 1 identity too
        m = LongRangeGaussian(8, 1.0, 5e-4).correlation(8).entries
        assert np.all(m[~np.eye(8, dtype=bool)] <= 5e-4)
        assert np.array_equal(long_range_correlation(1, 1.0, 5e-4).entries, np.ones((1, 1)))

    def test_at_most_five_eigh_per_build(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        tries = {}
        for case in itertools.product(LOOP_DIMENSIONS, LOOP_EXPONENTS, LOOP_AMPLITUDES):
            calls.clear()
            long_range_correlation(*case)
            tries[case] = len(calls)
        assert all(1 <= n <= 5 for n in tries.values()), tries
        # the grid attains the bound: four shrinks at c = 1 with s >= 10, D >= 64
        assert max(tries.values()) == 5

    def test_polya_bound_gives_a_psd_proposal(self):
        # Polya's criterion: the row 1, c 1^-s, c 2^-s, ... is convex once
        # c <= 1/(2 - 2^-s), and then its Toeplitz matrices are PSD at every
        # D; that bound is at least 1/2, so four shrinks from c <= 1 reach it
        assert noise._LONG_RANGE_SHRINK**4 <= 0.5
        for d, s in itertools.product(LOOP_DIMENSIONS, LOOP_EXPONENTS):
            bound = 1.0 / (2.0 - 2.0**-s)
            assert bound >= 0.5
            gaps = np.abs(np.subtract.outer(np.arange(d), np.arange(d))).astype(float)
            with np.errstate(divide="ignore"):
                decay = np.where(gaps > 0, gaps ** (-s), 1.0)
            for c in (*LOOP_AMPLITUDES, bound):
                if c <= bound:
                    proposal = c * decay
                    np.fill_diagonal(proposal, 1.0)
                    assert np.linalg.eigvalsh(proposal)[0] >= -1e-10, (d, s, c)

    def test_repair_keeps_decay_envelope(self):
        cov = long_range_correlation(3, 1.0, 0.9)
        m = cov.entries
        assert np.linalg.eigvalsh(cov.entries)[0] >= -1e-10
        assert abs(m[0, 1]) <= 0.9 + 1e-12
        assert abs(m[0, 2]) <= 0.45 + 1e-12

    @pytest.mark.parametrize("s", [0.0, math.nan, math.inf])
    def test_decay_exponent_must_be_positive_and_finite(self, s):
        # at s = inf every off-diagonal entry would be 0: the identity
        for build in (lambda: long_range_correlation(4, s), lambda: LongRangeGaussian(4, s)):
            with pytest.raises(ValueError, match="decay exponent must be positive"):
                build()

    def test_envelope_holds_at_larger_dimension(self):
        cov = long_range_correlation(64, 0.7, 0.9)
        gaps = np.abs(np.subtract.outer(np.arange(64), np.arange(64)))
        off = gaps > 0
        assert np.all(
            np.abs(cov.entries[off]) <= 0.9 * gaps[off].astype(float) ** -0.7 + 1e-12
        )
        assert np.linalg.eigvalsh(cov.entries)[0] >= -1e-10


class TestCorrelationMatrixValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(np.array([[1.0, 0.3], [0.1, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            CorrelationMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_indefinite_matrix(self):
        bad = np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            CorrelationMatrix(bad)

    @pytest.mark.parametrize("validate_psd", [True, False])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_entries(self, value, entry, validate_psd):
        # an infinite entry makes eigvalsh return NaN, which no PSD check
        # refuses, and the Gaussian draws of the matrix all NaN
        m = np.eye(2)
        m[entry] = m[entry[::-1]] = value
        with pytest.raises(ValueError, match="correlation matrix entries must be finite"):
            CorrelationMatrix(m, validate_psd=validate_psd)


class TestSampling:
    def test_rademacher_support_and_moments(self):
        x = IidRademacher().sample_block(2000, 4, np.random.default_rng(2))
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert np.all(x**4 == 1.0)

    def test_scaled_uniform_range(self):
        x = IidScaledUniform().sample_block(2000, 3, np.random.default_rng(3))
        assert np.all(np.abs(x) <= math.sqrt(3.0))

    def test_deterministic_given_stream(self):
        model = LongRangeGaussian(6, 1.0, 0.5)
        a = model.sample(6, np.random.default_rng(77))
        b = model.sample(6, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_fixed_dimension_mismatch(self):
        model = LongRangeGaussian(4)
        with pytest.raises(ValueError, match="fixed at dimension"):
            model.sample(5, np.random.default_rng(0))

    def test_adversarial_empirical_correlation(self):
        model = AdversarialEquicorrelated(INV_SQRT2)
        x = model.sample_block(200_000, 3, np.random.default_rng(8))
        emp = np.corrcoef(x.T)
        assert emp[0, 1] == pytest.approx(0.5, abs=0.01)
        assert emp[0, 2] == pytest.approx(0.5, abs=0.01)

    def test_correlated_gaussian_matches_matrix(self):
        cov = long_range_correlation(4, 1.0, 0.5)
        model = CorrelatedGaussian(cov)
        x = model.sample_block(200_000, 4, np.random.default_rng(9))
        emp = np.cov(x.T)
        assert np.allclose(emp, cov.entries, atol=0.012)


class TestMomentValidation:
    @pytest.mark.parametrize(
        "model",
        [
            IidGaussian(),
            IidRademacher(),
            IidScaledUniform(),
            LongRangeGaussian(8, 1.0, 0.5),
            AdversarialEquicorrelated(INV_SQRT2),
        ],
        ids=lambda m: m.kind,
    )
    def test_shipped_models_stay_in_class(self, model):
        report = validate_moments(model, 100_000, np.random.default_rng(13))
        assert report.within_xi

    def test_adversarial_marginals_are_gaussian(self):
        report = validate_moments(
            AdversarialEquicorrelated(INV_SQRT2), 100_000, np.random.default_rng(21), d=6
        )
        assert np.all(np.abs(report.fourth_moment - 3.0) <= 3.0 * report.fourth_moment_se)

    def test_reps_floor(self):
        with pytest.raises(ValueError, match="10\\^4"):
            validate_moments(IidGaussian(), 5000, np.random.default_rng(0))

    def test_counts_must_be_integers(self):
        # both used to reach numpy and raise a TypeError there
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least 10\\^4 replications, got 10000.5"):
            validate_moments(IidGaussian(), 10_000.5, rng)
        with pytest.raises(ValueError, match="dimension must be positive and an integer, got 3.0"):
            validate_moments(IidGaussian(), 10_000, rng, d=3.0)


class TestClassConstant:
    IID = (IidGaussian, IidRademacher, IidScaledUniform)

    @pytest.mark.parametrize(
        "cls, constant",
        [
            (IidGaussian, 3.0),
            (IidRademacher, 1.0),
            (IidScaledUniform, 1.8),
            (CorrelatedGaussian, 3.0),
            (LongRangeGaussian, 3.0),
            (AdversarialEquicorrelated, 3.0),
        ],
    )
    def test_constant_is_fixed_by_the_law(self, cls, constant):
        assert cls.claimed_fourth_moment == constant
        assert "claimed_fourth_moment" not in inspect.signature(cls).parameters
        # the iid laws have no parameter at all
        assert ("__init__" in cls.__dict__) == (cls not in self.IID)


class TestSquaredNoiseIdentities:
    def test_isserlis_entries(self):
        cov = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        m = isserlis_cov_sq(cov)
        assert m[0, 0] == 2.0
        assert m[0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("d_loading", [INV_SQRT2, 0.85])
    def test_empirical_cov_of_squares(self, d_loading):
        cov = adversarial_sigma(4, d_loading)
        model = CorrelatedGaussian(cov)
        x = model.sample_block(100_000, 4, np.random.default_rng(31))
        sq = x * x
        expected = isserlis_cov_sq(cov)
        centred = sq - sq.mean(axis=0)
        for k in range(4):
            for l in range(4):
                prods = centred[:, k] * centred[:, l]
                emp = prods.mean()
                se = prods.std(ddof=1) / math.sqrt(len(prods))
                assert abs(emp - expected[k, l]) <= 3.0 * se

    def test_square_is_uncorrelated_with_level(self):
        # E[(xi_k^2 - 1) xi_l] = 0 for jointly Gaussian pairs
        model = CorrelatedGaussian(long_range_correlation(4, 1.0, 0.5))
        x = model.sample_block(100_000, 4, np.random.default_rng(37))
        for k in range(4):
            for l in range(4):
                prods = (x[:, k] ** 2 - 1.0) * x[:, l]
                se = prods.std(ddof=1) / math.sqrt(len(prods))
                assert abs(prods.mean()) <= 3.0 * se


class TestNullVarianceDecomposition:
    def test_two_dim_exact_values(self):
        cov = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        r0, s0 = null_variance_decomposition(flat_spec(eps=1.0), cov, 2)
        assert r0 == pytest.approx(4.0)
        assert s0 == pytest.approx(1.0)

    def test_independent_noise_has_no_cross_term(self):
        r0, s0 = null_variance_decomposition(flat_spec(), CorrelationMatrix.identity(5), 5)
        assert s0 == 0.0

    def test_matches_empirical_variance(self):
        spec = ProblemSpec(
            OperatorFamily("mildly_ill_posed", 0.5),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=0.5,
        )
        cov = adversarial_sigma(6, 0.75)
        r0, s0 = null_variance_decomposition(spec, cov, 6)
        model = CorrelatedGaussian(cov)
        x = model.sample_block(150_000, 6, np.random.default_rng(41))
        y = spec.eps * x
        w = spec.operator.inv_sq_array(np.arange(1, 7))
        t_vals = (y * y - spec.eps**2) @ w
        assert float(np.var(t_vals, ddof=1)) == pytest.approx(r0 + s0, rel=0.05)

    def test_class_envelope(self):
        # R0 + S0 <= 2 C1 eps^4 (sum b^-2)^2 with C1 = 2 for Gaussian noise
        rng = np.random.default_rng(43)
        spec = ProblemSpec(
            OperatorFamily("mildly_ill_posed", 0.8),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=0.7,
        )
        for _ in range(20):
            d = int(rng.integers(2, 9))
            f = rng.normal(size=(d, d + 2))
            m = f @ f.T
            scale = np.sqrt(np.diag(m))
            cov = CorrelationMatrix(m / np.outer(scale, scale))
            r0, s0 = null_variance_decomposition(spec, cov, d)
            w = spec.operator.inv_sq_array(np.arange(1, d + 1))
            envelope = 2.0 * 2.0 * spec.eps**4 * float(w.sum()) ** 2
            assert r0 + s0 <= envelope * (1.0 + 1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="cannot cover"):
            null_variance_decomposition(flat_spec(), CorrelationMatrix.identity(3), 4)

    @pytest.mark.parametrize("d", [177, 178, 300])
    def test_large_weights_leave_no_cross_part_for_independent_noise(self, d):
        # b_k = e^-k: w M w less its diagonal part would cancel to about
        # 1e280 at D = 177, and to inf - inf = nan from D = 178 on
        spec = ProblemSpec(
            OperatorFamily("severely_ill_posed", 1.0),
            SmoothnessFamily("ordinary_smooth", 1.0),
            eps=1e-3,
        )
        _, s0 = null_variance_decomposition(spec, CorrelationMatrix.identity(d), d)
        assert s0 == 0.0


class TestDenseDimensionLimit:
    """Dense families check the dimension before building any D x D matrix."""

    @pytest.mark.parametrize(
        "build",
        [
            LongRangeGaussian,
            lambda n: AdversarialEquicorrelated().correlation(n),
            lambda n: long_range_correlation(n, 1.0),
            lambda n: adversarial_sigma(n, 0.8),
            lambda n: noise.build_noise("long_range_gaussian", n),
        ],
    )
    @pytest.mark.parametrize("dimension", [20.0, math.nan, "20"])
    def test_dimension_must_be_an_integer(self, build, dimension):
        # 20.0 used to reach numpy and raise a TypeError there
        with pytest.raises(
            ValueError, match=f"dimension must be positive and an integer, got {dimension!r}"
        ):
            build(dimension)

    def test_rejected_above_the_limit(self, monkeypatch):
        monkeypatch.setattr(noise, "MAX_DENSE_DIMENSION", 8)
        with pytest.raises(ValueError, match="long_range_gaussian noise .* D = 9 exceeds"):
            long_range_correlation(9, 1.0)
        with pytest.raises(ValueError, match="long_range_gaussian noise .* D = 9"):
            LongRangeGaussian(9, 1.0)
        with pytest.raises(ValueError, match="adversarial_equicorrelated noise .* D = 9"):
            adversarial_sigma(9, INV_SQRT2)
        with pytest.raises(ValueError, match="adversarial_equicorrelated noise .* D = 9"):
            AdversarialEquicorrelated().correlation(9)
        assert long_range_correlation(8, 1.0).dimension == 8
        assert AdversarialEquicorrelated().correlation(8).dimension == 8


def _dense_long_range(dimension, s, c):
    """The long-range matrix built densely: the D x D proposal c |k-l|^-s,
    an ``eigvalsh`` PSD test, an ``eigh`` repair and the envelope check,
    shrinking c by 0.8 per try.  Returns the matrix, the sampling factor
    ``_symmetric_sqrt`` of it and whether a repair was accepted."""
    idx = np.arange(dimension)
    gaps = np.abs(idx[:, None] - idx[None, :]).astype(float)
    with np.errstate(divide="ignore"):
        decay = np.where(gaps > 0, gaps ** (-s), 1.0)
    envelope = c * decay
    np.fill_diagonal(envelope, 1.0)
    off = ~np.eye(dimension, dtype=bool)
    c_try = c
    while True:
        proposal = c_try * decay
        np.fill_diagonal(proposal, 1.0)
        repaired = dimension > 1 and float(np.linalg.eigvalsh(proposal)[0]) < -1e-10
        m = proposal
        if repaired:
            w, v = np.linalg.eigh(proposal)
            clipped = (v * np.clip(w, 0.0, None)) @ v.T
            diag = np.sqrt(np.clip(np.diag(clipped), 1e-300, None))
            m = clipped / np.outer(diag, diag)
            m = (m + m.T) / 2.0
            np.fill_diagonal(m, 1.0)
        if np.all(np.abs(m[off]) <= envelope[off] + 1e-12):
            entries = CorrelationMatrix(m, validate_psd=False).entries
            factor = noise._symmetric_sqrt(*np.linalg.eigh(entries))
            return entries, factor, repaired
        c_try *= 0.8


class TestDenseMatricesBuiltOnce:
    def test_long_range_equals_the_dense_construction(self):
        repaired = set()
        for dimension in (1, 2, 7, 64, 150):
            for s in (0.1, 0.5, 1.0, 2.5):
                for c in (0.3, 1.0):
                    entries, factor, was_repaired = _dense_long_range(dimension, s, c)
                    if was_repaired:
                        repaired.add((dimension, s, c))
                    model = LongRangeGaussian(dimension, s, c)
                    case = (dimension, s, c)
                    assert np.array_equal(model.correlation(dimension).entries, entries), case
                    assert np.array_equal(long_range_correlation(dimension, s, c).entries, entries), case
                    draws = model.sample_block(40, dimension, np.random.default_rng(5))
                    want = np.random.default_rng(5).standard_normal((40, dimension)) @ factor
                    assert np.array_equal(draws, want), case
        # the grid covers repaired proposals, these among them
        assert {(7, 0.1, 1.0), (64, 0.1, 1.0)} <= repaired

    @pytest.mark.parametrize(
        "dimension, loading, message",
        [
            (3, 0.5, r"factor loadings must lie in \[1/sqrt\(2\), 1\)"),
            (3, 1.0, r"factor loadings must lie in \[1/sqrt\(2\), 1\)"),
            (0, 0.8, "dimension must be positive"),
            (
                noise.MAX_DENSE_DIMENSION + 1,
                0.8,
                f"adversarial_equicorrelated noise builds dense D x D matrices: "
                f"D = {noise.MAX_DENSE_DIMENSION + 1} exceeds the limit {noise.MAX_DENSE_DIMENSION}",
            ),
        ],
    )
    def test_adversarial_constructor_checks_eagerly(self, dimension, loading, message):
        # the model takes no dimension: it checks only its loading when built
        if dimension == 3:
            with pytest.raises(ValueError, match=message):
                AdversarialEquicorrelated(loading)
        with pytest.raises(ValueError, match=message):
            adversarial_sigma(dimension, loading)

    def test_adversarial_matrix_built_only_on_demand(self, monkeypatch):
        class SigmaBuilt(Exception):
            pass

        def built(*args, **kwargs):
            raise SigmaBuilt

        monkeypatch.setattr(noise, "adversarial_sigma", built)
        model = AdversarialEquicorrelated(0.8)
        assert model.sample_block(2, noise.MAX_DENSE_DIMENSION, np.random.default_rng(0)).shape == (
            2,
            noise.MAX_DENSE_DIMENSION,
        )
        with pytest.raises(SigmaBuilt):
            model.correlation(noise.MAX_DENSE_DIMENSION)

    @pytest.mark.parametrize("loading", [INV_SQRT2, 0.8])
    def test_adversarial_correlation_and_draws(self, loading):
        model = AdversarialEquicorrelated(loading)
        assert np.array_equal(model.correlation(5).entries, adversarial_sigma(5, loading).entries)
        rng = np.random.default_rng(11)
        shared, eta = rng.standard_normal((30, 1)), rng.standard_normal((30, 5))
        want = loading * shared + math.sqrt(1.0 - loading * loading) * eta
        assert np.array_equal(model.sample_block(30, 5, np.random.default_rng(11)), want)

    def test_adversarial_samples_any_dimension(self):
        # one model, two sizes, the second above any dense size: each draw is
        # the defining representation from the same generator, bit for bit
        model, d = AdversarialEquicorrelated(0.8), 0.8
        for dimension in (5, 37, noise.MAX_DENSE_DIMENSION + 1):
            rng = np.random.default_rng(dimension)
            shared, eta = rng.standard_normal((3, 1)), rng.standard_normal((3, dimension))
            want = d * shared + math.sqrt(1.0 - d * d) * eta
            got = model.sample_block(3, dimension, np.random.default_rng(dimension))
            assert np.array_equal(got, want), dimension
        with pytest.raises(ValueError, match="exceeds the limit"):
            model.correlation(noise.MAX_DENSE_DIMENSION + 1)

    @pytest.mark.parametrize(
        "cls", [cls for cls in noise.NOISE_KINDS.values() if not cls.dense], ids=lambda c: c.kind
    )
    def test_every_sampling_kind_builds_from_its_params_alone(self, cls):
        # no dimension reaches a kind that samples any: its constructor takes
        # exactly its config parameters, and build_noise ignores the dimension
        assert tuple(inspect.signature(cls).parameters) == cls.params
        model = noise.build_noise(cls.kind, noise.MAX_DENSE_DIMENSION + 1)
        assert type(model) is cls and model.dimension is None
        assert model.sample_block(2, 7, np.random.default_rng(0)).shape == (2, 7)
