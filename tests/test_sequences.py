"""Tests for spectra, smoothness weights, partial sums, and signals.

Covers:
1. Frozen oracle values for the partial sums and bias terms
2. Monotonicity in the bandwidth and the fourth-power domination inequality
3. Ellipsoid membership arithmetic, including the boundary convention
4. Overflow behaviour of severely ill-posed spectra (inf, never an exception)
5. Bandwidth range enforcement for finite index sets and custom sequences
6. Chunked prefix sums against an fsum of closed-form terms, across chunk
   boundaries
7. The chunk carry bitwise against an fsum of every earlier term, and the
   in-sequence cumsum it relies on
8. Noise levels whose square overflows, scales whose inverse square is not a
   positive finite float, and custom sequences' cached arrays
9. The carry at the edge of the double range, against an exact fraction sum
10. Constant (well-posed) spectra: exactly rounded closed-form prefix sums,
    the same scans as the chunked sum of the same constant, and overflow
11. The constant-term skip-ahead against the chunk-by-chunk scan kept here
    as the oracle: the freeze rule's edges, a seeded randomised set of
    production and synthetic objectives, and the work it saves
"""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from seqdetect import bounds, detector
from seqdetect.sequences import (
    DEFAULT_D_MAX,
    OPERATOR_KINDS,
    SMOOTHNESS_KINDS,
    OperatorFamily,
    ProblemSpec,
    Signal,
    SmoothnessFamily,
    bias_term,
    boundary_signal,
    ellipsoid_membership,
    eps_sq_grid,
    scan_bandwidths,
    sum_inv_b_4,
    sum_inv_b_sq,
)
from seqdetect.sequences import _partial_sum, _prefix_sums


def make_spec(operator, smoothness=None, eps=0.1, **kwargs):
    if smoothness is None:
        smoothness = SmoothnessFamily.ordinary_smooth(1.0)
    return ProblemSpec(operator=operator, smoothness=smoothness, eps=eps, **kwargs)


class TestPartialSums:
    def test_well_posed_sum_is_count(self):
        spec = make_spec(OperatorFamily.well_posed())
        assert sum_inv_b_sq(spec, 5) == 5.0
        assert sum_inv_b_4(spec, 5) == 5.0

    def test_mildly_ill_posed_direct_summation(self):
        # oracle: 1 + 2^2 + 3^2 and 1 + 2^4 + 3^4
        spec = make_spec(OperatorFamily.mildly_ill_posed(1.0))
        assert sum_inv_b_sq(spec, 3) == pytest.approx(14.0, rel=1e-15)
        assert sum_inv_b_4(spec, 3) == pytest.approx(98.0, rel=1e-15)

    def test_severely_ill_posed_direct_summation(self):
        spec = make_spec(OperatorFamily.severely_ill_posed(1.0))
        assert sum_inv_b_sq(spec, 2) == pytest.approx(math.exp(2.0) + math.exp(4.0), rel=1e-14)

    def test_sums_strictly_increase_in_bandwidth(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kind = rng.integers(0, 3)
            t = float(rng.uniform(0.2, 1.5))
            op = [
                OperatorFamily.well_posed(),
                OperatorFamily.mildly_ill_posed(t),
                OperatorFamily.severely_ill_posed(t),
            ][kind]
            spec = make_spec(op)
            values = [sum_inv_b_sq(spec, d) for d in range(1, 30)]
            assert all(b > a for a, b in zip(values, values[1:]))
            values4 = [sum_inv_b_4(spec, d) for d in range(1, 30)]
            assert all(b > a for a, b in zip(values4, values4[1:]))

    def test_fourth_power_dominated_by_squared_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            kind = rng.integers(0, 3)
            t = float(rng.uniform(0.2, 2.0))
            scale = float(rng.uniform(0.5, 2.0))
            op = [
                OperatorFamily.well_posed(scale),
                OperatorFamily.mildly_ill_posed(t, scale),
                OperatorFamily.severely_ill_posed(t, scale),
            ][kind]
            spec = make_spec(op)
            d = int(rng.integers(1, 40))
            s2 = sum_inv_b_sq(spec, d)
            s4 = sum_inv_b_4(spec, d)
            if math.isinf(s2):
                continue
            assert s4 <= s2 * s2 * (1.0 + 1e-12)

    def test_severe_overflow_returns_inf(self):
        spec = make_spec(OperatorFamily.severely_ill_posed(1.0))
        assert math.isinf(sum_inv_b_sq(spec, 400))
        assert math.isinf(sum_inv_b_4(spec, 400))


#: Chunk length of the prefix-sum primitive; the reference bandwidths straddle it.
_CHUNK = 4096
#: Consecutive non-improving bandwidths after which a scan objective freezes.
_STALL = 64
#: Fixed from float64 before measuring: a chunk adds at most 4096 terms in
#: sequence (relative error <= 4096 u, u = 2^-53), the carry between chunks is
#: exactly rounded, and a closed-form term may differ from its vectorised twin
#: by an ulp or two; 2 * 4096 u covers all three.
_PREFIX_RTOL = 2 * _CHUNK * 2.0**-53


def _reference_inv_b_sq(op, k):
    """b_k^-2 by its closed form in scalar arithmetic: the loop reference."""
    inv_scale_sq = 1.0 / (op.scale * op.scale)
    if op.kind == "well_posed":
        return inv_scale_sq
    if op.kind == "mildly_ill_posed":
        return inv_scale_sq * math.pow(k, 2.0 * op.exponent)
    if op.kind == "severely_ill_posed":
        return inv_scale_sq * math.exp(2.0 * op.exponent * k)
    v = op.values[k - 1]
    return inv_scale_sq / (v * v)


class TestPrefixSumReference:
    @pytest.mark.parametrize(
        "op",
        [
            OperatorFamily.well_posed(1.5),
            OperatorFamily.mildly_ill_posed(0.7, 0.8),
            OperatorFamily.severely_ill_posed(0.01),
            OperatorFamily.custom(np.random.default_rng(29).uniform(0.1, 2.0, 3 * _CHUNK + 5)),
        ],
        ids=lambda op: op.kind,
    )
    @pytest.mark.parametrize("d", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_partial_sums_match_fsum_of_closed_form_terms(self, op, d):
        spec = make_spec(op)
        terms = [_reference_inv_b_sq(op, k) for k in range(1, d + 1)]
        expected2 = math.fsum(terms)
        expected4 = math.fsum(w * w for w in terms)
        assert sum_inv_b_sq(spec, d) == pytest.approx(expected2, rel=_PREFIX_RTOL, abs=0.0)
        assert sum_inv_b_4(spec, d) == pytest.approx(expected4, rel=_PREFIX_RTOL, abs=0.0)

    def test_severe_inv_sq_overflows_to_inf(self):
        op = OperatorFamily.severely_ill_posed(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = op.inv_sq_array(np.array([1, 354, 355, 400]))
        assert w[0] == pytest.approx(math.exp(2.0))
        assert math.isfinite(w[1]) and np.all(np.isinf(w[2:]))

    def test_overflow_past_the_first_chunk_carries_inf(self):
        # b_k^-2 = exp(0.1 k): the running sum overflows near k = 7070, in the
        # second chunk, so the carry into the third chunk is +inf
        spec = make_spec(OperatorFamily.severely_ill_posed(0.05))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(sum_inv_b_sq(spec, _CHUNK + 1))
            for d in (2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK):
                assert math.isinf(sum_inv_b_sq(spec, d))
                assert math.isinf(sum_inv_b_4(spec, d))

    def test_super_smooth_weight_overflow_leaves_signal_outside(self):
        sm = SmoothnessFamily.super_smooth(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = sm.value_array(np.array([1, 800]))
            check = ellipsoid_membership(sm, Signal((0.0,) * 799 + (1e-300,)))
        assert a[0] == pytest.approx(math.e) and math.isinf(a[1])
        assert math.isinf(check.value) and not check.inside

    def test_custom_index_beyond_length_raises(self):
        op = OperatorFamily.custom([1.0, 0.5])
        sm = SmoothnessFamily.custom([1.0, 2.0])
        for fn in (op.value_array, op.inv_sq_array, sm.value_array, sm.inv_sq_array):
            with pytest.raises(ValueError, match="beyond custom sequence of length 2"):
                fn(np.array([1, 3]))
        with pytest.raises(ValueError, match="beyond custom sequence of length 2"):
            ellipsoid_membership(sm, Signal((0.0, 0.0, 0.1)))


def _fsum_or_inf(terms):
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _array_terms(values):
    values = np.asarray(values, dtype=float)
    return lambda ks: values[ks - 1]


def _wide_range_terms():
    values = 10.0 ** np.random.default_rng(31).uniform(-150.0, 150.0, 4 * _CHUNK)
    return _array_terms(values)


def _subnormal_and_tie_terms():
    rng = np.random.default_rng(37)
    return _array_terms(rng.choice([0.0, 2.0**-1074, 3 * 2.0**-1070, 1.0, 3.0, 1e16], 4 * _CHUNK))


def _absorbed_tie_terms():
    # a small term that the next, larger term absorbs, then ones: each chunk
    # adds up to 2^60 + 129, one past the tie 2^60 + 128 (ulp 256), so the
    # carry rounds the wrong way if the absorbed 1 is lost
    chunk = np.zeros(_CHUNK)
    chunk[:130] = [1.0, 2.0**60] + [1.0] * 128
    return _array_terms(np.tile(chunk, 4))


def _overflow_mid_chunk_terms():
    # constant terms whose running sum passes the largest double near k = 6000,
    # in the middle of the second chunk
    return _array_terms(np.full(4 * _CHUNK, np.finfo(float).max / 6000.0))


def _inf_term_terms():
    values = np.random.default_rng(41).uniform(0.0, 1e300, 4 * _CHUNK)
    values[_CHUNK + 100] = math.inf
    return _array_terms(values)


class TestExactCarry:
    """The carry into chunk n + 1 is the exactly rounded sum of the carry
    into chunk n and chunk n's terms: one rounding per chunk, while the
    in-chunk cumsum adds up to 4096 roundings.  For the spectra below those
    per-chunk roundings compose to fsum of all earlier terms, bitwise, which
    is what the partial sum at d = n * CHUNK + 1 is checked against; for
    other spectra a multi-chunk sum may differ from that fsum by an ulp or
    more."""

    @pytest.mark.parametrize(
        "term_fn",
        [
            _wide_range_terms(),
            OperatorFamily.well_posed(1.5).inv_sq_array,
            OperatorFamily.mildly_ill_posed(0.7, 0.8).inv_sq_array,
            _subnormal_and_tie_terms(),
            _absorbed_tie_terms(),
            _overflow_mid_chunk_terms(),
            _inf_term_terms(),
        ],
        ids=[
            "wide_range",
            "well_posed",
            "mildly_ill_posed",
            "subnormal_ties",
            "absorbed_tie",
            "overflow",
            "inf",
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_carry_is_fsum_of_earlier_chunks(self, term_fn, n):
        d = n * _CHUNK + 1
        terms = term_fn(np.arange(1, d + 1)).tolist()
        expected = _fsum_or_inf(terms[:-1]) + terms[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _partial_sum(term_fn, d) == expected

    def test_carry_just_below_the_largest_double(self):
        # a case from a seeded fuzz of sparse chunks whose sum lies within
        # 4e-16 relative of the largest double (seed 105): fsum raises its
        # intermediate-overflow error on the carry's parts, although the
        # exactly rounded carry is the largest double, not +inf
        nonzero = {
            792: "0x1.13d25a49cda3ep+1022",
            2279: "0x1.0787457424902p+1022",
            5225: "0x1.089d712af66acp+1021",
            5759: "0x1.ace97b0fce6c1p+1021",
            8119: "0x1.5726a9b602970p+1019",
            8120: "0x1.7bf853b7ac369p+1020",
        }
        values = np.zeros(2 * _CHUNK + 1)
        for pos, value in nonzero.items():
            values[pos] = float.fromhex(value)
        carry = 0.0
        for chunk in (values[:_CHUNK], values[_CHUNK : 2 * _CHUNK]):
            carry = float(sum(map(Fraction, [carry, *chunk.tolist()])))
        assert carry == np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _partial_sum(_array_terms(values), values.size) == carry

    def test_cumsum_adds_in_sequence(self):
        # the carry's TwoSum residuals are exact only if every cumsum step is
        # run[i] = fl(run[i-1] + x[i]); pin that order on mixed signs and a
        # wide exponent range, where any other order would round differently
        rng = np.random.default_rng(43)
        x = rng.choice([-1.0, 1.0], 3 * _CHUNK) * 10.0 ** rng.uniform(-300.0, 300.0, 3 * _CHUNK)
        expected = list(itertools.accumulate(x.tolist()))
        assert np.cumsum(x).tobytes() == np.array(expected).tobytes()


class TestBiasTerm:
    def test_ordinary_smooth_values(self):
        spec = make_spec(OperatorFamily.well_posed())
        assert bias_term(spec, 1) == 1.0
        assert bias_term(spec, 2) == 0.25

    def test_super_smooth_value(self):
        spec = make_spec(
            OperatorFamily.well_posed(), SmoothnessFamily.super_smooth(1.0)
        )
        assert bias_term(spec, 2) == pytest.approx(math.exp(-4.0), rel=1e-14)

    def test_non_increasing_in_bandwidth(self):
        for sm in (SmoothnessFamily.ordinary_smooth(0.7), SmoothnessFamily.super_smooth(0.4)):
            spec = make_spec(OperatorFamily.well_posed(), sm)
            vals = [bias_term(spec, d) for d in range(1, 50)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestEllipsoid:
    def test_zero_signal_inside(self):
        check = ellipsoid_membership(SmoothnessFamily.ordinary_smooth(1.0), Signal.zero())
        assert check.value == 0.0 and check.inside

    def test_boundary_counts_as_inside(self):
        check = ellipsoid_membership(SmoothnessFamily.ordinary_smooth(1.0), Signal((1.0,)))
        assert check.value == pytest.approx(1.0) and check.inside

    def test_outside_value(self):
        # a_2 = 2, theta_2 = 0.6: weighted mass 4 * 0.36 = 1.44
        check = ellipsoid_membership(SmoothnessFamily.ordinary_smooth(1.0), Signal((0.0, 0.6)))
        assert check.value == pytest.approx(1.44, rel=1e-14)
        assert not check.inside


class TestBoundarySignal:
    def test_boundary_case(self):
        spec = make_spec(OperatorFamily.well_posed())
        theta = boundary_signal(spec, 2, 0.5)
        assert theta.coefficients == (0.0, 0.5)
        check = ellipsoid_membership(spec.smoothness, theta)
        assert check.value == pytest.approx(1.0) and check.inside

    def test_interior_construction(self):
        spec = make_spec(OperatorFamily.well_posed())
        theta = boundary_signal(spec, 3, 0.1)
        assert theta.coefficient(3) == 0.1
        assert theta.norm_sq() == pytest.approx(0.01)

    def test_rejects_signal_leaving_ellipsoid(self):
        spec = make_spec(OperatorFamily.well_posed())
        with pytest.raises(ValueError, match="exceeds the ellipsoid cap"):
            boundary_signal(spec, 2, 0.6)

    def test_accepted_signals_always_members(self):
        rng = np.random.default_rng(5)
        spec = make_spec(OperatorFamily.mildly_ill_posed(0.7), SmoothnessFamily.super_smooth(0.5))
        for _ in range(30):
            d = int(rng.integers(1, 12))
            cap = math.sqrt(bias_term(spec, d))
            r = float(rng.uniform(0, 1)) * cap
            if r == 0.0:
                continue
            theta = boundary_signal(spec, d, r)
            assert ellipsoid_membership(spec.smoothness, theta).inside

    def test_spike_at_the_cap_is_member(self):
        # r = a_D^-1 exactly: the weighted mass a_D^2 r^2 can round one ulp
        # above 1, and must still count as inside
        rng = np.random.default_rng(31)
        cases = [(SmoothnessFamily.ordinary_smooth(2.0273208137425875), 24)]
        for _ in range(2000):
            s = float(rng.uniform(0.05, 3.0))
            sm = SmoothnessFamily.ordinary_smooth(s) if rng.random() < 0.5 else (
                SmoothnessFamily.super_smooth(s / 3.0)
            )
            cases.append((sm, int(rng.integers(1, 200))))
        for sm, d in cases:
            spec = make_spec(OperatorFamily.well_posed(), sm)
            theta = boundary_signal(spec, d, math.sqrt(bias_term(spec, d)))
            assert ellipsoid_membership(sm, theta).inside, (sm, d)


class TestRangesAndValidation:
    def test_finite_mode_bandwidth_cap(self):
        spec = make_spec(OperatorFamily.well_posed(), n_max=8)
        assert sum_inv_b_sq(spec, 8) == 8.0
        with pytest.raises(ValueError, match="exceeds the usable index range"):
            sum_inv_b_sq(spec, 9)

    def test_custom_sequence_caps_bandwidth(self):
        op = OperatorFamily.custom([1.0, 0.5, 0.25])
        spec = make_spec(op)
        assert spec.bandwidth_limit == 3
        assert sum_inv_b_sq(spec, 3) == pytest.approx(1.0 + 4.0 + 16.0)
        with pytest.raises(ValueError):
            sum_inv_b_sq(spec, 4)

    def test_invalid_families_rejected(self):
        with pytest.raises(ValueError):
            OperatorFamily.mildly_ill_posed(0.0)
        with pytest.raises(ValueError):
            OperatorFamily.custom([1.0, -2.0])
        with pytest.raises(ValueError):
            SmoothnessFamily.custom([2.0, 1.0])  # decreasing
        with pytest.raises(ValueError):
            SmoothnessFamily.ordinary_smooth(-1.0)

    def test_spec_validation(self):
        op = OperatorFamily.well_posed()
        sm = SmoothnessFamily.ordinary_smooth(1.0)
        with pytest.raises(ValueError):
            ProblemSpec(op, sm, eps=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(op, sm, eps=0.1, fourth_moment_bound=0.5)
        assert ProblemSpec(op, sm, eps=0.1).d_max == DEFAULT_D_MAX

    @pytest.mark.parametrize("eps", [1e200, math.inf, math.nan, -0.1])
    def test_noise_level_square_must_be_finite(self, eps):
        op = OperatorFamily.well_posed()
        sm = SmoothnessFamily.ordinary_smooth(1.0)
        with pytest.raises(ValueError, match="noise level eps"):
            ProblemSpec(op, sm, eps=eps)
        with pytest.raises(ValueError, match="noise level eps"):
            eps_sq_grid([0.1, eps])

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, 1e-200, 1e-160, 1e200, math.inf])
    def test_scale_needs_a_finite_positive_inverse_square(self, scale):
        # 1e-200 squares to 0, 1e-160 to a subnormal whose inverse overflows,
        # and 1e200 squares to +inf, whose inverse is 0
        with pytest.raises(ValueError, match="operator scale must be positive"):
            OperatorFamily.mildly_ill_posed(1.0, scale)
        with pytest.raises(ValueError, match="smoothness scale must be positive"):
            SmoothnessFamily.ordinary_smooth(1.0, scale)
        assert OperatorFamily.well_posed(1e-154).scale == 1e-154

    def test_custom_array_matches_values_and_is_read_only(self):
        values = np.random.default_rng(47).uniform(0.1, 2.0, 3 * _CHUNK + 5)
        op = OperatorFamily.custom(values, scale=0.8)
        sm = SmoothnessFamily.custom(np.sort(values), scale=1.3)
        ks = np.arange(1, values.size + 1)
        assert op.inv_sq_array(ks).tobytes() == (
            (1.0 / (0.8 * 0.8)) / (values * values)
        ).tobytes()
        assert op.value_array(ks).tobytes() == (0.8 * values).tobytes()
        assert sm.value_array(ks).tobytes() == (1.3 * np.sort(values)).tobytes()
        for family in (op, sm):
            with pytest.raises(ValueError, match="read-only"):
                family._array[0] = 1.0
        assert op == OperatorFamily.custom(values, scale=0.8)
        assert hash(op) == hash(OperatorFamily.custom(values, scale=0.8))
        replaced = dataclasses.replace(op, values=(2.0, 4.0), scale=1.0)
        assert replaced.inv_sq_array(np.array([1, 2])).tolist() == [0.25, 0.0625]

    def test_consecutive_ratios(self):
        assert OperatorFamily.severely_ill_posed(0.5).consecutive_ratio(7) == pytest.approx(
            math.exp(0.5)
        )
        assert SmoothnessFamily.ordinary_smooth(2.0).consecutive_ratio(2) == pytest.approx(0.25)
        assert SmoothnessFamily.super_smooth(0.3).consecutive_ratio(9) == pytest.approx(
            math.exp(-0.3)
        )

    def test_kind_constructor_matches_the_named_makers(self):
        # config and the rates cells build families by kind name
        assert OperatorFamily("well_posed", 0.0, 2.0) == OperatorFamily.well_posed(2.0)
        assert OperatorFamily("mildly_ill_posed", 0.5) == OperatorFamily.mildly_ill_posed(0.5)
        assert OperatorFamily("severely_ill_posed", 1.0, 0.5) == (
            OperatorFamily.severely_ill_posed(1.0, 0.5)
        )
        assert SmoothnessFamily("ordinary_smooth", 0.75) == SmoothnessFamily.ordinary_smooth(0.75)
        assert SmoothnessFamily("super_smooth", 0.2, 3.0) == SmoothnessFamily.super_smooth(0.2, 3.0)
        # the named kinds exclude custom, which needs explicit values
        assert OPERATOR_KINDS == ("well_posed", "mildly_ill_posed", "severely_ill_posed")
        assert SMOOTHNESS_KINDS == ("ordinary_smooth", "super_smooth")
        for family, what in ((OperatorFamily, "operator"), (SmoothnessFamily, "smoothness")):
            with pytest.raises(ValueError, match=f"custom {what} requires explicit values"):
                family("custom", 1.0)
            with pytest.raises(ValueError, match="only valid for the custom kind"):
                family(family._kinds[-1], 1.0, values=(1.0,))
        with pytest.raises(ValueError, match="unknown smoothness kind 'well_posed'"):
            SmoothnessFamily("well_posed", 1.0)
        with pytest.raises(ValueError, match="unknown operator kind 'super_smooth'"):
            OperatorFamily("super_smooth", 1.0)

    def test_custom_families_share_indexing(self):
        op = OperatorFamily.custom([4.0, 2.0, 1.0])
        sm = SmoothnessFamily.custom([1.0, 2.0, 8.0])
        assert (op.max_index, sm.max_index) == (3, 3)
        assert (op.consecutive_ratio(3), sm.consecutive_ratio(3)) == (2.0, 0.25)
        for family in (op, sm):
            with pytest.raises(ValueError, match="needs k >= 2"):
                family.consecutive_ratio(1)
            with pytest.raises(ValueError, match="index 4 beyond custom sequence of length 3"):
                family.consecutive_ratio(4)
        assert OperatorFamily.well_posed().max_index is None
        assert repr(sm).startswith("SmoothnessFamily(kind='custom'")


class TestScanBandwidth:
    def test_matches_brute_force_minimum(self):
        # objective 0.002 * D + D^-2 over a flat spectrum
        def term_fn(ks):
            return np.ones(len(ks))

        def value_fn(ks, sums, rows):
            return (0.002 * sums + ks.astype(float) ** -2)[np.newaxis]

        (result,) = scan_bandwidths(term_fn, value_fn, 1000, 1)
        brute = min(range(1, 1001), key=lambda d: 0.002 * d + d**-2.0)
        assert result.d == brute == 10
        assert result.value == pytest.approx(0.03)
        assert not result.truncated

    def test_ties_prefer_smaller_bandwidth(self):
        def value_fn(ks, sums, rows):
            return np.ones((1, len(ks)))

        (result,) = scan_bandwidths(lambda ks: np.ones(len(ks)), value_fn, 500, 1)
        assert result.d == 1

    def test_truncation_flag(self):
        # strictly decreasing objective: minimiser is the scan limit
        def value_fn(ks, sums, rows):
            return (1.0 / sums)[np.newaxis]

        (result,) = scan_bandwidths(lambda ks: np.ones(len(ks)), value_fn, 300, 1)
        assert result.d == 300 and result.truncated


class TestScanBandwidths:
    """The multi-objective pass: per-objective freezing, exact agreement
    with one-objective scans."""

    @staticmethod
    def objectives(ks, sums):
        # row 0 is minimised at D = 10 (first chunk); row 1 at D = 10000
        # (third chunk); row 2 at D = 5000 (second chunk)
        return np.abs(sums[np.newaxis, :] - np.array([[10.0], [10000.0], [5000.0]]))

    def test_frozen_objectives_are_not_evaluated(self):
        seen = []

        def value_fn(ks, sums, rows):
            seen.append((int(ks[0]), rows.tolist()))
            return self.objectives(ks, sums)[rows]

        results = scan_bandwidths(lambda ks: np.ones(len(ks)), value_fn, 1 << 16, 3)
        assert [r.d for r in results] == [10, 10000, 5000]
        assert [r.value for r in results] == [0.0, 0.0, 0.0]
        assert not any(r.truncated for r in results)
        assert seen == [(1, [0, 1, 2]), (4097, [1, 2]), (8193, [1])]

    def test_rows_match_single_objective_scans(self):
        def value_fn(ks, sums, rows):
            return self.objectives(ks, sums)[rows]

        results = scan_bandwidths(lambda ks: np.ones(len(ks)), value_fn, 9000, 3)
        for row, result in enumerate(results):
            (single,) = scan_bandwidths(
                lambda ks: np.ones(len(ks)),
                lambda ks, sums, rows: self.objectives(ks, sums)[[row]],
                9000,
                1,
            )
            assert result == single
        assert results[1] == (9000, 1000.0, True)

    def test_maximize_freezes_per_row(self):
        def value_fn(ks, sums, rows):
            return -self.objectives(ks, sums)[rows]

        results = scan_bandwidths(
            lambda ks: np.ones(len(ks)), value_fn, 1 << 16, 3, maximize=True
        )
        assert [(r.d, r.value) for r in results] == [(10, 0.0), (10000, 0.0), (5000, 0.0)]


class TestConstantSpectra:
    """A well-posed spectrum's terms are one constant c, and its prefix sums
    are the closed form fl(k * c): the exactly rounded sum of k copies."""

    @pytest.mark.parametrize("scale", [1.5, 0.7, 3.0])
    @pytest.mark.parametrize("d", [100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 20000])
    def test_sums_are_exactly_rounded(self, scale, d):
        spec = make_spec(OperatorFamily.well_posed(scale))
        w = 1.0 / (scale * scale)
        assert sum_inv_b_sq(spec, d) == math.fsum([w] * d)
        assert sum_inv_b_4(spec, d) == math.fsum([w * w] * d)
        *_, (ks, sums) = _prefix_sums(w, d)
        assert sums.tolist() == [float(Fraction(w) * int(k)) for k in ks]

    def test_prefix_sums_match_the_chunked_constant(self):
        # c = 1 sums exactly either way, so the chunks must agree bitwise
        closed = list(_prefix_sums(1.0, 3 * _CHUNK + 5))
        chunked = list(_prefix_sums(lambda ks: np.ones(len(ks)), 3 * _CHUNK + 5))
        assert len(closed) == len(chunked) == 4
        for (ks, sums), (ks_ref, sums_ref) in zip(closed, chunked):
            assert ks.tobytes() == ks_ref.tobytes()
            assert sums.tobytes() == sums_ref.tobytes()

    @pytest.mark.parametrize("maximize", [False, True])
    def test_scans_match_the_chunked_constant(self, maximize):
        # three objectives whose optima sit in the first, third and second
        # chunk, each non-decreasing in the sum S and non-increasing in k as
        # the constant-term scan requires: S/T + T/k is minimised, and
        # min(S/T, T/k) maximised, at k = T
        targets = np.array([[10.0], [10000.0], [5000.0]])

        def scan(terms):
            seen = []

            def value_fn(ks, sums, rows):
                seen.append((int(ks.min()), rows.tolist()))
                ratio, inverse = sums[np.newaxis, :] / targets, targets / ks
                if maximize:
                    return np.minimum(ratio, inverse)[rows]
                return (ratio + inverse)[rows]

            results = scan_bandwidths(terms, value_fn, 1 << 16, 3, maximize=maximize)
            return results, seen

        closed, seen = scan(1.0)
        assert closed == scan(lambda ks: np.ones(len(ks)))[0]
        assert [r.d for r in closed] == [10, 10000, 5000]
        assert [r.value for r in closed] == [1.0 if maximize else 2.0] * 3
        # a row freezes at the end of the chunk 64 or more past its optimum,
        # and is never passed to value_fn after that chunk
        for d, row in zip((10, 10000, 5000), range(3)):
            frozen_at = -(-(d + _STALL) // _CHUNK) * _CHUNK
            assert all(k0 <= frozen_at for k0, rows in seen if row in rows)

    def test_overflow_maps_to_inf(self):
        big = np.finfo(float).max / 6000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = np.concatenate([s for _, s in _prefix_sums(big, 2 * _CHUNK)])
            assert np.all(np.isfinite(sums[:5999])) and np.all(np.isinf(sums[6001:]))
            assert math.isinf(_partial_sum(big, 2 * _CHUNK))
            # b^-2 = 1e308 is finite, its square and any sum of two are not
            spec = make_spec(OperatorFamily.well_posed(1e-154))
            assert sum_inv_b_sq(spec, 1) == 1.0 / (1e-154 * 1e-154)
            assert math.isinf(sum_inv_b_sq(spec, 2))
            assert math.isinf(sum_inv_b_4(spec, 1))


def _dense_reference(terms, value_fn, limit, count, maximize=False):
    """The chunk-by-chunk scan: every running objective is evaluated on every
    chunk of prefix sums until it freezes.  The oracle of the skip-ahead."""
    best_d = np.zeros(count, dtype=np.int64)
    best = np.full(count, -math.inf if maximize else math.inf)
    rows = np.arange(count)
    for ks, sums in _prefix_sums(terms, limit):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = value_fn(ks, sums, rows)
        idx = np.argmax(vals, axis=1) if maximize else np.argmin(vals, axis=1)
        candidates = vals[np.arange(rows.size), idx]
        improved = candidates > best[rows] if maximize else candidates < best[rows]
        best[rows[improved]] = candidates[improved]
        best_d[rows[improved]] = ks[idx[improved]]
        rows = rows[ks[-1] - best_d[rows] < _STALL]
        if not rows.size:
            break
    return [(int(d), float(v), int(d) == limit) for d, v in zip(best_d, best)]


def _peaks(targets, maximize):
    """Objectives with S = k (terms 1): S/T + T/k, minimised at k = T with
    value 2, or min(S/T, T/k), maximised at k = T with value 1; both are
    non-decreasing in S and non-increasing in k."""
    targets = np.asarray(targets, dtype=float)[:, np.newaxis]

    def value_fn(ks, sums, rows):
        ratio, inverse = sums / targets[rows], targets[rows] / ks
        return np.minimum(ratio, inverse) if maximize else ratio + inverse

    return value_fn


def _plateaus(lo, hi, maximize):
    """Objectives with S = k equal to their optimum 1 at k = lo and k = hi
    only (hi = lo + 1): max(lo/k, S/hi) minimised, min(S/lo, hi/k) maximised."""

    def value_fn(ks, sums, rows):
        if maximize:
            return np.minimum(sums / lo, hi / ks)[np.newaxis, :].repeat(rows.size, axis=0)
        return np.maximum(lo / ks, sums / hi)[np.newaxis, :].repeat(rows.size, axis=0)

    return value_fn


_ONES = pytest.param(lambda ks: np.ones(len(ks)), id="callable")


@pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
@pytest.mark.parametrize("terms", [pytest.param(1.0, id="constant"), _ONES])
class TestFreezeRuleEdges:
    """The scan's freeze rule at its edges, for constant terms (which skip
    ahead over certified chunks) and a term function (evaluated densely):
    each result is fixed by hand and equals the chunk-by-chunk oracle."""

    @staticmethod
    def check(terms, value_fn, limit, count, maximize, expected):
        results = scan_bandwidths(terms, value_fn, limit, count, maximize=maximize)
        assert results == expected
        assert results == _dense_reference(terms, value_fn, limit, count, maximize)

    @pytest.mark.parametrize("end", [_CHUNK, 2 * _CHUNK, 5 * _CHUNK])
    def test_optimum_at_the_tail_edge(self, terms, maximize, end):
        # e - 64 freezes at the chunk end e, e - 63 one chunk later
        targets = [end - _STALL, end - _STALL + 1]
        opt = 1.0 if maximize else 2.0
        expected = [(t, opt, False) for t in targets]
        self.check(terms, _peaks(targets, maximize), 1 << 16, 2, maximize, expected)

    @pytest.mark.parametrize("lo", [_CHUNK, 2 * _CHUNK, 3 * _CHUNK - 1])
    def test_ties_across_a_chunk_boundary(self, terms, maximize, lo):
        # the optimum is attained at lo and at lo + 1; the smaller one wins
        self.check(terms, _plateaus(lo, lo + 1, maximize), 1 << 15, 1, maximize,
                   [(lo, 1.0, False)])

    def test_tied_tails_of_consecutive_chunks(self, terms, maximize):
        # step objectives h(S) + g(k), h non-decreasing and g non-increasing:
        # the tails 4033..4096 and 8129..8192 tie for the optimum and every
        # other value is worse, so the earlier tail wins and freezes
        def value_fn(ks, sums, rows):
            if maximize:
                h = (sums >= 4033) + (sums >= 8129) * 1.0
                g = (ks <= 4096) * 1.0
            else:
                h = (sums > 4096) * 1.0
                g = 2.0 + (ks < 4033) - (ks > 8128)
            return (h + g)[np.newaxis, :]

        self.check(terms, value_fn, 1 << 15, 1, maximize, [(4033, 2.0, False)])

    def test_narrow_optimum_inside_a_wide_head_block(self, terms, maximize):
        # the optimum is the ten bandwidths 2000..2009, far from the tail
        # 4033..4096, which is the best of the rest; a head block is bounded
        # through its monotone corner, not by values at its ends
        def value_fn(ks, sums, rows):
            if maximize:
                h = 9.0 * (sums >= 2000) + 8.0 * (sums >= 4033)
                g = -9.0 * (ks >= 2010) - 10.0 * (ks >= 4097)
            else:
                h = -10.0 + 9.0 * (sums >= 2010) + 10.0 * (sums >= 4097)
                g = 20.0 - 9.0 * (ks >= 2000) - 8.0 * (ks >= 4033)
            return (h + g)[np.newaxis, :]

        self.check(terms, value_fn, 1 << 14, 1, maximize, [(2000, 9.0 if maximize else 1.0, False)])

    @pytest.mark.parametrize(
        "limit", [1, 2, 63, _CHUNK - 1, _CHUNK, _CHUNK + 1, 10_000, 3 * _CHUNK + 17]
    )
    def test_limits(self, terms, maximize, limit):
        # optima inside, on and beyond the limit; beyond it the objective
        # improves up to the limit, which is then flagged truncated
        targets = sorted({1, max(1, limit // 2), max(1, limit - _STALL), limit, 2 * limit + 5})
        value_fn = _peaks(targets, maximize)
        results = scan_bandwidths(terms, value_fn, limit, len(targets), maximize=maximize)
        assert [(r.d, r.truncated) for r in results] == [
            (min(t, limit), t >= limit) for t in targets
        ]
        assert results == _dense_reference(terms, value_fn, limit, len(targets), maximize)

    def test_optimum_on_the_limit(self, terms, maximize):
        limit = 3 * _CHUNK + 100
        opt = 1.0 if maximize else 2.0
        self.check(terms, _peaks([limit], maximize), limit, 1, maximize, [(limit, opt, True)])

    def test_freezes_at_the_first_local_optimum(self, terms, maximize):
        # a_k^-2 drops late (k > 9000 and k > 8000), after the first local
        # optimum has frozen; the later, better values are never found
        if maximize:
            # S a_k^-2 = k h(k): rises to 100 at k = 100, falls to 50 at
            # k = 8000, then grows on the flat tail of h past 100 at 16000
            ks = np.arange(1, 40_001, dtype=float)
            h = np.where(ks <= 100, 1.0, (100.0 - 50.0 * (ks - 100) / 7900) / ks)
            h[8000:] = h[7999]
            smooth = SmoothnessFamily.custom(h**-0.5)

            def value_fn(ks, sums, rows):
                return (sums * smooth.inv_sq_array(ks))[np.newaxis, :]

            local, better = (100, 100.0), 40_000
        else:
            # 1e-5 S + a_k^-2: a_k^-2 = 1 up to k = 9000, 1e-6 after it
            smooth = SmoothnessFamily.custom([1.0] * 9000 + [1000.0] * 31_000)

            def value_fn(ks, sums, rows):
                return (1e-5 * sums + smooth.inv_sq_array(ks))[np.newaxis, :]

            local, better = (1, 1.00001), 9001
        limit = smooth.max_index
        whole = value_fn(np.arange(1, limit + 1), np.arange(1.0, limit + 1), np.arange(1))[0]
        assert (whole[better - 1] > local[1]) if maximize else (whole[better - 1] < local[1])
        self.check(terms, value_fn, limit, 1, maximize, [(*local, False)])


def _checked_scans(monkeypatch):
    """Patch the scans of `bounds` and `detector` so that every scan is also
    run chunk by chunk and must agree exactly; returns the list of checked
    scans as (limit, count, maximize)."""
    checked = []

    def scan(terms, value_fn, limit, count, *, maximize=False):
        results = scan_bandwidths(terms, value_fn, limit, count, maximize=maximize)
        assert results == _dense_reference(terms, value_fn, limit, count, maximize)
        checked.append((limit, count, maximize))
        return results

    monkeypatch.setattr(bounds, "scan_bandwidths", scan)
    monkeypatch.setattr(detector, "scan_bandwidths", scan)
    return checked


@pytest.mark.filterwarnings("ignore:.*hit the scan limit:UserWarning")
class TestSkipAheadMatchesTheDenseScan:
    """Seeded randomised cases: the constant-term scans equal the
    chunk-by-chunk oracle exactly, for the three production objectives and
    for synthetic monotone ones with many ties."""

    @staticmethod
    def random_spec(rng, limit):
        kind = rng.integers(3)
        if kind == 0:
            smooth = SmoothnessFamily.ordinary_smooth(float(rng.uniform(0.75, 2.0)),
                                                      scale=float(rng.uniform(0.5, 2.0)))
        elif kind == 1:
            smooth = SmoothnessFamily.super_smooth(float(rng.uniform(1e-3, 0.5)),
                                                   scale=float(rng.uniform(0.5, 2.0)))
        else:
            steps = rng.exponential(1.0, 30_000) * (rng.random(30_000) < 0.3)
            smooth = SmoothnessFamily.custom(1.0 + np.cumsum(steps) * rng.uniform(1e-3, 1.0))
        scale = float(rng.choice([1.0, 0.7, 1.5]))
        return ProblemSpec(OperatorFamily.well_posed(scale), smooth, eps=0.1, d_max=limit)

    def test_production_objectives(self, monkeypatch):
        checked = _checked_scans(monkeypatch)
        rng = np.random.default_rng(20161)
        limits = [1, 2, 63, 64, 65, _CHUNK, _CHUNK + 1, 3 * _CHUNK, 1 << 22]
        limits += [int(2 ** rng.uniform(0, 22)) for _ in range(15)]
        for limit in limits:
            spec = self.random_spec(rng, limit)
            if rng.random() < 0.5:
                grid = [float(10 ** rng.uniform(-6.3, -1))]
            else:
                grid = np.geomspace(0.0625, 10 ** rng.uniform(-6.3, -3), 48).tolist()
            alpha, beta = rng.uniform(0.01, 0.45, 2)
            bounds.bounds_over_grid(spec, grid, alpha, beta, c_beta=float(rng.uniform(5, 500)))
        # the lower, upper and classical scans of every case
        assert len(checked) == 3 * len(limits)

    def test_deep_grids(self, monkeypatch):
        checked = _checked_scans(monkeypatch)
        grid = np.geomspace(0.0625, 5e-7, 48).tolist()
        for scale, s in ((1.0, 0.75), (0.7, 1.0), (1.5, 0.75)):
            spec = ProblemSpec(OperatorFamily.well_posed(scale),
                               SmoothnessFamily.ordinary_smooth(s), eps=0.1, d_max=1 << 22)
            bounds.bounds_over_grid(spec, grid, 0.25, 0.25, c_beta=50.0)
        assert len(checked) == 9

    @pytest.mark.parametrize("scale", [1e-154, 1e-77, 1.0])
    def test_overflow_and_underflow_stay_silent(self, monkeypatch, scale):
        # inf sums (and an inf term b^-4), eps^2 that underflows to 0 (so
        # 0 * inf), and weights a_k^-2 that underflow to 0, at dense and at
        # mixed points alike: the same results, and no RuntimeWarning
        checked = _checked_scans(monkeypatch)
        grid = [0.5, 1e-3, 1e-100, 1e-170]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", ".*hit the scan limit", UserWarning)
            for smooth in (SmoothnessFamily.super_smooth(5.0), SmoothnessFamily.ordinary_smooth(60.0)):
                spec = ProblemSpec(OperatorFamily.well_posed(scale), smooth, eps=0.1,
                                   d_max=3 * _CHUNK + 7)
                bounds.bounds_over_grid(spec, grid, 0.1, 0.1, c_beta=50.0)
        assert len(checked) == 6

    def test_synthetic_objectives(self):
        # quantised sums and weights: long runs of ties in both directions
        rng = np.random.default_rng(4242)
        for case in range(60):
            c = float(rng.choice([1.0, 1 / 0.49, 1 / 2.25, 10 ** rng.uniform(-5, 5)]))
            limit = int(rng.choice([1, 64, _CHUNK + 1, 3 * _CHUNK, 2 ** rng.uniform(0, 20)]))
            count = int(rng.choice([1, 3, 48]))
            weight = 10 ** rng.uniform(-12, 0, count)
            s = rng.uniform(0.2, 3.0, count)
            steps = np.where(rng.random(count) < 0.5, 10 ** rng.uniform(2, 12, count), 0.0)
            maximize = bool(case % 2)
            rooted = bool(case % 4 >= 2)

            def value_fn(ks, sums, rows):
                var = weight[rows, np.newaxis] * (np.sqrt(sums) if rooted else sums)
                bias = ks.astype(float)[np.newaxis, :] ** -s[rows, np.newaxis]
                q = steps[rows, np.newaxis]
                quantised = q > 0
                q = np.where(quantised, q, 1.0)
                var = np.where(quantised, np.floor(var * q) / q, var)
                bias = np.where(quantised, np.ceil(bias * q) / q, bias)
                return np.minimum(var, bias) if maximize else var + bias

            results = scan_bandwidths(c, value_fn, limit, count, maximize=maximize)
            assert results == _dense_reference(c, value_fn, limit, count, maximize), case


def test_deep_classical_scan_skips_most_points(monkeypatch):
    """The well-posed classical scan of a 48-point grid down to 5e-7 at
    D_max = 2^22 (minimiser sqrt(3)/eps, near 3.46M) evaluates under a
    quarter of the points of the chunk-by-chunk scan, with equal results."""
    spec = ProblemSpec(OperatorFamily.well_posed(), SmoothnessFamily.ordinary_smooth(0.75),
                       eps=0.1, d_max=1 << 22)
    grid = np.geomspace(0.0625, 5e-7, 48).tolist()
    counts, seen = {"skip": 0, "dense": 0}, {}

    def counting(terms, value_fn, limit, count, *, maximize=False):
        def counted(key):
            def fn(ks, sums, rows):
                counts[key] += ks.size
                return value_fn(ks, sums, rows)

            return fn

        seen["dense"] = _dense_reference(terms, counted("dense"), limit, count, maximize)
        return scan_bandwidths(terms, counted("skip"), limit, count, maximize=maximize)

    monkeypatch.setattr(bounds, "scan_bandwidths", counting)
    results = bounds._classical_scans(spec, grid)
    assert results == seen["dense"]
    assert results[-1].d == 3_464_102 and not results[-1].truncated
    assert counts["dense"] == 846 * _CHUNK
    assert counts["skip"] < 0.25 * counts["dense"]
