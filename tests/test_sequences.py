"""Tests for spectra, smoothness weights, partial sums, and signals.

Covers:
1. Frozen oracle values for the partial sums and bias terms
2. Monotonicity in the bandwidth and the fourth-power domination inequality
3. Ellipsoid membership arithmetic, including the boundary convention, and
   squared norms that overflow to +inf
4. Overflow behaviour of severely ill-posed spectra (inf, never an exception)
5. Bandwidth range enforcement for D_max and custom sequences
6. Chunked prefix sums against an fsum of closed-form terms, across chunk
   boundaries
7. The chunk carry bitwise against an fsum of every earlier term and, in a
   seeded fuzz, against its definition in exact fractions; the in-sequence
   cumsum the in-chunk prefix sums rely on
8. Noise levels whose square overflows, scales whose inverse square is not a
   positive finite float, and custom sequences' cached arrays
9. The carry at the edge of the double range, against an exact fraction sum
10. Constant (well-posed) spectra: exactly rounded closed-form prefix sums,
    the same scans as the chunked sum of the same constant, and overflow
11. The constant-term skip-ahead and the bounded first chunk against the
    chunk-by-chunk scan kept here as the oracle: the freeze rule's edges,
    custom families scanned to the limit, a seeded randomised set of
    production and synthetic objectives, deep ones that retry their chunks
    over finer blocks, every scan of the shipped configs and of deep rates
    grids, and the work it saves
12. A NaN objective value is never a scan's optimum
13. The bound objectives' 2-d (per-row) calls equal their 1-d calls bitwise
14. Every bound scan goes through `scan_spectrum`, to the spec's bandwidth
    limit, and stalls only when neither family is custom
"""

import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seqdetect import bounds, cli, detector, sequences
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
        smoothness = SmoothnessFamily("ordinary_smooth", 1.0)
    return ProblemSpec(operator=operator, smoothness=smoothness, eps=eps, **kwargs)


class TestPartialSums:
    def test_well_posed_sum_is_count(self):
        spec = make_spec(OperatorFamily("well_posed"))
        assert sum_inv_b_sq(spec, 5) == 5.0
        assert sum_inv_b_4(spec, 5) == 5.0

    def test_mildly_ill_posed_direct_summation(self):
        # oracle: 1 + 2^2 + 3^2 and 1 + 2^4 + 3^4
        spec = make_spec(OperatorFamily("mildly_ill_posed", 1.0))
        assert sum_inv_b_sq(spec, 3) == pytest.approx(14.0, rel=1e-15)
        assert sum_inv_b_4(spec, 3) == pytest.approx(98.0, rel=1e-15)

    def test_severely_ill_posed_direct_summation(self):
        spec = make_spec(OperatorFamily("severely_ill_posed", 1.0))
        assert sum_inv_b_sq(spec, 2) == pytest.approx(math.exp(2.0) + math.exp(4.0), rel=1e-14)

    def test_sums_strictly_increase_in_bandwidth(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kind = rng.integers(0, 3)
            t = float(rng.uniform(0.2, 1.5))
            op = [
                OperatorFamily("well_posed"),
                OperatorFamily("mildly_ill_posed", t),
                OperatorFamily("severely_ill_posed", t),
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
                OperatorFamily("well_posed", scale=scale),
                OperatorFamily("mildly_ill_posed", t, scale),
                OperatorFamily("severely_ill_posed", t, scale),
            ][kind]
            spec = make_spec(op)
            d = int(rng.integers(1, 40))
            s2 = sum_inv_b_sq(spec, d)
            s4 = sum_inv_b_4(spec, d)
            if math.isinf(s2):
                continue
            assert s4 <= s2 * s2 * (1.0 + 1e-12)

    def test_severe_overflow_returns_inf(self):
        spec = make_spec(OperatorFamily("severely_ill_posed", 1.0))
        assert math.isinf(sum_inv_b_sq(spec, 400))
        assert math.isinf(sum_inv_b_4(spec, 400))


REPO = Path(__file__).resolve().parents[1]

#: Chunk length of the prefix-sum primitive; the reference bandwidths straddle it.
_CHUNK = 4096
#: Consecutive non-improving bandwidths after which a scan objective freezes.
_STALL = 64
#: Bandwidths of the first chunk evaluated before the rest of it is bounded.
_PREFIX = 256
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
            OperatorFamily("well_posed", scale=1.5),
            OperatorFamily("mildly_ill_posed", 0.7, 0.8),
            OperatorFamily("severely_ill_posed", 0.01),
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
        op = OperatorFamily("severely_ill_posed", 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = op.inv_sq_array(np.array([1, 354, 355, 400]))
        assert w[0] == pytest.approx(math.exp(2.0))
        assert math.isfinite(w[1]) and np.all(np.isinf(w[2:]))

    def test_overflow_past_the_first_chunk_carries_inf(self):
        # b_k^-2 = exp(0.1 k): the running sum overflows near k = 7070, in the
        # second chunk, so the carry into the third chunk is +inf
        spec = make_spec(OperatorFamily("severely_ill_posed", 0.05))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(sum_inv_b_sq(spec, _CHUNK + 1))
            for d in (2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK):
                assert math.isinf(sum_inv_b_sq(spec, d))
                assert math.isinf(sum_inv_b_4(spec, d))

    def test_super_smooth_weight_overflow_leaves_signal_outside(self):
        sm = SmoothnessFamily("super_smooth", 1.0)
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
            OperatorFamily("well_posed", scale=1.5).inv_sq_array,
            OperatorFamily("mildly_ill_posed", 0.7, 0.8).inv_sq_array,
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
        # the in-chunk prefix sums, and through them the golden rates
        # outputs, are fixed only if every cumsum step is
        # run[i] = fl(run[i-1] + x[i]); pin that order on mixed signs and a
        # wide exponent range, where any other order would round differently
        rng = np.random.default_rng(43)
        x = rng.choice([-1.0, 1.0], 3 * _CHUNK) * 10.0 ** rng.uniform(-300.0, 300.0, 3 * _CHUNK)
        expected = list(itertools.accumulate(x.tolist()))
        assert np.cumsum(x).tobytes() == np.array(expected).tobytes()


def _exactly_rounded(values):
    """The exactly rounded sum of non-negative floats, from exact fractions;
    +inf when a term is +inf or the sum rounds past the largest double."""
    if math.inf in values:
        return math.inf
    try:
        return float(sum(map(Fraction, values)))
    except OverflowError:
        return math.inf


def _fuzzed_values(kind, rng):
    """Four chunks of non-negative terms of one kind."""
    size = 4 * _CHUNK
    if kind == "wide_range":
        return 10.0 ** rng.uniform(-300.0, 300.0, size)
    if kind == "subnormal_ties":
        return rng.choice([0.0, 2.0**-1074, 3 * 2.0**-1070, 1.0, 3.0, 2.0**53, 1e16], size)
    if kind == "near_max":
        # six terms over the first three chunks whose exact total lies within
        # a few ulps of the largest double, on either side, so the carries
        # meet fsum's intermediate-overflow edge; one more term in the last
        # chunk overflows its running sum mid-chunk
        big = np.finfo(float).max
        weights = rng.uniform(0.5, 1.5, 6)
        values = np.zeros(size)
        positions = rng.choice(3 * _CHUNK, 6, replace=False)
        shares = weights / weights.sum() * big
        values[positions] = shares * (1.0 + rng.uniform(-4, 4, 6) * 2.0**-53)
        values[3 * _CHUNK + rng.integers(_CHUNK)] = big / 4
        return values
    values = 10.0 ** rng.uniform(-300.0, 300.0, size)
    values[rng.integers(3 * _CHUNK)] = math.inf
    return values


class TestCarryMatchesItsDefinition:
    """A seeded fuzz of `_partial_sum` at d = n * CHUNK + j against the
    carry's definition, with exact fractions as the reference: the carry
    into chunk n + 1 is the exactly rounded sum of the carry into chunk n and
    chunk n's terms, and each partial sum is the carry plus the in-chunk
    running sum, added in sequence.  Eight draws of j per chunk and
    spectrum; six near-maximum spectra, as about one in four has a carry on
    which fsum raises its intermediate-overflow error."""

    @pytest.mark.parametrize(
        "kind,seed",
        [("wide_range", 61), ("subnormal_ties", 67), ("inf", 73)]
        + [("near_max", seed) for seed in range(80, 86)],
    )
    def test_partial_sums(self, kind, seed):
        rng = np.random.default_rng(seed)
        values = _fuzzed_values(kind, rng)
        carries = [0.0]
        for chunk in values.reshape(-1, _CHUNK)[:-1]:
            carries.append(_exactly_rounded([carries[-1], *chunk.tolist()]))
        term_fn = _array_terms(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, carry in enumerate(carries):
                for j in rng.integers(1, _CHUNK + 1, 8).tolist():
                    run = itertools.accumulate(values[n * _CHUNK : n * _CHUNK + j].tolist())
                    expected = carry + list(run)[-1]
                    assert _partial_sum(term_fn, n * _CHUNK + j) == expected, (n, j)


class TestBiasTerm:
    def test_ordinary_smooth_values(self):
        spec = make_spec(OperatorFamily("well_posed"))
        assert bias_term(spec, 1) == 1.0
        assert bias_term(spec, 2) == 0.25

    def test_super_smooth_value(self):
        spec = make_spec(
            OperatorFamily("well_posed"), SmoothnessFamily("super_smooth", 1.0)
        )
        assert bias_term(spec, 2) == pytest.approx(math.exp(-4.0), rel=1e-14)

    def test_non_increasing_in_bandwidth(self):
        for sm in (SmoothnessFamily("ordinary_smooth", 0.7),
                   SmoothnessFamily("super_smooth", 0.4)):
            spec = make_spec(OperatorFamily("well_posed"), sm)
            vals = [bias_term(spec, d) for d in range(1, 50)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestEllipsoid:
    def test_zero_signal_inside(self):
        check = ellipsoid_membership(SmoothnessFamily("ordinary_smooth", 1.0), Signal())
        assert check.value == 0.0 and check.inside

    def test_boundary_counts_as_inside(self):
        check = ellipsoid_membership(SmoothnessFamily("ordinary_smooth", 1.0), Signal((1.0,)))
        assert check.value == pytest.approx(1.0) and check.inside

    def test_overflow_reads_inf(self):
        # the exact sum of squares, 3.38e308, overflows: +inf, not fsum's
        # intermediate-overflow error
        theta = Signal((1.3e154, 1.3e154))
        assert theta.norm_sq() == math.inf
        sm = SmoothnessFamily("ordinary_smooth", 1.0)
        assert ellipsoid_membership(sm, theta).value == math.inf

    def test_outside_value(self):
        # a_2 = 2, theta_2 = 0.6: weighted mass 4 * 0.36 = 1.44
        check = ellipsoid_membership(SmoothnessFamily("ordinary_smooth", 1.0), Signal((0.0, 0.6)))
        assert check.value == pytest.approx(1.44, rel=1e-14)
        assert not check.inside


class TestBoundarySignal:
    def test_boundary_case(self):
        spec = make_spec(OperatorFamily("well_posed"))
        theta = boundary_signal(spec, 2, 0.5)
        assert theta.coefficients == (0.0, 0.5)
        check = ellipsoid_membership(spec.smoothness, theta)
        assert check.value == pytest.approx(1.0) and check.inside

    def test_interior_construction(self):
        spec = make_spec(OperatorFamily("well_posed"))
        theta = boundary_signal(spec, 3, 0.1)
        assert theta.coefficients == (0.0, 0.0, 0.1)
        assert theta.norm_sq() == pytest.approx(0.01)

    def test_rejects_signal_leaving_ellipsoid(self):
        spec = make_spec(OperatorFamily("well_posed"))
        with pytest.raises(ValueError, match="exceeds the ellipsoid cap"):
            boundary_signal(spec, 2, 0.6)

    def test_accepted_signals_always_members(self):
        rng = np.random.default_rng(5)
        spec = make_spec(
            OperatorFamily("mildly_ill_posed", 0.7), SmoothnessFamily("super_smooth", 0.5)
        )
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
        cases = [(SmoothnessFamily("ordinary_smooth", 2.0273208137425875), 24)]
        for _ in range(2000):
            s = float(rng.uniform(0.05, 3.0))
            sm = SmoothnessFamily("ordinary_smooth", s) if rng.random() < 0.5 else (
                SmoothnessFamily("super_smooth", s / 3.0)
            )
            cases.append((sm, int(rng.integers(1, 200))))
        for sm, d in cases:
            spec = make_spec(OperatorFamily("well_posed"), sm)
            theta = boundary_signal(spec, d, math.sqrt(bias_term(spec, d)))
            assert ellipsoid_membership(sm, theta).inside, (sm, d)


class TestRangesAndValidation:
    @pytest.mark.parametrize("exponent", [0.0, -1.0, math.nan, math.inf])
    def test_named_laws_need_a_positive_finite_exponent(self, exponent):
        for kind in ("mildly_ill_posed", "severely_ill_posed", "ordinary_smooth", "super_smooth"):
            family = OperatorFamily if kind in OPERATOR_KINDS else SmoothnessFamily
            with pytest.raises(ValueError, match="requires a positive exponent"):
                family(kind, exponent)

    def test_finite_mode_bandwidth_cap(self):
        spec = make_spec(OperatorFamily("well_posed"), d_max=8)
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
            OperatorFamily("mildly_ill_posed", 0.0)
        with pytest.raises(ValueError):
            OperatorFamily.custom([1.0, -2.0])
        with pytest.raises(ValueError):
            SmoothnessFamily.custom([2.0, 1.0])  # decreasing
        with pytest.raises(ValueError):
            SmoothnessFamily("ordinary_smooth", -1.0)

    def test_spec_validation(self):
        op = OperatorFamily("well_posed")
        sm = SmoothnessFamily("ordinary_smooth", 1.0)
        with pytest.raises(ValueError):
            ProblemSpec(op, sm, eps=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(op, sm, eps=0.1, fourth_moment_bound=0.5)
        assert ProblemSpec(op, sm, eps=0.1).d_max == DEFAULT_D_MAX
        # the fields after eps are keyword-only
        with pytest.raises(TypeError):
            ProblemSpec(op, sm, 0.1, 32)

    @pytest.mark.parametrize("d_max", [100.5, 100.0, math.nan, math.inf, 0, -3, "64", True])
    def test_d_max_must_be_a_positive_integer(self, d_max):
        # 100.5 used to build a spec whose bound scans failed in range(), and
        # True one whose bandwidth limit was True
        op = OperatorFamily("well_posed")
        sm = SmoothnessFamily("ordinary_smooth", 1.0)
        with pytest.raises(ValueError, match=re.escape(f"got {d_max!r}")):
            ProblemSpec(op, sm, eps=0.1, d_max=d_max)
        assert ProblemSpec(op, sm, eps=0.1, d_max=np.int64(64)).bandwidth_limit == 64

    @pytest.mark.parametrize("eps", [1e200, math.inf, math.nan, -0.1])
    def test_noise_level_square_must_be_finite(self, eps):
        op = OperatorFamily("well_posed")
        sm = SmoothnessFamily("ordinary_smooth", 1.0)
        with pytest.raises(ValueError, match="noise level eps"):
            ProblemSpec(op, sm, eps=eps)
        with pytest.raises(ValueError, match="noise level eps"):
            eps_sq_grid([0.1, eps])

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, 1e-200, 1e-160, 1e200, math.inf])
    def test_scale_needs_a_finite_positive_inverse_square(self, scale):
        # 1e-200 squares to 0, 1e-160 to a subnormal whose inverse overflows,
        # and 1e200 squares to +inf, whose inverse is 0
        with pytest.raises(ValueError, match="operator scale must be positive"):
            OperatorFamily("mildly_ill_posed", 1.0, scale)
        with pytest.raises(ValueError, match="smoothness scale must be positive"):
            SmoothnessFamily("ordinary_smooth", 1.0, scale)
        assert OperatorFamily("well_posed", scale=1e-154).scale == 1e-154

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

    # the named laws, as written before the law table; every entry is
    # (value, inverse square) for exponent e, scale c
    _LAW_FORMS = {
        "well_posed": (
            lambda x, e, c: np.full(len(x), c),
            lambda x, e, c: np.full(len(x), 1.0 / (c * c)),
        ),
        "mildly_ill_posed": (
            lambda x, e, c: c * x**-e,
            lambda x, e, c: 1.0 / (c * c) * x ** (2.0 * e),
        ),
        "severely_ill_posed": (
            lambda x, e, c: c * np.exp(-e * x),
            lambda x, e, c: 1.0 / (c * c) * np.exp(2.0 * e * x),
        ),
        "ordinary_smooth": (
            lambda x, e, c: c * x**e,
            lambda x, e, c: 1.0 / (c * c) * x ** (-2.0 * e),
        ),
        "super_smooth": (
            lambda x, e, c: c * np.exp(e * x),
            lambda x, e, c: 1.0 / (c * c) * np.exp(-2.0 * e * x),
        ),
    }
    # 1..4096 holds every exponential law's overflow and underflow index at
    # these exponents (e^(0.25 k) overflows from k = 2840, e^(-0.25 k) is 0
    # from k = 2981); the power laws stay in range up to 2^62
    _LAW_KS = np.concatenate(
        (np.arange(1, _CHUNK + 1), np.geomspace(_CHUNK + 1, 2**62, 64).astype(np.int64))
    )

    @pytest.mark.parametrize("scale", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize("exponent", [0.25, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("kind", OPERATOR_KINDS + SMOOTHNESS_KINDS)
    def test_law_table_matches_the_named_formulas_bitwise(self, kind, exponent, scale):
        family_cls = OperatorFamily if kind in OPERATOR_KINDS else SmoothnessFamily
        family = family_cls(kind, exponent, scale)
        value, inv_sq = self._LAW_FORMS[kind]
        x = self._LAW_KS.astype(float)
        with np.errstate(over="ignore"):
            expected = (value(x, exponent, scale), inv_sq(x, exponent, scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (family.value_array(self._LAW_KS), family.inv_sq_array(self._LAW_KS))
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    def test_law_table_covers_exactly_the_named_kinds(self):
        assert tuple(sequences._LAWS) == OPERATOR_KINDS + SMOOTHNESS_KINDS

    def test_kind_constructor_kinds_and_refusals(self):
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
        for family in (op, sm):
            with pytest.raises(ValueError, match="sequence indices start at 1"):
                family.value_array(np.array([0, 1]))
            with pytest.raises(ValueError, match="index 4 beyond custom sequence of length 3"):
                family.inv_sq_array(np.array([2, 4]))
        assert OperatorFamily("well_posed").max_index is None
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
            return (1.0 / ks)[np.newaxis]

        (result,) = scan_bandwidths(lambda ks: np.ones(len(ks)), value_fn, 300, 1)
        assert result.d == 300 and result.truncated


class TestScanBandwidths:
    """The multi-objective pass: per-objective freezing, exact agreement
    with one-objective scans."""

    #: row 0 is optimal at D = 10 (first chunk's prefix); row 1 at D = 10000
    #: (third chunk); row 2 at D = 5000 (second chunk)
    TARGETS = [10, 10000, 5000]

    def test_frozen_objectives_are_not_evaluated(self):
        seen = []
        objectives = _peaks(self.TARGETS, maximize=False)

        def value_fn(ks, sums, rows):
            seen.append((int(ks[0]), ks.size, rows.tolist()))
            return objectives(ks, sums, rows)

        results = scan_bandwidths(lambda ks: np.ones(len(ks)), value_fn, 1 << 16, 3)
        assert [r.d for r in results] == [10, 10000, 5000]
        assert [r.value for r in results] == [2.0, 2.0, 2.0]
        assert not any(r.truncated for r in results)
        # the first chunk's prefix for all rows; the bound on the rest of it
        # settles row 0 (one value per block: 109 blocks widening by 1.05
        # from 257 on); rows 1 and 2, still improving at the prefix end, get
        # the rest of the chunk
        assert seen == [
            (1, _PREFIX, [0, 1, 2]),
            (_PREFIX + 1, 109, [0]),
            (_PREFIX + 1, _CHUNK - _PREFIX, [1, 2]),
            (4097, _CHUNK, [1, 2]),
            (8193, _CHUNK, [1]),
        ]

    def test_rows_match_single_objective_scans(self):
        value_fn = _peaks(self.TARGETS, maximize=False)
        results = scan_bandwidths(lambda ks: np.ones(len(ks)), value_fn, 9000, 3)
        for row, result in enumerate(results):
            (single,) = scan_bandwidths(
                lambda ks: np.ones(len(ks)),
                _peaks([self.TARGETS[row]], maximize=False),
                9000,
                1,
            )
            assert result == single
        assert results[1] == (9000, 9000.0 / 10000.0 + 10000.0 / 9000, True)

    def test_maximize_freezes_per_row(self):
        results = scan_bandwidths(
            lambda ks: np.ones(len(ks)), _peaks(self.TARGETS, maximize=True), 1 << 16, 3,
            maximize=True,
        )
        assert [(r.d, r.value) for r in results] == [(10, 1.0), (10000, 1.0), (5000, 1.0)]


class TestConstantSpectra:
    """A well-posed spectrum's terms are one constant c, and its prefix sums
    are the closed form fl(k * c): the exactly rounded sum of k copies."""

    @pytest.mark.parametrize("scale", [1.5, 0.7, 3.0])
    @pytest.mark.parametrize("d", [100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 20000])
    def test_sums_are_exactly_rounded(self, scale, d):
        spec = make_spec(OperatorFamily("well_posed", scale=scale))
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
                ratio, inverse = sums / targets[rows], targets[rows] / ks
                return np.minimum(ratio, inverse) if maximize else ratio + inverse

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
            spec = make_spec(OperatorFamily("well_posed", scale=1e-154))
            assert sum_inv_b_sq(spec, 1) == 1.0 / (1e-154 * 1e-154)
            assert math.isinf(sum_inv_b_sq(spec, 2))
            assert math.isinf(sum_inv_b_4(spec, 1))


def _dense_reference(terms, value_fn, limit, count, maximize=False, stall=True):
    """The chunk-by-chunk scan: every running objective is evaluated on every
    chunk of prefix sums until it freezes (without ``stall``, to the limit).
    The oracle of the skip-ahead.  A NaN value is never an optimum: it counts
    as the worst value."""
    best_d = np.zeros(count, dtype=np.int64)
    best = np.full(count, -math.inf if maximize else math.inf)
    rows = np.arange(count)
    for ks, sums in _prefix_sums(terms, limit):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = value_fn(ks, sums, rows)
        vals = np.where(np.isnan(vals), -math.inf if maximize else math.inf, vals)
        idx = np.argmax(vals, axis=1) if maximize else np.argmin(vals, axis=1)
        candidates = vals[np.arange(rows.size), idx]
        improved = candidates > best[rows] if maximize else candidates < best[rows]
        best[rows[improved]] = candidates[improved]
        best_d[rows[improved]] = ks[idx[improved]]
        if stall:
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
            vals = np.minimum(sums / lo, hi / ks)
        else:
            vals = np.maximum(lo / ks, sums / hi)
        return np.broadcast_to(vals, (rows.size, ks.shape[-1]))

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

    @pytest.mark.parametrize(
        "end", [_PREFIX, _PREFIX + _STALL, _PREFIX + 2 * _STALL, _CHUNK, 2 * _CHUNK, 5 * _CHUNK]
    )
    def test_optimum_at_the_tail_edge(self, terms, maximize, end):
        # e - 64 freezes at the chunk end e, e - 63 one chunk later; on the
        # first chunk's prefix end e = 256, e - 64 is settled by the bound on
        # the rest of the chunk and e - 63 is evaluated past it
        targets = [end - _STALL, end - _STALL + 1]
        opt = 1.0 if maximize else 2.0
        expected = [(t, opt, False) for t in targets]
        self.check(terms, _peaks(targets, maximize), 1 << 16, 2, maximize, expected)

    @pytest.mark.parametrize("lo", [_PREFIX, _CHUNK, 2 * _CHUNK, 3 * _CHUNK - 1])
    def test_ties_across_a_chunk_boundary(self, terms, maximize, lo):
        # the optimum is attained at lo and at lo + 1; the smaller one wins,
        # across a chunk boundary or the first chunk's prefix end
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
            return np.atleast_2d(h + g)

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
            return np.atleast_2d(h + g)

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
                return np.atleast_2d(sums * smooth.inv_sq_array(ks))

            local, better = (100, 100.0), 40_000
        else:
            # 1e-5 S + a_k^-2: a_k^-2 = 1 up to k = 9000, 1e-6 after it
            smooth = SmoothnessFamily.custom([1.0] * 9000 + [1000.0] * 31_000)

            def value_fn(ks, sums, rows):
                return np.atleast_2d(1e-5 * sums + smooth.inv_sq_array(ks))

            local, better = (1, 1.00001), 9001
        limit = smooth.max_index
        whole = value_fn(np.arange(1, limit + 1), np.arange(1.0, limit + 1), np.arange(1))[0]
        assert (whole[better - 1] > local[1]) if maximize else (whole[better - 1] < local[1])
        self.check(terms, value_fn, limit, 1, maximize, [(*local, False)])


def _checked_scans(monkeypatch, stalls=None):
    """Patch `sequences.scan_bandwidths`, which every bound scan goes
    through, so that every scan is also run chunk by chunk and must agree
    exactly; returns the list of checked scans as (limit, count, maximize),
    and appends each scan's ``stall`` to ``stalls`` when one is given."""
    checked = []

    def scan(terms, value_fn, limit, count, *, maximize=False, stall=True):
        results = scan_bandwidths(terms, value_fn, limit, count, maximize=maximize, stall=stall)
        assert results == _dense_reference(terms, value_fn, limit, count, maximize, stall)
        checked.append((limit, count, maximize))
        if stalls is not None:
            stalls.append(stall)
        return results

    monkeypatch.setattr(sequences, "scan_bandwidths", scan)
    return checked


@pytest.mark.parametrize(
    "op, smooth, limit, named",
    [
        (OperatorFamily("mildly_ill_posed", 0.5), SmoothnessFamily("ordinary_smooth", 1.0),
         5000, True),
        (OperatorFamily("well_posed"), SmoothnessFamily.custom(np.arange(1.0, 3001.0)), 3000, False),
        (OperatorFamily.custom(np.arange(1.0, 2001.0) ** -0.5),
         SmoothnessFamily("super_smooth", 0.01), 2000, False),
    ],
    ids=["named", "custom_smoothness", "short_custom_operator"],
)
def test_every_bound_scan_goes_through_scan_spectrum(monkeypatch, op, smooth, limit, named):
    """`scan_spectrum` owns the scan policy: the three bounds of a grid and
    the bandwidth of a calibration all scan to the spec's bandwidth limit,
    and stall only when neither family is custom."""
    stalls = []
    checked = _checked_scans(monkeypatch, stalls)
    spec = ProblemSpec(op, smooth, eps=0.01, d_max=5000)
    assert spec.bandwidth_limit == limit
    bounds.bounds_over_grid(spec, [0.1, 0.01, 1e-3], 0.1, 0.1)
    detector.calibrate(spec, 0.1, 0.1)
    assert checked == [(limit, 3, False), (limit, 3, True), (limit, 3, False), (limit, 1, False)]
    assert stalls == [named] * 4


class TestCustomScansRunToTheLimit:
    """A custom a_k may hold still past the stall rule's reach and then jump,
    so the scans of a custom family run to its limit: each finds the optimum
    just past a plateau of a_k = 1 and equals the chunk-by-chunk oracle run
    to the limit."""

    @pytest.mark.parametrize(
        "op, value",
        [(OperatorFamily("well_posed"), 0.005002),
         (OperatorFamily("mildly_ill_posed", 0.1), 0.0228956)],
        ids=["well_posed", "mildly_ill_posed"],
    )
    def test_optimum_past_a_plateau(self, monkeypatch, op, value):
        # the radius objective is 1 + 1e-6 S up to k = 5000 and 1e-6 (S + 1)
        # after it; a stalling scan freezes at D = 1 with 1.000001
        checked = _checked_scans(monkeypatch)
        spec = ProblemSpec(op, SmoothnessFamily.custom([1.0] * 5000 + [1000.0] * 7000), eps=1e-3)
        result = detector.select_bandwidth(spec, 1.0)
        assert (result.d, result.truncated) == (5001, False)
        assert result.value == pytest.approx(value, abs=5e-8)
        assert checked == [(12_000, 1, False)]

    def test_plateau_past_the_second_chunk(self, monkeypatch):
        # the plateau ends at k = 9000, in the third chunk: all three bounds
        # sit at its edge
        checked = _checked_scans(monkeypatch)
        spec = ProblemSpec(OperatorFamily("well_posed"),
                           SmoothnessFamily.custom([1.0] * 9000 + [1000.0] * 3000), eps=1e-3)
        (grid,) = bounds.bounds_over_grid(spec, [1e-3], 0.1, 0.1, c_beta=1.0)
        assert (grid.d_lower, grid.d_upper, grid.d_classical) == (9000, 9001, 9001)
        assert grid.upper_r2 == pytest.approx(0.009002)
        assert len(checked) == 3


@pytest.mark.filterwarnings("ignore:.*hit the scan limit:UserWarning")
class TestSkipAheadMatchesTheDenseScan:
    """Seeded randomised cases: the constant-term scans equal the
    chunk-by-chunk oracle exactly, for the three production objectives and
    for synthetic monotone ones with many ties."""

    @staticmethod
    def random_spec(rng, limit):
        kind = rng.integers(3)
        if kind == 0:
            smooth = SmoothnessFamily("ordinary_smooth", float(rng.uniform(0.75, 2.0)),
                                                      scale=float(rng.uniform(0.5, 2.0)))
        elif kind == 1:
            smooth = SmoothnessFamily("super_smooth", float(rng.uniform(1e-3, 0.5)),
                                                   scale=float(rng.uniform(0.5, 2.0)))
        else:
            steps = rng.exponential(1.0, 30_000) * (rng.random(30_000) < 0.3)
            smooth = SmoothnessFamily.custom(1.0 + np.cumsum(steps) * rng.uniform(1e-3, 1.0))
        scale = float(rng.choice([1.0, 0.7, 1.5]))
        return ProblemSpec(OperatorFamily("well_posed", scale=scale), smooth, eps=0.1, d_max=limit)

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
            spec = ProblemSpec(OperatorFamily("well_posed", scale=scale),
                               SmoothnessFamily("ordinary_smooth", s), eps=0.1, d_max=1 << 22)
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
            for smooth in (SmoothnessFamily("super_smooth", 5.0),
                           SmoothnessFamily("ordinary_smooth", 60.0)):
                spec = ProblemSpec(OperatorFamily("well_posed", scale=scale), smooth, eps=0.1,
                                   d_max=3 * _CHUNK + 7)
                bounds.bounds_over_grid(spec, grid, 0.1, 0.1, c_beta=50.0)
        assert len(checked) == 6

    def test_every_scan_of_the_shipped_configs(self, monkeypatch, tmp_path):
        checked = _checked_scans(monkeypatch)
        configs = REPO / "configs"
        for command in ("bounds", "calibrate", "simulate", "rates"):
            argv = [command, "--config", str(configs / f"{command}.cfg"),
                    "--output", str(tmp_path / command)]
            before = len(checked)
            assert cli.main(argv + (["--reps", "1000"] if command == "simulate" else [])) == 0
            assert len(checked) > before, command
        # rates on all six cells down to eps = 5e-7 at D_max = 2^22, the
        # deepest grid at which no scan of the six cells truncates
        grid = ", ".join(map(repr, np.geomspace(0.0625, 5e-7, 48).tolist()))
        text = (configs / "rates.cfg").read_text()
        text = re.sub(r"(?m)^D_max = .*$", f"D_max = {1 << 22}", text)
        text = re.sub(r"(?m)^run.eps_grid = .*$", f"run.eps_grid = {grid}", text)
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(text)
        before = len(checked)
        assert cli.main(["rates", "--config", str(cfg), "--output", str(tmp_path / "deep")]) == 0
        # the lower, upper and classical scans of each cell
        assert checked[before:] == [(1 << 22, 48, m) for m in (False, True, False)] * 6

    def test_synthetic_objectives(self):
        # quantised sums and weights: long runs of ties in both directions;
        # every third case sums the constant as a term function, which
        # skips nothing but bounds its first chunk past the prefix
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
                bias = ks.astype(float) ** -s[rows, np.newaxis]
                q = steps[rows, np.newaxis]
                quantised = q > 0
                q = np.where(quantised, q, 1.0)
                var = np.where(quantised, np.floor(var * q) / q, var)
                bias = np.where(quantised, np.ceil(bias * q) / q, bias)
                return np.minimum(var, bias) if maximize else var + bias

            terms = c if case % 3 else (lambda ks, c=c: np.full(ks.size, c))
            results = scan_bandwidths(terms, value_fn, limit, count, maximize=maximize)
            assert results == _dense_reference(terms, value_fn, limit, count, maximize), case

    @pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
    def test_deep_objectives(self, maximize):
        # limits of 64 chunks or more and optima from 8 chunks deep to past
        # the limit, so that many objectives stop 16 or more chunks deep;
        # minimised ones retry their next chunks over the finer blocks, one
        # 2-d call per round, and a second round follows a certified retry.
        # A maximised min(var, bias) makes none: the coarse blocks already
        # certify it up to its peak, a kink.  About a third of the rows are quantised, with
        # long runs of ties, and about a third turn NaN from a bandwidth near
        # their optimum on
        rng = np.random.default_rng(2016 + maximize)
        rounds = []
        for case in range(6):
            c = float(rng.choice([1.0, 1 / 0.49, 10 ** rng.uniform(-3, 3)]))
            limit = int(rng.integers(64 * _CHUNK, 128 * _CHUNK))
            count = int(rng.choice([1, 4, 12]))
            s = rng.uniform(0.5, 2.0, count)
            rooted = rng.random(count) < 0.5
            # var = bias near k = optimum, for var = weight S or weight sqrt(S)
            optimum = 2 ** rng.uniform(15, 1 + math.log2(limit), count)
            weight = np.where(rooted, optimum ** -(s + 0.5) / math.sqrt(c), optimum ** -(s + 1) / c)
            steps = np.where(rng.random(count) < 0.3, 10 ** rng.uniform(2, 12, count), 0.0)
            nan_from = np.where(rng.random(count) < 0.3, optimum * 2 ** rng.uniform(-1, 2, count),
                                math.inf)

            def value_fn(ks, sums, rows):
                root = rooted[rows, np.newaxis]
                var = weight[rows, np.newaxis] * np.where(root, np.sqrt(sums), sums)
                bias = ks.astype(float) ** -s[rows, np.newaxis]
                q = steps[rows, np.newaxis]
                quantised = q > 0
                q = np.where(quantised, q, 1.0)
                var = np.where(quantised, np.floor(var * q) / q, var)
                bias = np.where(quantised, np.ceil(bias * q) / q, bias)
                vals = np.minimum(var, bias) if maximize else var + bias
                return np.where(ks >= nan_from[rows, np.newaxis], math.nan, vals)

            def counted(ks, sums, rows):
                rounds[-1] += ks.ndim == 2
                return value_fn(ks, sums, rows)

            rounds.append(0)
            results = scan_bandwidths(c, counted, limit, count, maximize=maximize)
            assert results == _dense_reference(c, value_fn, limit, count, maximize), case
        assert (max(rounds) == 0) if maximize else (max(rounds) >= 2), rounds

    @pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
    def test_deep_ties_at_zero(self, maximize):
        # the optimum 0 holds from the 20th chunk's tail to past the 21st
        # chunk's end; the tied 0 in the 21st chunk's tail must not certify
        # it, as no relative slack separates two zeros, so a stays first
        a, b = 20 * _CHUNK - _STALL + 1, 21 * _CHUNK + 100

        def value_fn(ks, sums, rows):
            if maximize:
                vals = np.minimum(0.0, sums - a) - (ks > b)
            else:
                vals = np.maximum(0.0, a - ks) + (sums > b)
            return np.broadcast_to(vals, (rows.size, ks.shape[-1]))

        results = scan_bandwidths(1.0, value_fn, 64 * _CHUNK, 1, maximize=maximize)
        assert results == [(a, 0.0, False)]
        assert results == _dense_reference(1.0, value_fn, 64 * _CHUNK, 1, maximize)

    @pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
    def test_deep_optimum_before_a_jump(self, maximize):
        # the objective improves steadily up to a, the 20th chunk's last
        # index, jumps away from the optimum just after it and improves
        # again; the 21st chunk's last value beats the rest of that chunk but
        # not a, so every bound for the 21st chunk must count a
        a, jump = 20 * _CHUNK, 2.0 * _CHUNK

        def value_fn(ks, sums, rows):
            if maximize:
                vals = sums - jump * (ks > a)
            else:
                vals = jump * (sums > a) - ks
            return np.broadcast_to(vals, (rows.size, ks.shape[-1]))

        results = scan_bandwidths(1.0, value_fn, 64 * _CHUNK, 1, maximize=maximize)
        assert results == [(a, a if maximize else -a, False)]
        assert results == _dense_reference(1.0, value_fn, 64 * _CHUNK, 1, maximize)


@pytest.mark.parametrize(
    "smooth",
    [SmoothnessFamily("ordinary_smooth", 0.75, scale=1.3),
     SmoothnessFamily.custom(np.cumsum(np.random.default_rng(7).exponential(1.0, 5000)) + 1.0)],
    ids=["ordinary_smooth", "custom"],
)
def test_per_row_calls_match_shared_calls(monkeypatch, smooth):
    """The `scan_bandwidths` contract on the three bound objectives: a call
    with 2-d indices and sums, one row per entry of ``rows``, equals the
    1-d calls of its rows bitwise, at dense and at mixed points alike."""
    value_fns = []

    def capture(terms, value_fn, limit, count, *, maximize=False, stall=True):
        value_fns.append(value_fn)
        return scan_bandwidths(terms, value_fn, limit, count, maximize=maximize, stall=stall)

    monkeypatch.setattr(sequences, "scan_bandwidths", capture)
    spec = ProblemSpec(OperatorFamily("well_posed", scale=0.7), smooth, eps=0.1, d_max=5000)
    # eps^2 underflows to 0 at 1e-170, so 0 * inf is NaN at an inf sum
    grid = [0.3, 1e-2, 1e-4, 1e-7, 1e-170]
    detector.select_bandwidths(spec, 50.0, grid)
    bounds._lower_scans(spec, grid, 0.1, 0.2)
    bounds._classical_scans(spec, grid)
    assert len(value_fns) == 3
    rng = np.random.default_rng(29)
    rows = np.array([4, 0, 2, 3])
    ks = rng.integers(1, 5001, (rows.size, 300))
    sums = ks * 2.04 * rng.uniform(0.5, 1.0, ks.shape)
    sums[:, :5] = math.inf
    with np.errstate(all="ignore"):
        for value_fn in value_fns:
            per_row = value_fn(ks, sums, rows)
            shared = np.concatenate(
                [value_fn(ks[i], sums[i], rows[i : i + 1]) for i in range(rows.size)]
            )
            assert per_row.shape == ks.shape
            assert per_row.tobytes() == shared.tobytes()


def test_deep_classical_scan_skips_most_points(monkeypatch):
    """The well-posed classical scan of a 48-point grid down to 5e-7 at
    D_max = 2^22 (minimiser sqrt(3)/eps, near 3.46M) evaluates under 10 % of
    the points of the chunk-by-chunk scan, with equal results, and folds at
    most 40 whole chunks into an objective densely: the deep objectives are
    certified close to their optima."""
    spec = ProblemSpec(OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 0.75),
                       eps=0.1, d_max=1 << 22)
    grid = np.geomspace(0.0625, 5e-7, 48).tolist()
    counts, seen = {"skip": 0, "dense": 0, "folds": 0}, {}

    def counting(terms, value_fn, limit, count, *, maximize=False, stall=True):
        def counted(key):
            def fn(ks, sums, rows):
                # shared points count once, per-row (2-d) points once per row
                counts[key] += ks.size
                if key == "skip" and ks.shape == (_CHUNK,):
                    counts["folds"] += rows.size
                return value_fn(ks, sums, rows)

            return fn

        seen["dense"] = _dense_reference(terms, counted("dense"), limit, count, maximize, stall)
        return scan_bandwidths(
            terms, counted("skip"), limit, count, maximize=maximize, stall=stall
        )

    monkeypatch.setattr(sequences, "scan_bandwidths", counting)
    results = bounds._classical_scans(spec, grid)
    assert results == seen["dense"]
    assert results[-1].d == 3_464_102 and not results[-1].truncated
    assert counts["dense"] == 846 * _CHUNK
    assert counts["skip"] < 0.10 * counts["dense"]
    assert counts["folds"] <= 40


def test_deep_lower_scan_makes_no_retries(monkeypatch):
    """The well-posed lower scan of a 48-point grid down to 5e-7 at
    D_max = 2^22 stops its lockstep pass deep into the spectrum for some
    objectives, but a maximising scan never retries with the finer, per-row
    blocks (a 3-d `_block_bounds` call): it equals the chunk-by-chunk scan
    without them."""
    spec = ProblemSpec(OperatorFamily("well_posed"), SmoothnessFamily("ordinary_smooth", 0.75),
                       eps=0.1, d_max=1 << 22)
    grid = np.geomspace(0.0625, 5e-7, 48).tolist()
    block_dims, seen = [], {}

    def recording(value_fn, rows, lo, *args):
        block_dims.append(lo.ndim)
        return block_bounds(value_fn, rows, lo, *args)

    def scan(terms, value_fn, limit, count, *, maximize=False, stall=True):
        seen["dense"] = _dense_reference(terms, value_fn, limit, count, maximize, stall)
        return scan_bandwidths(terms, value_fn, limit, count, maximize=maximize, stall=stall)

    block_bounds = sequences._block_bounds
    monkeypatch.setattr(sequences, "_block_bounds", recording)
    monkeypatch.setattr(sequences, "scan_bandwidths", scan)
    results = bounds._lower_scans(spec, grid, 0.25, 0.25)
    assert results == seen["dense"]
    assert max(r.d for r in results) > sequences._REFINE_DEPTH * _CHUNK
    assert block_dims and set(block_dims) == {2}


class TestNanIsNeverAnOptimum:
    """A NaN counts as +inf when minimising and -inf when maximising."""

    def test_classical_bound_at_a_vanishing_noise_square(self, monkeypatch):
        # eps^2 underflows to 0 and b^-4 = 1e308: the classical objective is
        # a_1^-2 = 1 at D = 1 and 0 * inf = NaN from D = 2 on
        checked = _checked_scans(monkeypatch)
        spec = ProblemSpec(OperatorFamily("well_posed", scale=1e-77),
                           SmoothnessFamily("ordinary_smooth", 60.0), eps=0.1, d_max=3 * _CHUNK + 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (result,) = bounds.bounds_over_grid(spec, [1e-170], 0.1, 0.1, c_beta=50.0)
        assert (result.classical_r2, result.d_classical) == (1.0, 1)
        assert len(checked) == 3

    @pytest.mark.parametrize("maximize", [False, True])
    @pytest.mark.parametrize("at", [1, 5, 60, 300, 4000])
    def test_finite_value_among_nans(self, maximize, at):
        # the skip-ahead must not certify a chunk of NaNs, and the dense pass
        # must find the one finite value among a chunk's NaNs (before the
        # scan freezes, 64 bandwidths on), in the first chunk's prefix or in
        # the rest of it, which NaN bounds cannot settle
        limit = 3 * _CHUNK + 7

        def value_fn(ks, sums, rows):
            vals = np.where(ks == at, 2.0, math.nan)
            return np.broadcast_to(vals, (rows.size, ks.shape[-1]))

        results = scan_bandwidths(1.0, value_fn, limit, 2, maximize=maximize)
        assert results == [(at, 2.0, False)] * 2
        assert results == _dense_reference(1.0, value_fn, limit, 2, maximize)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_nans_inside_a_certified_tail(self, maximize):
        # optimum 2 (or 1) at 22480 in the sixth chunk; chunks 1-5 are
        # certified by their last values, and the incumbent read from the
        # fifth chunk's tail 20417..20480 must pass over its NaNs
        peaks = _peaks([5 * _CHUNK + 2000], maximize)
        holes = [5 * _CHUNK - 63, 5 * _CHUNK - 40, 5 * _CHUNK - 1, 4 * _CHUNK - 5]

        def value_fn(ks, sums, rows):
            vals = peaks(ks, sums, rows)
            return np.where(np.isin(ks, holes), math.nan, vals)

        results = scan_bandwidths(1.0, value_fn, 1 << 15, 1, maximize=maximize)
        assert results == [(5 * _CHUNK + 2000, 1.0 if maximize else 2.0, False)]
        assert results == _dense_reference(1.0, value_fn, 1 << 15, 1, maximize)
