"""Spectra, smoothness weights, and signal primitives for the sequence
observation model ``y_k = b_k * theta_k + eps * xi_k``.

The forward operator enters only through its positive spectrum ``b = (b_k)``;
signal regularity is encoded by a non-decreasing weight sequence ``a = (a_k)``
through the ellipsoid ``{theta : sum_k a_k^2 theta_k^2 <= 1}``.  Everything
downstream (thresholds, radius bounds, bandwidth selection) is built from the
partial sums of ``b_k^-2`` and ``b_k^-4`` defined here.

Sequences are evaluated by formula over whole index arrays, and every partial
sum comes from one chunked prefix-sum primitive, `_prefix_sums`, over the
spectrum's terms as `_inv_b_terms` gives them.  A well-posed spectrum's terms
are one constant c, and its prefix sums are the closed form ``fl(k * c)``,
the exactly rounded sum.  Any other spectrum gets a numpy ``cumsum`` inside
each chunk of indices, with the total of the earlier chunks carried by an
exactly rounded ``math.fsum``.  That fsum never sees the terms one by one: it
sums the cumsum's last value and the last values of cumsums of its cascaded
TwoSum residuals, whose exact sum is the chunk's sum.  Exponentially
ill-posed spectra overflow to ``+inf`` instead of raising, so optimisation
loops can simply skip past the overflowed tail.

Every optimisation over the bandwidth is one `scan_bandwidths` pass: the
prefix sums of a spectrum are formed once per chunk and shared by any number
of objectives (one per noise level of an eps grid, say), each of which
freezes on its own once it stops improving.  Over a constant term, whose sum
is known at any k, an objective that is monotone in k and in the sum first
skips every chunk it can certify (`_skip_ahead`: the chunk's tail beats a
lower bound on everything before it) and is evaluated densely only from its
first uncertified chunk, near its optimum, with the results of the dense
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Iterable, Iterator, NamedTuple, Union

import numpy as np

WELL_POSED = "well_posed"
MILDLY_ILL_POSED = "mildly_ill_posed"
SEVERELY_ILL_POSED = "severely_ill_posed"
ORDINARY_SMOOTH = "ordinary_smooth"
SUPER_SMOOTH = "super_smooth"
CUSTOM = "custom"

#: The named kinds of each family; either family also takes ``custom`` values.
OPERATOR_KINDS = (WELL_POSED, MILDLY_ILL_POSED, SEVERELY_ILL_POSED)
SMOOTHNESS_KINDS = (ORDINARY_SMOOTH, SUPER_SMOOTH)

#: Default truncation of the (conceptually infinite) index set for all
#: optimisations over the bandwidth D.
DEFAULT_D_MAX = 1 << 16

_SCAN_CHUNK = 4096
#: Consecutive non-improving bandwidths after which a scan stops.
_SCAN_STALL_LIMIT = 64
#: Skip-ahead over constant-term scans (see `_skip_ahead`): the head sub-blocks
#: widen by this factor away from a chunk's tail, at most this many chunks are
#: certified per objective evaluation, and each bound is shrunk by this
#: relative slack before it is compared.
_SKIP_GROWTH = 1.05
_SKIP_MAX_BATCH = 32
_SKIP_SLACK = 2.0**-40
_MEMBERSHIP_SLACK = 1e-12


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _fsum_or_inf(terms: list[float]) -> float:
    """Exactly rounded sum of terms whose total is non-negative; +inf once it
    overflows.

    fsum's intermediate-overflow error depends on the order of its inputs, so
    it can raise for a sum that rounds to a finite double just below the
    largest one.  Only then are the terms (all finite, or fsum would not have
    raised) summed again exactly, as fractions.
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        try:
            return float(sum(map(Fraction, terms)))
        except OverflowError:
            return math.inf


def _frozen_array(values: tuple[float, ...]) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


def _check_eps(eps: float) -> None:
    """A noise level must be positive and its square finite.

    eps^2 may underflow to 0: that is the noise-free limit, in which every
    bound reduces to its bias term.
    """
    if not eps > 0 or not eps * eps < math.inf:
        raise ValueError(f"noise level eps must be positive with a finite square, got {eps!r}")


def _check_scale(scale: float, what: str) -> None:
    """A family's scale must have 1/scale^2 a positive finite double: that
    constant multiplies every b_k^-2 or a_k^-2 (and is the whole term of a
    well-posed spectrum)."""
    square = scale * scale
    if not scale > 0 or not square > 0 or not 0.0 < 1.0 / square < math.inf:
        raise ValueError(
            f"{what} scale must be positive with 1/scale^2 a positive finite float, got {scale!r}"
        )


def _custom_at(values: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """values[k - 1] for each index k of a custom sequence."""
    ks = np.asarray(ks)
    if ks.size and ks.min() < 1:
        raise ValueError("sequence indices start at 1")
    if ks.size and ks.max() > len(values):
        raise ValueError(f"index {ks.max()} beyond custom sequence of length {len(values)}")
    return values[ks - 1]


@dataclass(frozen=True)
class _Family:
    """A positive sequence of one kind: a named kind with its exponent and
    scale, or ``custom`` explicit values times the scale.

    Subclasses name the sequence (``_what``), list their named kinds
    (``_kinds``, of which ``_exponent_kinds`` need a positive exponent) and
    evaluate them, down to the ratio of consecutive values (``_named_ratio``);
    custom values, the checks and indexing live here.
    """

    _what: ClassVar[str]
    _kinds: ClassVar[tuple[str, ...]]
    _exponent_kinds: ClassVar[tuple[str, ...]]

    kind: str
    exponent: float = 0.0
    scale: float = 1.0
    values: tuple[float, ...] | None = None
    #: ``values`` as a read-only float array, built once for custom sequences.
    _array: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in self._kinds and self.kind != CUSTOM:
            raise ValueError(f"unknown {self._what} kind {self.kind!r}")
        _check_scale(self.scale, self._what)
        if self.kind in self._exponent_kinds and not self.exponent > 0:
            raise ValueError(f"{self.kind} requires a positive exponent, got {self.exponent!r}")
        if self.kind == CUSTOM:
            if not self.values:
                raise ValueError(f"custom {self._what} requires explicit values")
            if any(not v > 0 or not math.isfinite(v) for v in self.values):
                raise ValueError(f"custom {self._what} values must be positive and finite")
            object.__setattr__(self, "_array", _frozen_array(self.values))
        elif self.values is not None:
            raise ValueError("explicit values are only valid for the custom kind")

    @classmethod
    def custom(cls, values: Iterable[float], scale: float = 1.0):
        return cls(CUSTOM, scale=scale, values=tuple(float(v) for v in values))

    @property
    def max_index(self) -> int | None:
        """Largest valid index, or None when the family is unbounded."""
        return len(self.values) if self.values is not None else None

    def consecutive_ratio(self, k: int) -> float:
        """The ratio of the (k-1)-th to the k-th value, for k >= 2."""
        if k < 2:
            raise ValueError("consecutive ratio needs k >= 2")
        self._check_index(k)
        if self.kind == CUSTOM:
            return self.values[k - 2] / self.values[k - 1]
        return self._named_ratio(k)

    def _check_index(self, k: int) -> None:
        if k < 1:
            raise ValueError("sequence indices start at 1")
        if self.values is not None and k > len(self.values):
            raise ValueError(f"index {k} beyond custom sequence of length {len(self.values)}")


class OperatorFamily(_Family):
    """Positive spectrum b = (b_k) of the forward operator.

    Named kinds: ``well_posed`` (b_k = scale), ``mildly_ill_posed``
    (b_k = scale * k^-exponent) and ``severely_ill_posed``
    (b_k = scale * exp(-k * exponent)); ``custom`` wraps an explicit positive
    sequence.  For the named kinds the inverse spectrum b_k^-1 is
    non-decreasing in k.
    """

    _what = "operator"
    _kinds = OPERATOR_KINDS
    _exponent_kinds = (MILDLY_ILL_POSED, SEVERELY_ILL_POSED)

    @classmethod
    def well_posed(cls, scale: float = 1.0) -> "OperatorFamily":
        return cls(WELL_POSED, scale=scale)

    @classmethod
    def mildly_ill_posed(cls, exponent: float, scale: float = 1.0) -> "OperatorFamily":
        return cls(MILDLY_ILL_POSED, exponent=exponent, scale=scale)

    @classmethod
    def severely_ill_posed(cls, exponent: float, scale: float = 1.0) -> "OperatorFamily":
        return cls(SEVERELY_ILL_POSED, exponent=exponent, scale=scale)

    def value_array(self, ks: np.ndarray) -> np.ndarray:
        """b_k over an index array (underflows to 0.0 for extreme severely
        ill-posed indices)."""
        if self.kind == WELL_POSED:
            return np.full(len(ks), self.scale)
        if self.kind == MILDLY_ILL_POSED:
            return self.scale * np.asarray(ks, dtype=float) ** -self.exponent
        if self.kind == SEVERELY_ILL_POSED:
            return self.scale * np.exp(-self.exponent * np.asarray(ks, dtype=float))
        return self.scale * _custom_at(self._array, ks)

    def inv_sq_array(self, ks: np.ndarray) -> np.ndarray:
        """b_k^-2 over an index array, computed directly so ill-posed spectra
        overflow to +inf."""
        inv_scale_sq = 1.0 / (self.scale * self.scale)
        with np.errstate(over="ignore"):
            if self.kind == WELL_POSED:
                return np.full(len(ks), inv_scale_sq)
            if self.kind == MILDLY_ILL_POSED:
                return inv_scale_sq * np.asarray(ks, dtype=float) ** (2.0 * self.exponent)
            if self.kind == SEVERELY_ILL_POSED:
                return inv_scale_sq * np.exp(2.0 * self.exponent * np.asarray(ks, dtype=float))
            vals = _custom_at(self._array, ks)
            return inv_scale_sq / (vals * vals)

    def _named_ratio(self, k: int) -> float:
        """b_{k-1} / b_k, in a form that cannot overflow."""
        if self.kind == WELL_POSED:
            return 1.0
        if self.kind == MILDLY_ILL_POSED:
            return math.pow(k / (k - 1), self.exponent)
        return _exp_or_inf(self.exponent)


class SmoothnessFamily(_Family):
    """Non-decreasing positive weights a = (a_k) defining the ellipsoid.

    ``ordinary_smooth`` has a_k = scale * k^exponent, ``super_smooth`` has
    a_k = scale * exp(k * exponent); both diverge, so tail mass beyond any
    bandwidth D is at most a_D^-2 for ellipsoid members.  ``custom`` values
    must be non-decreasing.
    """

    _what = "smoothness"
    _kinds = SMOOTHNESS_KINDS
    _exponent_kinds = SMOOTHNESS_KINDS

    def __post_init__(self) -> None:
        super().__post_init__()
        vals = self.values
        if vals is not None and any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("smoothness values must be non-decreasing")

    @classmethod
    def ordinary_smooth(cls, exponent: float, scale: float = 1.0) -> "SmoothnessFamily":
        return cls(ORDINARY_SMOOTH, exponent=exponent, scale=scale)

    @classmethod
    def super_smooth(cls, exponent: float, scale: float = 1.0) -> "SmoothnessFamily":
        return cls(SUPER_SMOOTH, exponent=exponent, scale=scale)

    def value_array(self, ks: np.ndarray) -> np.ndarray:
        """a_k over an index array (overflows to +inf for extreme super-smooth
        indices)."""
        with np.errstate(over="ignore"):
            if self.kind == ORDINARY_SMOOTH:
                return self.scale * np.asarray(ks, dtype=float) ** self.exponent
            if self.kind == SUPER_SMOOTH:
                return self.scale * np.exp(self.exponent * np.asarray(ks, dtype=float))
        return self.scale * _custom_at(self._array, ks)

    def inv_sq_array(self, ks: np.ndarray) -> np.ndarray:
        """a_k^-2 over an index array; underflows to 0.0 once a_k exceeds the
        double range."""
        inv_scale_sq = 1.0 / (self.scale * self.scale)
        if self.kind == ORDINARY_SMOOTH:
            return inv_scale_sq * np.asarray(ks, dtype=float) ** (-2.0 * self.exponent)
        if self.kind == SUPER_SMOOTH:
            return inv_scale_sq * np.exp(-2.0 * self.exponent * np.asarray(ks, dtype=float))
        vals = _custom_at(self._array, ks)
        return inv_scale_sq / (vals * vals)

    def _named_ratio(self, k: int) -> float:
        """a_{k-1} / a_k (always <= 1 for valid families)."""
        if self.kind == ORDINARY_SMOOTH:
            return math.pow((k - 1) / k, self.exponent)
        return math.exp(-self.exponent)


@dataclass(frozen=True)
class ProblemSpec:
    """Full geometry of one detection experiment.

    Attributes:
      operator: spectrum b of the forward operator.
      smoothness: ellipsoid weights a.
      eps: noise level, strictly positive, with a finite square.
      n_max: size of a finite index set, or None for the unbounded set.
      fourth_moment_bound: the class constant C with sup_k E[xi_k^4] <= C,
        finite, and C >= 1 because unit variance forces E[xi^4] >= 1.
      d_max: truncation bound for optimisations over the bandwidth D.
    """

    operator: OperatorFamily
    smoothness: SmoothnessFamily
    eps: float
    n_max: int | None = None
    fourth_moment_bound: float = 3.0
    d_max: int = DEFAULT_D_MAX

    def __post_init__(self) -> None:
        _check_eps(self.eps)
        if not 1.0 <= self.fourth_moment_bound < math.inf:
            raise ValueError(
                "fourth moment bound must be finite and at least 1 (unit variance "
                f"forces E[xi^4] >= 1), got {self.fourth_moment_bound!r}"
            )
        if self.n_max is not None and self.n_max < 1:
            raise ValueError("finite index set must contain at least one index")
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")

    @property
    def bandwidth_limit(self) -> int:
        """Largest bandwidth any optimisation or sum may touch."""
        limit = self.d_max
        if self.n_max is not None:
            limit = min(limit, self.n_max)
        for family in (self.operator, self.smoothness):
            if family.max_index is not None:
                limit = min(limit, family.max_index)
        return limit

    def check_bandwidth(self, d: int) -> None:
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"bandwidth must be a positive integer, got {d!r}")
        if d > self.bandwidth_limit:
            raise ValueError(
                f"bandwidth {d} exceeds the usable index range (limit {self.bandwidth_limit})"
            )


@dataclass(frozen=True)
class Signal:
    """Finite-support signal: explicit coefficients, zero beyond the support."""

    coefficients: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if any(not math.isfinite(c) for c in self.coefficients):
            raise ValueError("signal coefficients must be finite")

    @classmethod
    def zero(cls) -> "Signal":
        return cls(())

    @property
    def support(self) -> int:
        return len(self.coefficients)

    def coefficient(self, k: int) -> float:
        if k < 1:
            raise ValueError("sequence indices start at 1")
        return self.coefficients[k - 1] if k <= len(self.coefficients) else 0.0

    def norm_sq(self) -> float:
        return math.fsum(c * c for c in self.coefficients)

    def array(self, d: int) -> np.ndarray:
        """First d coefficients as a dense vector."""
        out = np.zeros(d)
        m = min(d, len(self.coefficients))
        out[:m] = self.coefficients[:m]
        return out


#: A spectrum's terms: an array-valued term function of the indices, or one
#: float that every term equals.
Terms = Union[Callable[[np.ndarray], np.ndarray], float]


def _prefix_sums(
    terms: Terms, limit: int, first_chunk: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Running sums of the terms over k = 1..limit, one chunk at a time.

    Yields ``(ks, sums)`` for consecutive chunks of at most ``_SCAN_CHUNK``
    indices, with ``sums[i]`` the sum of the terms up to ``ks[i]``.  Terms
    must be non-negative; overflow maps to +inf.

    A constant term c needs no summing: the exact sum of k copies of c is
    k * c, and every k below 2^53 converts to a float exactly, so
    ``ks * c`` is the exactly rounded sum, and the chunks may start at any
    ``first_chunk``.  A term function's chunks must start at the first (the
    carry starts at 0).

    A term function is summed by a numpy cumsum inside each chunk, which
    adds up to ``_SCAN_CHUNK`` (4096) roundings to the running sums; the
    total of the earlier chunks is carried as the exactly rounded sum of the
    previous carry and the chunk's terms, so the carry adds one rounding per
    chunk, not one per term.  The carry is therefore exactly rounded at each
    step, but a sum over several chunks is in general not the exactly
    rounded sum of all its terms: the per-chunk roundings compound.  A
    chunk's carry is formed only when the next chunk is requested, so a
    consumer that stops early never pays for it.  The carry is an fsum over
    a handful of floats whose exact sum is the carry plus the chunk's sum:
    the cumsum's last value and the last values of cumsums of its cascaded
    TwoSum residuals (`_exact_carry`).
    """
    carry = 0.0
    for k0 in range(1 + first_chunk * _SCAN_CHUNK, limit + 1, _SCAN_CHUNK):
        ks = np.arange(k0, min(k0 + _SCAN_CHUNK, limit + 1))
        if not callable(terms):
            with np.errstate(over="ignore"):
                sums = ks * terms
            yield ks, sums
            continue
        chunk = terms(ks)
        with np.errstate(over="ignore"):
            run = np.cumsum(chunk)
            sums = carry + run
        yield ks, sums
        carry = _exact_carry(carry, chunk, run)


def _two_sum_residuals(run: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Exact rounding error of each step ``run[i] = fl(run[i-1] + terms[i])``.

    Knuth's TwoSum, vectorised: ``run[i-1] + terms[i] == run[i] + err[i-1]``
    holds in exact arithmetic for every finite step, so
    ``sum(terms) == run[-1] + sum(err)``.
    """
    prev, total = run[:-1], run[1:]
    virtual = total - prev
    return (prev - (total - virtual)) + (terms[1:] - virtual)


def _exact_carry(carry: float, terms: np.ndarray, run: np.ndarray) -> float:
    """``fsum([carry, *terms])`` of non-negative terms, given ``run = np.cumsum(terms)``.

    ``np.cumsum`` adds in sequence, so ``sum(terms)`` is exactly ``run[-1]``
    plus the TwoSum residuals of ``run``.  The non-zero residuals are summed
    the same way, level after level, until none is left (each level is shorter
    than the last; smooth spectra need one or two).  fsum over ``carry`` and
    the last running value of every level is then the same exactly rounded
    sum, without boxing every term.  ``run`` is non-decreasing, so its finite
    part is a prefix: only that prefix is decomposed, and the terms after it
    go to fsum as they are, which keeps the overflow to +inf.

    The parts reach fsum smallest level first, so it meets the negative
    residuals before the large values.  Where an exact sum within a few ulps
    below the largest double still trips fsum's intermediate-overflow check,
    `_fsum_or_inf` sums the parts again exactly.
    """
    m = int(np.searchsorted(run, math.inf))
    tail = terms[m:].tolist()
    level, run = terms[:m], run[:m]
    last_values = []
    while run.size:
        last_values.append(float(run[-1]))
        level = _two_sum_residuals(run, level)
        level = level[level != 0]
        run = np.cumsum(level)
    return _fsum_or_inf([*reversed(last_values), carry, *tail])


def _partial_sum(terms: Terms, d: int) -> float:
    """The sum of the terms over k <= d, for d >= 1: the last of the prefix
    sums, or d * c at once for a constant term c."""
    if not callable(terms):
        return float(d) * float(terms)
    chunks = _prefix_sums(terms, d)
    for _ in range((d - 1) // _SCAN_CHUNK):
        next(chunks)
    _, sums = next(chunks)
    return float(sums[-1])


def _inv_b_terms(operator: OperatorFamily, power: int) -> Terms:
    """The terms b_k^-power (power 2 or 4) of the operator's spectrum.

    A well-posed spectrum's terms are one float, ``w`` or ``w * w`` with
    ``w = 1/scale^2``, the same value as each entry of
    ``operator.inv_sq_array`` or its square; any other spectrum gets a term
    function.  Overflow maps to +inf.
    """
    if operator.kind == WELL_POSED:
        w = 1.0 / (operator.scale * operator.scale)
        return w if power == 2 else w * w
    if power == 2:
        return operator.inv_sq_array

    def term_fn(ks: np.ndarray) -> np.ndarray:
        w = operator.inv_sq_array(ks)
        with np.errstate(over="ignore"):
            return w * w

    return term_fn


def sum_inv_b_sq(spec: ProblemSpec, d: int) -> float:
    """Partial sum of b_k^-2 for k = 1..d (the variance driver of the test)."""
    spec.check_bandwidth(d)
    return _partial_sum(_inv_b_terms(spec.operator, 2), d)


def sum_inv_b_4(spec: ProblemSpec, d: int) -> float:
    """Partial sum of b_k^-4 for k = 1..d.

    Always dominated by ``sum_inv_b_sq(spec, d) ** 2`` since the terms are the
    squares of a non-negative sequence.
    """
    spec.check_bandwidth(d)
    return _partial_sum(_inv_b_terms(spec.operator, 4), d)


def bias_term(spec: ProblemSpec, d: int) -> float:
    """a_d^-2: the worst-case signal mass hiding beyond bandwidth d."""
    spec.check_bandwidth(d)
    return float(spec.smoothness.inv_sq_array(np.array([d]))[0])


def within_cap(value: float, cap: float = 1.0) -> bool:
    """The ellipsoid membership rule: ``value <= cap`` up to a relative slack.

    The slack lets a spike placed exactly at the cap a_D^-1 count as inside
    although its weighted mass a_D^2 r^2 rounds to one ulp above 1.
    """
    return value <= cap * (1.0 + _MEMBERSHIP_SLACK)


class EllipsoidCheck(NamedTuple):
    value: float
    inside: bool


def ellipsoid_membership(smoothness: SmoothnessFamily, theta: Signal) -> EllipsoidCheck:
    """Weighted mass sum_k a_k^2 theta_k^2 and the membership verdict.

    The mass is exactly rounded and +inf once a weight overflows; the verdict
    follows `within_cap`, so the boundary value 1 counts as inside.
    """
    coeffs = np.asarray(theta.coefficients, dtype=float)
    ks = np.flatnonzero(coeffs) + 1
    with np.errstate(over="ignore"):
        weighted = smoothness.value_array(ks) * coeffs[ks - 1]
        terms = weighted * weighted
    value = _fsum_or_inf(terms.tolist())
    return EllipsoidCheck(value, within_cap(value))


def boundary_signal(spec: ProblemSpec, d: int, r: float) -> Signal:
    """Single-spike signal theta with theta_d = r and zeros elsewhere.

    Requires r^2 <= a_d^-2 (under `within_cap`) so that the spike stays inside
    the ellipsoid.
    """
    spec.check_bandwidth(d)
    if not r > 0 or not math.isfinite(r):
        raise ValueError("signal radius must be positive and finite")
    cap = bias_term(spec, d)
    if not within_cap(r * r, cap):
        raise ValueError(
            f"radius^2 {r * r:.6g} exceeds the ellipsoid cap a_D^-2 = {cap:.6g} at D={d}"
        )
    return Signal((0.0,) * (d - 1) + (float(r),))


def eps_sq_grid(eps_grid: Iterable[float]) -> np.ndarray:
    """eps^2 for every noise level of a grid, each checked like ``ProblemSpec.eps``."""
    eps_sq = []
    for eps in map(float, eps_grid):
        _check_eps(eps)
        eps_sq.append(eps**2)
    if not eps_sq:
        raise ValueError("eps grid must contain at least one noise level")
    return np.array(eps_sq)


class ScanResult(NamedTuple):
    d: int
    value: float
    truncated: bool


def scan_bandwidths(
    terms: Terms,
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    limit: int,
    count: int,
    *,
    maximize: bool = False,
) -> list[ScanResult]:
    """Optimise ``count`` objectives over integer bandwidths 1..limit in one pass.

    ``value_fn(ks, sums, rows)`` gets an array of indices, the prefix sums of
    ``terms`` at them (see `_prefix_sums`) and the indices of the objectives
    still running, and returns one row of values per entry of ``rows``; a
    row's values may depend only on its own objective.  Each objective keeps
    its own incumbent and freezes once ``_SCAN_STALL_LIMIT`` consecutive
    bandwidths fail to improve on it (the objectives used here are unimodal
    after their crossover point); frozen objectives are never evaluated
    again, and the pass ends when all are frozen.  Ties keep the smaller
    bandwidth; `truncated` is set when an optimiser lands on the scan limit.

    The pass goes through the indices in chunks of ``_SCAN_CHUNK``.  A term
    function gets every chunk evaluated for every running objective.  For a
    constant term c, each objective first skips ahead over the chunks that
    `_skip_ahead` certifies and is evaluated from its first uncertified
    chunk on, so ``value_fn`` also sees mixed points ``(k, fl(j * c))`` with
    j != k.  Precondition for constant terms: every objective is
    non-decreasing in the sum and non-increasing in k, the shape of all three
    bound objectives (``c eps^2 S + a_k^-2``, ``min(c eps^2 S, a_k^-2)`` and
    ``eps^2 sqrt(S) + a_k^-2``).  Under it the results are exactly those of
    evaluating every chunk.
    """
    if limit < 1:
        raise ValueError("bandwidth limit must be at least 1")
    best_d = np.zeros(count, dtype=np.int64)
    best = np.full(count, -math.inf if maximize else math.inf)
    if callable(terms):
        first = np.zeros(count, dtype=np.int64)
    else:
        first = _skip_ahead(terms, value_fn, limit, best, best_d, maximize)
    # objectives join the pass at their first dense chunk, in that order
    waiting = np.argsort(first, kind="stable")
    rows = np.empty(0, dtype=np.int64)
    while rows.size or waiting.size:
        if not rows.size:
            chunk = int(first[waiting[0]])
            chunks = _prefix_sums(terms, limit, chunk)
        ks, sums = next(chunks)
        joining = int(np.searchsorted(first[waiting], chunk, side="right"))
        rows, waiting = np.concatenate((rows, waiting[:joining])), waiting[joining:]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = value_fn(ks, sums, rows)
        idx, candidates = _chunk_optima(vals, maximize)
        improved = candidates > best[rows] if maximize else candidates < best[rows]
        best[rows[improved]] = candidates[improved]
        best_d[rows[improved]] = ks[idx[improved]]
        rows = rows[ks[-1] - best_d[rows] < _SCAN_STALL_LIMIT]
        if ks[-1] == limit:
            break
        chunk += 1
    return [ScanResult(int(d), float(v), int(d) == limit) for d, v in zip(best_d, best)]


def _chunk_optima(vals: np.ndarray, maximize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of each row's first optimum, a NaN counting as +inf
    when minimising and -inf when maximising, so it is never an optimum.

    argmin/argmax return a row's first NaN exactly when the row holds one, so
    only those rows are searched again with their NaNs replaced.
    """
    pick = np.argmax if maximize else np.argmin
    idx = pick(vals, axis=1)
    candidates = vals[np.arange(vals.shape[0]), idx]
    nan = np.isnan(candidates)
    if nan.any():
        fixed = vals[nan]
        fixed[np.isnan(fixed)] = -math.inf if maximize else math.inf
        idx[nan] = pick(fixed, axis=1)
        candidates[nan] = fixed[np.arange(fixed.shape[0]), idx[nan]]
    return idx, candidates


def _head_blocks() -> tuple[np.ndarray, np.ndarray]:
    """First and last offset, from a chunk's first index, of each sub-block
    of the chunk's head (all but its last ``_SCAN_STALL_LIMIT`` indices).

    The block next to the tail is one index wide, and the widths grow by
    ``_SKIP_GROWTH`` towards the chunk's start: about 110 blocks per chunk.
    """
    los, his = [], []
    hi, width = _SCAN_CHUNK - _SCAN_STALL_LIMIT - 1, 1.0
    while hi >= 0:
        lo = max(0, hi - int(width) + 1)
        los.append(lo)
        his.append(hi)
        hi, width = lo - 1, width * _SKIP_GROWTH
    return np.array(los), np.array(his)


_HEAD_LO, _HEAD_HI = _head_blocks()
_TAIL = np.arange(_SCAN_CHUNK - _SCAN_STALL_LIMIT, _SCAN_CHUNK)


def _skip_ahead(
    c: float,
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    limit: int,
    best: np.ndarray,
    best_d: np.ndarray,
    maximize: bool,
) -> np.ndarray:
    """The chunk from which each objective of a constant-term scan must be
    evaluated densely; ``best`` and ``best_d`` get the dense pass's state
    just before that chunk.

    Stated for minimising (maximising mirrors it).  A chunk with last index
    e is certified for an objective when the minimum of its tail e-63..e is
    strictly below every value at k <= e-64.  The values before the chunk
    are bounded by the previous certified tail's minimum, which is exactly
    their minimum.  A head sub-block [a, b] is bounded below by
    ``value_fn([b], [fl(a * c)])`` (upper bound ``value_fn([a], [fl(b * c)])``
    when maximising): the objective is monotone in k and in the sum, and
    fl(k * c) is non-decreasing in k.  Each bound is shrunk by the relative
    ``_SKIP_SLACK`` first, so a value a few ulps off cannot certify a chunk.
    On a certified chunk the dense pass does not freeze (its incumbent is in
    the tail) and its incumbent is the tail's first minimiser, so the
    objective resumes dense evaluation at its first uncertified chunk in
    exactly the dense pass's state.  Chunks are tried in doubling batches of
    up to ``_SKIP_MAX_BATCH``, one ``value_fn`` call per batch for all
    objectives still skipping; the last chunk is never certified, nor is a
    chunk whose bound or tail holds a NaN (every comparison with it fails).
    """
    first = np.zeros(best.size, dtype=np.int64)
    certifiable = (limit - 1) // _SCAN_CHUNK
    sign = -1.0 if maximize else 1.0
    rows = np.arange(best.size)
    chunk, batch = 0, 1
    while rows.size and chunk < certifiable:
        n = min(batch, certifiable - chunk)
        starts = (chunk + np.arange(n))[:, np.newaxis] * _SCAN_CHUNK + 1
        lo, hi = (starts + _HEAD_LO).ravel(), (starts + _HEAD_HI).ravel()
        tail = (starts + _TAIL).ravel()
        ks = np.concatenate((lo if maximize else hi, tail))
        at = np.concatenate((hi if maximize else lo, tail))
        with np.errstate(over="ignore", invalid="ignore"):
            vals = sign * value_fn(ks, at * c, rows)
            heads = vals[:, : lo.size].reshape(rows.size, n, -1).min(axis=2)
            heads -= np.abs(heads) * _SKIP_SLACK
        tails = vals[:, lo.size :].reshape(rows.size, n, _SCAN_STALL_LIMIT)
        idx = tails.argmin(axis=2)
        tail_min = np.take_along_axis(tails, idx[..., np.newaxis], axis=2)[..., 0]
        before = np.concatenate((sign * best[rows, np.newaxis], tail_min[:, :-1]), axis=1)
        certified = (tail_min < heads) & (tail_min < before)
        run = np.where(certified.all(axis=1), n, certified.argmin(axis=1))
        moved, last = run > 0, run[run > 0] - 1
        best[rows[moved]] = sign * tail_min[moved, last]
        best_d[rows[moved]] = tail.reshape(n, -1)[last, idx[moved, last]]
        first[rows] = chunk + run
        rows = rows[run == n]
        chunk, batch = chunk + n, min(2 * batch, _SKIP_MAX_BATCH)
    return first

