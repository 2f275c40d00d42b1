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
each chunk of indices, with the total of the earlier chunks carried as the
exactly rounded sum of the previous carry and the chunk's terms
(`_fsum_or_inf`, the one exactly rounded summation here).  Exponentially
ill-posed spectra overflow to ``+inf`` instead of raising, so optimisation
loops can simply skip past the overflowed tail.

Every optimisation over the bandwidth is one `scan_spectrum` call.  Its
chunked pass, `scan_bandwidths`, forms the prefix sums of a spectrum once per
chunk and shares them among any number of objectives (one per noise level of
an eps grid, say).  Every objective is non-decreasing in the sum and
non-increasing in k, so after each window of bandwidths (a chunk, the first
one cut at every power of two from 64) one value at a corner point bounds
all later bandwidths, and an objective freezes once that bound cannot beat
its incumbent: the pass returns the optimum of the full scan.  Over a
constant term, whose sum is known at any k, an objective with one valley is
instead searched by bisection on a stall rule (`_valleys`), all objectives
in lockstep, so a scan whose optimum lies millions of bandwidths deep costs a
few dozen evaluations per objective.  Under one valley both give the same
optimum.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
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

_CONSTANT, _POWER, _EXP = "constant", "power", "exp"
#: Each named kind's law, as (law, sign): the unscaled value at index k is
#: 1 (constant), k^(sign e) (power) or exp(sign e k) (exp), for the
#: family's exponent e.  The spectra b decay (sign -1), the weights a grow
#: (sign +1).
_LAWS: dict[str, tuple[str, int]] = {
    WELL_POSED: (_CONSTANT, -1),
    MILDLY_ILL_POSED: (_POWER, -1),
    SEVERELY_ILL_POSED: (_EXP, -1),
    ORDINARY_SMOOTH: (_POWER, 1),
    SUPER_SMOOTH: (_EXP, 1),
}

#: Default truncation of the (conceptually infinite) index set for all
#: optimisations over the bandwidth D.
DEFAULT_D_MAX = 1 << 16

_SCAN_CHUNK = 4096
#: Inside the first chunk, `scan_bandwidths` also tries its freeze rule
#: after each of these bandwidths: every power of two from 64 below the
#: chunk's end.  Every later chunk ends on a multiple of ``_SCAN_CHUNK``.
_WINDOW_ENDS = (64, 128, 256, 512, 1024, 2048)
#: Consecutive non-improving bandwidths after which `_valleys` stops.
_SCAN_STALL_LIMIT = 64
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
        # imported here, on this rare path, to keep it off every import
        from fractions import Fraction

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


def _is_count(n: object, least: int = 1) -> bool:
    """The rule for every count (a bandwidth, a dimension, a number of
    replications): an ``int`` or numpy integer of at least ``least``, never a
    ``bool``."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least


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

    Every named kind is evaluated from its law and sign in `_LAWS`, times
    the scale.  Subclasses name the sequence (``_what``) and list their
    named kinds (``_kinds``); the evaluation, custom values, the checks and
    indexing live here.
    """

    _what: ClassVar[str]
    _kinds: ClassVar[tuple[str, ...]]

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
        if self.kind != CUSTOM and _LAWS[self.kind][0] != _CONSTANT and not (
            0.0 < self.exponent < math.inf
        ):
            raise ValueError(
                f"{self.kind} requires a positive exponent, and a finite one, "
                f"got {self.exponent!r}"
            )
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

    def value_array(self, ks: np.ndarray) -> np.ndarray:
        """The values over an index array: a growing sequence overflows to
        +inf and a decaying one underflows to 0.0 at extreme indices."""
        return self._law_array(ks, 1, self.scale)

    def inv_sq_array(self, ks: np.ndarray) -> np.ndarray:
        """The values^-2 over an index array, computed directly so that an
        ill-posed spectrum's overflow to +inf and a smooth weight's underflow
        to 0.0 happen at the index where the result leaves the double range."""
        return self._law_array(ks, -2, 1.0 / (self.scale * self.scale))

    def _law_array(self, ks: np.ndarray, power: int, factor: float) -> np.ndarray:
        """``factor`` times the unscaled values to the ``power`` (1 or -2), a
        named kind's law at the multiplier ``power * sign * exponent``.  Only
        a result that may grow (custom values too) runs under
        ``np.errstate(over="ignore")``; a decaying one underflows quietly.  A
        custom value whose square underflows to 0 has the inverse square +inf,
        as a named spectrum's overflow does."""
        if self.kind == CUSTOM:
            vals = _custom_at(self._array, ks)
            with np.errstate(over="ignore", divide="ignore"):
                return factor * vals if power == 1 else factor / (vals * vals)
        law, sign = _LAWS[self.kind]
        if law == _CONSTANT:
            return np.full(len(ks), factor)
        m = power * sign * self.exponent
        x = np.asarray(ks, dtype=float)
        if m < 0:
            return factor * (x**m if law == _POWER else np.exp(m * x))
        with np.errstate(over="ignore"):
            return factor * (x**m if law == _POWER else np.exp(m * x))


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
    #: also bound on each family's own class, where benchmark/tracing.py
    #: wraps it family by family
    inv_sq_array = _Family.inv_sq_array


class SmoothnessFamily(_Family):
    """Non-decreasing positive weights a = (a_k) defining the ellipsoid.

    ``ordinary_smooth`` has a_k = scale * k^exponent, ``super_smooth`` has
    a_k = scale * exp(k * exponent); both diverge, so tail mass beyond any
    bandwidth D is at most a_D^-2 for ellipsoid members.  ``custom`` values
    must be non-decreasing.
    """

    _what = "smoothness"
    _kinds = SMOOTHNESS_KINDS
    inv_sq_array = _Family.inv_sq_array  # as in OperatorFamily

    def __post_init__(self) -> None:
        super().__post_init__()
        vals = self.values
        if vals is not None and any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("smoothness values must be non-decreasing")


@dataclass(frozen=True)
class ProblemSpec:
    """Full geometry of one detection experiment.

    Attributes:
      operator: spectrum b of the forward operator.
      smoothness: ellipsoid weights a.
      eps: noise level, strictly positive, with a finite square.
      fourth_moment_bound: the class constant C with sup_k E[xi_k^4] <= C,
        finite, and C >= 1 because unit variance forces E[xi^4] >= 1.
      d_max: truncation bound for optimisations over the bandwidth D.

    The fields after ``eps`` are keyword-only.
    """

    operator: OperatorFamily
    smoothness: SmoothnessFamily
    eps: float
    _: KW_ONLY
    fourth_moment_bound: float = 3.0
    d_max: int = DEFAULT_D_MAX

    def __post_init__(self) -> None:
        _check_eps(self.eps)
        if not 1.0 <= self.fourth_moment_bound < math.inf:
            raise ValueError(
                "fourth moment bound must be finite and at least 1 (unit variance "
                f"forces E[xi^4] >= 1), got {self.fourth_moment_bound!r}"
            )
        if not _is_count(self.d_max):
            raise ValueError(f"d_max must be an integer of at least 1, got {self.d_max!r}")

    @property
    def bandwidth_limit(self) -> int:
        """Largest bandwidth any optimisation or sum may touch: ``d_max``,
        capped by the length of a custom family."""
        limit = self.d_max
        for family in (self.operator, self.smoothness):
            if family.max_index is not None:
                limit = min(limit, family.max_index)
        return limit

    def check_bandwidth(self, d: int) -> None:
        if not _is_count(d):
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

    def norm_sq(self) -> float:
        """The exactly rounded sum of squares; +inf once it overflows."""
        return _fsum_or_inf([c * c for c in self.coefficients])

    def array(self, d: int) -> np.ndarray:
        """First d coefficients as a dense vector."""
        out = np.zeros(d)
        m = min(d, len(self.coefficients))
        out[:m] = self.coefficients[:m]
        return out


#: A spectrum's terms: an array-valued term function of the indices, or one
#: float that every term equals.
Terms = Union[Callable[[np.ndarray], np.ndarray], float]


def _prefix_sums(terms: Terms, limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Running sums of the terms over k = 1..limit, one chunk at a time.

    Yields ``(ks, sums)`` for consecutive chunks of at most ``_SCAN_CHUNK``
    indices, with ``sums[i]`` the sum of the terms up to ``ks[i]``.  Terms
    must be non-negative; overflow maps to +inf.

    A constant term c needs no summing: the exact sum of k copies of c is
    k * c, and every k below 2^53 converts to a float exactly, so
    ``ks * c`` is the exactly rounded sum.

    A term function is summed by a numpy cumsum inside each chunk, which
    adds up to ``_SCAN_CHUNK`` (4096) roundings to the running sums; the
    total of the earlier chunks is carried as the exactly rounded sum of the
    previous carry and the chunk's terms (`_fsum_or_inf`), so the carry adds
    one rounding per chunk, not one per term.  The carry is therefore
    exactly rounded at each step, but a sum over several chunks is in
    general not the exactly rounded sum of all its terms: the per-chunk
    roundings compound.  A chunk's carry is formed only when the next chunk
    is requested, so a consumer that stops early never pays for it.
    """
    carry = 0.0
    for k0 in range(1, limit + 1, _SCAN_CHUNK):
        ks = np.arange(k0, min(k0 + _SCAN_CHUNK, limit + 1))
        if not callable(terms):
            with np.errstate(over="ignore"):
                sums = ks * terms
            yield ks, sums
            continue
        chunk = terms(ks)
        with np.errstate(over="ignore"):
            sums = carry + np.cumsum(chunk)
        yield ks, sums
        carry = _fsum_or_inf([carry, *chunk.tolist()])


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
    function.  Overflow maps to +inf.  Any other power is a ValueError.
    """
    if power not in (2, 4):
        raise ValueError(f"spectrum power must be 2 or 4, got {power!r}")
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


def inv_b_sq_weights(spec: ProblemSpec, d: int) -> np.ndarray:
    """The weights b_k^-2 for k = 1..d, all finite: an ill-posed b_k^-2 can
    overflow to inf, and inf * 0 is nan."""
    spec.check_bandwidth(d)
    w = spec.operator.inv_sq_array(np.arange(1, d + 1))
    if not np.isfinite(w).all():
        raise ValueError(f"the weights b_k^-2 are not finite at every k <= D = {d}")
    return w


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


def scan_spectrum(
    spec: ProblemSpec,
    power: int,
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    count: int,
    *,
    maximize: bool = False,
) -> list[ScanResult]:
    """Optimise ``count`` objectives over the bandwidths 1..``spec.bandwidth_limit``
    of the partial sums of b_k^-power, with ``value_fn`` and ``maximize`` as
    in `scan_bandwidths`: the one scan behind every bound.  The power is 2
    or 4; any other is a ValueError.

    For the named kinds, b_k^-2 is a constant, k^2t or e^2tk (times the
    scale) and a_k^-2 is k^-2s or e^-2sk, so it falls ever more slowly.
    Two bound objectives then have one valley (one peak, when maximising)
    in k, and so does the third against ``ordinary_smooth``:

    * the step of ``c eps^2 S + a_k^-2`` from k to k+1, ``c eps^2 b_{k+1}^-2``
      less the fall of a_k^-2, is non-decreasing in k: it is convex;
    * ``min(c eps^2 S, a_k^-2)`` is the least of a non-decreasing and a
      non-increasing sequence: it rises up to their crossing, then falls;
    * in ``eps^2 sqrt(S) + a_k^-2``, with S the sum of b^-4, the rise of the
      first term per step shrinks no faster than k^-1/2, and the fall of
      a_k^-2 = k^-2s like k^(-2s-1); their ratio grows with k, so the
      objective falls until the rise outweighs the fall, then rises.

    Over a constant term (the well-posed kind), whose S(k) = fl(k c) costs
    O(1) at any k, those scans find their optimum by bisection (`_valleys`),
    in O(log D) evaluations where the chunked pass takes O(D): their optima
    lie at D up to the millions.  Every other scan, of a term function, a
    custom family or the classical objective against ``super_smooth``,
    goes window by window (`scan_bandwidths`) and freezes on the corner
    rule, which needs no valley.  Its optima mostly lie in the first chunk,
    where windows end at every power of two from 64, so such a scan stops
    after a few hundred bandwidths, not 4096.
    """
    operator, smooth = spec.operator, spec.smoothness
    terms = _inv_b_terms(operator, power)
    limit = spec.bandwidth_limit
    named = CUSTOM not in (operator.kind, smooth.kind)
    # one valley at any exponent: all but the classical scans against super smoothness
    proven = power == 2 or smooth.kind == ORDINARY_SMOOTH
    if named and proven and not callable(terms):
        return _valleys(terms, value_fn, limit, count, maximize)
    return scan_bandwidths(terms, value_fn, limit, count, maximize=maximize)


def scan_bandwidths(
    terms: Terms,
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    limit: int,
    count: int,
    *,
    maximize: bool = False,
) -> list[ScanResult]:
    """Optimise ``count`` objectives over integer bandwidths 1..limit in one
    pass, window by window.

    ``value_fn(ks, sums, rows)`` gets indices, sums of ``terms`` and the
    indices of the objectives to evaluate, and returns one row of values per
    entry of ``rows``.  ``ks`` and ``sums`` are 1-d, shared by every row, or
    2-d, one row of points per entry of ``rows`` (as `_valleys` passes
    them); a row's values may depend only on its own objective and on each
    (k, sum) pair, not on the other pairs passed with it, so a 2-d call
    equals the 1-d calls of its rows (numpy broadcasting of
    ``coeffs[rows, np.newaxis] * sums`` gives both).  Each objective must be
    non-decreasing in the sum and non-increasing in k, as the three bounds
    are.

    The windows are the chunks of ``_SCAN_CHUNK`` prefix sums from
    `_prefix_sums`, the first one cut after every power of two from 64 (at
    64, 128, ..., 2048); every later chunk ends on a multiple of
    ``_SCAN_CHUNK``.  A window's sums are a slice of its chunk's, never
    summed again, so the windows move no rounding.  Every running objective
    is evaluated on each window and keeps its own incumbent.  Before the
    next window, each is evaluated once more at a corner point that bounds
    every later bandwidth: k = ``limit`` with the window's last sum when
    minimising (a later sum is no smaller, a later k no larger), k one past
    the window with the sum +inf when maximising.  An objective freezes
    when its corner is no better than its incumbent (a NaN corner never
    freezes it); frozen objectives are never evaluated again, and the pass
    ends when all are frozen.  Ties keep the smaller bandwidth, a NaN is
    never an optimum, an objective that is never better than +inf (-inf,
    when maximising) reports D = 0, and `truncated` is set when an
    optimiser lands on the scan limit.  So the pass returns the optimum of
    the full scan.

    A minimising corner relies on the later sums being no smaller than the
    window's last one.  Inside its chunk they are, as a cumsum of
    non-negative terms never falls.  A chunk's last sum carries up to
    ``_SCAN_CHUNK`` cumsum roundings that the next carry does not.  A named
    kind's next term, at least S/k, outweighs them at any k below 2^41; a
    custom operator's term may be smaller than those roundings.
    """
    if limit < 1:
        raise ValueError("bandwidth limit must be at least 1")
    best_d = np.zeros(count, dtype=np.int64)
    best = np.full(count, -math.inf if maximize else math.inf)
    rows = np.arange(count)
    for chunk_ks, chunk_sums in _prefix_sums(terms, limit):
        stops = [w for w in _WINDOW_ENDS if w < chunk_ks.size] if chunk_ks[0] == 1 else []
        for start, stop in zip([0, *stops], [*stops, chunk_ks.size]):
            ks, sums = chunk_ks[start:stop], chunk_sums[start:stop]
            with np.errstate(over="ignore", invalid="ignore"):
                vals = value_fn(ks, sums, rows)
            idx, candidates = _chunk_optima(vals, maximize)
            improved = candidates > best[rows] if maximize else candidates < best[rows]
            best[rows[improved]] = candidates[improved]
            best_d[rows[improved]] = ks[idx[improved]]
            if ks[-1] == limit:
                break
            if maximize:
                corner = ks[-1:] + 1, np.array([math.inf])
            else:
                corner = np.array([limit]), sums[-1:]
            with np.errstate(over="ignore", invalid="ignore"):
                bound = value_fn(*corner, rows)[:, 0]
            rows = rows[~(bound <= best[rows] if maximize else bound >= best[rows])]
            if not rows.size:
                break
        # done: stop before the next chunk's carry is summed
        if ks[-1] == limit or not rows.size:
            break
    return [ScanResult(int(d), float(v), int(d) == limit) for d, v in zip(best_d, best)]


def _valleys(
    c: float,
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    limit: int,
    count: int,
    maximize: bool,
) -> list[ScanResult]:
    """The optimum of `scan_bandwidths` over a constant term c, for
    objectives with one valley (one peak, when maximising) in k, from
    O(log D) evaluations per objective.

    With S(k) = fl(k * c) known at any k, a stall rule can be tested at any
    k: none of k+1..k+64 (up to the limit) improves on k, a NaN counting as
    the worst value.  Under one valley it fails before an objective's
    optimum and holds from there on, so the optimum is the first k where it
    holds, found by galloping over k = 1, 2, 4, ... until it holds and then
    bisecting.  All objectives move in lockstep, with one 2-d ``value_fn``
    call of shape (rows, 65) per round.  An objective whose value there is
    the worst one (which, under one valley, it then is everywhere) reports
    D = 0, as in the chunked pass.

    A failed probe rules out more than its own k.  If the values at
    k, k+1, ... fall strictly for J steps, each of k..k+J-1 has a better
    value next to it, so the predicate fails there by its own definition,
    valley or none.  The next probe then starts from lo = k + max(J-1, 0)
    instead of k, in the gallop (which goes on to hi = 2 lo) and in the
    bisection alike.
    """
    sign = -1.0 if maximize else 1.0
    steps = np.arange(_SCAN_STALL_LIMIT + 1)

    def stalls(rows: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whether the predicate holds at each row's k, the row's (signed)
        value there, and k + max(J-1, 0), the last bandwidth at which the
        J strict falls from k rule it out."""
        ks = np.minimum(k[:, np.newaxis] + steps, limit)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = sign * value_fn(ks, ks * c, rows)
        vals[np.isnan(vals)] = math.inf
        run = np.logical_and.accumulate(vals[:, 1:] < vals[:, :-1], axis=1).sum(axis=1)
        held = (vals[:, 1:] >= vals[:, :1]).all(axis=1)
        return held, vals[:, 0], k + np.maximum(run - 1, 0)

    # the predicate fails at lo (at lo = 0 by convention) and holds at hi,
    # where best is the value; at the limit it holds, as every k+j is clamped
    # to the limit, and the gallop stops there in any case
    lo, hi = np.zeros(count, dtype=np.int64), np.ones(count, dtype=np.int64)
    best = np.empty(count)
    rows = np.arange(count)
    while rows.size:
        held, best[rows], failed = stalls(rows, hi[rows])
        keep = ~held & (hi[rows] < limit)
        rows, failed = rows[keep], failed[keep]
        lo[rows], hi[rows] = failed, np.minimum(2 * failed, limit)
    rows = np.flatnonzero(hi - lo > 1)
    while rows.size:
        mid = (lo[rows] + hi[rows]) // 2
        held, vals, failed = stalls(rows, mid)
        hi[rows[held]], best[rows[held]] = mid[held], vals[held]
        lo[rows[~held]] = failed[~held]
        rows = rows[hi[rows] - lo[rows] > 1]
    d = np.where(best < math.inf, hi, 0)
    return [ScanResult(int(k), float(sign * v), int(k) == limit) for k, v in zip(d, best)]


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
