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

Every optimisation over the bandwidth is one `scan_spectrum` call, a
`scan_bandwidths` pass: the prefix sums of a spectrum are formed once per
chunk and shared by any number of objectives (one per noise level of an eps
grid, say), each of which freezes on its own once it stops improving.  Every
objective is monotone in k and in the sum, so a block of bandwidths is
bounded by one value at its corner, and only the bandwidths that can change
an answer are evaluated.  Over a constant term, whose sum is known at any k,
each objective skips every chunk it can certify (`_skip_ahead`: the chunk's
last value beats the bounds on everything before its tail) and is evaluated
densely only from its first uncertified chunk, near its optimum.  On the
first chunk, an objective is evaluated past a short prefix only where a
bound says it can still improve (`_first_chunk`).  The results are those of
the dense pass.
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
#: Consecutive non-improving bandwidths after which a scan stops.
_SCAN_STALL_LIMIT = 64
#: Bandwidths of the first chunk at which every objective is evaluated
#: before the rest of that chunk is bounded (see `_first_chunk`).
_SCAN_PREFIX = 256
#: Block bounds (see `_block_bounds`): the blocks widen by this factor away
#: from a chunk's tail (or the first chunk's prefix), `_skip_ahead` certifies
#: at most this many chunks per objective evaluation, and each bound is
#: shrunk by this relative slack before it is compared.
_SKIP_GROWTH = 1.05
_SKIP_MAX_BATCH = 32
_SKIP_SLACK = 2.0**-40
#: A minimising objective that `_skip_ahead`'s lockstep pass stops at least
#: this many chunks deep retries its next chunks one at a time with blocks
#: widening by the finer factor.  A shallower objective has a sharper optimum,
#: which the lockstep pass certifies nearly up to, so its retries would mostly
#: fail and cost more than they save.
_REFINE_DEPTH = 16
_REFINE_GROWTH = 1.004
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
        ``np.errstate(over="ignore")``; a decaying one underflows quietly."""
        if self.kind == CUSTOM:
            vals = _custom_at(self._array, ks)
            with np.errstate(over="ignore"):
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
    previous carry and the chunk's terms (`_fsum_or_inf`), so the carry adds
    one rounding per chunk, not one per term.  The carry is therefore
    exactly rounded at each step, but a sum over several chunks is in
    general not the exactly rounded sum of all its terms: the per-chunk
    roundings compound.  A chunk's carry is formed only when the next chunk
    is requested, so a consumer that stops early never pays for it.
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
    in one `scan_bandwidths` pass over the partial sums of b_k^-power (power
    2 or 4), with ``value_fn`` and ``maximize`` as there: the one scan behind
    every bound.

    The pass stalls only when neither family is custom.  For the named
    kinds the three bound objectives have one valley (one peak, when
    maximising) in k, as b_k^-2 is a constant, k^2t or e^2tk (times the
    scale) and a_k^-2 is k^-2s or e^-2sk, so it falls ever more slowly:

    * the step of ``c eps^2 S + a_k^-2`` from k to k+1, ``c eps^2 b_{k+1}^-2``
      less the fall of a_k^-2, is non-decreasing in k: it is convex;
    * ``min(c eps^2 S, a_k^-2)`` is the least of a non-decreasing and a
      non-increasing sequence: it rises up to their crossing, then falls;
    * in ``eps^2 sqrt(S) + a_k^-2``, with S the sum of b^-4, the rise of the
      first term per step shrinks no faster than k^-1/2, and the fall of
      a_k^-2 like k^(-2s-1) or e^-2sk; their ratio grows with k, so the
      objective falls until the rise outweighs the fall, then rises.

    Custom values need not have one: a plateau of a_k hides a later drop of
    a_k^-2 from the stall rule, so a custom family is scanned to its limit.
    """
    return scan_bandwidths(
        _inv_b_terms(spec.operator, power),
        value_fn,
        spec.bandwidth_limit,
        count,
        maximize=maximize,
        stall=CUSTOM not in (spec.operator.kind, spec.smoothness.kind),
    )


def scan_bandwidths(
    terms: Terms,
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    limit: int,
    count: int,
    *,
    maximize: bool = False,
    stall: bool = True,
) -> list[ScanResult]:
    """Optimise ``count`` objectives over integer bandwidths 1..limit in one pass.

    ``value_fn(ks, sums, rows)`` gets indices, sums of ``terms`` and the
    indices of the objectives to evaluate, and returns one row of values per
    entry of ``rows``.  ``ks`` and ``sums`` are 1-d, shared by every row, or
    2-d, one row of points per entry of ``rows``; a row's values may depend
    only on its own objective and on each (k, sum) pair, not on the other
    pairs passed with it, so a 2-d call equals the 1-d calls of its rows
    (numpy broadcasting of ``coeffs[rows, np.newaxis] * sums`` gives both).
    Each objective keeps its own incumbent.  With ``stall`` set, it
    freezes once ``_SCAN_STALL_LIMIT`` consecutive bandwidths fail to improve
    on it; frozen objectives are never evaluated again, and the pass ends
    when all are frozen.  Without it, every objective runs to the limit.
    Ties keep the smaller bandwidth, a NaN is never an optimum, and
    `truncated` is set when an optimiser lands on the scan limit.  The stall
    rule finds the optimum of an objective with one valley (one peak, when
    maximising) in k; `scan_spectrum` says which scans may use it.

    Precondition, for every scan: each objective is non-decreasing in the
    sum and non-increasing in k, the shape of all three bound objectives
    (``c eps^2 S + a_k^-2``, ``min(c eps^2 S, a_k^-2)`` and
    ``eps^2 sqrt(S) + a_k^-2``).  Prefix sums are non-decreasing in k, so an
    objective's value at the corner (hi, S(lo)) of a block of bandwidths
    lo..hi is at most each of its values over the block (at (lo, S(hi)), at
    least each, when maximising; see `_block_bounds`), and ``value_fn`` also
    sees such mixed points.  Under it the results are exactly those of
    evaluating every running objective on every chunk of ``_SCAN_CHUNK``
    prefix sums until it freezes (or to the limit, without ``stall``), while
    only the bandwidths that can change a result are evaluated:

    * over a constant term, each objective first skips the chunks that
      `_skip_ahead` certifies from one witness each (all objectives in
      lockstep, then each deep one on its own, with finer blocks and 2-d
      points), and joins the pass at its first uncertified chunk with the
      incumbent the chunk-by-chunk pass would have there;
    * on the scan's first chunk, where no objective has an incumbent yet,
      each is evaluated on the first ``_SCAN_PREFIX`` bandwidths only
      (`_first_chunk`); the rest of the chunk is bounded block by block, and
      evaluated only for the objectives that bound cannot settle.

    Both only prove where the running optimum lies, so they hold with or
    without ``stall``.
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
        if chunk:
            _fold(value_fn, ks, sums, rows, best, best_d, maximize)
        else:  # no objective has an incumbent yet
            _first_chunk(value_fn, ks, sums, rows, best, best_d, maximize)
        if stall:
            rows = rows[ks[-1] - best_d[rows] < _SCAN_STALL_LIMIT]
        if ks[-1] == limit:
            break
        chunk += 1
    return [ScanResult(int(d), float(v), int(d) == limit) for d, v in zip(best_d, best)]


def _fold(
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ks: np.ndarray,
    sums: np.ndarray,
    rows: np.ndarray,
    best: np.ndarray,
    best_d: np.ndarray,
    maximize: bool,
) -> None:
    """Evaluate the rows at ``ks`` and take each row's first optimum there
    as its incumbent where it is strictly better, so ties keep the smaller
    bandwidth."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = value_fn(ks, sums, rows)
    idx, candidates = _chunk_optima(vals, maximize)
    improved = candidates > best[rows] if maximize else candidates < best[rows]
    best[rows[improved]] = candidates[improved]
    best_d[rows[improved]] = ks[idx[improved]]


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


def _growing_blocks(n: int, growth: float) -> tuple[np.ndarray, np.ndarray]:
    """First and last offset of consecutive blocks covering offsets 0..n-1:
    the first is one index wide, and each next one ``growth`` times wider
    (rounded down).  A chunk takes about 110 blocks at ``_SKIP_GROWTH`` and
    about 735 at ``_REFINE_GROWTH``."""
    los, his = [], []
    lo, width = 0, 1.0
    while lo < n:
        los.append(lo)
        his.append(min(n - 1, lo + int(width) - 1))
        lo, width = his[-1] + 1, width * growth
    return np.array(los), np.array(his)


#: Offsets below a chunk's witness, its last index e, of the blocks that
#: `_skip_ahead` bounds: the 4096 indices from e-64 down, in blocks that widen
#: away from the tail.  They cover the previous chunk's tail and this chunk's
#: head, in 110 blocks (the lockstep pass) or 735 (the retries of deep
#: objectives).
_SKIP_BELOW_LO, _SKIP_BELOW_HI = (
    _SCAN_STALL_LIMIT + b for b in _growing_blocks(_SCAN_CHUNK, _SKIP_GROWTH)
)
_FINE_BELOW_LO, _FINE_BELOW_HI = (
    _SCAN_STALL_LIMIT + b for b in _growing_blocks(_SCAN_CHUNK, _REFINE_GROWTH)
)
_TAIL = np.arange(_SCAN_CHUNK - _SCAN_STALL_LIMIT, _SCAN_CHUNK)
#: The blocks that bound the first chunk past its prefix, widening away from it.
_REST_LO, _REST_HI = (
    _SCAN_PREFIX + b for b in _growing_blocks(_SCAN_CHUNK - _SCAN_PREFIX, _SKIP_GROWTH)
)
_NO_POINTS = np.empty(0, dtype=np.int64)


def _block_bounds(
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    sum_at: Callable[[np.ndarray], np.ndarray],
    maximize: bool,
    points: np.ndarray = _NO_POINTS,
) -> tuple[np.ndarray, np.ndarray]:
    """A bound on each row's values over each group of blocks of bandwidths
    lo..hi, and its exact values at ``points``, from one ``value_fn`` call;
    ``sum_at`` gives the prefix sum at any bandwidth.

    The blocks are shared by all rows, with ``lo`` and ``hi`` of shape
    (groups, blocks) and ``points`` 1-d, or each row has its own, with
    shapes (rows, groups, blocks) and (rows, points); ``value_fn`` then gets
    2-d indices and sums, one row per entry of ``rows``.  The bounds have
    shape (rows, groups), the values (rows, points).

    Both are returned negated when maximising, so that they always read as
    minimising: a group's bound is then at most every value in its blocks.
    A block is bounded by the objective at (hi, S(lo)), or at (lo, S(hi))
    when maximising: under the scan's precondition that is its extreme value
    over the block, as S is non-decreasing in k.  A group's bound, the least
    of its blocks' (NaN if any is NaN), is shrunk by the relative
    ``_SKIP_SLACK``, so a value a few ulps off cannot pass it; a bound of
    +inf becomes NaN, which no comparison passes.
    """
    sign = -1.0 if maximize else 1.0
    corner_k, corner_s = (lo, hi) if maximize else (hi, lo)
    shape = (*points.shape[:-1], -1)
    ks = np.concatenate((points, corner_k.reshape(shape)), axis=-1)
    at = np.concatenate((points, corner_s.reshape(shape)), axis=-1)
    n = points.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = sign * value_fn(ks, sum_at(at), rows)
        bounds = vals[:, n:].reshape(rows.size, *lo.shape[-2:]).min(axis=2)
        bounds -= np.abs(bounds) * _SKIP_SLACK
    return bounds, vals[:, :n]


def _first_chunk(
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ks: np.ndarray,
    sums: np.ndarray,
    rows: np.ndarray,
    best: np.ndarray,
    best_d: np.ndarray,
    maximize: bool,
) -> None:
    """Fold the scan's first chunk into objectives with no incumbent yet,
    evaluating it past its first ``_SCAN_PREFIX`` bandwidths only where that
    can change an incumbent.

    After the prefix, an objective whose incumbent lies within
    ``_SCAN_STALL_LIMIT`` of the prefix end is evaluated on the rest of the
    chunk.  Every other one is first bounded over the rest, in blocks that
    widen away from the prefix (`_block_bounds`), and evaluated only when
    some bound does not beat its incumbent strictly.  When every bound does,
    no value past the prefix improves on the incumbent, and the
    chunk-by-chunk pass freezes at the chunk's end with that incumbent too.
    """
    prefix = _SCAN_PREFIX
    _fold(value_fn, ks[:prefix], sums[:prefix], rows, best, best_d, maximize)
    if ks.size <= prefix:
        return
    evaluate = ks[prefix - 1] - best_d[rows] < _SCAN_STALL_LIMIT
    far = rows[~evaluate]
    if far.size:
        keep = _REST_LO < ks.size
        lo = ks[_REST_LO[keep]][np.newaxis]
        hi = ks[np.minimum(_REST_HI[keep], ks.size - 1)][np.newaxis]
        bounds, _ = _block_bounds(value_fn, far, lo, hi, lambda k: sums[k - ks[0]], maximize)
        evaluate[~evaluate] = ~((-best[far] if maximize else best[far]) < bounds[:, 0])
    rest = rows[evaluate]
    if rest.size:
        _fold(value_fn, ks[prefix:], sums[prefix:], rest, best, best_d, maximize)


def _skip_ahead(
    c: float,
    value_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    limit: int,
    best: np.ndarray,
    best_d: np.ndarray,
    maximize: bool,
) -> np.ndarray:
    """The chunk from which each objective of a constant-term scan must be
    evaluated densely; ``best`` and ``best_d`` get the chunk-by-chunk pass's
    state just before that chunk.

    Stated for minimising (maximising mirrors it), with S(k) = fl(k * c).
    Chunk i, with last index e, is certified from one witness, the value
    f(e): it must be strictly below the bound (`_block_bounds`) on the 4096
    values at k = e-4159..e-64, which are chunk i's head and chunk i-1's
    64-value tail (for the first chunk, its head alone).  Then the least
    value of chunk i's tail, at most f(e), is strictly below every value at
    k <= e-64: below those by the bound, and below everything before chunk
    i-1's tail as chunk i-1 was certified, which put its least value in its
    tail.  The chunk-by-chunk pass therefore does not freeze on a certified
    chunk, and its incumbent after one is the first optimum of that chunk's
    tail.  A certified chunk costs 111 values (110 blocks and the witness);
    each objective's incumbent is read once, from the 64-value tail of its
    last certified chunk, with NaNs ranked as `_chunk_optima` ranks them.

    Chunks are tried in lockstep, in doubling batches of up to
    ``_SKIP_MAX_BATCH``, one ``value_fn`` call per batch for all objectives
    still skipping.  Near a deep, flat optimum the 110 blocks are too wide:
    the bound on the widest, about 200 bandwidths each, is loose by more than
    the objective falls over a chunk.  So an objective stopped at least
    ``_REFINE_DEPTH`` chunks deep then retries its next chunk with the same
    proof over 735 blocks that widen by ``_REFINE_GROWTH``, and advances one
    chunk per success, all such objectives in one ``value_fn`` call per round
    with each row's own indices.  Only minimising objectives retry.  The one
    maximised objective, the lower bound's min(c S, a^-2), equals c S below
    its kink, where the corner (lo, S(hi)) bounds a block exactly, so the
    lockstep pass stops only at its peak and no finer cover moves it.  The
    last chunk is never certified, nor is a chunk whose witness or bound is
    NaN (every comparison with it fails).
    """
    first = np.zeros(best.size, dtype=np.int64)
    certifiable = (limit - 1) // _SCAN_CHUNK
    rows = np.arange(best.size)
    chunk, batch = 0, 1
    while rows.size and chunk < certifiable:
        n = min(batch, certifiable - chunk)
        ends = (chunk + 1 + np.arange(n)) * _SCAN_CHUNK
        # only the first chunk's blocks reach below k = 1; they shrink to k = 1
        lo = np.maximum(ends[:, np.newaxis] - _SKIP_BELOW_HI, 1)
        hi = np.maximum(ends[:, np.newaxis] - _SKIP_BELOW_LO, 1)
        bounds, witness = _block_bounds(value_fn, rows, lo, hi, lambda k: k * c, maximize, ends)
        certified = witness < bounds
        run = np.where(certified.all(axis=1), n, certified.argmin(axis=1))
        first[rows] = chunk + run
        rows = rows[run == n]
        chunk, batch = chunk + n, min(2 * batch, _SKIP_MAX_BATCH)
    rows = np.flatnonzero((first >= _REFINE_DEPTH) & (first < certifiable))
    while rows.size and not maximize:
        ends = (first[rows, np.newaxis] + 1) * _SCAN_CHUNK
        lo = (ends - _FINE_BELOW_HI)[:, np.newaxis]
        hi = (ends - _FINE_BELOW_LO)[:, np.newaxis]
        bounds, witness = _block_bounds(value_fn, rows, lo, hi, lambda k: k * c, maximize, ends)
        rows = rows[witness[:, 0] < bounds[:, 0]]
        first[rows] += 1
        rows = rows[first[rows] < certifiable]
    for last in np.unique(first[first > 0]) - 1:
        ks = last * _SCAN_CHUNK + 1 + _TAIL
        _fold(value_fn, ks, ks * c, np.flatnonzero(first == last + 1), best, best_d, maximize)
    return first
