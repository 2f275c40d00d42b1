"""Noise families with zero mean, unit variance, and bounded fourth moments.

Every model here claims membership of the moment class with constant
``claimed_fourth_moment`` (written C below): E[xi_k] = 0, E[xi_k^2] = 1 and
sup_k E[xi_k^4] <= C.  C is a class attribute fixed by the law, not a
constructor argument.  Independence and Gaussianity are deliberately NOT part
of the class; the correlated families below are the whole point.

Shipped families:

  IidGaussian              C = 3 exactly
  IidRademacher            xi in {-1, +1}, C = 1 exactly
  IidScaledUniform         uniform on [-sqrt(3), sqrt(3)], C = 9/5 exactly
  CorrelatedGaussian       explicit correlation matrix, sampled through its
                           symmetric square root
  LongRangeGaussian        a CorrelatedGaussian at a fixed dimension whose
                           matrix is the stationary kernel |k-l|^-s scaled
                           by an amplitude c, repaired to the nearest
                           correlation matrix
  AdversarialEquicorrelated  the common-factor construction
                           xi_k = d eta_0 + sqrt(1 - d^2) eta_k with one
                           loading d in [1/sqrt(2), 1), which pins every
                           off-diagonal correlation at d^2 >= 1/2; it
                           samples any dimension

`NOISE_KINDS` names the kinds a config block can build, each class lists the
parameters a block may set in ``params``, and `build_noise` builds one.

For jointly Gaussian coordinates the second-order structure of the squared
noise follows from the Gaussian product-moment identity:
Cov(xi_k^2, xi_l^2) = 2 Cov(xi_k, xi_l)^2 and E[(xi_k^2 - 1) xi_l] = 0.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from .sequences import ProblemSpec, _is_count, inv_b_sq_weights

_EIG_TOLERANCE = 1e-10
_LONG_RANGE_SHRINK = 0.8
_D_MIN_EQUICORRELATED = 1.0 / math.sqrt(2.0)

GAUSSIAN_FOURTH_MOMENT = 3.0

#: Largest dimension for which the dense correlated families
#: (`long_range_correlation`, `adversarial_sigma`) build their D x D matrices.
#: Memory grows as D^2 and the eigendecomposition as D^3: building a
#: long-range model raises peak RSS by about 47 MB and takes 0.5-0.6 s at
#: D = 1024, and 176 MB and 3.7 s at D = 2048 (one BLAS thread), so this limit
#: allows under 1 GB and about half a minute, where an unchecked D = 65536
#: asks for 32 GiB per matrix.
MAX_DENSE_DIMENSION = 4096


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric PSD matrix with unit diagonal.

    Construction validates finite entries, symmetry, the unit diagonal, and
    that the smallest eigenvalue is above -1e-10 (tiny negative values from
    upstream numerics are accepted; anything worse is rejected).
    ``validate_psd=False`` skips the eigenvalue check for matrices whose
    spectrum was just verified by the caller.
    """

    entries: np.ndarray
    validate_psd: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("correlation matrix entries must be finite")
        if not np.allclose(m, m.T, atol=1e-10, rtol=0.0):
            raise ValueError("correlation matrix must be symmetric")
        m = (m + m.T) / 2.0
        if not np.allclose(np.diag(m), 1.0, atol=1e-8, rtol=0.0):
            raise ValueError("correlation matrix must have unit diagonal")
        if self.validate_psd and m.shape[0] > 1:
            if float(np.linalg.eigvalsh(m)[0]) < -_EIG_TOLERANCE:
                raise ValueError("correlation matrix is not positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def identity(cls, dimension: int) -> "CorrelationMatrix":
        return cls(np.eye(dimension), validate_psd=False)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def submatrix(self, d: int) -> np.ndarray:
        if d < 1 or d > self.dimension:
            raise ValueError(f"submatrix size {d} out of range for dimension {self.dimension}")
        return self.entries[:d, :d]


def _check_positive_dimension(dimension: int) -> None:
    if not _is_count(dimension):
        raise ValueError(f"dimension must be positive and an integer, got {dimension!r}")


def check_dense_dimension(kind: str, dimension: int) -> None:
    """Reject a dimension that is not a positive integer, or is above
    `MAX_DENSE_DIMENSION` for a family that builds dense D x D matrices,
    before anything is allocated."""
    _check_positive_dimension(dimension)
    if dimension > MAX_DENSE_DIMENSION:
        raise ValueError(
            f"{kind} noise builds dense D x D matrices: D = {dimension} exceeds "
            f"the limit {MAX_DENSE_DIMENSION}"
        )


def _symmetric_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root (v sqrt(w)) v' of the matrix with
    eigendecomposition ``w, v = np.linalg.eigh(matrix)``, clipping tiny
    negative eigenvalues."""
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def _check_loading(d: float) -> float:
    """The factor loading of the common-factor construction as a float,
    refused outside [1/sqrt(2), 1)."""
    d = float(d)
    if not _D_MIN_EQUICORRELATED - 1e-12 <= d < 1.0:
        raise ValueError("factor loadings must lie in [1/sqrt(2), 1)")
    return d


def adversarial_sigma(dimension: int, d: float) -> CorrelationMatrix:
    """Correlation matrix of the common-factor construction: entries d^2 off
    the diagonal.

    Requires 1/sqrt(2) <= d < 1, which pins every off-diagonal entry at or
    above 1/2.  The matrix is PSD by construction: it equals
    (1 - d^2) I + d^2 11', a rank-one bump of a positive diagonal.
    """
    check_dense_dimension("adversarial_equicorrelated", dimension)
    d = _check_loading(d)
    m = np.full((dimension, dimension), d * d)
    np.fill_diagonal(m, 1.0)
    return CorrelationMatrix(m, validate_psd=False)


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Read-only symmetric Toeplitz view with entries row[|k-l|]."""
    full = np.concatenate((row[:0:-1], row))
    return np.lib.stride_tricks.sliding_window_view(full, row.size)[::-1]


def _long_range(
    dimension: int, s: float, c: float
) -> tuple[CorrelationMatrix, tuple[np.ndarray, np.ndarray] | None]:
    """`long_range_correlation`, with the ``eigh`` of its entries when they
    are the accepted proposal itself (None when they were repaired)."""
    check_dense_dimension("long_range_gaussian", dimension)
    if not 0.0 < s < math.inf:
        raise ValueError(f"decay exponent must be positive and finite, got {s!r}")
    if not 0.0 < c <= 1.0:
        raise ValueError("amplitude must lie in (0, 1]")

    # one Toeplitz row of |k-l|^-s; the D x D matrices index it by |k-l|
    decay = np.ones(dimension)
    decay[1:] = np.arange(1, dimension, dtype=float) ** (-s)
    envelope = _toeplitz(c * decay + 1e-12)

    # Polya: for c <= 1/(2 - 2^-s), at least 1/2, the row 1, c 1^-s, c 2^-s, ... is
    # convex, so PSD at every D; from c <= 1 four shrinks (0.8^4 < 1/2) reach it: at
    # most five ``eigh``.  A PSD proposal has c_try <= c, so it lies in the envelope.
    c_try = c
    while True:
        proposal = c_try * _toeplitz(decay)
        np.fill_diagonal(proposal, 1.0)
        w, v = np.linalg.eigh(proposal)
        if float(w[0]) >= -_EIG_TOLERANCE:
            return CorrelationMatrix(proposal, validate_psd=False), (w, v)
        clipped = (v * np.clip(w, 0.0, None)) @ v.T
        diag = np.sqrt(np.clip(np.diag(clipped), 1e-300, None))
        repaired = clipped / np.outer(diag, diag)
        repaired = (repaired + repaired.T) / 2.0
        np.fill_diagonal(repaired, 1.0)
        within = np.abs(repaired) <= envelope
        np.fill_diagonal(within, True)
        if within.all():
            return CorrelationMatrix(repaired, validate_psd=False), None
        c_try *= _LONG_RANGE_SHRINK


def long_range_correlation(dimension: int, s: float, c: float = 0.5) -> CorrelationMatrix:
    """Correlation matrix with polynomially decaying entries c |k-l|^-s.

    The proposal is repaired to the nearest-in-spirit correlation matrix by
    eigenvalue clipping followed by diagonal renormalisation; the repaired
    matrix must still satisfy the decay envelope |Sigma_kl| <= c |k-l|^-s,
    otherwise the amplitude is shrunk geometrically (factor 0.8) and the
    construction retried, at most five tries in all (see `_long_range`).

    Each try builds one D x D proposal from the D powers |k-l|^-s and runs one
    ``eigh`` on it, which serves the PSD test and the repair;
    `LongRangeGaussian` also takes its sampling factor from that ``eigh``
    when the proposal needed no repair.
    """
    return _long_range(dimension, s, c)[0]


class NoiseModel(abc.ABC):
    """Sampleable noise law claiming membership of the moment class."""

    kind: str
    #: The class constant C of the law; a model whose constant depends on
    #: its parameters sets it in its constructor.
    claimed_fourth_moment: float
    #: Fixed coordinate count, or None when the model samples any dimension.
    dimension: int | None = None
    #: Constructor parameters a config block may set as ``noise.<name>``.
    params: tuple[str, ...] = ()
    #: True for the kinds built at a fixed dimension from dense D x D
    #: matrices; their constructors take the dimension first.
    dense = False

    def sample(self, d: int, rng: np.random.Generator) -> np.ndarray:
        """One draw (xi_1, ..., xi_d); deterministic given the generator state."""
        return self.sample_block(1, d, rng)[0]

    @abc.abstractmethod
    def sample_block(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        """n independent draws stacked as an (n, d) array."""

    def correlation(self, d: int) -> CorrelationMatrix | None:
        """Exact correlation matrix for Gaussian kinds, else None."""
        return None

    def _check_dimension(self, d: int) -> None:
        _check_positive_dimension(d)
        if self.dimension is not None and d != self.dimension:
            raise ValueError(
                f"{self.kind} noise is fixed at dimension {self.dimension}, got {d}"
            )


class IidGaussian(NoiseModel):
    kind = "iid_gaussian"
    claimed_fourth_moment = GAUSSIAN_FOURTH_MOMENT

    def sample_block(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        self._check_dimension(d)
        return rng.standard_normal((n, d))

    def correlation(self, d: int) -> CorrelationMatrix:
        self._check_dimension(d)
        return CorrelationMatrix.identity(d)


class IidRademacher(NoiseModel):
    """Symmetric signs; every moment is +-1 so the class constant is exactly 1."""

    kind = "iid_rademacher"
    claimed_fourth_moment = 1.0

    def sample_block(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        self._check_dimension(d)
        return rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0


class IidScaledUniform(NoiseModel):
    """Uniform on [-sqrt(3), sqrt(3)]: unit variance, fourth moment 9/5."""

    kind = "iid_scaled_uniform"
    claimed_fourth_moment = 1.8

    def sample_block(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        self._check_dimension(d)
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, size=(n, d))


class CorrelatedGaussian(NoiseModel):
    """Centred Gaussian vector with an explicit correlation matrix.

    Sampling applies the symmetric square root of the matrix to an iid
    standard Gaussian vector.
    """

    kind = "correlated_gaussian"
    claimed_fourth_moment = GAUSSIAN_FOURTH_MOMENT

    def __init__(self, cov: CorrelationMatrix):
        self._set_cov(cov, None)

    def _set_cov(
        self, cov: CorrelationMatrix, eig: tuple[np.ndarray, np.ndarray] | None
    ) -> None:
        """Sample with matrix ``cov``; ``eig`` is its ``eigh`` when the
        caller already has it, else None."""
        self._cov = cov
        self.dimension = cov.dimension
        if eig is None:
            eig = np.linalg.eigh(cov.entries)
        self._factor = _symmetric_sqrt(*eig)

    def sample_block(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        self._check_dimension(d)
        z = rng.standard_normal((n, d))
        return z @ self._factor

    def correlation(self, d: int) -> CorrelationMatrix:
        self._check_dimension(d)
        return self._cov


class LongRangeGaussian(CorrelatedGaussian):
    """Gaussian noise with |k-l|^-s correlation decay at amplitude c <= 1,
    built at a fixed dimension from `long_range_correlation`.

    The sampling factor reuses the ``eigh`` that tested the accepted proposal
    for PSD; only a repaired matrix is decomposed again."""

    kind = "long_range_gaussian"
    params = ("s", "c")
    dense = True

    def __init__(self, dimension: int, s: float = 1.0, c: float = 0.5):
        self._set_cov(*_long_range(dimension, s, c))


class AdversarialEquicorrelated(NoiseModel):
    """Common-factor Gaussian noise: xi_k = d eta_0 + sqrt(1 - d^2) eta_k.

    Each coordinate is exactly standard Gaussian (fourth moment 3), while the
    shared factor eta_0 pushes every pairwise correlation to d^2 >= 1/2.
    Sampling draws the shared factor plus independent remainders directly,
    which is both cheaper than a matrix factor and exactly the defining
    representation, so the model samples any dimension; only `correlation`
    builds the D x D matrix, through `adversarial_sigma`.
    """

    kind = "adversarial_equicorrelated"
    params = ("d",)
    claimed_fourth_moment = GAUSSIAN_FOURTH_MOMENT

    def __init__(self, d: float = _D_MIN_EQUICORRELATED):
        self.loading = _check_loading(d)
        self._residual = math.sqrt(1.0 - self.loading * self.loading)

    def sample_block(self, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
        self._check_dimension(d)
        shared = rng.standard_normal((n, 1))
        xi = rng.standard_normal((n, d))
        xi *= self._residual
        xi += self.loading * shared
        return xi

    def correlation(self, d: int) -> CorrelationMatrix:
        return adversarial_sigma(d, self.loading)


#: Every noise kind a config block can name, keyed by its ``kind``.
NOISE_KINDS: dict[str, type[NoiseModel]] = {
    cls.kind: cls
    for cls in (
        IidGaussian,
        IidRademacher,
        IidScaledUniform,
        LongRangeGaussian,
        AdversarialEquicorrelated,
    )
}


def build_noise(kind: str, dimension: int, **params: float) -> NoiseModel:
    """The `NOISE_KINDS` model ``kind`` for ``dimension`` coordinates.

    The dense kind, long-range Gaussian, is built at that dimension; every
    other kind samples any.  ``params`` are constructor keywords, the kind's
    `params`: law parameters only, since each class fixes its own C.  Raises
    ValueError for an invalid parameter or a dense kind above
    `MAX_DENSE_DIMENSION`.
    """
    cls = NOISE_KINDS[kind]
    return cls(dimension, **params) if cls.dense else cls(**params)


@dataclass(frozen=True)
class MomentReport:
    """Per-coordinate empirical moments with standard errors.

    ``within_xi`` is True when every coordinate has |mean| <= 3 SE,
    |variance - 1| <= 3 SE, and fourth moment <= claimed_C + 3 SE.
    """

    mean: np.ndarray
    variance: np.ndarray
    fourth_moment: np.ndarray
    mean_se: np.ndarray
    variance_se: np.ndarray
    fourth_moment_se: np.ndarray
    claimed_fourth_moment: float
    reps: int
    within_xi: bool


def validate_moments(
    model: NoiseModel,
    reps: int,
    rng: np.random.Generator,
    d: int | None = None,
) -> MomentReport:
    """Empirical moment check of a noise model against its claimed constant.

    Report-only: nothing is raised when the model falls outside the class.
    """
    if not _is_count(reps, 10_000):
        raise ValueError(
            f"moment validation needs an integer of at least 10^4 replications, got {reps!r}"
        )
    if d is None:
        d = model.dimension if model.dimension is not None else 8
    x = model.sample_block(reps, d, rng)
    n = float(reps)

    mean = x.mean(axis=0)
    sq = x * x
    # the class pins the raw second moment E[xi^2] = 1 (the mean is checked
    # separately), so no mean correction is applied here
    variance = sq.mean(axis=0)
    fourth = (sq * sq).mean(axis=0)

    mean_se = x.std(axis=0, ddof=1) / math.sqrt(n)
    variance_se = sq.std(axis=0, ddof=1) / math.sqrt(n)
    fourth_se = (sq * sq).std(axis=0, ddof=1) / math.sqrt(n)

    claimed = model.claimed_fourth_moment
    ok = (
        bool(np.all(np.abs(mean) <= 3.0 * mean_se))
        and bool(np.all(np.abs(variance - 1.0) <= 3.0 * variance_se))
        and bool(np.all(fourth <= claimed + 3.0 * fourth_se))
    )
    return MomentReport(
        mean=mean,
        variance=variance,
        fourth_moment=fourth,
        mean_se=mean_se,
        variance_se=variance_se,
        fourth_moment_se=fourth_se,
        claimed_fourth_moment=claimed,
        reps=reps,
        within_xi=ok,
    )


def isserlis_cov_sq(cov: CorrelationMatrix) -> np.ndarray:
    """Cov(xi_k^2, xi_l^2) for jointly Gaussian unit-variance coordinates.

    Equals 2 Sigma_kl^2 entrywise; the diagonal is Var(xi_k^2) = 2.
    """
    return 2.0 * cov.entries * cov.entries


def null_variance_decomposition(
    spec: ProblemSpec, cov: CorrelationMatrix, d: int
) -> tuple[float, float]:
    """Split of Var(T_d) under the null for Gaussian noise with matrix cov.

    Returns (R0, S0): the diagonal part
    R0 = 2 eps^4 sum_k b_k^-4 and the cross part
    S0 = 2 eps^4 sum_{k != l} b_k^-2 b_l^-2 Sigma_kl^2.
    S0 vanishes for independent coordinates.
    """
    w = inv_b_sq_weights(spec, d)
    if cov.dimension < d:
        raise ValueError(f"covariance of dimension {cov.dimension} cannot cover bandwidth {d}")
    eps4 = spec.eps**4
    # the cross part off the diagonal alone: w M w less its diagonal part
    # would cancel to rounding noise, or inf - inf, where w is large
    m = isserlis_cov_sq(CorrelationMatrix(cov.submatrix(d), validate_psd=False))
    np.fill_diagonal(m, 0.0)
    with np.errstate(over="ignore"):
        r0 = eps4 * float(np.dot(w, w)) * 2.0
        s0 = eps4 * float(w @ m @ w)
    return r0, s0
