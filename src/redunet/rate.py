"""Rate-reduction objective on feature matrices.

Features are columns of ``Z`` (shape ``(n, m)``: n-dimensional features, m
samples). The coding rate of the whole set is

    R(Z) = 1/2 logdet(I + alpha Z Z*),        alpha = n / (m eps^2)

and the class-partitioned rate, for diagonal membership matrices ``Pi_j``
with ``tr(Pi_j) = m_j`` samples in class j, is

    Rc(Z, Pi) = sum_j gamma_j/2 logdet(I + alpha_j Z Pi_j Z*),
    alpha_j = n / (m_j eps^2),   gamma_j = m_j / m.

The objective maximized by the networks in this package is the difference
``rate_reduction = R - Rc``. All logarithms are natural (rates in nats).
`stack_components` evaluates it on a stack (F, n, m) of feature sets in all
three geometries: a vector feature set Z is the stack Z[None], a spectral
one the per-frequency stack of its half spectra (``_freq``). Every log-det
is read off a Cholesky factor: `gram_logdet` factors for the objective
alone, and `hermitian_inverse` returns the log-dets of the stack it inverts,
which is how a spectral layer gets the objective of its features from its
own factorizations. The gradient is the engine's `spectral.group_gradient`,
a feature matrix included.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, NotPositiveDefinite, NumericalError

# Norm below which a feature counts as zero and cannot be normalized.
NORM_FLOOR = 1e-12


def real_finite(X, what: str = "input") -> np.ndarray:
    """``X`` as a float64 array, rejected before any work is done on it.

    A complex array raises ValueError (its imaginary part would otherwise
    be dropped with only a warning); a NaN or inf raises NumericalError,
    since it would otherwise spread through every layer into NaN features.
    """
    arr = np.asarray(X)
    if np.iscomplexobj(arr):
        raise ValueError(f"{what} must be real, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise NumericalError(f"{what} holds a non-finite value")
    return arr


def as_matrix(Z) -> np.ndarray:
    """``Z`` as an array, which must be a 2-d feature matrix."""
    arr = np.asarray(Z)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {arr.shape}")
    return arr


class Partition:
    """Class membership of m samples over k classes.

    ``labels`` holds integers in [0, k). Every class must own at least one
    sample; an empty class would make its rate coefficient infinite, so it
    is rejected at construction time.
    """

    def __init__(self, labels, k: int | None = None):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-d sequence")
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == labels.astype(np.int64)):
                raise ValueError("labels must be integers")
        labels = labels.astype(np.int64)
        if labels.size == 0:
            raise EmptyClass("a partition needs at least one sample")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if k is None:
            k = int(labels.max()) + 1
        if labels.max() >= k:
            raise ValueError(f"label {labels.max()} out of range for k={k}")
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            j = int(np.argmin(counts))
            raise EmptyClass(f"class {j} has no samples")
        self.labels = labels
        self.k = int(k)
        self.counts = counts
        self.m = int(labels.size)
        self.gamma = counts / self.m

    def mask(self, j: int) -> np.ndarray:
        """Boolean sample mask of class j (the diagonal of Pi_j)."""
        return self.labels == j

    def onehot(self) -> np.ndarray:
        """(k, m) float membership matrix, rows summing the class masks."""
        out = np.zeros((self.k, self.m))
        out[self.labels, np.arange(self.m)] = 1.0
        return out


@dataclass(frozen=True)
class RateParams:
    """Distortion parameter and the coefficients derived from it.

    An eps whose square is not a positive normal double raises ValueError,
    and a coefficient that is not finite raises NumericalError.
    """

    eps: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError("eps must be positive")
        # float ** raises OverflowError where float * rounds to inf
        if not np.finfo(float).tiny <= float(self.eps) * float(self.eps) < math.inf:
            raise ValueError(f"eps must have a positive normal square, got {self.eps}")

    def alpha(self, n: int, m: int) -> float:
        """n / (m eps^2); `alpha_class` of a class of m samples."""
        alpha = n / (m * self.eps**2)
        if not math.isfinite(alpha):
            raise NumericalError(f"alpha = n / (m eps^2) is not finite: {alpha}")
        return alpha

    alpha_class = alpha


def default_lambda(k: int) -> float:
    """Softmax sharpness default: scales with the number of classes."""
    return 10.0 * k


def hermitian_inverse(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses and log-determinants of a stack (..., n, n) of real symmetric
    or complex Hermitian positive definite matrices.

    One batched Cholesky factorization A = L L* serves both: the inverse
    A^-1 = L^-* L^-1, symmetrized, and logdet A = 2 sum_i log L_ii, of
    shape A.shape[:-2]. Each matrix of the stack gets the same bytes as it
    would alone. A factor that fails raises NotPositiveDefinite.
    """
    L = _cholesky(A)
    Li = _lower_inverse(L)
    inv = _adjoint(Li) @ Li
    return 0.5 * (inv + _adjoint(inv)), 2.0 * _log_diagonal_sum(L)


def _cholesky(A: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L, A = L L*, of each matrix of a stack
    (..., n, n); a factor that fails raises NotPositiveDefinite."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def _adjoint(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack (..., n, n')."""
    return A.conj().swapaxes(-1, -2)


def _log_diagonal_sum(L: np.ndarray) -> np.ndarray:
    """sum_i log L_ii of each Cholesky factor of a stack (..., n, n)."""
    return np.sum(np.log(np.real(np.diagonal(L, axis1=-2, axis2=-1))), axis=-1)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack (..., n, n) of lower-triangular L by halves,
    [[L11, 0], [L21, L22]]^-1 = [[P, 0], [-R L21 P, R]] with P = L11^-1,
    R = L22^-1: mostly matrix products, down to blocks of 64 rows that
    LAPACK inverts at once."""
    n, h = L.shape[-1], L.shape[-1] // 2
    if n <= 64:
        return np.linalg.inv(L)
    P, R = _lower_inverse(L[..., :h, :h]), _lower_inverse(L[..., h:, h:])
    zeros = np.zeros((*L.shape[:-2], h, n - h), dtype=P.dtype)
    return np.block([[P, zeros], [-(R @ L[..., h:, :h]) @ P, R]])


def gram_logdet(V: np.ndarray, coeff: float, weight: np.ndarray | None = None) -> float:
    """sum_p w_p logdet(I + coeff V(p) V(p)*) over a (F, n, m) stack V.

    One batched Cholesky factorization in V's own dtype, real or complex;
    a factor that fails (the matrix is not positive definite) raises
    NotPositiveDefinite. Each Gram is taken on its smaller side, since
    logdet(I_n + c V V*) = logdet(I_m + c V* V). ``weight`` (F,) weights
    the slices, 1 each when omitted.
    """
    _, n, m = V.shape
    if m == 0:
        return 0.0
    Vh = _adjoint(V)
    G = Vh @ V if m < n else V @ Vh
    G = 0.5 * (G + _adjoint(G))
    A = np.eye(G.shape[-1], dtype=G.dtype) + coeff * G
    logs = _log_diagonal_sum(_cholesky(A))
    return float(2.0 * (np.sum(logs) if weight is None else weight @ logs))


def coding_rate(Z, eps: float) -> float:
    """R(Z) = 1/2 logdet(I + alpha Z Z*) with alpha = n/(m eps^2), in nats."""
    Z = real_finite(as_matrix(Z), "feature matrix")
    if Z.shape[1] == 0:
        raise ValueError("coding rate needs at least one sample")
    return 0.5 * gram_logdet(Z[None], RateParams(eps).alpha(*Z.shape))


def stack_components(V: np.ndarray, partition: Partition, eps: float, scale: float = 1.0,
                     weight: np.ndarray | None = None) -> tuple[float, float, float]:
    """Objective triple (reduction, expand, compress) of a stack V (F, n, m):
    the Grams scaled by ``scale``, the log-dets of the F slices weighted by
    ``weight`` (1 each when omitted) and divided by ``scale``. A feature
    matrix Z is the stack Z[None] with scale 1 (`rate_components`)."""
    _, n, m = V.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {m}")
    params = RateParams(eps)
    expand = gram_logdet(V, scale * params.alpha(n, m), weight)
    compress = [gram_logdet(V[:, :, partition.mask(j)], scale * params.alpha_class(n, int(c)),
                            weight) for j, c in enumerate(partition.counts)]
    return _triple(expand, compress, partition.gamma, scale)


def _triple(expand: float, compress: list, gamma: np.ndarray, scale: float) -> tuple:
    """(reduction, expand, compress) rates from the weighted log-det sums of
    the whole set and of each class, over F = ``scale`` frequencies."""
    R = expand / (2.0 * scale)
    Rc = 0.0
    for g, acc in zip(gamma, compress):
        Rc += g * acc / (2.0 * scale)
    return R - Rc, R, Rc


def class_rate(Z, partition: Partition, eps: float) -> float:
    """Rc(Z, Pi) = sum_j gamma_j/2 logdet(I + alpha_j Z Pi_j Z*), in nats."""
    return rate_components(Z, partition, eps)[2]


def rate_reduction(Z, partition: Partition, eps: float) -> float:
    """Objective value R(Z) - Rc(Z, Pi)."""
    return rate_components(Z, partition, eps)[0]


def rate_components(Z, partition: Partition, eps: float) -> tuple[float, float, float]:
    """(rate_reduction, coding_rate, class_rate) evaluated together."""
    return stack_components(real_finite(as_matrix(Z), "feature matrix")[None], partition, eps)
