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
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, NotPositiveDefinite, NumericalError, ZeroVector

# Relative tolerance for the Hermitian precondition of logdet_psd.
HERMITIAN_TOL = 1e-10
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
    """Accept a FeatureMatrix or a plain 2-d array, return the array."""
    data = getattr(Z, "data", Z)
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {arr.shape}")
    return arr


class FeatureMatrix:
    """Validated (n, m) feature container.

    Entries must be finite. With ``normalized=True`` every column must have
    unit Euclidean norm (tolerance 1e-8).
    """

    def __init__(self, data, normalized: bool = False):
        arr = np.array(data, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature matrix contains non-finite entries")
        if normalized and arr.shape[1] > 0:
            norms = np.linalg.norm(arr, axis=0)
            if np.max(np.abs(norms - 1.0)) > 1e-8:
                raise ValueError("normalized=True but some column norms differ from 1")
        self.data = arr
        self.normalized = normalized

    @property
    def shape(self):
        return self.data.shape

    def normalize(self) -> "FeatureMatrix":
        """Return a copy with unit-norm columns; zero columns are an error."""
        norms = np.linalg.norm(self.data, axis=0)
        if np.any(norms < 1e-300):
            raise ZeroVector("cannot normalize a zero column")
        return FeatureMatrix(self.data / norms, normalized=True)


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
    """Distortion parameter and the coefficients derived from it."""

    eps: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError("eps must be positive")

    def alpha(self, n: int, m: int) -> float:
        return n / (m * self.eps**2)

    def alpha_class(self, n: int, count: int) -> float:
        return n / (count * self.eps**2)


def default_lambda(k: int) -> float:
    """Softmax sharpness default: scales with the number of classes."""
    return 10.0 * k


def logdet_psd(M) -> float:
    """log det of a symmetric (or Hermitian) positive definite matrix.

    Uses a Cholesky factorization and fails loudly: a matrix that is not
    positive definite raises NotPositiveDefinite instead of returning a
    garbage value. The input must be Hermitian to within 1e-10 relative to
    its largest entry.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(M))))
    asym = float(np.max(np.abs(M - M.conj().T)))
    if asym > HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    H = 0.5 * (M + M.conj().T)
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return float(2.0 * np.sum(np.log(np.real(np.diag(L)))))


def hermitian_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a real symmetric or complex Hermitian positive definite
    matrix via Cholesky, A^-1 = L^-* L^-1 for A = L L*, symmetrized."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    Li = _lower_inverse(L)
    inv = Li.conj().T @ Li
    return 0.5 * (inv + inv.conj().T)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L by halves, [[L11, 0], [L21, L22]]^-1 =
    [[P, 0], [-R L21 P, R]] with P = L11^-1, R = L22^-1: mostly matrix
    products, down to blocks of 64 rows that LAPACK inverts at once."""
    n, h = L.shape[0], L.shape[0] // 2
    if n <= 64:
        return np.linalg.inv(L)
    P, R = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    return np.block([[P, np.zeros((h, n - h), dtype=P.dtype)], [-(R @ L[h:, :h]) @ P, R]])


def regularized_inverse(Z: np.ndarray, a: float) -> np.ndarray:
    """a (I_n + a Z Z*)^-1 for an (n, m) matrix Z, symmetrized.

    When m < n the m x m side is factored instead, by the push-through
    identity (the one ``_gram_logdet`` relies on):

        a (I_n + a Z Z*)^-1 = a (I_n - a Z (I_m + a Z* Z)^-1 Z*),

    so the work is one m x m Hermitian inverse and two products rather
    than an n x n one. When m >= n the n x n side is inverted directly.
    """
    n, m = Z.shape
    if m < n:
        G = Z.conj().T @ Z
        K = hermitian_inverse(np.eye(m) + a * 0.5 * (G + G.conj().T))
        out = (-a * a) * ((Z @ K) @ Z.conj().T)
        out[np.diag_indices(n)] += a
        return 0.5 * (out + out.conj().T)
    G = Z @ Z.conj().T
    return a * hermitian_inverse(np.eye(n) + a * 0.5 * (G + G.conj().T))


def _gram_logdet(Z: np.ndarray, alpha: float) -> float:
    """logdet(I + alpha Z Z*) through whichever Gram side is smaller.

    logdet(I_n + alpha Z Z*) = logdet(I_m + alpha Z* Z), so an (n, m)
    matrix only ever needs a min(n, m) sized factorization.
    """
    n, m = Z.shape
    if m == 0:
        return 0.0
    if m < n:
        G = Z.conj().T @ Z
    else:
        G = Z @ Z.conj().T
    G = 0.5 * (G + G.conj().T)
    return logdet_psd(np.eye(G.shape[0]) + alpha * G)


def coding_rate(Z, eps: float) -> float:
    """R(Z) = 1/2 logdet(I + alpha Z Z*) with alpha = n/(m eps^2), in nats."""
    Z = as_matrix(Z)
    n, m = Z.shape
    if m == 0:
        raise ValueError("coding rate needs at least one sample")
    params = RateParams(eps)
    return 0.5 * _gram_logdet(Z, params.alpha(n, m))


def class_rate(Z, partition: Partition, eps: float) -> float:
    """Rc(Z, Pi) = sum_j gamma_j/2 logdet(I + alpha_j Z Pi_j Z*), in nats."""
    Z = as_matrix(Z)
    n, m = Z.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, Z has {m}")
    params = RateParams(eps)
    total = 0.0
    for j in range(partition.k):
        Zj = Z[:, partition.mask(j)]
        aj = params.alpha_class(n, int(partition.counts[j]))
        total += 0.5 * partition.gamma[j] * _gram_logdet(Zj, aj)
    return total


def rate_reduction(Z, partition: Partition, eps: float) -> float:
    """Objective value R(Z) - Rc(Z, Pi)."""
    return coding_rate(Z, eps) - class_rate(Z, partition, eps)


def rate_components(Z, partition: Partition, eps: float) -> tuple[float, float, float]:
    """(rate_reduction, coding_rate, class_rate) evaluated together."""
    R = coding_rate(Z, eps)
    Rc = class_rate(Z, partition, eps)
    return R - Rc, R, Rc


def rate_gradient(Z, partition: Partition, eps: float) -> np.ndarray:
    """Gradient of rate_reduction with respect to Z.

    d/dZ [R - Rc] = E Z - sum_j gamma_j C_j Z Pi_j, where
    E   = alpha   (I + alpha   Z Z*)^-1
    C_j = alpha_j (I + alpha_j Z Pi_j Z*)^-1.
    """
    Z = as_matrix(Z)
    n, m = Z.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, Z has {m}")
    params = RateParams(eps)
    alpha = params.alpha(n, m)

    G = Z @ Z.conj().T
    G = 0.5 * (G + G.conj().T)
    A = np.eye(n) + alpha * G
    try:
        grad = alpha * np.linalg.solve(A, Z)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - A is PD by construction
        raise NotPositiveDefinite(str(exc)) from exc

    for j in range(partition.k):
        mask = partition.mask(j)
        Zj = Z[:, mask]
        aj = params.alpha_class(n, int(partition.counts[j]))
        Gj = Zj @ Zj.conj().T
        Gj = 0.5 * (Gj + Gj.conj().T)
        Aj = np.eye(n) + aj * Gj
        ZPi = np.zeros_like(Z)
        ZPi[:, mask] = Zj
        grad -= partition.gamma[j] * aj * np.linalg.solve(Aj, ZPi)
    return grad
