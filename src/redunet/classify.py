"""Nearest-subspace classification over learned features."""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, LengthMismatch, NumericalError
from .rate import Partition

ORTHONORMAL_TOL = 1e-10
_SQUARE_BLOCK_VALUES = 2**18  # feature values squared at a time in `predict`: 2 MB


def _flatten(Z) -> np.ndarray:
    """Feature stack of any shape with trailing sample axis -> (n, m) columns."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim == 1:
        return Z[:, None]
    return Z.reshape(-1, Z.shape[-1])


@dataclass(frozen=True)
class SubspaceModel:
    """Per-class orthonormal bases; prediction is the least-residual class."""

    bases: tuple  # k matrices, each (n, r_j)

    def __post_init__(self):
        for U in self.bases:
            gram = U.T @ U
            if np.max(np.abs(gram - np.eye(U.shape[1]))) > ORTHONORMAL_TOL:
                raise ValueError("basis columns must be orthonormal")

    @property
    def k(self) -> int:
        return len(self.bases)

    @property
    def ranks(self) -> tuple:
        return tuple(U.shape[1] for U in self.bases)


def _class_basis(Zj: np.ndarray, energy: float, j: int) -> np.ndarray:
    """Orthonormal (n, r) basis of the top principal directions of one class.

    The power spectrum s**2 comes from the eigenvalues of the smaller Gram
    (Zj Zj^T when n <= m_j, else Zj^T Zj), which is much cheaper than a
    thin SVD of a tall or wide block. Eigenvalues at the Gram's rounding
    level count as exact zeros, so `energy = 1.0` keeps the true rank.
    """
    n, mj = Zj.shape
    wide = n <= mj
    lam, V = np.linalg.eigh(Zj @ Zj.T if wide else Zj.T @ Zj)
    lam, V = lam[::-1], V[:, ::-1]
    floor = max(n, mj) * np.finfo(np.float64).eps * lam[0]
    power = np.where(lam > floor, lam, 0.0)
    total = power.sum()
    if total == 0.0:
        raise EmptyClass(f"class {j} features are all zero")
    r = int(np.searchsorted(np.cumsum(power) / total, energy) + 1)
    # a zero-power direction carries no energy and has no well-defined
    # image under Zj, so it is never kept
    r = min(max(r, 1), int(np.count_nonzero(power)))
    if wide:
        return V[:, :r].copy()
    # Zj v_i has norm sqrt(lam_i), but dividing by it leaves an error near
    # eps * lam_0 / lam_i in the basis's orthogonality, which fails the
    # model's check once the kept spectrum spans several decades; QR of the
    # kept images gives the same span, orthonormal to working precision
    Q, _ = np.linalg.qr(Zj @ V[:, :r])
    return Q


def fit_subspaces(Z, partition: Partition, energy: float = 0.95) -> SubspaceModel:
    """Top singular subspace of each class, keeping >= `energy` of the
    squared singular value mass (at least one direction per class)."""
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    Zf = _flatten(Z)
    if Zf.shape[1] != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {Zf.shape[1]}")
    if not np.isfinite(Zf).all():
        raise NumericalError("features hold a non-finite value; cannot fit class subspaces")
    bases = []
    for j in range(partition.k):
        mask = partition.mask(j)
        if not mask.any():
            raise EmptyClass(f"class {j} has no samples")
        bases.append(_class_basis(Zf[:, mask], energy, j))
    return SubspaceModel(bases=tuple(bases))


def predict(z, model: SubspaceModel):
    """Class with the smallest projection residual; ties go to the lowest index.

    A 1-d input is a single feature vector and returns an int; anything
    else is a stack with trailing sample axis and returns (m,) ints.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    Zf = z[:, None] if single else _flatten(z)
    # the squared norms over column blocks, without an (n, m) square; numpy
    # sums a block of two or more columns row by row, like the whole stack,
    # but one lone column pairwise, so no block is left with one column
    n, m = Zf.shape
    sq = np.empty(m)
    step = max(2, _SQUARE_BLOCK_VALUES // max(1, n))
    s = 0
    while s < m:
        e = s + step if m - s - step > 1 else m
        sq[s:e] = np.sum(Zf[:, s:e] ** 2, axis=0)
        s = e
    residuals = np.empty((model.k, Zf.shape[1]))
    for j, U in enumerate(model.bases):
        proj = U.T @ Zf
        residuals[j] = sq - np.sum(proj**2, axis=0)
    labels = np.argmin(residuals, axis=0)
    return int(labels[0]) if single else labels


def evaluate(preds, labels) -> float:
    """Fraction of matching entries."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise LengthMismatch(f"got {preds.shape} predictions for {labels.shape} labels")
    if preds.size == 0:
        raise LengthMismatch("nothing to evaluate")
    return float(np.mean(preds == labels))
