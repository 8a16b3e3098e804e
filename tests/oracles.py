"""Independent brute-force reference implementations used by the tests.

Everything here deliberately takes the slow, obvious route: LU-based
slogdet instead of Cholesky, dense circulant matrices built column by
column with np.roll, entrywise central finite differences. The package is
considered correct when its fast paths agree with these.
"""

import numpy as np

from redunet.classify import SubspaceModel, _flatten
from redunet.errors import EmptyClass
from redunet.harness.experiments import ORTHO_COS, _flat


def rng_for(seed):
    return np.random.default_rng(seed)


def labels_for(m, k, rng):
    """Random labels guaranteed to hit every class."""
    while True:
        labels = rng.integers(0, k, size=m)
        if len(np.unique(labels)) == k:
            return labels


# ---------------------------------------------------------------- rates

def slogdet_rate(Z, labels, eps):
    """(rate_reduction, coding_rate, class_rate) via np.linalg.slogdet."""
    Z = np.asarray(Z)
    n, m = Z.shape
    labels = np.asarray(labels)
    alpha = n / (m * eps**2)
    sign, logdet = np.linalg.slogdet(np.eye(n) + alpha * (Z @ Z.conj().T))
    assert sign > 0
    R = 0.5 * logdet
    Rc = 0.0
    for j in np.unique(labels):
        Zj = Z[:, labels == j]
        mj = Zj.shape[1]
        aj = n / (mj * eps**2)
        sign, logdet = np.linalg.slogdet(np.eye(n) + aj * (Zj @ Zj.conj().T))
        assert sign > 0
        Rc += 0.5 * (mj / m) * logdet
    return R - Rc, R, Rc


def central_diff_grad(f, Z, h=1e-6):
    """Entrywise central finite differences of a scalar function of Z."""
    Z = np.asarray(Z, dtype=np.float64)
    grad = np.zeros_like(Z)
    it = np.nditer(Z, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        Zp = Z.copy()
        Zm = Z.copy()
        Zp[idx] += h
        Zm[idx] -= h
        grad[idx] = (f(Zp) - f(Zm)) / (2 * h)
        it.iternext()
    return grad


# ----------------------------------------------- dense circulant algebra

def circulant(z):
    """(T, T) matrix whose column t is z cyclically shifted down by t."""
    z = np.asarray(z)
    return np.stack([np.roll(z, t) for t in range(z.shape[0])], axis=1)


def multichannel_circulant(zbar):
    """(C*T, T): per-channel circulant blocks stacked vertically."""
    return np.vstack([circulant(ch) for ch in np.asarray(zbar)])


def stacked_circulant(Zbar):
    """(C*T, T*m): multichannel circulants of every sample side by side."""
    Zbar = np.asarray(Zbar)  # (C, T, m)
    return np.hstack([multichannel_circulant(Zbar[:, :, i]) for i in range(Zbar.shape[2])])


def repeat_labels(labels, times):
    """Labels of the augmented column set (each sample contributes `times` shifts)."""
    return np.repeat(np.asarray(labels), times)


def dft_matrix(T):
    """Unitary DFT matrix with entries omega^(p t) / sqrt(T), omega = exp(-2 pi i / T)."""
    idx = np.arange(T)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / T) / np.sqrt(T)


# ------------------------------------------------------------ dense 2-d

def translate2(z, p, q):
    """trans_{p,q}: (h, w) entry comes from (h - p mod H, w - q mod W)."""
    return np.roll(np.asarray(z), (p, q), axis=(0, 1))


def doubly_circulant(z):
    """(HW, HW): columns are row-major vecs of all translations, q fastest."""
    z = np.asarray(z)
    H, W = z.shape
    cols = [translate2(z, p, q).reshape(-1) for p in range(H) for q in range(W)]
    return np.stack(cols, axis=1)


def multichannel_doubly_circulant(zbar):
    """(C*HW, HW): per-channel doubly circulant blocks stacked vertically."""
    return np.vstack([doubly_circulant(ch) for ch in np.asarray(zbar)])


def stacked_doubly_circulant(Zbar):
    """(C*HW, HW*m) for a (C, H, W, m) sample stack."""
    Zbar = np.asarray(Zbar)
    return np.hstack([multichannel_doubly_circulant(Zbar[..., i]) for i in range(Zbar.shape[3])])


# ---------------------------------------------------------- classifier

def svd_subspaces(Z, partition, energy=0.95):
    """Nearest-subspace fit from a thin SVD of each class block."""
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    Zf = _flatten(Z)
    if Zf.shape[1] != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {Zf.shape[1]}")
    bases = []
    for j in range(partition.k):
        mask = partition.mask(j)
        if not mask.any():
            raise EmptyClass(f"class {j} has no samples")
        U, s, _ = np.linalg.svd(Zf[:, mask], full_matrices=False)
        power = s**2
        total = power.sum()
        if total == 0.0:
            raise EmptyClass(f"class {j} features are all zero")
        r = int(np.searchsorted(np.cumsum(power) / total, energy) + 1)
        r = min(max(r, 1), U.shape[1])
        bases.append(U[:, :r].copy())
    return SubspaceModel(bases=tuple(bases))


# ------------------------------------------------------ shift sweep

def roll_orthogonal_fraction(F_test, test_labels, F_train, labels):
    """Fraction of cross-class (shifted test, train) pairs with |cos| <= 0.1,
    over every cyclic shift of the test features."""
    T = F_train.shape[1]
    flat_tr = _flat(F_train)
    cross = test_labels[:, None] != labels[None, :]
    total = int(cross.sum()) * T
    hits = 0
    for s in range(T):
        cos = np.abs(_flat(np.roll(F_test, s, axis=1)).T @ flat_tr)
        hits += int((cos[cross] <= ORTHO_COS).sum())
    return hits / total
