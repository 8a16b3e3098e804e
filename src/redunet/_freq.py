"""Per-frequency machinery of the spectral networks.

Over any cyclic group (shifts in 1-d, translations in 2-d) the
construction is the same computation once the frequency axes are
flattened: the features become a stack of complex slices V(p) of shape
(C, m), one per frequency, and every operator is block diagonal across
frequencies with C x C blocks

    E(p)   = alpha   (I + alpha   V(p) V(p)*)^-1
    C_j(p) = alpha_j (I + alpha_j V(p) Pi_j V(p)*)^-1,   alpha = C/(m eps^2).

The slices V(p) here are the *unitary* transforms of the signals (their
Frobenius norm matches the signal norm, so renormalizing in either domain
is the same sphere projection). The eigenvalues of the underlying
structured dense matrices are the unnormalized transforms, sqrt(F) times
larger, which is why every Gram matrix below is scaled by the frequency
count: with that scale the per-frequency operators are exactly the
diagonal blocks of the dense operators, and the layer update equals the
dense update conjugated by the unitary transform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, ZeroVector
from .rate import NORM_FLOOR, Partition, RateParams, hermitian_inverse


@dataclass
class SpectralLayer:
    """Per-frequency operators of one layer, frequency axes flattened.

    ``Ebar`` has shape (F, C, C) and ``Cbar`` (k, F, C, C), where F is the
    number of frequencies (T in 1-d, H*W in 2-d, recorded in
    ``freq_shape``).
    """

    Ebar: np.ndarray
    Cbar: np.ndarray
    freq_shape: tuple
    gamma: np.ndarray
    alpha: float
    alpha_class: np.ndarray
    eta: float
    lam: float


def conjugate_plan(freq_shape: tuple):
    """Frequencies to factor and (target, source) conjugate-mirror pairs.

    Indices are flattened row-major over ``freq_shape``. The half spectrum
    of the last axis is factored; every other frequency p is the conjugate
    mirror of (-p mod n) on every axis.
    """
    index = np.arange(math.prod(freq_shape)).reshape(freq_shape)
    mirror_of = index[np.ix_(*[-np.arange(n) % n for n in freq_shape])]
    half = freq_shape[-1] // 2 + 1
    compute = index[..., :half].ravel().tolist()
    mirror = list(zip(index[..., half:].ravel().tolist(),
                      mirror_of[..., half:].ravel().tolist()))
    return compute, mirror


def check_conjugate_symmetry(Vt: np.ndarray, mirror, tol: float = 1e-8):
    """The mirror fill is exact only for spectra of real signals; verify it."""
    if not mirror:
        return
    scale = max(1.0, float(np.max(np.abs(Vt))))
    for tgt, src in mirror:
        err = float(np.max(np.abs(Vt[tgt] - Vt[src].conj())))
        if err > tol * scale:
            raise ValueError(
                "the layer needs the conjugate-symmetric spectrum of real signals "
                f"(max violation {err:.3e})")


def build_layer(Vt: np.ndarray, partition: Partition, eps: float, eta: float,
                lam: float, freq_shape: tuple) -> SpectralLayer:
    """Factor the per-frequency operators from spectral features Vt (F, C, m).

    The Grams are scaled by the frequency count F = prod(freq_shape); see
    the module docstring for why the Grams of unitary spectra carry it.
    """
    F, C, m = Vt.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {m}")
    gram_scale = float(F)
    compute, mirror = conjugate_plan(tuple(freq_shape))
    check_conjugate_symmetry(Vt, mirror)
    params = RateParams(eps)
    alpha = params.alpha(C, m)
    alpha_class = np.array([params.alpha_class(C, int(c)) for c in partition.counts])
    k = partition.k
    eye = np.eye(C, dtype=np.complex128)

    def operator(Vs, a):  # a (I + a F Vs Vs*)^-1, its Gram symmetrized
        G = gram_scale * (Vs @ Vs.conj().T)
        return a * hermitian_inverse(eye + a * 0.5 * (G + G.conj().T))

    Ebar = np.empty((F, C, C), dtype=np.complex128)
    Cbar = np.empty((k, F, C, C), dtype=np.complex128)
    masks = [partition.mask(j) for j in range(k)]
    for p in compute:
        Ebar[p] = operator(Vt[p], alpha)
        for j in range(k):
            Cbar[j, p] = operator(Vt[p][:, masks[j]], alpha_class[j])
    for tgt, src in mirror:
        Ebar[tgt] = Ebar[src].conj()
        Cbar[:, tgt] = Cbar[:, src].conj()

    return SpectralLayer(Ebar=Ebar, Cbar=Cbar, freq_shape=tuple(freq_shape),
                         gamma=partition.gamma.copy(), alpha=alpha,
                         alpha_class=alpha_class, eta=eta, lam=lam)


def compressions(Vt: np.ndarray, layer: SpectralLayer) -> np.ndarray:
    """All class projections C_j(p) v_i(p), shape (k, F, C, m)."""
    return layer.Cbar @ Vt


def membership(CV: np.ndarray, lam: float) -> np.ndarray:
    """Softmax membership from the Frobenius norms of the class projections.

    CV has shape (k, F, C, m); the norm aggregates every frequency and
    channel of a sample. Largest logit is subtracted before exp.
    """
    norms = np.sqrt(np.sum(np.abs(CV) ** 2, axis=(1, 2)))  # (k, m)
    logits = -lam * norms
    logits -= logits.max(axis=0, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=0, keepdims=True)


def normalize_samples(Vt: np.ndarray) -> np.ndarray:
    """Scale every sample (last axis) to unit Frobenius norm."""
    norms = np.sqrt(np.sum(np.abs(Vt) ** 2, axis=tuple(range(Vt.ndim - 1))))
    if np.any(norms < NORM_FLOOR):
        raise ZeroVector("zero-norm feature cannot be normalized")
    return Vt / norms


def update_batch(Vt: np.ndarray, layer: SpectralLayer,
                 pi: np.ndarray | None = None) -> np.ndarray:
    """One spectral layer step on (F, C, m) features, then renormalize.

    With ``pi`` omitted the membership is estimated from the projections;
    passing a (k, m) array (e.g. the true one-hot labels) overrides it.
    """
    EV = layer.Ebar @ Vt
    CV = compressions(Vt, layer)
    if pi is None:
        pi = membership(CV, layer.lam)
    sigma = np.einsum("jfcm,jm->fcm", CV, layer.gamma[:, None] * pi)
    return normalize_samples(Vt + layer.eta * EV - layer.eta * sigma)


def _stack_logdet_sum(Vt: np.ndarray, coeff: float) -> float:
    """sum_p logdet(I + coeff V(p) V(p)*) with one batched factorization."""
    G = Vt @ Vt.conj().transpose(0, 2, 1)
    G = 0.5 * (G + G.conj().transpose(0, 2, 1))
    A = np.eye(Vt.shape[1], dtype=np.complex128) + coeff * G
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    diags = np.real(np.diagonal(L, axis1=-2, axis2=-1))
    return float(2.0 * np.sum(np.log(diags)))


def spectral_components(Vt: np.ndarray, partition: Partition,
                        eps: float) -> tuple[float, float, float]:
    """Objective triple (reduction, expand, compress) from spectral features.

    The frequency count F scales the per-frequency Grams (unitary spectra
    vs dense eigenvalues) and divides the summed log-dets (the objective
    is the dense rate per position).
    """
    F, C, m = Vt.shape
    scale = float(F)
    params = RateParams(eps)
    R = _stack_logdet_sum(Vt, scale * params.alpha(C, m)) / (2.0 * scale)
    Rc = 0.0
    for j in range(partition.k):
        mask = partition.mask(j)
        aj = params.alpha_class(C, int(partition.counts[j]))
        acc = _stack_logdet_sum(Vt[:, :, mask], scale * aj)
        Rc += partition.gamma[j] * acc / (2.0 * scale)
    return R - Rc, R, Rc
