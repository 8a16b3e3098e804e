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

Half spectrum. The signals are real, so V(-p) is the conjugate of V(p)
(-p taken mod n on every group axis), and so are E(-p), C_j(-p) and every
layer update. The layer loop therefore carries only the rfftn half of
the last group axis: F_h = prod(G[:-1]) * (G[-1]//2 + 1) slices, in the
row-major order of `np.fft.rfftn`. A sum over all F frequencies (sample
norms, membership norms, the log-det objective) becomes a sum over the
half with weight 2 per slice, for the slice and its mirror, except the
last-axis columns 0 and G[-1]/2 (the latter for even G[-1] only), whose
mirrors lie inside the half themselves and get weight 1 (`half_weights`).
A layer stores only that half too: its operator stacks are (F_h, C, C),
the conjugate mirrors implied, so the model, its archive and its kernels
(`irfftn`) all work on the half. Nothing inside the loop checks conjugate
symmetry, because the loop only ever sees rfftn output; a full spectrum
that enters from outside (`spectral.spectral_operators`, a version-1
archive) is checked once by `check_conjugate_symmetry`.

Sample blocks. The layer step does little arithmetic per value (C x C
blocks, C a few channels), so its cost is memory traffic. `update_batch`
therefore walks the sample axis in blocks of `_UPDATE_BLOCK_VALUES`
values per (F_h, C, b) slab. Each block takes its products with the
layer's own stacks, read in place, into one preallocated (k+1)-block
buffer: entry 0 holds E v, which becomes the step v + eta E v, entries
1..k the class projections C_j v. It then estimates the membership from
the projections (or slices the given one), subtracts the weighted
projections in place and writes the renormalized block into the
preallocated output. A step thus holds its input, its output, one
(k+1)-block product buffer and a few block-sized temporaries, whatever
the number of samples, where computing every intermediate for all m
samples at once held about k+4 arrays the size of the input.

The trivial group. The vector network is the same computation over no
group axes, ``freq_shape = ()``: one frequency, F = F_h = 1 with weight
1, the identity as its transform, so its stacks stay real. Its slices are
wide (C = n features, say 784, against a few hundred samples), so every
operator factors the smaller Gram side (`regularized_inverse`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVector
from .rate import NORM_FLOOR, Partition, RateParams, gram_logdet, hermitian_inverse

_UPDATE_BLOCK_VALUES = 2**18  # values per (F_h, C, b) sample block: 4 MB complex


@dataclass
class SpectralLayer:
    """Per-frequency operators of one layer, frequency axes flattened.

    ``Ebar`` has shape (F_h, C, C) and ``Cbar`` (k, F_h, C, C): the rfftn
    half of the spectrum over the grid ``freq_shape``, in `half_spectrum`
    order (F_h = prod(G[:-1]) * (G[-1]//2 + 1)); every other frequency is
    the conjugate of its mirror. The vector network (``freq_shape = ()``) is
    its own half, F_h = 1: real operators of that one frequency.
    """

    Ebar: np.ndarray
    Cbar: np.ndarray
    freq_shape: tuple
    gamma: np.ndarray
    alpha: float
    alpha_class: np.ndarray
    eta: float
    lam: float


def half_spectrum(freq_shape: tuple) -> np.ndarray:
    """Flat row-major indices over ``freq_shape`` of the F_h frequencies of
    the rfftn half of the last axis, in rfftn order."""
    index = np.arange(math.prod(freq_shape)).reshape(freq_shape)
    return index[..., :freq_shape[-1] // 2 + 1].ravel()


def half_count(freq_shape: tuple) -> int:
    """F_h, the number of half-spectrum frequencies over ``freq_shape``."""
    if not freq_shape:  # the trivial group
        return 1
    return math.prod(freq_shape[:-1]) * (freq_shape[-1] // 2 + 1)


def half_weights(freq_shape: tuple) -> np.ndarray:
    """(F_h,) weight of each half-spectrum slice in a sum over all F frequencies."""
    if not freq_shape:
        return np.ones(1)
    n = freq_shape[-1]
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return np.tile(w, math.prod(freq_shape[:-1]))


def check_conjugate_symmetry(Vt: np.ndarray, freq_shape: tuple, tol: float = 1e-8):
    """Reject a full spectrum (F, ...) whose mirrors are not conjugates.

    Only spectra of real signals have a half spectrum that stands for the
    whole; every frequency outside the half must be the conjugate of its
    mirror (-p mod n on every axis), which lies in the half. ``tol = 0``
    asks for exact conjugates.
    """
    index = np.arange(math.prod(freq_shape)).reshape(freq_shape)
    mirror_of = index[np.ix_(*[-np.arange(n) % n for n in freq_shape])]
    h = freq_shape[-1] // 2 + 1
    other, mirror = index[..., h:].ravel(), mirror_of[..., h:].ravel()
    if not other.size:
        return
    scale = max(1.0, float(np.max(np.abs(Vt))))
    err = float(np.max(np.abs(Vt[other] - Vt[mirror].conj())))
    if not err <= tol * scale:
        raise ValueError(
            "the layer needs the conjugate-symmetric spectrum of real signals "
            f"(max violation {err:.3e})")


def regularized_inverse(Vs: np.ndarray, a: float, scale: float = 1.0) -> np.ndarray:
    """a (I + a scale Vs Vs*)^-1 for one (C, m) slice, its Gram symmetrized.

    When m < C the m x m side is factored instead, by the push-through
    identity (the one ``rate.gram_logdet`` relies on):

        a (I_C + a s Vs Vs*)^-1 = a (I_C - a s Vs (I_m + a s Vs* Vs)^-1 Vs*),

    so the work is one m x m Hermitian inverse and two products rather
    than a C x C one. The result keeps the dtype of ``Vs``.
    """
    C, m = Vs.shape
    Vh = Vs.conj().T
    if m < C:
        G = scale * (Vh @ Vs)
        K = hermitian_inverse(np.eye(m, dtype=Vs.dtype) + a * 0.5 * (G + G.conj().T))
        out = (-a * a * scale) * ((Vs @ K) @ Vh)
        out[np.diag_indices(C)] += a
        return 0.5 * (out + out.conj().T)
    G = scale * (Vs @ Vh)
    return a * hermitian_inverse(np.eye(C, dtype=Vs.dtype) + a * 0.5 * (G + G.conj().T))


def build_layer(Vt: np.ndarray, partition: Partition, eps: float, eta: float,
                lam: float, freq_shape: tuple) -> SpectralLayer:
    """Factor the per-frequency operators from half spectra Vt (F_h, C, m).

    The Grams are scaled by the frequency count F = prod(freq_shape); see
    the module docstring for why the Grams of unitary spectra carry it.
    The stacks keep the dtype of ``Vt``: real for the trivial group.
    """
    freq_shape = tuple(freq_shape)
    F_h, C, m = Vt.shape
    if F_h != half_count(freq_shape):
        raise ValueError(f"expected the half-spectrum frequencies of {freq_shape}, got {F_h}")
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {m}")
    gram_scale = float(math.prod(freq_shape))
    params = RateParams(eps)
    alpha = params.alpha(C, m)
    alpha_class = np.array([params.alpha_class(C, int(c)) for c in partition.counts])
    k = partition.k

    Ebar = np.empty((F_h, C, C), dtype=Vt.dtype)
    Cbar = np.empty((k, F_h, C, C), dtype=Vt.dtype)
    for p in range(F_h):
        Ebar[p] = regularized_inverse(Vt[p], alpha, gram_scale)
    for j in range(k):
        Vj = Vt[:, :, partition.mask(j)]
        for p in range(F_h):
            Cbar[j, p] = regularized_inverse(Vj[p], alpha_class[j], gram_scale)

    return SpectralLayer(Ebar=Ebar, Cbar=Cbar, freq_shape=freq_shape,
                         gamma=partition.gamma.copy(), alpha=alpha,
                         alpha_class=alpha_class, eta=eta, lam=lam)


def compressions(V: np.ndarray, layer: SpectralLayer, out: np.ndarray) -> np.ndarray:
    """E V and every C_j V of a (F_h, C, b) block into ``out`` (k+1, F_h, C, b).

    Both products read the layer's stacks in place; entry 0 of ``out``
    holds E v, entries 1..k the class projections C_j v.
    """
    np.matmul(layer.Ebar, V, out=out[0])
    np.matmul(layer.Cbar, V, out=out[1:])
    return out


def membership(CV: np.ndarray, lam: float, weight: np.ndarray | None = None) -> np.ndarray:
    """Softmax membership from the norms of the class projections.

    CV has shape (k, ..., b): class, the axes of one sample, sample. The
    norm aggregates every axis of a sample; for (k, F_h, C, b) half
    spectra, ``weight`` (F_h,) weights the frequency axis so that the norm
    is that of the full spectrum. Largest logit is subtracted before exp.
    """
    logits = -lam * np.sqrt(_squared_norms(CV, weight, first=1))  # (k, b)
    logits -= logits.max(axis=0, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=0, keepdims=True)


def normalize_samples(Vt: np.ndarray, weight: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Scale every sample (last axis) to unit norm, into ``out`` if given.

    Without ``weight`` the norm is Frobenius over all other axes (signals,
    vector features). For (F_h, C, m) half spectra, ``weight`` (F_h,)
    weights the frequency axis so the norm is that of the full spectrum,
    i.e. of the signal.
    """
    norms = np.sqrt(_squared_norms(Vt, weight, first=0))
    if np.any(norms < NORM_FLOOR):
        raise ZeroVector("zero-norm feature cannot be normalized")
    return np.divide(Vt, norms, out=out)


def _squared_norms(V: np.ndarray, weight: np.ndarray | None, first: int) -> np.ndarray:
    """Squared sample norms over axes ``first``..-2 of V, axis ``first``
    weighted if ``weight`` is given; squared in place, one temporary."""
    sq = np.abs(V)
    sq *= sq
    if weight is None:
        return np.sum(sq, axis=tuple(range(first, V.ndim - 1)))
    return weight @ np.sum(sq, axis=first + 1)


def update_batch(Vt: np.ndarray, layer: SpectralLayer,
                 pi: np.ndarray | None = None) -> np.ndarray:
    """One spectral layer step on (F_h, C, m) half spectra, then renormalize.

    With ``pi`` omitted the membership is estimated from the projections;
    passing a (k, m) array (e.g. the true one-hot labels) overrides it.
    The samples are stepped in blocks of `_UPDATE_BLOCK_VALUES` values.
    """
    F_h, C, m = Vt.shape
    k = layer.Cbar.shape[0]
    weight = half_weights(layer.freq_shape)
    dtype = np.result_type(Vt, layer.Ebar)
    out = np.empty((F_h, C, m), dtype=dtype)
    b = max(1, _UPDATE_BLOCK_VALUES // (F_h * C))
    buf = np.empty((k + 1, F_h, C, min(b, m)), dtype=dtype)
    for s in range(0, m, b):
        block = slice(s, s + b)
        V = Vt[:, :, block]
        prod = compressions(V, layer, buf[..., :min(b, m - s)])
        step, CV = prod[0], prod[1:]  # E v, and every C_j v
        step *= layer.eta
        step += V  # v + eta E v
        p = membership(CV, layer.lam, weight) if pi is None else pi[:, block]
        coeff = layer.eta * layer.gamma[:, None] * p
        for j in range(k):  # - eta sum_j gamma_j pi_j C_j v
            CV[j] *= coeff[j]
            step -= CV[j]
        normalize_samples(step, weight, out=out[:, :, block])
    return out


def spectral_components(Vt: np.ndarray, partition: Partition, eps: float,
                        freq_shape: tuple) -> tuple[float, float, float]:
    """Objective triple (reduction, expand, compress) from (F_h, C, m) half spectra.

    The frequency count F = prod(freq_shape) scales the per-frequency
    Grams (unitary spectra vs dense eigenvalues) and divides the summed
    log-dets (the objective is the dense rate per position); the sums run
    over the full spectrum through `half_weights`.
    """
    _, C, m = Vt.shape
    scale = float(math.prod(freq_shape))
    weight = half_weights(tuple(freq_shape))
    params = RateParams(eps)
    R = gram_logdet(Vt, scale * params.alpha(C, m), weight) / (2.0 * scale)
    Rc = 0.0
    for j in range(partition.k):
        mask = partition.mask(j)
        aj = params.alpha_class(C, int(partition.counts[j]))
        acc = gram_logdet(Vt[:, :, mask], scale * aj, weight)
        Rc += partition.gamma[j] * acc / (2.0 * scale)
    return R - Rc, R, Rc
