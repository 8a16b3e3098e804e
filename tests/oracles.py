"""Independent brute-force reference implementations used by the tests.

Everything here deliberately takes the slow, obvious route: LU-based
slogdet instead of Cholesky, dense circulant matrices built column by
column with np.roll, entrywise central finite differences. The package is
considered correct when its fast paths agree with these.
"""

import dataclasses
import itertools
import struct
import zlib

import numpy as np

from redunet import _freq
from redunet._freq import SpectralLayer, half_weights
from redunet.classify import SubspaceModel, _flatten, fit_subspaces, predict
from redunet.errors import EmptyClass, NotPositiveDefinite, ZeroVector
from redunet.datasets import LabeledDataset, signals_1d
from redunet.harness import experiments
from redunet.harness.archive import KIND_VECTOR, MAGIC, VERSION, load_model
from redunet.harness.experiments import ORTHO_COS, _flat
from redunet.lifting import lift_1d, lift_2d, polar_transform, random_filters, sparsify
from redunet.rate import NORM_FLOOR, Partition, RateParams, default_lambda, hermitian_inverse
from redunet.spectral import (SpectralReduNet, _spectra, construct, forward,
                              group_rate_components)


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
    """The rates (R - Rc, R, Rc) of a feature matrix via np.linalg.slogdet."""
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


def dense_rate_gradient(Z, partition, eps):
    """Gradient of the rate reduction with respect to Z by dense n x n solves.

    d/dZ [R - Rc] = E Z - sum_j gamma_j C_j Z Pi_j, where
    E   = alpha   (I + alpha   Z Z*)^-1
    C_j = alpha_j (I + alpha_j Z Pi_j Z*)^-1.
    """
    Z = np.asarray(Z)
    n, m = Z.shape
    params = RateParams(eps)
    alpha = params.alpha(n, m)

    def solve(Zs, a, rhs):  # (I + a Zs Zs*)^-1 rhs, the Gram symmetrized
        G = Zs @ Zs.conj().T
        try:
            return np.linalg.solve(np.eye(n) + a * (0.5 * (G + G.conj().T)), rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - PD by construction
            raise NotPositiveDefinite(str(exc)) from exc

    grad = alpha * solve(Z, alpha, Z)
    for j in range(partition.k):
        mask = partition.mask(j)
        Zj = Z[:, mask]
        aj = params.alpha_class(n, int(partition.counts[j]))
        ZPi = np.zeros_like(Z)
        ZPi[:, mask] = Zj
        grad -= partition.gamma[j] * aj * solve(Zj, aj, ZPi)
    return grad


def dense_regularized_inverse(Z, a):
    """a (I_n + a Z Z*)^-1 by a Cholesky inverse of the n x n side, whatever m is."""
    n = Z.shape[0]
    G = Z @ Z.conj().T
    return a * hermitian_inverse(np.eye(n) + a * 0.5 * (G + G.conj().T))[0]


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


def roll_orbit(F, stride):
    """The (C, *G, |H| m) stack of every roll of (C, *G, m) features by
    multiples of ``stride`` along the group axes, a roll's copies together."""
    shifts = list(itertools.product(*(range(0, g, s) for g, s in zip(F.shape[1:-1], stride))))
    axes = tuple(range(1, F.ndim - 1))
    return np.concatenate([np.roll(F, s, axis=axes) for s in shifts], axis=-1)


def orbit_subspaces(F, partition, energy, stride):
    """The strided fit as it ran before it worked on subgroup blocks: the
    orbit materialized, each copy with its sample's label, and fitted as
    plain features."""
    orbit = roll_orbit(F, stride)
    copies = orbit.shape[-1] // F.shape[-1]
    return fit_subspaces(orbit, Partition(np.tile(partition.labels, copies)), energy)


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


# ------------------------------------------- all-copies augmentation
#
# The augmented test set of an invariant kind as the harness handled it
# before it rolled test features: every shifted input, rolled here one
# sample and one shift at a time, mapped into model space like the test
# set, then carried through the construction and forwarded again.

def all_shifts(test, rank, stride):
    """Every sample of ``test`` rolled by each multiple of ``stride`` along
    its leading ``rank`` axes, row-major, each sample's copies contiguous."""
    grids = [range(0, n, stride) for n in test.samples.shape[1:1 + rank]]
    shifts = list(itertools.product(*grids))
    copies = [np.roll(x, s, axis=tuple(range(rank))) for x in test.samples for s in shifts]
    return LabeledDataset(np.stack(copies), np.repeat(test.labels, len(shifts)))


def all_copies_stacks(cfg):
    """(train, labels, carry, m_test, aug_labels, stride) in model space for
    an invariant signals1d, mnist-translation or mnist-rotation config: the
    carry is the test set and then every augmented input, mapped as one."""
    if cfg.kind == "signals1d":
        train = signals_1d(cfg.m_per_class, cfg.n, cfg.seed, cfg.noise)
        test = signals_1d(cfg.m_test_per_class, cfg.n, cfg.seed + 1, cfg.noise)
        bank = random_filters(cfg.channels, cfg.kernel_size, cfg.seed + 2)
        aug, stride = all_shifts(test, 1, cfg.stride), (cfg.stride,)

        def as_input(X):
            return sparsify(lift_1d(X.T, bank))
    elif cfg.kind == "mnist-translation":
        train, test = experiments._load_mnist_pair(cfg)
        bank = random_filters(cfg.channels, (cfg.kernel_size, cfg.kernel_size), cfg.seed + 2)
        aug, stride = all_shifts(test, 2, cfg.stride), (cfg.stride, cfg.stride)

        def as_input(X):
            return sparsify(lift_2d(X.transpose(1, 2, 0), bank))
    else:
        train, test = experiments._load_mnist_pair(cfg)
        radii = cfg.radii or experiments._default_radii(cfg.channels,
                                                        *train.samples.shape[1:])
        train, test = (LabeledDataset(polar_transform(ds.samples, cfg.gamma, radii), ds.labels)
                       for ds in (train, test))
        aug, stride = all_shifts(test, 1, cfg.stride), (cfg.stride,)

        def as_input(X):
            return X.transpose(2, 1, 0)
    carry = as_input(np.concatenate([test.samples, aug.samples]))
    return as_input(train.samples), train.labels, carry, test.m, aug.labels, stride


def all_copies_accuracies(cfg, archive):
    """(construct's, augment-eval's) augmented test accuracy of an invariant
    config, every shifted copy carried through the construction and
    forwarded by the ``archive``d model of the same config; and the largest
    |difference| between the carried copies' features and the carried test
    features rolled by each copy's shift."""
    train, labels, carry, m, aug_labels, stride = all_copies_stacks(cfg)
    test, aug = carry[..., :m], carry[..., m:]
    built = construct(train, Partition(labels), cfg.layers, cfg.eta, cfg.eps, lam=cfg.lam,
                      use_labels=True, carry=carry)
    F_test, F_aug = built.carry_features[..., :m], built.carry_features[..., m:]
    shifts = list(itertools.product(*(range(0, g, s) for g, s in zip(test.shape[1:-1], stride))))
    axes = tuple(range(1, test.ndim - 1))
    gap = max(float(np.max(np.abs(F_aug[..., c::len(shifts)] - np.roll(F_test, s, axis=axes))))
              for c, s in enumerate(shifts))
    model = load_model(archive)
    accuracies = []
    for F_train, F_copies in ((built.features, F_aug),
                              (forward(model, train), forward(model, aug))):
        clf = fit_subspaces(F_train, Partition(labels), cfg.energy, stride=stride)
        accuracies.append(float(np.mean(predict(F_copies, clf) == aug_labels)))
    return tuple(accuracies), gap


# ------------------------------------------------ the engine's layer build

def spectral_layer(Zbar, P, eps, eta=1.0):
    """The layer `construct` builds from (C, *G, m) features ``Zbar``, not renormalized."""
    return _freq.build_layer(_spectra(Zbar), P, eps, eta, default_lambda(P.k), Zbar.shape[1:-1])


# ----------------------------------------- per-slice operator factoring
#
# The layer factoring as it ran before each operator was one batched
# factorization over the frequency axis: every (C, m) slice of every
# operator its own Hermitian inverse.

def slice_regularized_inverse(Vs, a, scale=1.0):
    """a (I + a scale Vs Vs*)^-1 for one (C, m) slice, on its smaller Gram side."""
    C, m = Vs.shape
    Vh = Vs.conj().T
    if m < C:
        G = scale * (Vh @ Vs)
        K = hermitian_inverse(np.eye(m, dtype=Vs.dtype) + a * 0.5 * (G + G.conj().T))[0]
        out = (-a * a * scale) * ((Vs @ K) @ Vh)
        out[np.diag_indices(C)] += a
        return 0.5 * (out + out.conj().T)
    G = scale * (Vs @ Vh)
    return a * hermitian_inverse(np.eye(C, dtype=Vs.dtype) + a * 0.5 * (G + G.conj().T))[0]


def slice_build_layer(Vt, partition, eps, eta, lam, freq_shape):
    """The operators of half spectra Vt (F_h, C, m), factored slice by slice."""
    F_h, C, m = Vt.shape
    gram_scale = float(np.prod(freq_shape))
    params = RateParams(eps)
    alpha = params.alpha(C, m)
    alpha_class = np.array([params.alpha_class(C, int(c)) for c in partition.counts])
    Ebar = np.empty((F_h, C, C), dtype=Vt.dtype)
    Cbar = np.empty((partition.k, F_h, C, C), dtype=Vt.dtype)
    for p in range(F_h):
        Ebar[p] = slice_regularized_inverse(Vt[p], alpha, gram_scale)
    for j in range(partition.k):
        Vj = Vt[:, :, partition.mask(j)]
        for p in range(F_h):
            Cbar[j, p] = slice_regularized_inverse(Vj[p], alpha_class[j], gram_scale)
    return SpectralLayer(Ebar=Ebar, Cbar=Cbar, freq_shape=tuple(freq_shape),
                         gamma=partition.gamma.copy(), alpha=alpha, alpha_class=alpha_class,
                         eta=eta, lam=lam)


# ------------------------------------- full-spectrum spectral layer loop
#
# The layer loop as it ran on the full fftn spectrum, every frequency
# carried and updated, before the engine moved to the rfftn half. Layers
# come from `slice_build_layer` on the half of the fftn spectra, and their
# half-spectrum stacks are mirror-filled to the full spectrum by `full_stack`.

def full_stack(stack, freq_shape):
    """The full (F, ...) spectrum of a half-spectrum (F_h, ...) stack.

    The half holds the frequencies p of the grid ``freq_shape`` whose last
    index is at most G[-1]//2, row-major; every other p is the conjugate
    of its mirror -p (mod the grid), which lies in the half.
    """
    stack = np.asarray(stack)
    h = freq_shape[-1] // 2 + 1
    half = stack.reshape(*freq_shape[:-1], h, *stack.shape[1:])
    full = np.empty((*freq_shape, *stack.shape[1:]), dtype=stack.dtype)
    for p in np.ndindex(*freq_shape):
        if p[-1] < h:
            full[p] = half[p]
        else:
            full[p] = half[tuple(-i % n for i, n in zip(p, freq_shape))].conj()
    return full.reshape(-1, *stack.shape[1:])


def full_operators(layer):
    """(E, C): a layer's (F, C, C) and (k, F, C, C) full-spectrum stacks."""
    return (full_stack(_freq.dense(layer.Ebar), layer.freq_shape),
            np.stack([full_stack(_freq.dense(Cj), layer.freq_shape) for Cj in layer.Cbar]))


def full_compressions(Vt, layer):
    """All class projections C_j(p) v_i(p), shape (k, F, C, m)."""
    return full_operators(layer)[1] @ Vt


def full_membership(CV, lam):
    """Softmax membership from the Frobenius norms of the class projections.

    CV has shape (k, F, C, m); the norm aggregates every frequency and
    channel of a sample. Largest logit is subtracted before exp.
    """
    norms = np.sqrt(np.sum(np.abs(CV) ** 2, axis=(1, 2)))  # (k, m)
    logits = -lam * norms
    logits -= logits.max(axis=0, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=0, keepdims=True)


def full_normalize_samples(Vt):
    """Scale every sample (last axis) to unit Frobenius norm."""
    norms = np.sqrt(np.sum(np.abs(Vt) ** 2, axis=tuple(range(Vt.ndim - 1))))
    if np.any(norms < NORM_FLOOR):
        raise ZeroVector("zero-norm feature cannot be normalized")
    return Vt / norms


def full_update_batch(Vt, layer, pi=None):
    """One spectral layer step on (F, C, m) features, then renormalize.

    With ``pi`` omitted the membership is estimated from the projections;
    passing a (k, m) array (e.g. the true one-hot labels) overrides it.
    """
    EV = full_operators(layer)[0] @ Vt
    CV = full_compressions(Vt, layer)
    if pi is None:
        pi = full_membership(CV, layer.lam)
    sigma = np.einsum("jfcm,jm->fcm", CV, layer.gamma[:, None] * pi)
    return full_normalize_samples(Vt + layer.eta * EV - layer.eta * sigma)


def _full_stack_logdet_sum(Vt, coeff):
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


def full_spectral_components(Vt, partition, eps):
    """Objective triple (reduction, expand, compress) from (F, C, m) spectra."""
    F, C, m = Vt.shape
    scale = float(F)
    params = RateParams(eps)
    R = _full_stack_logdet_sum(Vt, scale * params.alpha(C, m)) / (2.0 * scale)
    Rc = 0.0
    for j in range(partition.k):
        mask = partition.mask(j)
        aj = params.alpha_class(C, int(partition.counts[j]))
        acc = _full_stack_logdet_sum(Vt[:, :, mask], scale * aj)
        Rc += partition.gamma[j] * acc / (2.0 * scale)
    return R - Rc, R, Rc


def _full_spectra(Z):
    """(F, C, m) unitary fftn spectra of a real (C, *G, m) stack."""
    C, m = Z.shape[0], Z.shape[-1]
    V = np.fft.fftn(Z, axes=tuple(range(1, Z.ndim - 1)), norm="ortho")
    return V.reshape(C, -1, m).transpose(1, 0, 2)


def _full_signals(Vt, shape):
    """Real (C, *G, m) signals of (F, C, m) spectra, which must be a real
    signal's: the unitary ifftn may keep only rounding in its imaginary part."""
    G = shape[1:]
    V = Vt.transpose(1, 0, 2).reshape(*shape, Vt.shape[-1])
    w = np.fft.ifftn(V, axes=tuple(range(1, len(shape)))) * np.sqrt(np.prod(G))
    residue = float(np.max(np.abs(w.imag), initial=0.0))
    assert residue <= 1e-6, f"inverse transform kept imaginary residue {residue:.3e}"
    return w.real


def full_spectrum_construct(Zbar, partition, L, eta, eps, lam=None, carry=None,
                            use_labels=False):
    """(layers, features, carry features, trace) of the full-spectrum loop."""
    shape = Zbar.shape[:-1]
    if lam is None:
        lam = default_lambda(partition.k)
    Vt = _full_spectra(full_normalize_samples(Zbar))
    Vc = None if carry is None else _full_spectra(full_normalize_samples(carry))
    onehot = partition.onehot() if use_labels else None
    trace = [full_spectral_components(Vt, partition, eps)]
    layers = []
    G, h = shape[1:], shape[-1] // 2 + 1
    for _ in range(int(L)):
        half = Vt.reshape(*G, *Vt.shape[1:])[..., :h, :, :].reshape(-1, *Vt.shape[1:])
        layer = slice_build_layer(half, partition, eps, eta, lam, G)
        Vt = full_update_batch(Vt, layer, pi=onehot)
        if Vc is not None:
            Vc = full_update_batch(Vc, layer)
        trace.append(full_spectral_components(Vt, partition, eps))
        layers.append(layer)
    return (layers, _full_signals(Vt, shape),
            None if Vc is None else _full_signals(Vc, shape), np.array(trace))


def full_spectrum_forward(layers, shape, xbar):
    """Map a (C, *G, b) batch through ``layers`` on the full spectrum."""
    Vt = _full_spectra(full_normalize_samples(xbar))
    for layer in layers:
        Vt = full_update_batch(Vt, layer)
    return _full_signals(Vt, shape)


# ------------------------------------ unblocked half-spectrum layer step
#
# The half-spectrum layer step as it ran before the engine walked the
# samples in blocks: every intermediate built for all m samples at once,
# the expansion and the class projections taken as separate products.

def _half_compressions(Vt, layer):
    """All class projections C_j(p) v_i(p) on half spectra, shape (k, F_h, C, m)."""
    return layer.Cbar @ Vt


def _half_membership(CV, lam, weight):
    """Softmax membership from the weighted norms of (k, F_h, C, m) projections."""
    norms = np.sqrt(weight @ np.sum(np.abs(CV) ** 2, axis=2))  # (k, m)
    logits = -lam * norms
    logits -= logits.max(axis=0, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=0, keepdims=True)


def _half_normalize_samples(Vt, weight):
    """Scale every (F_h, C) sample to the unit norm of its full spectrum."""
    norms = np.sqrt(weight @ np.sum(np.abs(Vt) ** 2, axis=1))
    if np.any(norms < NORM_FLOOR):
        raise ZeroVector("zero-norm feature cannot be normalized")
    return Vt / norms


def same_operators(a, b):
    """Whether two layers' operators have the same dense stacks, bytes and all."""
    return (np.array_equal(_freq.dense(a.Ebar), _freq.dense(b.Ebar))
            and np.array_equal(_freq.dense(a.Cbar), _freq.dense(b.Cbar)))


def dense_layer(layer):
    """The same layer with every operator as its dense stack, as the
    unblocked step takes it."""
    return dataclasses.replace(layer, Ebar=_freq.dense(layer.Ebar),
                               Cbar=_freq.dense(layer.Cbar), features=None, labels=None)


def unblocked_update_batch(Vt, layer, pi=None):
    """One spectral layer step on (F_h, C, m) half spectra, then renormalize.

    With ``pi`` omitted the membership is estimated from the projections;
    passing a (k, m) array (e.g. the true one-hot labels) overrides it.
    """
    weight = half_weights(layer.freq_shape)
    CV = _half_compressions(Vt, layer)
    if pi is None:
        pi = _half_membership(CV, layer.lam, weight)
    step = np.eye(Vt.shape[1]) + layer.eta * layer.Ebar
    out = step @ Vt  # v + eta E v
    coeff = layer.eta * layer.gamma[:, None] * pi
    for j in range(CV.shape[0]):  # - eta sum_j gamma_j pi_j C_j v
        out -= coeff[j] * CV[j]
    return _half_normalize_samples(out, weight)


# --------------------------------------------------- vector layer loop
#
# The vector network as it ran before the spectral engine took the trivial
# group: its own loop over (n, m) feature matrices, every operator one dense
# n x n matrix (`_freq.regularized_inverse` of the features, or of a class's
# columns), every step one product per operator over all samples, and the
# objective from `spectral.group_rate_components`.

def vector_update_batch(Z, layer, pi=None):
    """One layer step for every column of Z with membership weights pi (k, b),
    estimated from the class projections when omitted."""
    EZ = layer.Ebar[0] @ Z
    Cz = layer.Cbar[:, 0] @ Z  # (k, n, b)
    if pi is None:
        pi = _freq.membership(Cz, layer.lam)
    sigma = np.einsum("jnb,jb->nb", Cz, layer.gamma[:, None] * pi)
    return _freq.normalize_samples(Z + layer.eta * EZ - layer.eta * sigma)


def vector_loop_construct(X, partition, L, eta, eps, lam=None, use_labels=False,
                          carry=None):
    """An L-layer vector network built by the vector loop, with its carry."""
    n, m = X.shape
    if lam is None:
        lam = default_lambda(partition.k)
    params = RateParams(eps)
    alpha = params.alpha(n, m)
    alpha_class = np.array([params.alpha_class(n, int(c)) for c in partition.counts])
    Z = _freq.normalize_samples(X)
    Zc = None if carry is None else _freq.normalize_samples(np.ascontiguousarray(carry))
    onehot = partition.onehot()
    trace = [group_rate_components(Z, partition, eps)]
    layers = []
    for _ in range(int(L)):
        C = [_freq.regularized_inverse(Z[:, partition.mask(j)], a)[0]
             for j, a in enumerate(alpha_class)]
        layer = SpectralLayer(Ebar=_freq.regularized_inverse(Z, alpha)[0][None],
                              Cbar=np.stack(C)[:, None], freq_shape=(),
                              gamma=partition.gamma.copy(), alpha=alpha,
                              alpha_class=alpha_class.copy(), eta=eta, lam=lam)
        layers.append(layer)
        Z = vector_update_batch(Z, layer, onehot if use_labels else None)
        if Zc is not None:
            Zc = vector_update_batch(Zc, layer)
        trace.append(group_rate_components(Z, partition, eps))
    return SpectralReduNet(layers=layers, C=n, freq_shape=(), k=partition.k, eps=eps,
                           eta=eta, lam=lam, trace=np.array(trace),
                           gamma=partition.gamma.copy(), features=Z, carry_features=Zc)


# --------------------------------------------------------------- archive
#
# Version-3 archives: the header u32s kind, k and ndim sit at bytes 12, 16
# and 20, the dims from 24 on; the trailer's depth and trace_rows are the
# eight bytes before the CRC, with the trace before them.

def _u32(value):
    return struct.pack("<I", int(value))


def _sealed(body):
    """The archive of ``body`` (everything between the magic and the CRC)."""
    return MAGIC + bytes(body) + _u32(zlib.crc32(body))


def joined_save_model(model):
    """The archive bytes, assembled as one joined blob with a CRC over it."""
    def raw(arr, dtype="<f8"):
        return np.ascontiguousarray(arr, dtype=dtype).tobytes()

    kind, dims = len(model.freq_shape), (model.C, *model.freq_shape)
    trace = np.asarray(model.trace, dtype=np.float64)
    if model.layers:
        alpha, alpha_class = model.layers[0].alpha, model.layers[0].alpha_class
    else:
        alpha, alpha_class = 0.0, np.zeros(model.k)
    parts = [_u32(VERSION), _u32(kind), _u32(model.k), _u32(len(dims))]
    parts.extend(_u32(d) for d in dims)
    parts.append(struct.pack("<ddd", model.eps, model.eta, model.lam))
    parts.append(raw(model.gamma))
    parts.append(struct.pack("<d", alpha))
    parts.append(raw(alpha_class))
    factored = bool(model.layers) and model.layers[0].features is not None
    parts.extend(_u32(factored) for _ in range(model.k + 1))
    if factored:
        labels = model.layers[0].labels
        parts.extend([_u32(labels.size), raw(labels, "<u4")])
    dtype = "<f8" if kind == KIND_VECTOR else "<c16"
    for layer in model.layers:
        if factored:
            parts.append(raw(layer.features, dtype))
        parts.extend(raw(op.K if factored else op, dtype) for op in _freq.operators(layer))
    parts.extend([raw(trace), _u32(len(model.layers)), _u32(trace.shape[0])])
    return _sealed(b"".join(parts))


def with_header(blob, kind, k, L, trace_rows, ndim, dims):
    """A copy of archive ``blob`` whose u32 fields, the header's and the
    trailer's depth and trace_rows, are replaced, and whose CRC is
    recomputed so only the decoder's own checks can reject it."""
    old_ndim = struct.unpack_from("<I", blob, 20)[0]
    middle = blob[24 + 4 * old_ndim:-12]  # from eps up to the trailer's counts
    return _sealed(b"".join([_u32(VERSION), _u32(kind), _u32(k), _u32(ndim),
                             *(_u32(d) for d in dims), middle, _u32(L), _u32(trace_rows)]))


def _with_float(blob, offset, value):
    body = bytearray(blob[len(MAGIC):-4])
    struct.pack_into("<d", body, offset - len(MAGIC), value)
    return _sealed(body)


def _trace_offset(blob):
    return len(blob) - 12 - 24 * struct.unpack_from("<I", blob, len(blob) - 8)[0]


def with_header_value(blob, field, value):
    """A copy of archive ``blob`` whose float ``field`` (eps, eta, lam,
    alpha, or the first entry of gamma, alpha_class or the trailer's trace)
    is ``value``, with the CRC recomputed so only the decoder's own checks
    can reject it."""
    if field == "trace":
        return _with_float(blob, _trace_offset(blob), value)
    k, ndim = struct.unpack_from("<I", blob, 16)[0], struct.unpack_from("<I", blob, 20)[0]
    index = {"eps": 0, "eta": 1, "lam": 2, "gamma": 3, "alpha": 3 + k,
             "alpha_class": 4 + k}[field]
    return _with_float(blob, 24 + 4 * ndim + 8 * index, value)


def with_last_operator_value(blob, value):
    """A copy of archive ``blob`` whose last operator float (the last layer's
    last Cbar entry) is ``value``, with the CRC recomputed."""
    return _with_float(blob, _trace_offset(blob) - 8, value)


def no_class_model(n):
    """A one-layer vector model on n features with k = 0 classes, which no
    construction builds but `save_model` writes."""
    layer = SpectralLayer(Ebar=np.eye(n)[None], Cbar=np.empty((0, 1, n, n)), freq_shape=(),
                          gamma=np.empty(0), alpha=1.0, alpha_class=np.empty(0), eta=0.5,
                          lam=1.0)
    return SpectralReduNet(layers=[layer], C=n, freq_shape=(), k=0, eps=0.5, eta=0.5,
                           lam=1.0, trace=np.zeros((2, 3)), gamma=np.empty(0))
