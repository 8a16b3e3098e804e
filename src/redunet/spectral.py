"""Invariant construction on multichannel signals over a cyclic group.

A sample is a real (C, *G) array: C channels on a grid G that wraps
around in every axis, G = (T,) for 1-d signals (cyclic shifts, the group
Z_T) or G = (H, W) for 2-d images (cyclic translations, Z_H x Z_W).
Treating every translation of every sample as equally valid training data
replaces each sample by the (C*F, F) stack of its per-channel group
circulants, F = prod(G). The unitary DFT over the group axes
block-diagonalizes all of them at once, so the objective, the operators
and the layer updates decouple into F independent C x C problems, one per
frequency (see ``_freq``). The dense circulant route is kept alongside as
the oracle the fast path is tested against.

Conventions: stacks carry the sample axis last, (C, *G, m); the DFT is
unitary (1/sqrt(F) scaling, negative exponent); frequencies and
translations are flattened row-major (last group axis fastest), and
`group_circulant(z)` places the translation by t in column t, e.g.
[1, 2, 3] -> [[1, 3, 2], [2, 1, 3], [3, 2, 1]]. `dft` and
`spectral_operators` use the full spectrum, and `spectral_operators`
rejects one that is not conjugate-symmetric. Everything else carries
only the rfftn half spectrum of the last group axis, F_h =
prod(G[:-1]) * (G[-1]//2 + 1) frequencies, weighted as the `_freq`
docstring describes: construction, forward, the objective and the layers
themselves, whose (F_h, C, C) operator stacks imply their conjugate
mirrors. Signals and kernels return from it with `irfftn`, whose output
is real by construction.

Rank 0 is the trivial group: an (n, m) stack of n-dimensional vector
features, G = (), whose one frequency carries the features themselves
(the transform is the identity, and the layers stay real). `construct`
and `forward` serve it as they do the others, so the vector network runs
the same loop and the same layer step.

One entry point serves each operation on all three groups (`construct`,
`forward`, `group_rate_components`, `group_gradient`; `layer_kernel` on
the two cyclic ones): it reads the group rank off the stack (its number
of axes minus two), the model or the layer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _freq
from .rate import Partition, default_lambda, rate_components, real_finite


# ------------------------------------------------------------ transforms

def dft(z, rank: int) -> np.ndarray:
    """Unitary DFT over the group axes 1..rank of a (C, *G, ...) array."""
    z = np.asarray(z)
    axes = tuple(range(1, rank + 1))
    return np.fft.fftn(z, axes=axes) / np.sqrt(math.prod(z.shape[1:rank + 1]))


def _freq_major(V: np.ndarray) -> np.ndarray:
    """(C, *G, m) -> (F, C, m), the frequency axes flattened."""
    C, m = V.shape[0], V.shape[-1]
    return V.reshape(C, math.prod(V.shape[1:-1]), m).transpose(1, 0, 2)


def _spectra(Z: np.ndarray) -> np.ndarray:
    """(F_h, C, m) unitary half spectra of a real (C, *G, m) stack.

    A cyclic group's spectra are the rfftn output, scaled in place and seen
    frequency-major: an array of its own, which the layers may step in
    place (`_freq.update_batch` with ``out``). The trivial group's
    transform is the identity, so its result is ``Z`` itself, copied into C
    order if it is not in it (the callers that step it pass a normalized
    copy). C order is the order of a fresh step output, so a stack stepped
    in place from layer 0 on meets every later layer in the order fresh
    outputs gave it; an F-ordered one would meet them in F order, to other
    bytes.
    """
    if Z.ndim == 2:  # the trivial group: the identity transform
        return np.ascontiguousarray(Z)[None]
    axes = tuple(range(1, Z.ndim - 1))
    half = np.fft.rfftn(Z, axes=axes)
    half /= np.sqrt(math.prod(Z.shape[1:-1]))
    return _freq_major(half)


def _sample_stack(Zbar, what: str = "sample stack") -> np.ndarray:
    """A real, finite (C, *G, m) stack of any group rank, else an error."""
    Zbar = real_finite(Zbar, what)
    if Zbar.ndim < 2:
        raise ValueError(f"expected a (C, *G, m) {what}, got shape {Zbar.shape}")
    return Zbar


def _input_spectra(x, shape: tuple, what: str = "input"):
    """Half spectra (F_h, C, b) of the normalized samples of one sample ``x`` of
    ``shape`` = (C, *G) or a batch (C, *G, b), and whether it was one sample."""
    x = real_finite(x, what)
    single = x.ndim == len(shape)
    X = x[..., None] if single else x
    if X.shape[:-1] != shape:
        batch = "(" + ", ".join([*map(str, shape), "b"]) + ")"
        raise ValueError(f"expected {what} of shape {shape} or {batch}, got {x.shape}")
    return _spectra(_freq.normalize_samples(X)), single


def _signals(Vt: np.ndarray, shape: tuple) -> np.ndarray:
    """Real (C, *G, m) signals of (F_h, C, m) half spectra, ``shape`` = (C, *G)."""
    G = shape[1:]
    if not G:
        return Vt[0]
    half = Vt.transpose(1, 0, 2).reshape(*shape[:-1], G[-1] // 2 + 1, Vt.shape[-1])
    axes = tuple(range(1, len(shape)))
    out = np.fft.irfftn(half, s=G, axes=axes)
    out *= np.sqrt(math.prod(G))
    return out


# ------------------------------------------------------- dense oracles

def group_circulant(z) -> np.ndarray:
    """(F, F) matrix whose columns are the flattened translations of z.

    Column t, with t running over the grid G last axis fastest, is z
    cyclically translated by t: its entry x reads z[x - t mod G].
    """
    z = np.asarray(z)
    axes = tuple(range(z.ndim))
    return np.stack([(np.roll(z, t, axis=axes) if axes else z).reshape(-1)
                     for t in np.ndindex(z.shape)], axis=1)


def stacked_circulant(Zbar) -> np.ndarray:
    """(C*F, F*m): the per-channel group circulants of each sample stacked
    vertically, the samples side by side."""
    Zbar = np.asarray(Zbar)
    return np.hstack([np.vstack([group_circulant(ch) for ch in Zbar[..., i]])
                      for i in range(Zbar.shape[-1])])


def augmented_partition(partition: Partition, times: int) -> Partition:
    """Partition of the column set where each sample contributes `times` translations."""
    return Partition(np.repeat(partition.labels, times), k=partition.k)


# ------------------------------------------------------------- objective

def group_rate_components(Zbar, partition: Partition, eps: float,
                          method: str = "fast") -> tuple[float, float, float]:
    """Objective triple of the translation-augmented feature set, divided by F.

    ``Zbar`` is a (C, *G, m) stack over any of the three groups, rank 0 (an
    (n, m) feature matrix, F = 1) included. The fast route sums per-frequency
    log-dets; the dense route actually builds the (C*F, F*m) circulant stack
    and evaluates the plain rate on it. Both exist on purpose and are
    compared by the tests.
    """
    Zbar = _sample_stack(Zbar)
    F = math.prod(Zbar.shape[1:-1])
    if method == "fast":
        return _freq.spectral_components(_spectra(Zbar), partition, eps, Zbar.shape[1:-1])
    if method == "dense":
        dR, R, Rc = rate_components(stacked_circulant(Zbar),
                                    augmented_partition(partition, F), eps)
        return dR / F, R / F, Rc / F
    raise ValueError(f"unknown method {method!r}")


# ------------------------------------------------------------- operators

def spectral_operators(Vbar, partition: Partition, eps: float, eta: float = 1.0,
                       lam: float | None = None) -> _freq.SpectralLayer:
    """Per-frequency operator stacks from spectral features Vbar (C, *G, m).

    ``Vbar`` is the unitary spectrum (`dft` output); the factored slices
    are exactly the frequency blocks of the dense operators on the
    circulant stacks, whose eigenvalue data is sqrt(F) larger (the Grams
    are scaled accordingly). Only the half spectrum of the last group axis
    is factored and kept, which stands for the whole exactly for spectra of
    real signals; other spectra are rejected.
    """
    Vbar = np.asarray(Vbar, dtype=np.complex128)
    if Vbar.ndim < 3:
        raise ValueError("expected (C, *G, m) spectral features")
    if lam is None:
        lam = default_lambda(partition.k)
    G = Vbar.shape[1:-1]
    Vt = _freq_major(Vbar)
    _freq.check_conjugate_symmetry(Vt, G)
    return _freq.build_layer(Vt[_freq.half_spectrum(G)], partition, eps, eta=eta,
                             lam=lam, freq_shape=G)


def group_gradient(Zbar, partition: Partition, eps: float):
    """Ascent terms of the invariant objective, in the signal domain.

    ``Zbar`` is a (C, *G, m) stack over any of the three groups, rank 0
    (an (n, m) feature matrix) included. Returns ``(expand, compress)`` with
    shapes (C, *G, m) and (k, C, *G, m): the inverse transforms of E(p) V(p)
    and gamma_j C_j(p) V(p) Pi_j. Their difference
    ``expand - compress.sum(axis=0)`` is exactly the derivative of the
    rate reduction of `group_rate_components` with respect to the signals.
    """
    Zbar = _sample_stack(Zbar)
    shape = Zbar.shape[:-1]
    Vt = _spectra(Zbar)
    layer = _freq.build_layer(Vt, partition, eps, eta=1.0, lam=default_lambda(partition.k),
                              freq_shape=shape[1:])
    expand = _signals(_freq.dense(layer.Ebar) @ Vt, shape)
    compress = np.empty((partition.k,) + Zbar.shape)
    for j, op in enumerate(layer.Cbar):
        Wj = _freq.dense(op) @ Vt
        Wj[:, :, ~partition.mask(j)] = 0.0
        compress[j] = partition.gamma[j] * _signals(Wj, shape)
    return expand, compress


# ----------------------------------------------------------------- model

@dataclass
class SpectralReduNet:
    """Constructed invariant network and its construction trace.

    ``freq_shape`` is the group grid G; inputs and features are
    (C, *freq_shape, m) stacks; ``freq_shape = ()`` is the vector network's
    trivial group, with real (1, C, C) and (k, 1, C, C) layer stacks.
    """

    layers: list
    C: int
    freq_shape: tuple
    k: int
    eps: float
    eta: float
    lam: float
    trace: np.ndarray
    gamma: np.ndarray
    features: np.ndarray | None = None
    carry_features: np.ndarray | None = None

    @property
    def depth(self) -> int:
        return len(self.layers)


def construct(Zbar, partition: Partition, L: int, eta: float, eps: float,
              lam: float | None = None, sink=None, carry=None,
              use_labels: bool = False) -> SpectralReduNet:
    """Build an L-layer invariant network from labeled (C, *G, m) signals.

    Samples are normalized to unit Frobenius norm, transformed once, and
    every layer factors its operators from the current spectral features,
    then updates all samples and renormalizes. ``use_labels`` drives the
    training updates with the true one-hot memberships (the exact ascent
    step) instead of the estimated ones. The loop holds the training
    samples in class order (`_freq.class_order`), so that every layer keeps
    them as its features without a copy, and an all-factored layer steps
    them in one product; the features return in the input's order. The
    trace records the objective triple (reduction, expand, compress) of the
    initial features and after every layer: row l < L comes from the
    factorizations of layer l, whose Grams are those of the features it is
    built from (`SpectralLayer.components`), and only the last row, of the
    final features, takes a factorization of its own
    (`_freq.spectral_components`).
    ``sink``, if given, receives each layer as soon as it is
    built, and the model keeps none (its depth is 0): an
    `archive.ArchiveWriter`'s ``append`` streams them to disk, so the
    construction holds one layer at a time. ``carry`` propagates an
    optional unlabeled sample (C, *G) or batch (C, *G, b) through the same
    layers with estimated membership (identical to running `forward`
    afterwards), which is how a model whose layers went to a sink is
    evaluated. The carry's spectra are stepped in place through every
    layer (`_freq.update_batch` with ``out``), so the loop holds one carry
    stack; the training stack is stepped into a fresh array, because the
    layer just built keeps it as its features.
    """
    Zbar = _sample_stack(Zbar, "training stack")
    shape, m = Zbar.shape[:-1], Zbar.shape[-1]
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, stack has {m}")
    if L < 0:
        raise ValueError("L must be >= 0")
    if lam is None:
        lam = default_lambda(partition.k)

    Vt = _spectra(_freq.normalize_samples(Zbar))
    order, restore = _freq.class_order(partition.labels)
    if restore is not None:  # the loop holds the training samples in class order
        Vt, partition = Vt[..., order], Partition(partition.labels[order], k=partition.k)
    Vc = None if carry is None else _input_spectra(carry, shape, "carry stack")[0]

    onehot = partition.onehot() if use_labels else None
    G = shape[1:]
    trace, layers = [], []
    keep = layers.append if sink is None else sink
    for _ in range(int(L)):
        layer = _freq.build_layer(Vt, partition, eps, eta=eta, lam=lam, freq_shape=G)
        trace.append(layer.components)
        keep(layer)
        Vt = _freq.update_batch(Vt, layer, pi=onehot)
        if Vc is not None:
            _freq.update_batch(Vc, layer, out=Vc)
    trace.append(_freq.spectral_components(Vt, partition, eps, G))
    if restore is not None:
        Vt = Vt[..., restore]
    features, Vt = _signals(Vt, shape), None  # the carry's transform need not hold Vt

    return SpectralReduNet(layers=layers, C=shape[0], freq_shape=G, k=partition.k,
                           eps=eps, eta=eta, lam=lam, trace=np.array(trace),
                           gamma=partition.gamma.copy(), features=features,
                           carry_features=None if Vc is None else _signals(Vc, shape))


def forward(model: SpectralReduNet, xbar) -> np.ndarray:
    """Map raw signals (C, *G) or (C, *G, b) through the constructed layers.

    Inputs are Frobenius-normalized per sample; a zero-layer model returns
    the normalized input. Membership is estimated at every layer. The
    spectra are stepped in place through every layer (`_freq.update_batch`
    with ``out``), so the pass holds one spectral stack besides its input
    and output.
    """
    shape = (model.C, *model.freq_shape)
    Vt, single = _input_spectra(xbar, shape)
    for layer in model.layers:
        _freq.update_batch(Vt, layer, out=Vt)
    out = _signals(Vt, shape)
    return out[..., 0] if single else out


def layer_kernel(layer: _freq.SpectralLayer, which: str = "expand",
                 class_index: int = 0) -> np.ndarray:
    """Signal-domain convolution kernel of a layer operator, shape (C, C, *G).

    The per-frequency stacks are the half spectra of diagonalized
    group-circulant blocks; the inverse transform of each (c, c')
    frequency sequence is the first column of that block, i.e. the kernel
    whose multichannel circular convolution applies the operator. A
    `_freq.Factored` operator is multiplied out first (`_freq.dense`).
    ``class_index`` picks C_j for ``which="compress"``: an integer in
    [0, k), else ValueError. A vector layer (the trivial group) has no
    kernel: ValueError.
    """
    if not layer.freq_shape:
        raise ValueError("a vector layer (trivial group) has no convolution kernel")
    if which == "expand":
        stack = _freq.dense(layer.Ebar)
    elif which == "compress":
        k = layer.Cbar.shape[0]
        if not (isinstance(class_index, (int, np.integer)) and 0 <= class_index < k):
            raise ValueError(f"class_index must be an integer in [0, {k}), got {class_index!r}")
        stack = _freq.dense(tuple(layer.Cbar)[class_index])
    else:
        raise ValueError(f"unknown operator kind {which!r}")
    G, C = tuple(layer.freq_shape), stack.shape[1]
    axes = tuple(range(len(G)))
    half = stack.reshape(*G[:-1], G[-1] // 2 + 1, C, C)
    kern = np.fft.irfftn(half, s=G, axes=axes)
    return kern.transpose(len(G), len(G) + 1, *axes)
