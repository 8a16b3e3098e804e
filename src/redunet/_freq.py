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
(`irfftn`) all work on the half. Nothing checks conjugate symmetry,
because the loop only ever sees rfftn output.

Sample blocks. The layer step

    v  <-  normalize( v + eta E v - eta sum_j gamma_j pi_j C_j v )

does little arithmetic per value (C x C blocks, C a few channels), so its
cost is memory traffic. `update_batch` therefore walks the sample axis in
blocks of `_UPDATE_BLOCK_VALUES` values per (F_h, C, b) slab, 1 MB of
complex values, or, for the trivial group, of `_TRIVIAL_BLOCK_VALUES`: its
steps run on the calling thread alone (see Workers), and its wide factors
(784 x 400, say) are read once per block, so fewer, larger blocks serve it
better. Each block is stepped by one of two kernels, picked once per call
from the layer's operator form (`_kernel`), and written renormalized into
the preallocated output:

- Factored layers (see Factorization) step on the sample side. The
  push-through identity gives E V = a V K and C_j V_j = a_j V_j K_j for
  the features V the layer was built from, so their labelled step
  (``construct``'s, on the stack it keeps as the layer's features, in class
  order) is one product V T with the m x m matrix
  T = I + eta a K - eta (+)_j gamma_j a_j K_j (`_built_step`). Any other
  block takes W = V* v once and finishes as s0 v + V c, s0 a scalar per
  sample and c (m, b) read off K W and the K_j W_j: two wide products and
  no buffer (`_factored_step`). Its estimated membership reads each class
  norm off the m side as well (`_class_norms`),

      ||C_j v||^2 = a_j^2 (||v||^2 - 2 a_j s Re<W_j, y_j> + a_j^2 s y_j* (s G_j) y_j),

  y_j = K_j W_j and s G_j the class Gram. That sum cancels; where its
  cancellation ratio, weighted by how much the membership moves with that
  norm, exceeds `_NORM_CANCELLATION` for a sample of the block, the class's
  norms of the block are taken from C_j v itself.
- Dense layers take their k+1 products with the layer's stacks, read in
  place, into a (k+1)-block buffer (`_step_block`): entry 0 holds E v,
  which becomes v + eta E v, entries 1..k the class projections C_j v; it
  estimates the membership from the projections (or slices the given one)
  and subtracts the weighted projections in place.

A block reads only its own samples before it writes them, so a step may
write into its input (``update_batch(V, layer, out=V)``), to the bytes a
fresh output would get. ``spectral.construct`` steps its carry that way
and ``spectral.forward`` every stack, from layer 0 on, each a stack of its
own from `spectral._spectra`, which thus keeps one layout through every
layer: the frequency-major view of the rfftn output for a cyclic group,
C order for the trivial group. The exception is the stack a layer keeps
as its features: every block of a factored layer's step reads all of
them (`_built_step`, `_factored_step`), so ``construct`` steps its
training stack into a fresh array, and an ``out`` that may share memory
with the features is refused. A step in place thus holds its
stack and, per worker, at most one (k+1)-block product buffer and a few
block-sized temporaries, whatever the number of samples; a step into a
fresh array holds its output as well.

Workers. The blocks are independent, so `update_batch` shares them out
over W = `thread_count()` workers (``REDUNET_THREADS``, else the usable
CPUs): the calling thread and W - 1 helper threads, which the step starts
and joins before it returns. Worker w steps blocks w, w + W, ... The
block partition depends on m, F_h and C only, never on W, and every block
is computed the same way on any thread, so the output has the same bytes
for any worker count. The caller allocates every worker's product buffer
before dispatch, so the largest allocations do not land in the malloc
arenas of the helper threads. A step of the trivial group, whose wide
products BLAS already spreads over the cores, and a step of one block run
on the calling thread alone. An error in a worker (a zero-norm sample)
reaches the caller unchanged.

Factorization. Every operator is factored for all F_h frequencies at
once: `build_layer` makes k+1 batched calls of `rate.hermitian_inverse`,
one per operator, each one Cholesky factorization over the stack of its
smaller Gram side (`regularized_inverse`). The factors' log-determinants
are those of the objective of the features the layer is built from, so the
layer carries that objective triple too (`SpectralLayer.components`), and
the construction loop factors no Gram a second time; the final features'
triple factors the same matrices, no inverse formed (`regularized_logdet`).
A layer takes one form for all of its operators, chosen by m < C:

- A layer of fewer samples m than rows C is factored: every operator is a
  scaled identity minus a rank m_op correction, a (I - a s V K V*), held
  as the layer's features V, shared by all of them, and the m_op x m_op
  inverse K (`Factored`); a class operator keeps its scaled Gram
  s G_j = s V_j* V_j too, which the factorization forms anyway and a
  loaded archive forms again from its features. No operator is formed as
  C x C stacks: the layer steps on the sample side (Sample blocks), and
  the archive stores V once and each K. Only the kernels, the gradient
  and the dense oracles ask for the stacks, which `dense` multiplies out,
  to the bytes `regularized_inverse` gives.
- A layer of m >= C samples (the shift and translation networks, C a few
  channels) holds every operator as its dense stacks a (I + a s V V*)^-1,
  each from `regularized_inverse`: a class of fewer than C samples is
  factored on its m_j side and multiplied out.

The trivial group. The vector network is the same computation over no
group axes, ``freq_shape = ()``: one frequency, F = F_h = 1 with weight
1, the identity as its transform, so its stacks stay real. An (n, m)
feature matrix Z is the stack Z[None]: its one slice carries the real
n x n operators E = alpha (I + alpha Z Z*)^-1 and C_j, and
`regularized_inverse` of Z is E. Its slices are wide (C = n features, say
784, against a few hundred samples), so its layers are usually factored,
and their steps are the two sample-side kernels: a 784-d layer of 400
labelled samples in two classes steps them in one 784 x 400 x 400
product, and any other block in two. That layer stores 4.4 MB in its
archive and, with the class Grams its step reads, holds 5.1 MB, not the
14.7 MB of its three 784 x 784 matrices.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ZeroVector
from .rate import (NORM_FLOOR, Partition, RateParams, _adjoint, _cholesky,
                   _log_diagonal_sum, _triple, hermitian_inverse)

_UPDATE_BLOCK_VALUES = 2**16  # values per (F_h, C, b) sample block: 1 MB complex
_TRIVIAL_BLOCK_VALUES = 2**18  # values per (1, C, b) block of the trivial group: 2 MB real
# the largest cancellation ratio of a class norm read off the m side, weighted
# by the membership's sensitivity to that norm (`_class_norms`): its sum
# rounds to about 6e-16 of its terms, so this keeps the membership within
# 1e-12 of the one from C_j v itself
_NORM_CANCELLATION = 3e3
_WORKERS = None  # workers of the layer step; None: `thread_count()`


@dataclass
class SpectralLayer:
    """Per-frequency operators of one layer, frequency axes flattened.

    ``Ebar`` has shape (F_h, C, C) and ``Cbar`` (k, F_h, C, C): the rfftn
    half of the spectrum over the grid ``freq_shape``, in rfftn order
    (F_h = prod(G[:-1]) * (G[-1]//2 + 1)); every other frequency is
    the conjugate of its mirror. The vector network (``freq_shape = ()``) is
    its own half, F_h = 1: real operators of that one frequency.
    ``components`` is the objective triple (reduction, expand, compress)
    of the features the layer was factored from, which `build_layer`
    reads off its factorizations; archives do not store it.

    A layer of fewer samples than C is factored (module docstring):
    ``Ebar`` is then a `Factored` and ``Cbar`` an `OperatorStack` of them,
    which report in ``nbytes`` the bytes the layer holds and give their
    dense stacks only through `dense`. ``features`` (F_h, C, m) are then
    the features the layer was built from, its samples in class order,
    shared by the operators, and ``labels`` (m,) the class of each sample
    in its original order; both are None in a dense layer.
    """

    Ebar: "np.ndarray | Factored"
    Cbar: "np.ndarray | OperatorStack"
    freq_shape: tuple
    gamma: np.ndarray
    alpha: float
    alpha_class: np.ndarray
    eta: float
    lam: float
    components: tuple | None = None
    features: np.ndarray | None = None
    labels: np.ndarray | None = None


def _no_array(self, dtype=None, copy=None):
    raise TypeError(f"a {type(self).__name__} holds factors; `_freq.dense` multiplies "
                    "out its stacks")


class Factored:
    """The operator a (I - a s V K V*) of every frequency, held as its factors.

    ``features`` (F_h, C, m) are the layer's, in class order; ``cols``
    selects the columns V the operator was built from (all of them for E,
    one class's for C_j), and K (F_h, m_op, m_op) is the inverse
    (I + a s V* V)^-1 of those columns, in the same order; s is the Gram
    scale. ``restore`` puts the columns back in sample order (None when
    they already are). A class operator also keeps ``gram``, s V* V of its
    columns, from which the layer step reads its norms (`_class_norms`);
    ``nbytes`` counts it, and for E, the one operator without a Gram, the
    shared features.
    """

    def __init__(self, features, cols, K, a, scale, restore=None, gram=None):
        self.features, self.cols, self.K = features, cols, K
        self.a, self.scale, self.restore, self.gram = float(a), float(scale), restore, gram

    @property
    def shape(self) -> tuple:
        F_h, C, _ = self.features.shape
        return (F_h, C, C)

    @property
    def dtype(self):
        return self.K.dtype

    @property
    def nbytes(self) -> int:
        return self.K.nbytes + (self.features if self.gram is None else self.gram).nbytes

    __array__ = _no_array


class OperatorStack:
    """The k `Factored` class operators of a factored layer."""

    def __init__(self, members):
        self.members = tuple(members)

    @property
    def shape(self) -> tuple:
        return (len(self.members), *self.members[0].shape)

    @property
    def nbytes(self) -> int:
        return sum(op.nbytes for op in self.members)

    def __iter__(self):
        return iter(self.members)

    __array__ = _no_array


def dense(op) -> np.ndarray:
    """The dense stacks of an operator: (F_h, C, C) of a `Factored`, to the
    bytes `regularized_inverse` gives, (k, F_h, C, C) of an `OperatorStack`;
    an array is returned as it is."""
    if isinstance(op, OperatorStack):
        return np.stack([dense(member) for member in op])
    if not isinstance(op, Factored):
        return op
    V, K = op.features[..., op.cols], op.K
    if op.restore is not None:
        V, K = V[..., op.restore], K[..., op.restore[:, None], op.restore]
    return _expand(np.ascontiguousarray(V), K, op.a, op.scale)


def operators(layer: SpectralLayer) -> list:
    """E, then every C_j, of a layer: each a `Factored` or a dense (F_h, C, C) stack."""
    return [layer.Ebar, *layer.Cbar]


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


def regularized_inverse(Vs: np.ndarray, a: float,
                        scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """a (I + a scale Vs Vs*)^-1 for every (C, m) slice of a stack Vs
    (..., C, m), its Gram symmetrized, and logdet(I + a scale Vs Vs*).

    When m < C the m x m side is factored instead, by the push-through
    identity (the one `regularized_logdet` relies on):

        a (I_C + a s Vs Vs*)^-1 = a (I_C - a s Vs (I_m + a s Vs* Vs)^-1 Vs*),

    so the work is one m x m Hermitian inverse and two products rather
    than a C x C one; both sides have the same log-determinant. The whole
    stack is factored at once (`rate.hermitian_inverse`), and every slice
    gets the bytes it would get alone. The result keeps the dtype of ``Vs``.
    """
    K, logdet = hermitian_inverse(_regularized(_gram(Vs, scale), a))
    if K.shape[-1] < Vs.shape[-2]:
        return _expand(Vs, K, a, scale), logdet
    return a * K, logdet


def _gram(Vs: np.ndarray, scale: float) -> np.ndarray:
    """s G on the smaller Gram side of a stack Vs (..., C, m): G = Vs* Vs
    when m < C, Vs Vs* otherwise."""
    C, m = Vs.shape[-2:]
    Vh = _adjoint(Vs)
    return scale * (Vh @ Vs if m < C else Vs @ Vh)


def _regularized(G: np.ndarray, a: float) -> np.ndarray:
    """I + a G of scaled Grams G (`_gram`), G symmetrized."""
    return np.eye(G.shape[-1], dtype=G.dtype) + a * 0.5 * (G + _adjoint(G))


def regularized_logdet(Vs: np.ndarray, a: float, scale: float = 1.0) -> np.ndarray:
    """logdet(I + a scale Vs Vs*) of every (C, m) slice of a stack Vs (..., C, m):
    the log-dets of `regularized_inverse`, to its bytes, with no inverse
    formed. A factor that fails raises NotPositiveDefinite."""
    return 2.0 * _log_diagonal_sum(_cholesky(_regularized(_gram(Vs, scale), a)))


def _expand(Vs: np.ndarray, K: np.ndarray, a: float, scale: float) -> np.ndarray:
    """a (I - a s Vs K Vs*) of a stack Vs (..., C, m) and its m x m inverses K,
    symmetrized: the C x C stacks of a factored operator."""
    C = Vs.shape[-2]
    out = (-a * a * scale) * ((Vs @ K) @ _adjoint(Vs))
    out[..., np.arange(C), np.arange(C)] += a
    return 0.5 * (out + _adjoint(out))


def build_layer(Vt: np.ndarray, partition: Partition, eps: float, eta: float,
                lam: float, freq_shape: tuple) -> SpectralLayer:
    """Factor the per-frequency operators from half spectra Vt (F_h, C, m).

    The Grams are scaled by the frequency count F = prod(freq_shape); see
    the module docstring for why the Grams of unitary spectra carry it.
    The stacks keep the dtype of ``Vt``: real for the trivial group. Each
    operator is one batched factorization over the frequency axis, whose
    log-determinants give the objective triple of ``Vt`` as well
    (`SpectralLayer.components`, to the bytes of `spectral_components`).
    With m < C every operator stays `Factored`, on the features in class
    order; otherwise every one is a dense stack. Either way every
    operator's dense stack has the bytes of `regularized_inverse`.
    """
    freq_shape = tuple(freq_shape)
    F_h, C, m = Vt.shape
    if F_h != half_count(freq_shape):
        raise ValueError(f"expected the half-spectrum frequencies of {freq_shape}, got {F_h}")
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {m}")
    gram_scale = float(math.prod(freq_shape))
    weight = half_weights(freq_shape)
    params = RateParams(eps)
    alpha = params.alpha(C, m)
    alpha_class = np.array([params.alpha_class(C, int(c)) for c in partition.counts])

    logdets = []

    def factor(mask, a):  # an operator's K on its smaller Gram side, and that scaled Gram
        G = _gram(Vt[:, :, mask], gram_scale)
        K, logdet = hermitian_inverse(_regularized(G, a))
        logdets.append(float(weight @ logdet))
        return K, G

    def dense_stack(mask, a):  # an operator's dense stack, its log-dets kept for the objective
        op, logdet = regularized_inverse(Vt[:, :, mask], a, gram_scale)
        logdets.append(float(weight @ logdet))
        return op

    features = labels = None
    if m >= C:  # every operator a dense stack, a class of fewer than C samples multiplied out
        Ebar = dense_stack(slice(None), alpha)
        Cbar = np.empty((partition.k, F_h, C, C), dtype=Vt.dtype)
        for j, a in enumerate(alpha_class):
            Cbar[j] = dense_stack(partition.mask(j), a)
    else:  # every operator factored, over the features in class order
        K = factor(slice(None), alpha)[0]
        classes = [factor(partition.mask(j), a) for j, a in enumerate(alpha_class)]
        labels = partition.labels.copy()
        order, restore = class_order(labels)
        features = Vt if restore is None else Vt[..., order]
        if restore is not None:
            K = K[..., order[:, None], order]
        Ebar, Cbar = factored_operators(features, labels, [K, *(Kj for Kj, _ in classes)],
                                        [alpha, *alpha_class], gram_scale,
                                        [G for _, G in classes])

    return SpectralLayer(Ebar=Ebar, Cbar=Cbar, freq_shape=freq_shape,
                         gamma=partition.gamma.copy(), alpha=alpha,
                         alpha_class=alpha_class, eta=eta, lam=lam,
                         components=_triple(logdets[0], logdets[1:], partition.gamma,
                                            gram_scale),
                         features=features, labels=labels)


def class_order(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The stable order that puts samples in class order, and the order that
    puts them back (None when they already are in class order)."""
    order = np.argsort(labels, kind="stable")
    if np.array_equal(order, np.arange(labels.size)):
        return order, None
    return order, np.argsort(order)


def factored_operators(features: np.ndarray, labels: np.ndarray, Ks: list, coeffs: list,
                       scale: float, grams: list | None = None) -> tuple:
    """(Ebar, Cbar) of a factored layer of ``features`` (F_h, C, m), their
    samples in class order (`class_order` of ``labels``).

    ``Ks`` holds the (F_h, m_op, m_op) inverses, in class order, of E, then
    of every C_j; ``coeffs`` are the operators' a, ``scale`` the Gram scale.
    ``grams`` are the class operators' scaled Grams (`_gram`) where the
    caller formed them; else they are formed from their columns, to the
    same bytes.
    """
    _, restore = class_order(labels)
    bounds = np.cumsum([0, *np.bincount(labels, minlength=len(Ks) - 1)])
    classes = []
    for j, (K, a) in enumerate(zip(Ks[1:], coeffs[1:])):
        cols = slice(bounds[j], bounds[j + 1])
        gram = (_gram(np.ascontiguousarray(features[..., cols]), scale) if grams is None
                else grams[j])
        classes.append(Factored(features, cols, K, a, scale, gram=gram))
    E = Factored(features, slice(0, features.shape[-1]), Ks[0], coeffs[0], scale, restore)
    return E, OperatorStack(classes)


def compressions(V: np.ndarray, layer: SpectralLayer, out: np.ndarray) -> np.ndarray:
    """E V and every C_j V of a (F_h, C, b) block into ``out`` (k+1, F_h, C, b),
    for a dense layer: entry 0 holds E v, entries 1..k the class
    projections C_j v, each read from the layer's stacks in place."""
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
    return _softmax(_squared_norms(CV, weight, first=1), lam)


def _softmax(squared: np.ndarray, lam: float) -> np.ndarray:
    """Membership (k, b) from the squared class norms (k, b)."""
    logits = -lam * np.sqrt(squared)
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
                 pi: np.ndarray | None = None, *, out: np.ndarray | None = None) -> np.ndarray:
    """One spectral layer step on (F_h, C, m) half spectra, then renormalize.

    With ``pi`` omitted the membership is estimated from the projections;
    passing a (k, m) array (e.g. the true one-hot labels) overrides it.
    The samples are stepped in blocks of `_UPDATE_BLOCK_VALUES` values
    (`_TRIVIAL_BLOCK_VALUES` for the trivial group), shared out over the
    workers, by the kernel that the layer's operator form and ``pi`` pick
    (`_kernel`; module docstring); the result does not depend on how many
    workers there are.

    The result goes into ``out`` when given, else into a fresh array;
    ``out=Vt`` steps the stack in place, to the bytes of a fresh output.
    An ``out`` that may share memory with the layer's own features raises
    ValueError: every block of their labelled step (`_built_step`), or of
    any step of a layer that keeps them, reads all of them.
    """
    F_h, C, m = Vt.shape
    weight = half_weights(layer.freq_shape)
    dtype = np.result_type(Vt.dtype, layer.Ebar.dtype)
    if out is None:
        out = np.empty((F_h, C, m), dtype=dtype)
    elif layer.features is not None and np.may_share_memory(out, layer.features):
        raise ValueError("out may share memory with the layer's features, which every "
                         "block of the step reads")
    values = _UPDATE_BLOCK_VALUES if layer.freq_shape else _TRIVIAL_BLOCK_VALUES
    b = max(1, values // (F_h * C))
    blocks = [slice(s, s + b) for s in range(0, m, b)]
    # an empty stack has no block, and its one worker nothing to do
    workers = max(1, min(_WORKERS or thread_count(), len(blocks))) if layer.freq_shape else 1
    step, held = _kernel(Vt, layer, pi, weight)
    bufs = np.empty((workers, held, F_h, C, min(b, m)), dtype=dtype)

    def run(w):  # worker w steps blocks w, w + workers, ... in its own buffer
        for block in blocks[w::workers]:
            step(block, bufs[w], out)

    if workers <= 1:
        run(0)
        return out
    # imported here, so that a process that never shares out a step (the
    # vector network's) does not load the module
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block joins every helper, even when worker 0 failed
    with ThreadPoolExecutor(workers - 1, thread_name_prefix="redunet-step") as helpers:
        tasks = [helpers.submit(run, w) for w in range(1, workers)]
        run(0)  # the calling thread is worker 0
    for task in tasks:
        task.result()
    return out


def _kernel(Vt, layer, pi, weight):
    """The block step of one `update_batch` call, ``step(block, buf, out)``,
    and the blocks of buffer ``buf`` it takes per worker.

    Factored layers step on the sample side: the labelled step of the
    stack the layer was built from in one product (`_built_step`), every
    other step in two (`_factored_step`). Dense layers take the k+1
    products of `_step_block`.
    """
    k = layer.Cbar.shape[0]
    if isinstance(layer.Ebar, Factored):
        if (pi is not None and Vt is layer.features
                and np.array_equal(pi, np.eye(k)[:, np.sort(layer.labels)])):
            return _built_step(Vt, layer, weight), 0
        return _factored_step(Vt, layer, pi, weight), 0

    def step(block, buf, out):
        _step_block(Vt, layer, pi, weight, block, buf, out)
    return step, k + 1


def _step_block(Vt, layer, pi, weight, block, buf, out):
    """The layer step of the samples ``block`` of Vt into the same samples
    of ``out``, its products taken into the (k+1)-block buffer ``buf``."""
    V = Vt[:, :, block]
    prod = compressions(V, layer, buf[..., :V.shape[-1]])
    step, CV = prod[0], prod[1:]  # E v, and every C_j v
    step *= layer.eta
    step += V  # v + eta E v
    p = membership(CV, layer.lam, weight) if pi is None else pi[:, block]
    coeff = layer.eta * layer.gamma[:, None] * p
    for j in range(CV.shape[0]):  # - eta sum_j gamma_j pi_j C_j v
        CV[j] *= coeff[j]
        step -= CV[j]
    normalize_samples(step, weight, out=out[:, :, block])


def _built_step(V, layer, weight):
    """Factored layer, the labelled step of its own features V (class
    order): E V = a V K and C_j V_j = a_j V_j K_j, so the step is V T with
    T = I + eta a K - eta (+)_j gamma_j a_j K_j, block diagonal in the
    classes, one product per block."""
    E = layer.Ebar
    T = (layer.eta * E.a) * E.K
    T[:, np.arange(T.shape[-1]), np.arange(T.shape[-1])] += 1.0
    for g, op in zip(layer.gamma, layer.Cbar):
        T[:, op.cols, op.cols] -= (layer.eta * g * op.a) * op.K

    def step(block, buf, out):
        normalize_samples(V @ T[:, :, block], weight, out=out[:, :, block])
    return step


def _factored_step(Vt, layer, pi, weight):
    """Factored layer, any block: with W = V* v, every operator acts
    through its m_op-side rows, and the step is

        v + eta E v - eta sum_j gamma_j pi_j C_j v = s0 v + V c,

    s0 = 1 + eta a - eta sum_j gamma_j pi_j a_j per sample and c (m, b) the
    m-side coefficients: one product for W and one for V c. Estimated
    memberships read each class norm off the m side too (`_class_norms`)."""
    E, ops, eta = layer.Ebar, list(layer.Cbar), layer.eta
    V = E.features
    Vh = _adjoint(V)

    def step(block, buf, out):
        v = Vt[:, :, block]
        W = Vh @ v
        ys = [op.K @ W[:, op.cols] for op in ops]  # K_j W_j
        p = (_softmax(_class_norms(v, W, ys, ops, weight, layer.lam), layer.lam)
             if pi is None else pi[:, block])
        coeff = eta * layer.gamma[:, None] * p  # (k, b)
        c = E.K @ W
        c *= -eta * E.a * E.a * E.scale
        for op, y, cj in zip(ops, ys, coeff):
            c[:, op.cols] += (cj * (op.a * op.a * op.scale)) * y
        stepped = V @ c
        stepped += (1.0 + eta * E.a - np.array([op.a for op in ops]) @ coeff) * v
        normalize_samples(stepped, weight, out=out[:, :, block])
    return step


def _class_norms(v, W, ys, ops, weight, lam):
    """Squared norms (k, b) of every C_j v of a block v of a factored
    layer, from W = V* v and y_j = K_j W_j:

        ||C_j v||^2 = a^2 (||v||^2 - 2 a s Re<W_j, y_j> + a^2 s y_j* (s G_j) y_j),

    s G_j the class Gram (``Factored.gram``). The sum cancels: its rounding
    is the rounding of its terms' magnitudes, so relative to the norm it
    grows with the cancellation ratio (terms over value). What that moves
    is the membership, by the ratio times lam pi_j (1 - pi_j) ||C_j v||;
    where that weighted ratio exceeds `_NORM_CANCELLATION` for any sample
    of the block, or the sum is not positive, class j's norms of the block
    are taken from C_j v itself, a v - a^2 s V_j y_j."""
    vv = _squared_norms(v, weight, first=0)
    squared, terms = np.empty((2, len(ops), v.shape[-1]))
    for j, (op, y) in enumerate(zip(ops, ys)):
        a, s = op.a, op.scale
        cross = (a * s) * _inner(W[:, op.cols], y, weight)
        quad = (a * a * s) * _inner(y, op.gram @ y, weight)
        squared[j] = (a * a) * (vv - 2.0 * cross + quad)
        terms[j] = (a * a) * (vv + 2.0 * np.abs(cross) + quad)
    positive = np.maximum(squared, 0.0)
    p = _softmax(positive, lam)
    thin = (squared <= 0.0) | (lam * p * (1.0 - p) * terms
                               > _NORM_CANCELLATION * np.sqrt(positive))
    for j in np.flatnonzero(thin.any(axis=1)):
        op = ops[j]
        direct = op.features[..., op.cols] @ ys[j]
        direct *= -op.a * op.scale
        direct += v
        direct *= op.a
        squared[j] = _squared_norms(direct, weight, first=0)
    return squared


def _inner(X: np.ndarray, Y: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Re<x, y> of every sample (last axis) of (F_h, r, b) stacks, the
    frequency axis weighted."""
    return weight @ np.einsum("frb,frb->fb", X.conj(), Y).real


def thread_count() -> int:
    """Workers of the layer step: ``REDUNET_THREADS`` if set, else the CPUs
    this process may run on, and never more than those.

    A value that is not a positive integer raises ConfigError.
    """
    cpus = len(os.sched_getaffinity(0))
    raw = os.environ.get("REDUNET_THREADS", "")
    if not raw:
        return cpus
    if not (raw.isdecimal() and int(raw) > 0):
        raise ConfigError(f"REDUNET_THREADS must be a positive integer, got {raw!r}")
    return min(int(raw), cpus)


def spectral_components(Vt: np.ndarray, partition: Partition, eps: float,
                        freq_shape: tuple) -> tuple[float, float, float]:
    """Objective triple (reduction, expand, compress) from (F_h, C, m) half spectra.

    The frequency count F = prod(freq_shape) scales the per-frequency
    Grams (unitary spectra vs dense eigenvalues) and divides the summed
    log-dets (the objective is the dense rate per position); the sums run
    over the full spectrum through `half_weights`. An (n, m) feature matrix
    Z is the trivial group's stack Z[None], F = 1. The log-dets are those
    `build_layer` reads off its factors (`regularized_logdet`).
    """
    _, C, m = Vt.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {m}")
    scale, weight = float(math.prod(freq_shape)), half_weights(freq_shape)
    params = RateParams(eps)
    expand = float(weight @ regularized_logdet(Vt, params.alpha(C, m), scale))
    compress = [float(weight @ regularized_logdet(Vt[:, :, partition.mask(j)],
                                                  params.alpha_class(C, int(c)), scale))
                for j, c in enumerate(partition.counts)]
    return _triple(expand, compress, partition.gamma, scale)
