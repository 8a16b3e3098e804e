"""Layer-by-layer constructed network on vector features.

Each layer holds two kinds of linear operators derived from the training
features Z at construction time:

    E   = alpha   (I + alpha   Z Z*)^-1        (expands the whole set)
    C_j = alpha_j (I + alpha_j Z Pi_j Z*)^-1   (compresses class j)

Both are dense (n, n) matrices built by ``rate.regularized_inverse``, which
factors the smaller Gram side: with fewer columns than dimensions (m < n,
say 400 samples of 784-d digits, or one class of them) it inverts the
m x m matrix K = I + alpha Z* Z and applies the push-through identity
alpha (I - alpha Z K^-1 Z*); otherwise it inverts the n x n side directly.

A layer moves a feature z along the rate-reduction ascent direction,
steering the compression term by a softmax membership estimate, and
projects back onto the unit sphere:

    z  <-  normalize( z + eta E z - eta sum_j gamma_j pihat_j(z) C_j z ).

Training-label updates (pihat replaced by the true one-hot membership)
reproduce the per-sample slices of the exact objective gradient.

This is the invariant construction over the trivial group, whose one
frequency carries the whole real operators: the model is a
`SpectralReduNet` with C = n and ``freq_shape = ()``, its layers real
`SpectralLayer` stacks Ebar = E[None] (1, n, n) and Cbar = C[:, None].
"""

import numpy as np

from . import _freq
from .rate import (Partition, RateParams, as_matrix, default_lambda, rate_components,
                   real_finite, regularized_inverse)
from .spectral import SpectralReduNet, _of_rank


def expansion_operator(Z, eps: float) -> np.ndarray:
    """E = alpha (I + alpha Z Z*)^-1 for the full feature set."""
    Z = as_matrix(Z)
    n, m = Z.shape
    return regularized_inverse(Z, RateParams(eps).alpha(n, m))


def compression_operators(Z, partition: Partition, eps: float) -> np.ndarray:
    """(k, n, n) stack of C_j = alpha_j (I + alpha_j Z Pi_j Z*)^-1."""
    Z = as_matrix(Z)
    n, m = Z.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, Z has {m}")
    params = RateParams(eps)
    C = np.empty((partition.k, n, n))
    for j in range(partition.k):
        Zj = Z[:, partition.mask(j)]
        C[j] = regularized_inverse(Zj, params.alpha_class(n, int(partition.counts[j])))
    return C


def soft_membership(z: np.ndarray, C: np.ndarray, lam: float) -> np.ndarray:
    """Membership estimate pihat_j(z) = softmax_j(-lam ||C_j z||).

    ``z`` may be one feature (n,) or a batch (n, b); returns (k,) or (k, b).
    The largest logit is subtracted before exponentiation so the softmax
    cannot overflow.
    """
    return _freq.membership(C @ z.reshape(len(z), -1), lam).reshape(-1, *z.shape[1:])


def _update_batch(Z: np.ndarray, layer: _freq.SpectralLayer,
                  pi: np.ndarray | None = None) -> np.ndarray:
    """One layer step for every column of Z with membership weights pi (k, b).

    With ``pi`` omitted the membership is estimated from the same class
    projections C_j Z the step uses, so an estimated step costs k+1
    operator products; passing a (k, b) array (e.g. the true one-hot
    labels) overrides it.
    """
    EZ = layer.Ebar[0] @ Z
    Cz = layer.Cbar[:, 0] @ Z  # (k, n, b)
    if pi is None:
        pi = _freq.membership(Cz, layer.lam)
    sigma = np.einsum("jnb,jb->nb", Cz, layer.gamma[:, None] * pi)
    return _freq.normalize_samples(Z + layer.eta * EZ - layer.eta * sigma)


def construct_vector_net(X, partition: Partition, L: int, eta: float, eps: float,
                         lam: float | None = None, use_labels: bool = False,
                         sink=None, carry=None) -> SpectralReduNet:
    """Build an L-layer network from labeled features.

    The input columns are normalized to the unit sphere, then each layer's
    operators are computed from the current features and every feature is
    updated in place (operators stay fixed within a layer). Updates use the
    estimated membership; ``use_labels=True`` switches to the true class
    labels. ``sink``, if given, receives each layer as soon as it is built
    and the model keeps none, as in `spectral.construct`. ``carry`` is an
    optional unlabeled feature batch propagated through the same layers
    (exactly what forward_vector would compute), which evaluates a model
    whose layers went to a sink.
    """
    X = real_finite(as_matrix(X), "training features")
    n, m = X.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, X has {m}")
    if L < 0:
        raise ValueError("L must be >= 0")
    if lam is None:
        lam = default_lambda(partition.k)
    params = RateParams(eps)
    alpha_class = np.array([params.alpha_class(n, int(c)) for c in partition.counts])

    Z = _freq.normalize_samples(X)
    Zc = (None if carry is None
          else _freq.normalize_samples(real_finite(as_matrix(carry), "carry features")))

    onehot = partition.onehot()
    trace = [rate_components(Z, partition, eps)]
    layers = []
    keep = layers.append if sink is None else sink
    for _ in range(int(L)):
        layer = _freq.SpectralLayer(Ebar=expansion_operator(Z, eps)[None],
                                    Cbar=compression_operators(Z, partition, eps)[:, None],
                                    freq_shape=(), gamma=partition.gamma.copy(),
                                    alpha=params.alpha(n, m), alpha_class=alpha_class.copy(),
                                    eta=eta, lam=lam)
        keep(layer)
        Z = _update_batch(Z, layer, onehot if use_labels else None)
        if Zc is not None:
            Zc = _update_batch(Zc, layer)
        trace.append(rate_components(Z, partition, eps))

    return SpectralReduNet(layers=layers, C=n, freq_shape=(), k=partition.k, eps=eps,
                           eta=eta, lam=lam, trace=np.array(trace),
                           gamma=partition.gamma.copy(), features=Z, carry_features=Zc)


def forward_vector(model: SpectralReduNet, x: np.ndarray) -> np.ndarray:
    """Map a raw input (n,) or batch (n, b) through the constructed layers.

    The input is normalized first, so a zero-layer model returns the
    normalized input. Membership is always estimated (labels are unknown
    at inference time).
    """
    x = real_finite(x)
    layers = _of_rank(model, 0).layers
    single = x.ndim == 1
    if x.ndim not in (1, 2) or x.shape[0] != model.C:
        raise ValueError(f"expected input of shape ({model.C},) or ({model.C}, b), got {x.shape}")
    # row-major, as construction's features are, so the products take the same BLAS path
    Z = _freq.normalize_samples(x[:, None] if single else np.ascontiguousarray(x))
    for layer in layers:
        Z = _update_batch(Z, layer)
    return Z[:, 0] if single else Z
