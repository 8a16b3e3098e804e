"""Layer-by-layer constructed network on vector features.

Each layer holds two kinds of linear operators derived from the training
features Z at construction time:

    E   = alpha   (I + alpha   Z Z*)^-1        (expands the whole set)
    C_j = alpha_j (I + alpha_j Z Pi_j Z*)^-1   (compresses class j)

A layer moves a feature z along the rate-reduction ascent direction,
steering the compression term by a softmax membership estimate, and
projects back onto the unit sphere:

    z  <-  normalize( z + eta E z - eta sum_j gamma_j pihat_j(z) C_j z ).

Training-label updates (pihat replaced by the true one-hot membership)
reproduce the per-sample slices of the exact objective gradient.

This is the invariant construction over the trivial group, so the
network is built and applied by the spectral engine itself
(`spectral.construct`, `spectral.forward`): an (n, m) feature matrix
is a rank-0 stack, whose one frequency carries the whole real operators.
The model is a `SpectralReduNet` with C = n and
``freq_shape = ()``, its layers real `SpectralLayer` stacks Ebar = E[None]
(1, n, n) and Cbar = C[:, None] (k, 1, n, n). Both kinds are factored on
the smaller Gram side (`_freq.regularized_inverse`): with fewer columns
than dimensions (say 400 samples of 784-d digits, or one class of them)
that is the m x m matrix I + alpha Z* Z, by the push-through identity.
The layer picks one form for all of its operators, by m < n. With fewer
samples than dimensions every operator is kept factored, never as an
n x n matrix (`_freq.Factored`; `_freq.dense` multiplies one out): the
layer holds Z once, in class order, and each operator's m x m inverse,
it steps samples on the sample side (E Z = alpha Z K, so the labelled
step of Z is one product Z T), and its archive stores the same factors
(a 784-d layer of 400 samples in two classes stores 4.4 MB and, with the
class Grams its step reads, holds 5.1 MB, not the 14.7 MB of its three
784 x 784 matrices). Otherwise every operator is the dense n x n matrix,
a class of fewer than n samples multiplied out from its m_j x m_j side.

The dense `expansion_operator` and `compression_operators` build the same
operators one feature matrix at a time; the tests and the selftest keep
them as references. The gradient is the rank-0 `spectral.group_gradient`,
``expand - compress.sum(axis=0)`` of its two terms.
"""

import numpy as np

from . import _freq
from .rate import Partition, RateParams, as_matrix


def expansion_operator(Z, eps: float) -> np.ndarray:
    """E = alpha (I + alpha Z Z*)^-1 for the full feature set."""
    Z = as_matrix(Z)
    n, m = Z.shape
    return _freq.regularized_inverse(Z, RateParams(eps).alpha(n, m))[0]


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
        C[j] = _freq.regularized_inverse(Zj, params.alpha_class(n, int(partition.counts[j])))[0]
    return C
