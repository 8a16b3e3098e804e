"""Layers whose operators stay factored on their sample-side Gram.

An operator built from fewer columns than C is held as the layer's
features and an m_op x m_op inverse (`_freq.Factored`); these tests check
that the layer step applies it as its dense stack would, that the stack it
stands for has the exact bytes of `_freq.regularized_inverse`, and that it
costs the step a bounded number of blocks; and that the sample-side
kernels of all-factored layers (`_freq._built_step`, `_freq._factored_step`)
and their norm fallback agree with the dense oracle.
"""

import tracemalloc

import numpy as np
import pytest

from redunet import _freq
from redunet.errors import ZeroVector
from redunet.rate import Partition
from redunet.spectral import _spectra

from oracles import dense_layer, unblocked_update_batch

# (G, C, class counts): every operator factored (real, then complex), and
# layers that mix both forms: E and class 1 on their C x C side, class 0
# on its 2 x 2 side
CASES = [((), 9, (2, 4)), ((5,), 6, (2, 3)), ((), 5, (2, 6)), ((3, 4), 4, (2, 6))]


def factored_case(seed, G, C, counts, sort=False):
    """A layer built from a (C, *G) stack whose classes hold ``counts``
    samples, shuffled unless ``sort``, and the half spectra it was built from."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(counts)), counts)
    if not sort:
        labels = rng.permutation(labels)
    P = Partition(labels)
    Vt = _spectra(_freq.normalize_samples(rng.standard_normal((C, *G, P.m))))
    return _freq.build_layer(Vt, P, 0.5, eta=0.3, lam=10.0, freq_shape=G), Vt, P, rng


def relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("G, C, counts", CASES)
def test_factored_apply_equals_dense_apply(G, C, counts):
    layer, _, P, rng = factored_case(41, G, C, counts)
    assert isinstance(layer.Cbar, _freq.OperatorStack)
    dense = dense_layer(layer)
    V = _spectra(_freq.normalize_samples(rng.standard_normal((C, *G, 7))))
    shape = (P.k + 1, *V.shape)
    got = _freq.compressions(V, layer, np.empty(shape, dtype=V.dtype))
    want = _freq.compressions(V, dense, np.empty(shape, dtype=V.dtype))
    assert relative(got, want) <= 1e-12
    for pi in (None, np.full((P.k, V.shape[-1]), 1.0 / P.k)):
        assert relative(_freq.update_batch(V, layer, pi),
                        _freq.update_batch(V, dense, pi)) <= 1e-12


@pytest.mark.parametrize("sort", [False, True])
@pytest.mark.parametrize("G, C, counts", CASES)
def test_dense_stack_of_a_factored_operator_is_regularized_inverse(G, C, counts, sort):
    layer, Vt, P, _ = factored_case(42, G, C, counts, sort)
    scale = float(np.prod(G))
    forms = [isinstance(op, _freq.Factored) for op in _freq.operators(layer)]
    assert forms == [P.m < C, *(c < C for c in counts)]
    want = _freq.regularized_inverse(Vt, layer.alpha, scale)[0]
    assert np.array_equal(np.asarray(layer.Ebar), want)
    for j, op in enumerate(layer.Cbar):
        want = _freq.regularized_inverse(Vt[:, :, P.mask(j)], layer.alpha_class[j], scale)[0]
        assert np.array_equal(np.asarray(op), want)
        assert np.array_equal(layer.Cbar[j], want)


@pytest.mark.parametrize("G, C, counts", CASES)
def test_operator_bytes_are_the_bytes_the_layer_holds(G, C, counts):
    layer, Vt, P, _ = factored_case(43, G, C, counts)
    ops = _freq.operators(layer)
    # the features once, every factored operator's K, a factored class
    # operator's Gram, and every dense stack
    held = layer.features.nbytes + sum(
        op.K.nbytes + (0 if op.gram is None else op.gram.nbytes)
        if isinstance(op, _freq.Factored) else op.nbytes for op in ops)
    assert all((op.gram is not None) == (j > 0) for j, op in enumerate(ops)
               if isinstance(op, _freq.Factored))
    assert layer.Ebar.nbytes + layer.Cbar.nbytes == held
    assert layer.Cbar.shape[0] == P.k
    if all(isinstance(op, _freq.Factored) for op in ops):  # less than the dense stacks
        assert held < (P.k + 1) * np.asarray(layer.Ebar).nbytes


def test_factored_step_holds_a_few_blocks_whatever_m_is(monkeypatch):
    # one step holds its output and a bounded number of blocks: the (k+1)
    # block product buffer, up to three blocks of squares and norms, and
    # V* v with one operator's K V* v, each of m < C rows, so under a block
    C, k, b = 64, 2, 32
    layer, _, _, rng = factored_case(44, (), C, (20, 20))
    assert isinstance(layer.Ebar, _freq.Factored)
    monkeypatch.setattr(_freq, "_TRIVIAL_BLOCK_VALUES", b * C)
    block_bytes = 8 * b * C
    for blocks in (8, 32):
        V = _freq.normalize_samples(rng.standard_normal((C, blocks * b)))[None]
        for pi in (None, np.full((k, V.shape[-1]), 1.0 / k)):
            tracemalloc.start()
            try:
                out = _freq.update_batch(V, layer, pi)
                peak = tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()
            assert peak <= (k + 6) * block_bytes


def digit_like_layer(seed, n=784, per_class=200, eps=0.1):
    """A vector784-shaped layer: two classes of ``per_class`` non-negative
    n-d samples around their own class pattern, built in class order as
    `construct` holds them, and those features."""
    rng = np.random.default_rng(seed)
    patterns = rng.random((n, 2)) ** 4
    X = np.repeat(patterns, per_class, axis=1) + 0.3 * rng.random((n, 2 * per_class)) ** 4
    P = Partition(np.repeat([0, 1], per_class))
    Vt = _freq.normalize_samples(X)[None]
    return _freq.build_layer(Vt, P, eps, eta=0.5, lam=20.0, freq_shape=()), Vt, P, rng


def test_sample_side_kernels_of_a_vector784_shaped_layer_equal_the_dense_oracle():
    layer, Vt, P, rng = digit_like_layer(45)
    assert all(isinstance(op, _freq.Factored) for op in _freq.operators(layer))
    dense = dense_layer(layer)
    # the labelled step of its own features, and an estimated step of 500 others
    assert relative(_freq.update_batch(Vt, layer, P.onehot()),
                    unblocked_update_batch(Vt, dense, P.onehot())) <= 1e-10
    carry = _freq.normalize_samples(Vt[0][:, rng.integers(0, P.m, 500)]
                                    + 0.1 * rng.random((Vt.shape[1], 500)))[None]
    assert relative(_freq.update_batch(carry, layer),
                    unblocked_update_batch(carry, dense)) <= 1e-10


def test_class_norm_past_the_cancellation_bound_is_taken_directly(monkeypatch):
    # two classes of nearly the same samples, and samples near their span:
    # both class norms cancel, and neither class wins the membership outright
    rng = np.random.default_rng(46)
    A = rng.standard_normal((64, 16))
    X = np.hstack([A, A + 0.05 * rng.standard_normal((64, 16))])
    P = Partition(np.repeat([0, 1], 16))
    layer = _freq.build_layer(_freq.normalize_samples(X)[None], P, 0.1, eta=0.5, lam=20.0,
                              freq_shape=())
    v = _freq.normalize_samples(X @ rng.standard_normal((32, 8)) / 10
                                + 0.1 * rng.standard_normal((64, 8)))[None]
    direct = []
    apply = _freq.Factored.apply
    monkeypatch.setattr(_freq.Factored, "apply",
                        lambda op, *args: direct.append(op) or apply(op, *args))
    got = _freq.update_batch(v, layer)
    assert direct  # some class of the block took its norms from C_j v
    assert np.max(np.abs(got - unblocked_update_batch(v, dense_layer(layer)))) < 1e-12


def test_zero_sample_raises_from_every_kernel():
    # a zero sample steps to zero under every kernel; the built step meets
    # it in the features themselves, which its factors then map to zero
    dense, _, P, rng = factored_case(47, (3,), 2, (3, 4), sort=True)
    mixed, _, _, _ = factored_case(47, (), 5, (2, 6), sort=True)
    wide, _, _, _ = factored_case(47, (), 9, (2, 4), sort=True)
    for layer in (dense, mixed, wide):
        F_h, C = layer.Ebar.shape[:2]
        V = _spectra(_freq.normalize_samples(rng.standard_normal((C, *layer.freq_shape, 5))))
        V[..., 3] = 0.0
        k = layer.Cbar.shape[0]
        for pi in (None, np.full((k, 5), 1.0 / k), np.eye(k)[:, [0, 0, 1, 1, 1]]):
            with pytest.raises(ZeroVector):
                _freq.update_batch(V, layer, pi)
    rng = np.random.default_rng(48)
    X = rng.standard_normal((9, 6))
    X[:, 4] = 0.0
    P = Partition([0, 0, 1, 1, 1, 1])
    Vt = X[None]
    layer = _freq.build_layer(Vt, P, 0.5, eta=0.3, lam=10.0, freq_shape=())
    assert layer.features is Vt
    with pytest.raises(ZeroVector):
        _freq.update_batch(Vt, layer, P.onehot())


@pytest.mark.parametrize("G, C, counts", [((), 9, (2, 4)), ((5,), 6, (2, 3))])
def test_step_into_the_features_its_kernel_reads_is_refused(G, C, counts):
    # the built step reads every column of the layer's features for every
    # block, so it keeps a fresh output: an ``out`` that shares their memory
    # raises and leaves them as they were
    layer, Vt, P, _ = factored_case(49, G, C, counts, sort=True)
    assert layer.features is Vt
    kept = Vt.copy()
    fresh = _freq.update_batch(Vt, layer, P.onehot())
    for out in (Vt, Vt[..., ::-1], np.asarray(Vt)):
        with pytest.raises(ValueError, match="features"):
            _freq.update_batch(Vt, layer, P.onehot(), out=out)
    assert np.array_equal(Vt, kept)
    assert np.array_equal(_freq.update_batch(Vt, layer, P.onehot(), out=np.empty_like(Vt)),
                          fresh)
