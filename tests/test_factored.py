"""Layers whose operators stay factored on their sample-side Gram.

A layer of fewer samples than C holds every operator as its features and
an m_op x m_op inverse (`_freq.Factored`); these tests check that the layer
step applies them as their dense stacks would, that the stacks they stand
for (`_freq.dense`) have the exact bytes of `_freq.regularized_inverse`, as
do the stacks of a dense layer with a class of fewer than C samples, and
that a factored step costs a bounded number of blocks; and that the
sample-side kernels (`_freq._built_step`, `_freq._factored_step`) and their
norm fallback agree with the dense oracle.
"""

import tracemalloc

import numpy as np
import pytest

from redunet import _freq
from redunet.errors import ZeroVector
from redunet.rate import Partition
from redunet.spectral import _spectra

from oracles import dense_layer, unblocked_update_batch

# (G, C, class counts): factored layers (real, then complex), and dense
# layers of at least C samples whose class 0 of 2 samples is factored on its
# 2 x 2 side and multiplied out
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
    dense = dense_layer(layer)
    V = _spectra(_freq.normalize_samples(rng.standard_normal((C, *G, 7))))
    for pi in (None, np.full((P.k, V.shape[-1]), 1.0 / P.k)):
        assert relative(_freq.update_batch(V, layer, pi),
                        _freq.update_batch(V, dense, pi)) <= 1e-12


@pytest.mark.parametrize("sort", [False, True])
@pytest.mark.parametrize("G, C, counts", CASES)
def test_dense_stack_of_a_factored_operator_is_regularized_inverse(G, C, counts, sort):
    layer, Vt, P, _ = factored_case(42, G, C, counts, sort)
    scale = float(np.prod(G))
    forms = [isinstance(op, _freq.Factored) for op in _freq.operators(layer)]
    assert forms == [P.m < C] * (P.k + 1)  # one form, a class of 2 < C samples or not
    want = _freq.regularized_inverse(Vt, layer.alpha, scale)[0]
    assert np.array_equal(_freq.dense(layer.Ebar), want)
    for j, op in enumerate(layer.Cbar):
        want = _freq.regularized_inverse(Vt[:, :, P.mask(j)], layer.alpha_class[j], scale)[0]
        assert np.array_equal(_freq.dense(op), want)
        assert np.array_equal(_freq.dense(layer.Cbar)[j], want)


@pytest.mark.parametrize("G, C, counts", CASES)
def test_operator_bytes_are_the_bytes_the_layer_holds(G, C, counts):
    layer, Vt, P, _ = factored_case(43, G, C, counts)
    ops = _freq.operators(layer)
    if layer.features is None:  # a dense layer: its stacks
        held = sum(op.nbytes for op in ops)
    else:  # the features once, every K and every class Gram: less than the stacks
        held = layer.features.nbytes + sum(
            op.K.nbytes + (0 if op.gram is None else op.gram.nbytes) for op in ops)
        assert all((op.gram is not None) == (j > 0) for j, op in enumerate(ops))
        assert held < (P.k + 1) * _freq.dense(layer.Ebar).nbytes
    assert layer.Ebar.nbytes + layer.Cbar.nbytes == held
    assert layer.Cbar.shape[0] == P.k


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
    norms = []  # the stacks whose squared norms the one block takes
    squared_norms = _freq._squared_norms
    monkeypatch.setattr(_freq, "_squared_norms",
                        lambda V, *args, **kw: norms.append(V) or squared_norms(V, *args, **kw))
    got = _freq.update_batch(v, layer)
    # besides the block's own norms and its output's, some class's C_j v
    assert len(norms) > 2
    assert np.max(np.abs(got - unblocked_update_batch(v, dense_layer(layer)))) < 1e-12


def test_zero_sample_raises_from_every_kernel():
    # a zero sample steps to zero under every kernel; the built step meets
    # it in the features themselves, which its factors then map to zero
    dense, _, P, rng = factored_case(47, (3,), 2, (3, 4), sort=True)
    tall, _, _, _ = factored_case(47, (), 5, (2, 6), sort=True)
    wide, _, _, _ = factored_case(47, (), 9, (2, 4), sort=True)
    for layer in (dense, tall, wide):
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


def test_stray_asarray_of_a_factored_operator_raises_naming_dense():
    # a factored operator has no array of its own: its stacks come only
    # from `_freq.dense`, never from a silent conversion or an object array
    layer, _, _, _ = factored_case(50, (5,), 6, (2, 3))
    for op in (layer.Ebar, layer.Cbar, *layer.Cbar):
        with pytest.raises(TypeError, match="_freq.dense"):
            np.asarray(op)
        with pytest.raises(TypeError):
            op[0]
    assert _freq.dense(layer.Cbar).shape == (2, 3, 6, 6)


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
