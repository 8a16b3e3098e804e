"""Layers whose operators stay factored on their sample-side Gram.

An operator built from fewer columns than C is held as the layer's
features and an m_op x m_op inverse (`_freq.Factored`); these tests check
that the layer step applies it as its dense stack would, that the stack it
stands for has the exact bytes of `_freq.regularized_inverse`, and that it
costs the step a bounded number of blocks.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from redunet import _freq
from redunet.rate import Partition
from redunet.spectral import _spectra

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


def dense_copy(layer):
    """The same layer with every operator as its dense stack."""
    return dataclasses.replace(layer, Ebar=np.asarray(layer.Ebar),
                               Cbar=np.asarray(layer.Cbar), features=None, labels=None)


def relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("G, C, counts", CASES)
def test_factored_apply_equals_dense_apply(G, C, counts):
    layer, _, P, rng = factored_case(41, G, C, counts)
    assert isinstance(layer.Cbar, _freq.OperatorStack)
    dense = dense_copy(layer)
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
    held = layer.features.nbytes + sum(op.K.nbytes if isinstance(op, _freq.Factored)
                                       else op.nbytes for op in ops)
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
