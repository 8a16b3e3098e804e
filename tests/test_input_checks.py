"""Every construct and forward entry point rejects NaN, inf and complex input,
and forward rejects input of the wrong shape for its model."""

import numpy as np
import pytest

from redunet.errors import NumericalError
from redunet.rate import Partition
from redunet.spectral import (construct_shift1d, construct_translation2d, forward,
                              forward_shift1d, forward_translation2d)
from redunet.vector import construct_vector_net, forward_vector

from oracles import rng_for

SHAPES = {"vector": (5,), "shift1d": (2, 6), "translation2d": (2, 3, 4)}
CONSTRUCT = {"vector": construct_vector_net, "shift1d": construct_shift1d,
             "translation2d": construct_translation2d}
FORWARD = {"vector": forward_vector, "shift1d": forward_shift1d,
           "translation2d": forward_translation2d}
PARTITION = Partition(np.array([0, 1, 0, 1]))
BAD = [(np.nan, NumericalError), (np.inf, NumericalError),
       (-np.inf, NumericalError), ("complex", ValueError)]


def stack(kind, m, seed=3):
    return rng_for(seed).standard_normal(SHAPES[kind] + (m,))


def spoil(X, bad):
    if bad == "complex":
        return X + 1e-3j
    X = X.copy()
    X.flat[1] = bad
    return X


@pytest.mark.parametrize("kind", SHAPES)
@pytest.mark.parametrize("bad, error", BAD)
@pytest.mark.parametrize("where", ["train", "carry"])
def test_construct_rejects_bad_input(kind, bad, error, where):
    X, carry = stack(kind, 4), stack(kind, 3, seed=4)
    if where == "train":
        X = spoil(X, bad)
    else:
        carry = spoil(carry, bad)
    with pytest.raises(error):
        CONSTRUCT[kind](X, PARTITION, 2, 0.5, 0.1, carry=carry)


@pytest.mark.parametrize("kind", SHAPES)
@pytest.mark.parametrize("bad, error", BAD)
def test_forward_rejects_bad_input(kind, bad, error):
    model = CONSTRUCT[kind](stack(kind, 4), PARTITION, 1, 0.5, 0.1)
    with pytest.raises(error):
        FORWARD[kind](model, spoil(stack(kind, 3, seed=4), bad))


def test_forward_vector_names_the_feature_count_it_expects():
    model = construct_vector_net(stack("vector", 4), PARTITION, 1, 0.5, 0.1)
    with pytest.raises(ValueError, match=r"expected input of shape \(5,\) or \(5, b\)"):
        forward_vector(model, rng_for(4).standard_normal((6, 3)))


def test_spectral_forward_takes_a_vector_model():
    model = construct_vector_net(stack("vector", 4), PARTITION, 1, 0.5, 0.1)
    x = stack("vector", 3, seed=4)
    assert np.array_equal(forward(model, x), forward_vector(model, x))
    single = forward(model, x[:, 0])
    assert single.shape == (5,)
    assert np.max(np.abs(single - forward_vector(model, x)[:, 0])) < 1e-12
