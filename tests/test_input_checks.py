"""Every construct, forward, objective and gradient entry point rejects NaN,
inf and complex input, and forward rejects input of the wrong shape for its
model."""

import numpy as np
import pytest

from redunet.errors import NumericalError
from redunet.rate import Partition, class_rate, coding_rate, rate_components, rate_reduction
from redunet.spectral import (construct_shift1d, construct_translation2d, forward,
                              forward_shift1d, forward_translation2d, group_gradient,
                              group_rate_components, shift_rate_components, spectral_gradient,
                              spectral_gradient_2d, translation_rate_components)
from redunet.vector import construct_vector_net, forward_vector, rate_gradient

from oracles import rng_for

SHAPES = {"vector": (5,), "shift1d": (2, 6), "translation2d": (2, 3, 4)}
CONSTRUCT = {"vector": construct_vector_net, "shift1d": construct_shift1d,
             "translation2d": construct_translation2d}
FORWARD = {"vector": forward_vector, "shift1d": forward_shift1d,
           "translation2d": forward_translation2d}
PARTITION = Partition(np.array([0, 1, 0, 1]))
BAD = [(np.nan, NumericalError), (np.inf, NumericalError),
       (-np.inf, NumericalError), ("complex", ValueError)]
# the objective and its gradient, each with the kind of stack it takes
OBJECTIVE = {
    "coding_rate": ("vector", lambda X: coding_rate(X, 0.5)),
    "class_rate": ("vector", lambda X: class_rate(X, PARTITION, 0.5)),
    "rate_reduction": ("vector", lambda X: rate_reduction(X, PARTITION, 0.5)),
    "rate_components": ("vector", lambda X: rate_components(X, PARTITION, 0.5)),
    "rate_gradient": ("vector", lambda X: rate_gradient(X, PARTITION, 0.5)),
    "group_rate_components": ("translation2d",
                              lambda X: group_rate_components(X, PARTITION, 0.5)),
    "group_rate_components_dense": (
        "translation2d", lambda X: group_rate_components(X, PARTITION, 0.5, method="dense")),
    "group_gradient": ("translation2d", lambda X: group_gradient(X, PARTITION, 0.5)),
    "shift_rate_components": ("shift1d", lambda X: shift_rate_components(X, PARTITION, 0.5)),
    "shift_rate_components_dense": (
        "shift1d", lambda X: shift_rate_components(X, PARTITION, 0.5, method="dense")),
    "translation_rate_components": (
        "translation2d", lambda X: translation_rate_components(X, PARTITION, 0.5)),
    "spectral_gradient": ("shift1d", lambda X: spectral_gradient(X, PARTITION, 0.5)),
    "spectral_gradient_2d": ("translation2d",
                             lambda X: spectral_gradient_2d(X, PARTITION, 0.5)),
}


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


@pytest.mark.parametrize("kind", SHAPES)
def test_forward_of_an_empty_stack_is_empty(kind):
    # a cyclic group's step has no sample block to share out then
    model = CONSTRUCT[kind](stack(kind, 4), PARTITION, 2, 0.5, 0.1)
    for forward_of in (FORWARD[kind], forward):
        out = forward_of(model, np.zeros(SHAPES[kind] + (0,)))
        assert out.shape == SHAPES[kind] + (0,) and out.dtype == np.float64


@pytest.mark.parametrize("entry", OBJECTIVE)
@pytest.mark.parametrize("bad, error", BAD)
def test_objective_and_gradient_reject_bad_input(entry, bad, error):
    kind, call = OBJECTIVE[entry]
    with pytest.raises(error):
        call(spoil(stack(kind, 4), bad))


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
