"""Construct, forward, the objective and the gradient reject NaN, inf and
complex input on every group rank, and input of the wrong shape."""

import numpy as np
import pytest

from redunet.classify import fit_subspaces, predict
from redunet.errors import NumericalError
from redunet.rate import Partition
from redunet.spectral import construct, forward, group_gradient, group_rate_components

from oracles import rng_for

SHAPES = {0: (5,), 1: (2, 6), 2: (2, 3, 4)}  # a sample's shape, by group rank
PARTITION = Partition(np.array([0, 1, 0, 1]))
BAD = [(np.nan, NumericalError), (np.inf, NumericalError),
       (-np.inf, NumericalError), ("complex", ValueError)]
# the objective and its gradient, on every rank
OBJECTIVE = {
    "group_rate_components": lambda X: group_rate_components(X, PARTITION, 0.5),
    "group_rate_components_dense": (
        lambda X: group_rate_components(X, PARTITION, 0.5, method="dense")),
    "group_gradient": lambda X: group_gradient(X, PARTITION, 0.5),
}


def stack(rank, m, seed=3):
    return rng_for(seed).standard_normal(SHAPES[rank] + (m,))


def spoil(X, bad):
    if bad == "complex":
        return X + 1e-3j
    X = X.copy()
    X.flat[1] = bad
    return X


@pytest.mark.parametrize("rank", SHAPES)
@pytest.mark.parametrize("bad, error", BAD)
@pytest.mark.parametrize("where", ["train", "carry"])
def test_construct_rejects_bad_input(rank, bad, error, where):
    X, carry = stack(rank, 4), stack(rank, 3, seed=4)
    if where == "train":
        X = spoil(X, bad)
    else:
        carry = spoil(carry, bad)
    with pytest.raises(error):
        construct(X, PARTITION, 2, 0.5, 0.1, carry=carry)


@pytest.mark.parametrize("rank", SHAPES)
@pytest.mark.parametrize("bad, error", BAD)
def test_forward_rejects_bad_input(rank, bad, error):
    model = construct(stack(rank, 4), PARTITION, 1, 0.5, 0.1)
    with pytest.raises(error):
        forward(model, spoil(stack(rank, 3, seed=4), bad))


@pytest.mark.parametrize("rank", SHAPES)
def test_forward_of_an_empty_stack_is_empty(rank):
    # a cyclic group's step has no sample block to share out then
    model = construct(stack(rank, 4), PARTITION, 2, 0.5, 0.1)
    out = forward(model, np.zeros(SHAPES[rank] + (0,)))
    assert out.shape == SHAPES[rank] + (0,) and out.dtype == np.float64


@pytest.mark.parametrize("rank", SHAPES)
def test_predict_of_an_empty_stack_is_empty(rank):
    fitted = fit_subspaces(stack(rank, 4), PARTITION)
    labels = predict(np.zeros(SHAPES[rank] + (0,)), fitted)
    assert labels.shape == (0,) and labels.dtype.kind == "i"


@pytest.mark.parametrize("rank", SHAPES)
@pytest.mark.parametrize("entry", OBJECTIVE)
@pytest.mark.parametrize("bad, error", BAD)
def test_objective_and_gradient_reject_bad_input(entry, rank, bad, error):
    with pytest.raises(error):
        OBJECTIVE[entry](spoil(stack(rank, 4), bad))


@pytest.mark.parametrize("entry", [*OBJECTIVE, "construct"])
def test_group_entry_points_refuse_an_array_without_a_sample_axis(entry):
    call = {**OBJECTIVE, "construct": lambda X: construct(X, PARTITION, 1, 0.5, 0.1)}[entry]
    with pytest.raises(ValueError, match=r"expected a \(C, \*G, m\) .*got shape \(4,\)"):
        call(np.ones(4))


def test_forward_of_a_vector_model_names_the_feature_count_it_expects():
    model = construct(stack(0, 4), PARTITION, 1, 0.5, 0.1)
    with pytest.raises(ValueError, match=r"expected input of shape \(5,\) or \(5, b\)"):
        forward(model, rng_for(4).standard_normal((6, 3)))


def test_forward_of_a_vector_model_takes_one_feature():
    model = construct(stack(0, 4), PARTITION, 1, 0.5, 0.1)
    x = stack(0, 3, seed=4)
    single = forward(model, x[:, 0])
    assert single.shape == (5,)
    assert np.max(np.abs(single - forward(model, x)[:, 0])) < 1e-12


@pytest.mark.parametrize("rank", SHAPES)
@pytest.mark.parametrize("bad, error", BAD)
@pytest.mark.parametrize("strided", [False, True])
def test_fit_subspaces_rejects_bad_features(rank, bad, error, strided):
    stride = (1,) * rank if strided else None
    with pytest.raises(error):
        fit_subspaces(spoil(stack(rank, 4), bad), PARTITION, stride=stride)


@pytest.mark.parametrize("rank", SHAPES)
@pytest.mark.parametrize("bad, error", BAD)
@pytest.mark.parametrize("single", [False, True])
def test_predict_rejects_bad_features(rank, bad, error, single):
    fitted = fit_subspaces(stack(rank, 4), PARTITION)
    z = spoil(stack(rank, 3, seed=4), bad)
    with pytest.raises(error):
        predict(z[..., 1] if single else z, fitted)


def test_predict_does_not_label_nan_features():
    # argmin of NaN residuals is 0, a class label given without a word
    fitted = fit_subspaces(np.eye(2), Partition(np.array([0, 1])))
    with pytest.raises(NumericalError):
        predict(np.full((4, 2), np.nan), fitted)
