import tracemalloc

import numpy as np
import pytest

from redunet.classify import SubspaceModel, evaluate, fit_subspaces, predict
from redunet.errors import EmptyClass, LengthMismatch, NumericalError
from redunet.rate import Partition
from redunet.spectral import construct, forward

from oracles import labels_for, rng_for, svd_subspaces


# --------------------------------------------------------------- fitting

def test_repeated_unit_vector_gives_rank_one_basis():
    u = np.array([0.6, 0.8, 0.0])
    Z = np.stack([u, u, u, -u], axis=1)
    model = fit_subspaces(Z, Partition(np.array([0, 0, 0, 0])), energy=0.95)
    assert model.ranks == (1,)
    assert abs(abs(model.bases[0][:, 0] @ u) - 1.0) < 1e-12


def test_full_energy_keeps_full_rank():
    rng = rng_for(0)
    A = rng.standard_normal((5, 2))
    Z = A @ rng.standard_normal((2, 6))  # rank 2
    model = fit_subspaces(Z, Partition(np.zeros(6, dtype=int)), energy=1.0)
    assert model.ranks == (2,)


def test_rank_matches_svd_energy_oracle():
    rng = rng_for(1)
    Z = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 20))  # rank 3
    energy = 0.9
    model = fit_subspaces(Z, Partition(np.zeros(20, dtype=int)), energy=energy)
    s = np.linalg.svd(Z, compute_uv=False)
    power = np.cumsum(s**2) / np.sum(s**2)
    expected = int(np.argmax(power >= energy)) + 1
    assert model.ranks == (expected,)


def test_bases_are_orthonormal():
    rng = rng_for(2)
    Z = rng.standard_normal((6, 30))
    labels = labels_for(30, 3, rng)
    model = fit_subspaces(Z, Partition(labels), energy=0.95)
    for U in model.bases:
        assert np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) < 1e-10


def test_fit_flattens_multichannel_features():
    rng = rng_for(3)
    Z = rng.standard_normal((2, 5, 12))
    labels = labels_for(12, 2, rng)
    a = fit_subspaces(Z, Partition(labels))
    b = fit_subspaces(Z.reshape(10, 12), Partition(labels))
    for Ua, Ub in zip(a.bases, b.bases):
        assert np.array_equal(Ua, Ub)


def test_fit_validates_energy_and_sample_count():
    Z = np.eye(3)
    with pytest.raises(ValueError):
        fit_subspaces(Z, Partition(np.zeros(3, dtype=int)), energy=0.0)
    with pytest.raises(ValueError):
        fit_subspaces(Z, Partition(np.zeros(4, dtype=int)))


def test_model_rejects_skewed_basis():
    with pytest.raises(ValueError):
        SubspaceModel(bases=(np.array([[1.0], [1.0]]),))


def _low_rank(rng, n, m, rank):
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))


def _oracle_cases():
    rng = rng_for(8)
    two = np.repeat([0, 1], 12)
    yield "wide", rng.standard_normal((6, 24)), two, 0.95
    yield "tall", rng.standard_normal((40, 24)), two, 0.95
    yield "square", rng.standard_normal((12, 24)), two, 0.9
    # each class spans its own 3-d subspace, so predictions are no tie
    rank3 = np.hstack([_low_rank(rng, 30, 12, 3), _low_rank(rng, 30, 12, 3)])
    yield "rank_deficient_full_energy", rank3, two, 1.0
    yield "one_column_class", rng.standard_normal((9, 7)), np.array([0] * 6 + [1]), 0.95
    yield "three_classes", rng.standard_normal((10, 45)), labels_for(45, 3, rng), 0.8
    yield "multichannel", rng.standard_normal((3, 8, 30)), labels_for(30, 2, rng), 0.95


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_fit_matches_svd_oracle(case):
    _, Z, labels, energy = case
    P = Partition(labels)
    model = fit_subspaces(Z, P, energy=energy)
    oracle = svd_subspaces(Z, P, energy=energy)
    assert model.ranks == oracle.ranks
    for U, W in zip(model.bases, oracle.bases):
        assert np.max(np.abs(U @ U.T - W @ W.T)) < 1e-10
    Q = rng_for(9).standard_normal(Z.shape[:-1] + (50,))
    assert np.array_equal(predict(Q, model), predict(Q, oracle))
    assert np.array_equal(predict(Z, model), predict(Z, oracle))


def test_rank_deficient_block_keeps_true_rank_at_full_energy():
    # wide and tall blocks of rank 3: Gram rounding noise must not count
    rng = rng_for(10)
    for n, m in ((8, 40), (40, 8)):
        model = fit_subspaces(_low_rank(rng, n, m, 3), Partition(np.zeros(m, dtype=int)),
                              energy=1.0)
        assert model.ranks == (3,)


def test_tall_block_with_wide_spectrum_stays_orthonormal():
    # singular values over six decades: every direction is kept at full
    # energy, and the basis must still pass the model's orthonormality check
    rng = rng_for(11)
    A = np.linalg.qr(rng.standard_normal((50, 10)))[0]
    B = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    Z = (A * np.logspace(0, -6, 10)) @ B
    model = fit_subspaces(Z, Partition(np.zeros(10, dtype=int)), energy=1.0)
    assert model.ranks == (10,)
    U = model.bases[0]
    assert np.max(np.abs(U @ U.T - A @ A.T)) < 1e-8


def test_fit_rejects_non_finite_features():
    Z = rng_for(12).standard_normal((4, 6))
    for bad in (np.nan, np.inf):
        Z[1, 2] = bad
        with pytest.raises(NumericalError):
            fit_subspaces(Z, Partition(np.zeros(6, dtype=int)))


# ---------------------------------------------------- strided (orbit) fit

def _stack(seed, shape, m):
    rng = rng_for(seed)
    return rng, rng.standard_normal(shape + (m,)), Partition(labels_for(m, 2, rng))


@pytest.mark.parametrize("shape, stride", [((3, 12), (12,)), ((2, 12), (15,)),
                                           ((2, 6, 8), (6, 9))])
def test_trivial_subgroup_is_the_plain_fit_bit_for_bit(shape, stride):
    # a stride at least as long as its axis rolls by the identity alone
    _, Z, P = _stack(13, shape, 15)
    a = fit_subspaces(Z, P, 0.9, stride=stride)
    b = fit_subspaces(Z, P, 0.9)
    for U, W in zip(a.bases, b.bases):
        assert np.array_equal(U, W)


@pytest.mark.parametrize("shape, stride", [((3, 12), (3,)), ((2, 12), (1,)),
                                           ((2, 6, 8), (2, 2)), ((2, 6, 8), (3, 4))])
def test_strided_fit_predicts_the_same_on_every_subgroup_roll(shape, stride):
    rng, Z, P = _stack(14, shape, 16)
    model = fit_subspaces(Z, P, 0.9, stride=stride)
    Q = rng.standard_normal(shape + (40,))
    base = predict(Q, model)
    axes = tuple(range(1, len(shape)))
    grids = [range(0, g, s) for g, s in zip(shape[1:], stride)]
    for shift in np.array(np.meshgrid(*grids, indexing="ij")).reshape(len(axes), -1).T:
        assert np.array_equal(predict(np.roll(Q, tuple(shift), axis=axes), model), base)


def test_strided_fit_rejects_non_finite_features():
    _, Z, P = _stack(15, (2, 12), 8)
    for bad in (np.nan, np.inf):
        Z[1, 3, 2] = bad
        with pytest.raises(NumericalError):
            fit_subspaces(Z, P, stride=(4,))


def test_strided_fit_rejects_an_all_zero_class():
    _, Z, P = _stack(16, (2, 6, 4), 8)
    Z[..., P.mask(1)] = 0.0
    with pytest.raises(EmptyClass, match="class 1"):
        fit_subspaces(Z, P, stride=(2, 2))


@pytest.mark.parametrize("stride", [(5,), (0,), (4, 4)])
def test_strided_fit_rejects_a_stride_that_is_no_subgroup(stride):
    _, Z, P = _stack(17, (2, 12), 8)  # 5 neither divides nor covers 12
    with pytest.raises(ValueError):
        fit_subspaces(Z, P, stride=stride)


# ------------------------------------------------------------- prediction

def two_axis_model():
    e0 = np.array([[1.0], [0.0], [0.0]])
    e1 = np.array([[0.0], [1.0], [0.0]])
    return SubspaceModel(bases=(e0, e1))


def test_basis_vector_predicts_its_class():
    model = two_axis_model()
    assert predict(np.array([0.0, 1.0, 0.0]), model) == 1


def test_orthogonal_vector_breaks_tie_to_class_zero():
    model = two_axis_model()
    assert predict(np.array([0.0, 0.0, 1.0]), model) == 0


def test_thirty_degree_vector_goes_to_nearer_axis():
    model = two_axis_model()
    theta = np.pi / 6
    z = np.array([np.cos(theta), np.sin(theta), 0.0])
    # residual to class 0 is sin(30) = 0.5 < cos(30)
    assert predict(z, model) == 0
    z_far = np.array([np.sin(theta), np.cos(theta), 0.0])
    assert predict(z_far, model) == 1


def test_predict_invariant_to_positive_scaling():
    rng = rng_for(4)
    Z = rng.standard_normal((6, 40))
    labels = labels_for(40, 3, rng)
    model = fit_subspaces(Z, Partition(labels))
    q = rng.standard_normal(6)
    assert predict(q, model) == predict(3.7 * q, model)


def test_batch_predict_matches_single():
    rng = rng_for(5)
    Z = rng.standard_normal((6, 30))
    labels = labels_for(30, 2, rng)
    model = fit_subspaces(Z, Partition(labels))
    Q = rng.standard_normal((6, 9))
    batch = predict(Q, model)
    assert batch.shape == (9,)
    for i in range(9):
        assert batch[i] == predict(Q[:, i], model)


def test_training_features_classified_correctly_when_separated():
    rng = rng_for(6)
    m = 20
    Z = np.zeros((8, 2 * m))
    Z[:2, :m] = rng.standard_normal((2, m))
    Z[4:6, m:] = rng.standard_normal((2, m))
    labels = np.repeat([0, 1], m)
    model = fit_subspaces(Z, Partition(labels), energy=0.95)
    assert evaluate(predict(Z, model), labels) == 1.0


# ------------------------------------------------------------- evaluation

def test_evaluate_counts_matches():
    assert evaluate(np.array([1, 0, 2]), np.array([1, 0, 2])) == 1.0
    assert evaluate(np.array([1, 1, 1]), np.array([0, 0, 0])) == 0.0
    assert evaluate(np.array([1, 0, 2, 2]), np.array([1, 0, 2, 0])) == 0.75


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate(np.array([1, 2]), np.array([1, 2, 3]))
    with pytest.raises(LengthMismatch):
        evaluate(np.array([]), np.array([]))


# ---------------------------------------------- shift-invariant pipeline

def test_shift_augmented_fit_gives_shift_invariant_predictions():
    # classes with disjoint spectral support keep every sample far from
    # the decision boundary, so the promised <= 1 flip per 1000 shows up
    # as zero flips here
    rng = rng_for(7)
    C, T, m = 2, 8, 16
    t = np.arange(T)
    Zbar = np.empty((C, T, m))
    labels = np.repeat([0, 1], m // 2)
    for i in range(m):
        for c in range(C):
            amp, phase = rng.uniform(0.5, 1.5), rng.uniform(0, 2 * np.pi)
            if labels[i] == 0:
                Zbar[c, :, i] = amp * np.cos(2 * np.pi * t / T + phase) + rng.uniform(-1, 1)
            else:
                Zbar[c, :, i] = amp * np.cos(6 * np.pi * t / T + phase)
    net = construct(Zbar, Partition(labels), L=5, eta=0.3, eps=0.5)
    # fit to the orbit of the training features under every cyclic shift;
    # equivariance makes this identical to forwarding shifted raw inputs
    model = fit_subspaces(net.features, Partition(labels), stride=(1,))
    base = predict(forward(net, Zbar), model)
    assert np.array_equal(base, labels)
    for s in range(T):
        shifted = forward(net, np.roll(Zbar, s, axis=1))
        assert np.array_equal(predict(shifted, model), base)


def test_strided_fit_holds_one_copy_of_a_class():
    # translation2d's shape: 5 channels of 28 x 28, two classes of 200
    # samples, fitted at stride 14 (an orbit of 4 rolls). A fit holds at
    # most the features' own size and one dense class Gram of the orbit
    # above its entry: a class is copied once, into cosets-first order,
    # and its transform replaces that copy
    rng = rng_for(39)
    C, H, W, per = 5, 28, 28, 200
    labels = np.repeat([0, 1], per)
    Z = np.empty((C, H, W, 2 * per))
    for j in range(2):  # a few directions per class, as constructed features have
        basis = rng.standard_normal((C * H * W, 12))
        Z[..., labels == j] = (basis @ rng.standard_normal((12, per))
                               + 0.05 * rng.standard_normal((C * H * W, per))).reshape(
                                   C, H, W, per)
    gram_bytes = (4 * per) ** 2 * 8
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fit_subspaces(Z, Partition(labels), 0.95, stride=(14, 14))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < Z.nbytes + gram_bytes
