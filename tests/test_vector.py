import numpy as np
import pytest

from redunet.classify import fit_subspaces, predict
from redunet.errors import ZeroVector
from redunet import _freq
from redunet.rate import Partition, RateParams, rate_components, rate_reduction
from redunet.spectral import construct, forward, group_gradient, group_rate_components
from redunet._freq import membership, normalize_samples, update_batch
from redunet.vector import compression_operators, expansion_operator

from oracles import dense_rate_gradient, labels_for, rng_for, vector_loop_construct


def step(Z, layer, pi=None):
    """The engine's layer step on an (n, b) feature batch, a rank-0 stack."""
    return update_batch(Z[None], layer, pi)[0]


def test_expansion_identity_features():
    n, eps = 4, 0.5
    alpha = 1 / eps**2
    E = expansion_operator(np.eye(n), eps)
    assert np.allclose(E, alpha / (1 + alpha) * np.eye(n), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expansion_ridge_oracle(seed):
    # E z equals alpha (z - Z q*) with q* the ridge-regression coefficients
    # of z against the columns of Z.
    rng = rng_for(seed)
    n, m, eps = 6, 10, 0.4
    Z = rng.standard_normal((n, m))
    alpha = RateParams(eps).alpha(n, m)
    E = expansion_operator(Z, eps)
    for z in [Z[:, 0], rng.standard_normal(n)]:
        q = np.linalg.solve(np.eye(m) + alpha * Z.T @ Z, alpha * Z.T @ z)
        expected = alpha * (z - Z @ q)
        assert np.linalg.norm(E @ z - expected) < 1e-9 * max(1, np.linalg.norm(expected))


@pytest.mark.parametrize("seed", [3, 4])
def test_expansion_eigendecomposition_oracle(seed):
    rng = rng_for(seed)
    n, m, eps = 5, 8, 0.3
    Z = rng.standard_normal((n, m))
    alpha = RateParams(eps).alpha(n, m)
    sig, U = np.linalg.eigh(Z @ Z.T)
    expected = (U * (alpha / (1 + alpha * sig))) @ U.T
    assert np.linalg.norm(expansion_operator(Z, eps) - expected) < 1e-9


def test_compression_equals_expansion_of_class_columns():
    # C_j uses the class sample count in its coefficient, which is exactly
    # the expansion operator computed on the class columns alone.
    rng = rng_for(5)
    Z = rng.standard_normal((4, 12))
    labels = labels_for(12, 3, rng)
    P = Partition(labels)
    C = compression_operators(Z, P, 0.5)
    for j in range(3):
        Ej = expansion_operator(Z[:, labels == j], 0.5)
        assert np.linalg.norm(C[j] - Ej) < 1e-10


def test_operator_spectra_bounded():
    # E / alpha = (I + alpha Z Z*)^-1 has eigenvalues in (0, 1].
    rng = rng_for(6)
    Z = normalize_samples(rng.standard_normal((5, 20)))
    P = Partition(labels_for(20, 2, rng))
    eps = 0.4
    params = RateParams(eps)
    E = expansion_operator(Z, eps)
    vals = np.linalg.eigvalsh(E / params.alpha(5, 20))
    assert np.all(vals > 0) and np.all(vals <= 1 + 1e-12)
    C = compression_operators(Z, P, eps)
    for j in range(2):
        aj = params.alpha_class(5, int(P.counts[j]))
        vals = np.linalg.eigvalsh(C[j] / aj)
        assert np.all(vals > 0) and np.all(vals <= 1 + 1e-12)


def test_soft_membership_is_a_distribution():
    rng = rng_for(7)
    Z = rng.standard_normal((4, 9))
    P = Partition(labels_for(9, 3, rng))
    C = compression_operators(Z, P, 0.5)
    pi = membership(C @ Z, lam=30.0)
    assert pi.shape == (3, 9)
    assert np.all(pi >= 0) and np.all(pi <= 1)
    assert np.max(np.abs(pi.sum(axis=0) - 1)) < 1e-12
    single = membership(C @ Z[:, :1], lam=30.0)
    assert np.allclose(single[:, 0], pi[:, 0])


def test_soft_membership_sharp_limit_picks_smallest_norm():
    rng = rng_for(8)
    Z = rng.standard_normal((4, 9))
    P = Partition(labels_for(9, 3, rng))
    C = compression_operators(Z, P, 0.5)
    z = rng.standard_normal(4)
    norms = np.array([np.linalg.norm(C[j] @ z) for j in range(3)])
    pi = membership((C @ z)[..., None], lam=1e6)[:, 0]
    hard = np.zeros(3)
    hard[np.argmin(norms)] = 1.0
    assert np.linalg.norm(pi - hard) < 1e-6


def test_soft_membership_large_lambda_does_not_overflow():
    rng = rng_for(9)
    Z = rng.standard_normal((3, 6))
    P = Partition(labels_for(6, 2, rng))
    C = compression_operators(Z, P, 0.5)
    pi = membership(C @ (rng.standard_normal((3, 1)) * 100), lam=1e12)
    assert np.all(np.isfinite(pi))
    assert abs(pi.sum() - 1) < 1e-12


def test_nonlinear_compression_matches_manual_sum():
    # a layer step's compression term is sum_j gamma_j pihat_j(z) C_j z
    rng = rng_for(10)
    X = rng.standard_normal((4, 8))
    P = Partition(labels_for(8, 2, rng))
    layer = construct(X, P, L=1, eta=0.5, eps=0.5).layers[0]
    z = rng.standard_normal((4, 1))
    pi = membership(layer.Cbar[:, 0] @ z, layer.lam)
    sigma = sum(layer.gamma[j] * pi[j] * (layer.Cbar[j, 0] @ z) for j in range(2))
    raw = z + layer.eta * layer.Ebar[0] @ z - layer.eta * sigma
    assert np.linalg.norm(step(z, layer, pi) - raw / np.linalg.norm(raw)) < 1e-12


def test_hard_label_layer_equals_gradient_ascent_step():
    # With true labels, one layer is exactly a normalized gradient step on
    # the rate reduction objective evaluated at the normalized input.
    rng = rng_for(11)
    X = rng.standard_normal((4, 10))
    labels = labels_for(10, 2, rng)
    P = Partition(labels)
    eta, eps = 0.25, 0.5
    model = construct(X, P, L=1, eta=eta, eps=eps, use_labels=True)
    Z0 = normalize_samples(X)
    expected = normalize_samples(Z0 + eta * dense_rate_gradient(Z0, P, eps))
    assert np.linalg.norm(model.features - expected) < 1e-10


GRADIENT_SHAPES = [
    (40, (6, 9, 5)),      # wide: every operator factored
    (6, (20, 30, 25)),    # tall: every operator dense
    (12, (20, 7, 15)),    # m >= n: every operator dense, a class smaller than n too
    (784, (14, 16, 10)),  # wide, at the digits' dimension
]


@pytest.mark.parametrize("n, counts", GRADIENT_SHAPES)
def test_vector_layer_takes_one_form_chosen_by_m_below_n(n, counts):
    # every operator Factored when m < n, else every one a dense n x n
    # matrix, the bytes of the dense reference operators either way
    rng = rng_for(n + len(counts))
    X = rng.standard_normal((n, sum(counts)))
    P = Partition(np.repeat(np.arange(3), counts))  # in class order, as the layer holds it
    layer = construct(X, P, L=1, eta=0.5, eps=0.5).layers[0]
    Z = normalize_samples(X)
    form = _freq.Factored if P.m < n else np.ndarray
    assert all(isinstance(op, form) for op in _freq.operators(layer))
    assert np.array_equal(_freq.dense(layer.Ebar)[0], expansion_operator(Z, 0.5))
    assert np.array_equal(_freq.dense(layer.Cbar)[:, 0], compression_operators(Z, P, 0.5))


@pytest.mark.parametrize("n, counts", GRADIENT_SHAPES)
@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
def test_rate_gradient_equals_dense_solve_oracle(n, counts, eps):
    # the engine's rank-0 gradient against the dense n x n solves, on
    # shuffled labels of k = 3 classes and unit features, as a layer sees
    # them: E Z - sum_j gamma_j C_j Z Pi_j cancels, so on raw 784-d Gaussian
    # columns (norm about 28) the two routes differ by about 6e-9 of the
    # largest entry at eps 0.1, against 7e-12 on unit columns
    rng = rng_for(n + len(counts))
    labels = rng.permutation(np.repeat(np.arange(3), counts))
    Z = normalize_samples(rng.standard_normal((n, labels.size)))
    P = Partition(labels)
    want = dense_rate_gradient(Z, P, eps)
    expand, compress = group_gradient(Z, P, eps)
    got = expand - compress.sum(axis=0)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_group_objective_of_a_feature_matrix_is_the_vector_objective():
    # rank 0 is the trivial group, F = 1: both routes give the same floats
    rng = rng_for(21)
    Z = rng.standard_normal((5, 9))
    P = Partition(labels_for(9, 3, rng))
    want = rate_components(Z, P, 0.5)
    for method in ("fast", "dense"):
        assert group_rate_components(Z, P, 0.5, method=method) == want


def test_construct_zero_layers():
    rng = rng_for(12)
    X = rng.standard_normal((3, 6))
    P = Partition(labels_for(6, 2, rng))
    model = construct(X, P, L=0, eta=0.5, eps=0.5)
    assert model.depth == 0
    assert model.trace.shape == (1, 3)
    out = forward(model, X)
    assert np.allclose(out, normalize_samples(X))


def test_construct_trace_has_initial_plus_per_layer_rows():
    rng = rng_for(13)
    X = rng.standard_normal((3, 8))
    P = Partition(labels_for(8, 2, rng))
    model = construct(X, P, L=4, eta=0.5, eps=0.5)
    assert model.trace.shape == (5, 3)
    # trace rows are (rate_reduction, coding_rate, class_rate)
    assert np.allclose(model.trace[:, 0], model.trace[:, 1] - model.trace[:, 2])
    assert abs(model.trace[-1, 0] - rate_reduction(model.features, P, 0.5)) < 1e-10


def test_forward_replays_training_features():
    rng = rng_for(14)
    X = rng.standard_normal((4, 20))
    P = Partition(labels_for(20, 2, rng))
    model = construct(X, P, L=5, eta=0.5, eps=0.5)
    replay = forward(model, X)
    assert np.max(np.abs(replay - model.features)) < 1e-6


def test_carry_features_match_forward():
    rng = rng_for(15)
    X = rng.standard_normal((4, 16))
    Y = rng.standard_normal((4, 5))
    P = Partition(labels_for(16, 2, rng))
    model = construct(X, P, L=3, eta=0.5, eps=0.5, carry=Y)
    assert np.allclose(model.carry_features, forward(model, Y), atol=1e-12)


def test_streaming_mode_discards_layers_keeps_carry():
    rng = rng_for(16)
    X = rng.standard_normal((4, 16))
    Y = rng.standard_normal((4, 6))
    P = Partition(labels_for(16, 2, rng))
    full = construct(X, P, L=3, eta=0.5, eps=0.5, carry=Y)
    sunk = []
    slim = construct(X, P, L=3, eta=0.5, eps=0.5, carry=Y, sink=sunk.append)
    assert slim.depth == 0
    for got, want in zip(sunk, full.layers, strict=True):
        assert np.array_equal(got.Ebar, want.Ebar) and np.array_equal(got.Cbar, want.Cbar)
    assert np.allclose(slim.carry_features, full.carry_features)
    assert np.allclose(slim.features, full.features)


def test_apply_layer_single_matches_batch():
    rng = rng_for(17)
    X = rng.standard_normal((4, 12))
    P = Partition(labels_for(12, 2, rng))
    model = construct(X, P, L=1, eta=0.5, eps=0.5)
    layer = model.layers[0]
    batch = rng.standard_normal((4, 5))
    out = step(batch, layer, membership(layer.Cbar[:, 0] @ batch, layer.lam))
    for i in range(5):
        col = batch[:, i:i + 1]
        single = step(col, layer, membership(layer.Cbar[:, 0] @ col, layer.lam))
        assert np.linalg.norm(single[:, 0] - out[:, i]) < 1e-12
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0)


def test_apply_layer_hard_label_variant():
    rng = rng_for(18)
    X = rng.standard_normal((4, 12))
    P = Partition(labels_for(12, 2, rng))
    model = construct(X, P, L=1, eta=0.5, eps=0.5)
    layer = model.layers[0]
    z = rng.standard_normal((4, 1))
    out = step(z, layer, np.array([[0.0], [1.0]]))  # true label 1
    raw = z + layer.eta * layer.Ebar[0] @ z - layer.eta * layer.gamma[1] * layer.Cbar[1, 0] @ z
    assert np.linalg.norm(out - raw / np.linalg.norm(raw)) < 1e-12


def test_construct_rejects_zero_column():
    rng = rng_for(20)
    X = rng.standard_normal((3, 6))
    X[:, 2] = 0.0
    P = Partition(labels_for(6, 2, rng))
    with pytest.raises(ZeroVector):
        construct(X, P, L=1, eta=0.5, eps=0.5)


def test_two_separated_classes_increase_rate_reduction():
    # Smoke version of the construction objective climbing.
    rng = rng_for(21)
    m = 40
    mu = np.array([[1.0, 0.0], [0.0, 1.0]])
    X = np.hstack([
        mu[:, [0]] + 0.1 * rng.standard_normal((2, m)),
        mu[:, [1]] + 0.1 * rng.standard_normal((2, m)),
    ])
    labels = np.array([0] * m + [1] * m)
    model = construct(X, Partition(labels), L=30, eta=0.5, eps=0.1)
    assert model.trace[-1, 0] > model.trace[0, 0]


@pytest.mark.parametrize("n, m", [(9, 6), (4, 12)])  # the m x m and the n x n Gram side
@pytest.mark.parametrize("use_labels", [False, True])
def test_engine_equals_vector_loop_oracle(n, m, use_labels):
    rng = rng_for(23)
    X, Y = rng.standard_normal((n, m)), rng.standard_normal((n, 5))
    P = Partition(labels_for(m, 2, rng))
    model = construct(X, P, L=4, eta=0.5, eps=0.5, carry=Y, use_labels=use_labels)
    want = vector_loop_construct(X, P, L=4, eta=0.5, eps=0.5, carry=Y, use_labels=use_labels)
    for got, ref in [(model.features, want.features),
                     (model.carry_features, want.carry_features), (model.trace, want.trace)]:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    fitted = fit_subspaces(model.features, P)
    assert np.array_equal(predict(model.carry_features, fitted),
                          predict(want.carry_features, fit_subspaces(want.features, P)))
    # the Gram scale is F = 1, so layer 0 factors exactly the dense operators
    # of the samples, which the loop holds in class order
    order = np.argsort(P.labels, kind="stable")
    Z0, P0 = normalize_samples(X)[:, order], Partition(P.labels[order])
    layer = model.layers[0]
    assert np.array_equal(_freq.dense(layer.Ebar)[0], expansion_operator(Z0, 0.5))
    assert np.array_equal(_freq.dense(layer.Cbar)[:, 0], compression_operators(Z0, P0, 0.5))
