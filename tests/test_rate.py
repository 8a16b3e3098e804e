import numpy as np
import pytest

from redunet.errors import EmptyClass, NotPositiveDefinite, NumericalError
from redunet.rate import Partition, RateParams, gram_logdet, hermitian_inverse
from redunet.spectral import construct, group_gradient, group_rate_components

from oracles import central_diff_grad, labels_for, rng_for, slogdet_rate


def test_logdet_diagonal():
    V = np.diag([1.0, np.sqrt(7.0)])[None]  # I + V V* = diag(2, 8)
    assert abs(gram_logdet(V, 1.0) - np.log(16.0)) < 1e-12


def test_logdet_empty_matrix():
    assert gram_logdet(np.zeros((1, 0, 0)), 1.0) == 0.0


def test_logdet_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        gram_logdet(np.eye(2)[None], -2.0)  # I - 2 I = -I


def _hermitian_pd(n, complex_, seed):
    rng = rng_for(seed)
    B = rng.standard_normal((n, n))
    if complex_:
        B = B + 1j * rng.standard_normal((n, n))
    return np.eye(n) + B @ B.conj().T / n


# 5 and 64 invert the Cholesky factor at once; 65, 200 and 333 by halves.
@pytest.mark.parametrize("n, complex_", [(5, True), (64, False), (65, False),
                                         (200, True), (333, False)])
def test_hermitian_inverse_matches_solve(n, complex_):
    A = _hermitian_pd(n, complex_, n)
    got, logdet = hermitian_inverse(A)
    want = np.linalg.solve(A, np.eye(n))
    assert np.array_equal(got, got.conj().T)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    sign, want_logdet = np.linalg.slogdet(A)
    assert abs(sign - 1.0) < 1e-12 and abs(logdet - want_logdet) < 1e-10 * max(1.0, abs(want_logdet))


# a stack gets, matrix by matrix, the bytes of separate calls: 1, 5 and 64
# rows invert the factor at once, 65 and 130 by halves
@pytest.mark.parametrize("n", [1, 5, 64, 65, 130])
@pytest.mark.parametrize("complex_", [False, True])
def test_batched_hermitian_inverse_equals_per_matrix_calls(n, complex_):
    A = np.stack([_hermitian_pd(n, complex_, seed) for seed in range(6)]).reshape(2, 3, n, n)
    inv, logdet = hermitian_inverse(A)
    assert inv.shape == A.shape and logdet.shape == (2, 3)
    for index in np.ndindex(2, 3):
        want_inv, want_logdet = hermitian_inverse(A[index])
        assert np.array_equal(inv[index], want_inv)
        assert logdet[index] == want_logdet


def test_hermitian_inverse_rejects_indefinite():
    A = _hermitian_pd(200, False, 7)
    A[-1, -1] = -1.0
    with pytest.raises(NotPositiveDefinite):
        hermitian_inverse(A)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logdet_matches_slogdet(seed):
    rng = rng_for(seed)
    B = rng.standard_normal((6, 6))
    A = B @ B.T + np.eye(6)
    _, expected = np.linalg.slogdet(A)
    assert abs(gram_logdet(B[None], 1.0) - expected) < 1e-10


def test_logdet_complex_hermitian():
    rng = rng_for(3)
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A = B @ B.conj().T + np.eye(5)
    _, expected = np.linalg.slogdet(A)
    assert abs(gram_logdet(B[None], 1.0) - expected) < 1e-10


def test_coding_rate_identity_features():
    # Z = I_n has alpha = 1/eps^2 and rate (n/2) log(1 + 1/eps^2).
    n, eps = 5, 0.3
    expected = 0.5 * n * np.log(1 + 1 / eps**2)
    one_class = Partition(np.zeros(n, dtype=int))
    assert abs(group_rate_components(np.eye(n), one_class, eps)[1] - expected) < 1e-12


def test_coding_rate_scalar_closed_form():
    z, eps = 0.7, 0.5
    expected = 0.5 * np.log(1 + (1 / eps**2) * z**2)
    assert abs(group_rate_components(np.array([[z]]), Partition([0]), eps)[1] - expected) < 1e-14


@pytest.mark.parametrize("n,m", [(7, 3), (3, 7), (4, 4)])
def test_primal_dual_identity(n, m):
    rng = rng_for(n * 10 + m)
    Z = rng.standard_normal((n, m))
    eps = 0.4
    alpha = n / (m * eps**2)
    _, primal = np.linalg.slogdet(np.eye(n) + alpha * Z @ Z.T)
    _, dual = np.linalg.slogdet(np.eye(m) + alpha * Z.T @ Z)
    assert abs(primal - dual) < 1e-9
    R = group_rate_components(Z, Partition(np.zeros(m, dtype=int)), eps)[1]
    assert abs(R - 0.5 * primal) < 1e-9


def test_single_class_rate_reduction_is_zero():
    rng = rng_for(7)
    Z = rng.standard_normal((5, 12))
    P = Partition(np.zeros(12, dtype=int))
    assert abs(group_rate_components(Z, P, 0.5)[0]) < 1e-10


@pytest.mark.parametrize("seed,n,m,k", [(0, 4, 10, 2), (1, 6, 15, 3), (2, 3, 9, 2)])
def test_rate_components_match_slogdet_oracle(seed, n, m, k):
    rng = rng_for(seed)
    Z = rng.standard_normal((n, m))
    labels = labels_for(m, k, rng)
    eps = 0.35
    dR, R, Rc = group_rate_components(Z, Partition(labels), eps)
    odR, oR, oRc = slogdet_rate(Z, labels, eps)
    assert abs(R - oR) < 1e-10
    assert abs(Rc - oRc) < 1e-10
    assert abs(dR - odR) < 1e-10


def test_rate_reduction_permutation_invariant():
    rng = rng_for(11)
    Z = rng.standard_normal((4, 12))
    labels = labels_for(12, 3, rng)
    perm = rng.permutation(12)
    a = group_rate_components(Z, Partition(labels), 0.5)[0]
    b = group_rate_components(Z[:, perm], Partition(labels[perm]), 0.5)[0]
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_matches_central_differences(seed):
    rng = rng_for(100 + seed)
    n, m, k = 4, 8, 2
    Z = rng.standard_normal((n, m))
    labels = labels_for(m, k, rng)
    eps = 0.5
    expand, compress = group_gradient(Z, Partition(labels), eps)
    grad = expand - compress.sum(axis=0)
    oracle = central_diff_grad(lambda W: slogdet_rate(W, labels, eps)[0], Z)
    rel = np.linalg.norm(grad - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-6


def test_partition_rejects_empty_class():
    with pytest.raises(EmptyClass):
        Partition(np.array([0, 0, 2]), k=3)
    with pytest.raises(EmptyClass):
        Partition(np.array([], dtype=int))


def test_partition_counts_and_gamma():
    P = Partition(np.array([0, 1, 1, 0, 1]))
    assert P.k == 2
    assert list(P.counts) == [2, 3]
    assert np.allclose(P.gamma, [0.4, 0.6])
    assert np.allclose(P.onehot().sum(axis=0), 1.0)


def test_rate_params_coefficients():
    p = RateParams(0.5)
    assert abs(p.alpha(4, 8) - 4 / (8 * 0.25)) < 1e-15
    assert abs(p.alpha_class(4, 3) - 4 / (3 * 0.25)) < 1e-15
    with pytest.raises(ValueError):
        RateParams(0.0)


@pytest.mark.parametrize("eps", [1e200, 1e-160, float("inf"), float("nan")])
def test_rate_params_reject_eps_without_a_normal_square(eps):
    # 1e200 squared overflows, 1e-160 squared is subnormal
    with pytest.raises(ValueError, match="eps must"):
        RateParams(eps)


def test_rate_params_raise_on_an_infinite_coefficient():
    p = RateParams(1.5e-154)  # its square is normal, 784 / its square is not finite
    assert np.isfinite(p.alpha(7, 400))
    with pytest.raises(NumericalError, match="not finite"):
        p.alpha(784, 1)
    with pytest.raises(NumericalError, match="not finite"):
        p.alpha_class(784, 1)
    # a construction stops there, before its first layer
    built = []
    X = rng_for(40).standard_normal((784, 4))
    with pytest.raises(NumericalError, match="not finite"):
        construct(X, Partition(np.array([0, 1, 0, 1])), 2, eta=0.5, eps=1.5e-154,
                  sink=built.append)
    assert built == []


def test_class_rate_checks_sample_count():
    with pytest.raises(ValueError):
        group_rate_components(np.eye(3), Partition(np.array([0, 1])), 0.5)[2]
