import numpy as np
import pytest

from redunet.errors import ZeroVector
from redunet.rate import Partition, default_lambda
from redunet.spectral import (augmented_partition, construct, dft, forward, group_circulant,
                              group_gradient, group_rate_components, layer_kernel,
                              spectral_operators, stacked_circulant)

import oracles
from oracles import central_diff_grad, dft_matrix, labels_for, repeat_labels, rng_for, slogdet_rate


def image_stack(seed, C=2, H=3, W=3, m=4, k=2):
    rng = rng_for(seed)
    Zbar = rng.standard_normal((C, H, W, m))
    labels = labels_for(m, k, rng)
    return Zbar, labels


def frob_normalize(Zbar):
    norms = np.sqrt(np.sum(Zbar**2, axis=(0, 1, 2)))
    return Zbar / norms


# ----------------------------------------------------------- transforms

def test_dft2_matches_matrix_oracle():
    rng = rng_for(0)
    z = rng.standard_normal((2, 3, 5))
    FH, FW = dft_matrix(3), dft_matrix(5)
    expected = np.stack([FH @ ch @ FW.T for ch in z])
    assert np.max(np.abs(dft(z, 2) - expected)) < 1e-12


def test_dft2_parseval():
    rng = rng_for(1)
    z = rng.standard_normal((3, 4, 6))
    assert abs(np.linalg.norm(z) - np.linalg.norm(dft(z, 2))) < 1e-12


# ----------------------------------------------- doubly circulant layout

def test_doubly_circulant_pinned_example():
    got = group_circulant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    expected = np.array([[1.0, 2.0, 3.0, 4.0],
                         [2.0, 1.0, 4.0, 3.0],
                         [3.0, 4.0, 1.0, 2.0],
                         [4.0, 3.0, 2.0, 1.0]])
    assert np.array_equal(got, expected)


def test_doubly_circulant_diagonalized_by_kron_dft():
    rng = rng_for(3)
    z = rng.standard_normal((3, 4))
    Fk = np.kron(dft_matrix(3), dft_matrix(4))
    got = Fk @ group_circulant(z) @ Fk.conj().T
    expected = np.diag(np.fft.fft2(z).reshape(-1))
    # diag entries are the unnormalized 2-d DFT of z, row frequency major
    assert np.max(np.abs(got - expected)) < 1e-10


def test_multichannel_layout_matches_oracle():
    rng = rng_for(4)
    zbar = rng.standard_normal((3, 2, 4))
    assert np.array_equal(stacked_circulant(zbar[..., None]),
                          oracles.multichannel_doubly_circulant(zbar))
    Zbar = rng.standard_normal((2, 3, 2, 3))
    assert np.array_equal(stacked_circulant(Zbar),
                          oracles.stacked_doubly_circulant(Zbar))


def test_doubly_circulant_convolution_property():
    # DC(z) @ vec(x) is the 2-d circular convolution of z and x.
    rng = rng_for(5)
    z, x = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    expected = np.real(np.fft.ifft2(np.fft.fft2(z) * np.fft.fft2(x)))
    got = (group_circulant(z) @ x.reshape(-1)).reshape(3, 5)
    assert np.max(np.abs(got - expected)) < 1e-12


# ------------------------------------------------------------- objective

@pytest.mark.parametrize("seed,shape", [(0, (2, 3, 3, 2)), (1, (2, 3, 4, 4)), (2, (3, 2, 2, 5))])
def test_fast_equals_dense_objective(seed, shape):
    Zbar, labels = image_stack(seed, *shape)
    P = Partition(labels)
    eps = 0.5
    fast = group_rate_components(Zbar, P, eps, method="fast")
    dense = group_rate_components(Zbar, P, eps, method="dense")
    assert np.max(np.abs(np.array(fast) - np.array(dense))) < 1e-9


def test_objective_matches_slogdet_oracle():
    Zbar, labels = image_stack(6)
    P = Partition(labels)
    eps = 0.4
    HW = Zbar.shape[1] * Zbar.shape[2]
    fast = group_rate_components(Zbar, P, eps)
    oracle = np.array(slogdet_rate(oracles.stacked_doubly_circulant(Zbar),
                                   repeat_labels(labels, HW), eps)) / HW
    assert np.max(np.abs(np.array(fast) - oracle)) < 1e-9


def test_objective_translation_invariant():
    Zbar, labels = image_stack(7)
    P = Partition(labels)
    shifted = Zbar.copy()
    shifted[..., 0] = np.roll(shifted[..., 0], (1, 2), axis=(1, 2))
    shifted[..., 2] = np.roll(shifted[..., 2], (2, 1), axis=(1, 2))
    a = group_rate_components(Zbar, P, 0.5)[0]
    b = group_rate_components(shifted, P, 0.5)[0]
    assert abs(a - b) < 1e-10


def test_single_class_objective_is_zero():
    Zbar, _ = image_stack(8)
    P = Partition(np.zeros(Zbar.shape[3], dtype=int))
    assert abs(group_rate_components(Zbar, P, 0.5)[0]) < 1e-10


# ------------------------------------------------------------- operators

def dense_ops(Zbar, labels, eps):
    """Dense expansion/compression operators of the doubly circulant stack."""
    C, H, W, m = Zbar.shape
    big = oracles.stacked_doubly_circulant(Zbar)
    n = C * H * W
    alpha = C / (m * eps**2)
    E = alpha * np.linalg.inv(np.eye(n) + alpha * big @ big.T)
    Cs = []
    aug = repeat_labels(labels, H * W)
    for j in range(labels.max() + 1):
        bigj = big[:, aug == j]
        aj = C / ((labels == j).sum() * eps**2)
        Cs.append(aj * np.linalg.inv(np.eye(n) + aj * bigj @ bigj.T))
    return E, np.array(Cs)


def assemble_dense(stack, H, W):
    """Dense (C*HW, C*HW) matrix from half-spectrum (H*(W//2 + 1), C, C) blocks."""
    stack = oracles.full_stack(stack, (H, W))
    C = stack.shape[1]
    Fk = np.kron(dft_matrix(H), dft_matrix(W))
    n = H * W
    out = np.zeros((C * n, C * n), dtype=complex)
    for c in range(C):
        for c2 in range(C):
            out[c * n:(c + 1) * n, c2 * n:(c2 + 1) * n] = \
                Fk.conj().T @ np.diag(stack[:, c, c2]) @ Fk
    return out


@pytest.mark.parametrize("shape", [(2, 3, 3, 4), (2, 4, 3, 4), (2, 3, 4, 4)])
def test_spectral_operators_match_dense(shape):
    Zbar, labels = image_stack(9, *shape)
    P = Partition(labels)
    eps = 0.5
    H, W = shape[1], shape[2]
    layer = spectral_operators(dft(Zbar, 2), P, eps)
    E_dense, C_dense = dense_ops(Zbar, labels, eps)
    got_E = assemble_dense(layer.Ebar, H, W)
    assert np.max(np.abs(got_E.imag)) < 1e-9
    assert np.max(np.abs(got_E.real - E_dense)) < 1e-9
    for j in range(P.k):
        got_C = assemble_dense(layer.Cbar[j], H, W)
        assert np.max(np.abs(got_C.real - C_dense[j])) < 1e-9


@pytest.mark.parametrize("H,W", [(3, 3), (4, 4), (3, 4), (4, 5), (1, 6)])
def test_half_spectrum_equals_full(H, W):
    # the factored half spectrum and its conjugate mirror give every block
    # of the full dense operators
    Zbar, labels = image_stack(10, H=H, W=W)
    P = Partition(labels)
    half = spectral_operators(dft(Zbar, 2), P, 0.5)
    E_dense, C_dense = dense_ops(Zbar, labels, 0.5)
    assert np.max(np.abs(assemble_dense(half.Ebar, H, W) - E_dense)) < 1e-9
    for j in range(P.k):
        assert np.max(np.abs(assemble_dense(half.Cbar[j], H, W) - C_dense[j])) < 1e-9


def test_operator_slices_hermitian_pd():
    Zbar, labels = image_stack(11)
    layer = spectral_operators(dft(Zbar, 2), Partition(labels), 0.5)
    E, Cs = oracles.full_operators(layer)
    for f in range(Zbar.shape[1] * Zbar.shape[2]):
        for M in [E[f]] + [Cs[j, f] for j in range(2)]:
            assert np.max(np.abs(M - M.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(M)) > 0


def test_half_spectrum_rejects_asymmetric_spectrum():
    rng = rng_for(12)
    V = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    with pytest.raises(ValueError):
        spectral_operators(V, Partition(labels_for(4, 2, rng)), 0.5)


# -------------------------------------------------------------- gradient

@pytest.mark.parametrize("seed", [0, 1])
def test_spectral_gradient_matches_finite_differences(seed):
    Zbar, labels = image_stack(20 + seed, C=2, H=3, W=2, m=3)
    P = Partition(labels)
    eps = 0.5
    HW = Zbar.shape[1] * Zbar.shape[2]

    def objective(Y):
        return slogdet_rate(oracles.stacked_doubly_circulant(Y),
                            repeat_labels(labels, HW), eps)[0] / HW

    expand, compress = group_gradient(Zbar, P, eps)
    analytic = expand - compress.sum(axis=0)
    fd = central_diff_grad(objective, Zbar, h=1e-6)
    rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    assert rel < 1e-6


# ---------------------------------------------- layer updates and model

def dense_construct(Zbar, labels, L, eta, eps, lam):
    """Image-domain reference construction with dense doubly circulant operators."""
    C, H, W, m = Zbar.shape
    Z = frob_normalize(Zbar.astype(float))
    gamma = np.array([(labels == j).mean() for j in range(labels.max() + 1)])
    for _ in range(L):
        E, Cs = dense_ops(Z, labels, eps)
        Znew = np.empty_like(Z)
        for i in range(m):
            z = Z[..., i].reshape(-1)
            norms = np.array([np.linalg.norm(Cj @ z) for Cj in Cs])
            w = np.exp(-lam * norms - np.max(-lam * norms))
            pi = w / w.sum()
            step = z + eta * E @ z
            for j in range(len(Cs)):
                step = step - eta * gamma[j] * pi[j] * (Cs[j] @ z)
            Znew[..., i] = (step / np.linalg.norm(step)).reshape(C, H, W)
        Z = Znew
    return Z


def test_layer_update_matches_dense_reference():
    Zbar, labels = image_stack(13)
    P = Partition(labels)
    eta, eps = 0.3, 0.5
    lam = default_lambda(P.k)
    got = construct(Zbar, P, L=3, eta=eta, eps=eps).features
    expected = dense_construct(Zbar, labels, 3, eta, eps, lam)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_hard_label_layer_is_exact_gradient_step():
    Zbar, labels = image_stack(21)
    P = Partition(labels)
    eta, eps = 0.3, 0.5
    Z0 = frob_normalize(Zbar)
    model = construct(Zbar, P, L=1, eta=eta, eps=eps, use_labels=True)
    expand, compress = group_gradient(Z0, P, eps)
    expected = frob_normalize(Z0 + eta * (expand - compress.sum(axis=0)))
    assert np.max(np.abs(model.features - expected)) < 1e-10


def test_construct_zero_layers():
    Zbar, labels = image_stack(14)
    model = construct(Zbar, Partition(labels), L=0, eta=0.5, eps=0.5)
    assert model.depth == 0
    assert model.trace.shape == (1, 3)
    assert np.max(np.abs(model.features - frob_normalize(Zbar))) < 1e-12
    out = forward(model, Zbar)
    assert np.max(np.abs(out - frob_normalize(Zbar))) < 1e-12


def test_forward_replays_training_features():
    Zbar, labels = image_stack(15)
    model = construct(Zbar, Partition(labels), L=4, eta=0.3, eps=0.5)
    replay = forward(model, Zbar)
    assert np.max(np.abs(replay - model.features)) < 1e-6


def test_carry_matches_forward():
    Zbar, labels = image_stack(16)
    rng = rng_for(99)
    Y = rng.standard_normal((2, 3, 3, 3))
    model = construct(Zbar, Partition(labels), L=3, eta=0.3, eps=0.5, carry=Y)
    assert np.max(np.abs(model.carry_features - forward(model, Y))) < 1e-12


def test_streaming_mode():
    Zbar, labels = image_stack(17)
    rng = rng_for(98)
    Y = rng.standard_normal((2, 3, 3, 3))
    P = Partition(labels)
    full = construct(Zbar, P, L=3, eta=0.3, eps=0.5, carry=Y)
    sunk = []
    slim = construct(Zbar, P, L=3, eta=0.3, eps=0.5, carry=Y, sink=sunk.append)
    assert slim.depth == 0
    assert np.allclose(slim.carry_features, full.carry_features)
    for got, want in zip(sunk, full.layers, strict=True):
        assert np.array_equal(got.Ebar, want.Ebar) and np.array_equal(got.Cbar, want.Cbar)


def test_forward_is_translation_equivariant():
    Zbar, labels = image_stack(18, H=4, W=4, m=6)
    model = construct(Zbar, Partition(labels), L=3, eta=0.3, eps=0.5)
    rng = rng_for(97)
    x = rng.standard_normal((2, 4, 4))
    base = forward(model, x)
    for p in range(4):
        for q in range(4):
            shifted = forward(model, np.roll(x, (p, q), axis=(1, 2)))
            assert np.max(np.abs(shifted - np.roll(base, (p, q), axis=(1, 2)))) < 1e-10


def test_trace_single_class_stays_zero():
    Zbar, _ = image_stack(19)
    P = Partition(np.zeros(Zbar.shape[3], dtype=int))
    model = construct(Zbar, P, L=2, eta=0.3, eps=0.5)
    assert np.max(np.abs(model.trace[:, 0])) < 1e-9


def test_row_of_one_pixel_matches_1d_model():
    # H = 1 degenerates to cyclic shifts of a 1-d signal; the two
    # constructions must coincide exactly.
    rng = rng_for(24)
    signals = rng.standard_normal((2, 12, 5))
    labels = labels_for(5, 2, rng)
    P = Partition(labels)
    flat = construct(signals, P, L=3, eta=0.3, eps=0.5)
    tall = construct(signals[:, None, :, :], P, L=3, eta=0.3, eps=0.5)
    assert np.max(np.abs(tall.features[:, 0] - flat.features)) < 1e-12
    assert np.max(np.abs(tall.trace - flat.trace)) < 1e-12


def test_construct_rejects_zero_sample():
    Zbar, labels = image_stack(22)
    Zbar[..., 1] = 0.0
    with pytest.raises(ZeroVector):
        construct(Zbar, Partition(labels), L=1, eta=0.3, eps=0.5)


def test_augmented_partition_counts():
    P = Partition(np.array([0, 1, 1]))
    aug = augmented_partition(P, 2 * 3)
    assert aug.m == 18
    assert list(aug.counts) == [6, 12]


# ----------------------------------------------------------------- kernels

def test_kernel_applies_operator_by_convolution():
    Zbar, labels = image_stack(23)
    P = Partition(labels)
    layer = spectral_operators(dft(Zbar, 2), P, 0.5)
    E_dense, C_dense = dense_ops(Zbar, labels, 0.5)
    rng = rng_for(96)
    x = rng.standard_normal((2, 3, 3))
    for stack, dense in [(layer_kernel(layer, "expand"), E_dense),
                         (layer_kernel(layer, "compress", 1), C_dense[1])]:
        conv = np.zeros_like(x)
        for c in range(2):
            for c2 in range(2):
                conv[c] += np.real(np.fft.ifft2(np.fft.fft2(stack[c, c2]) * np.fft.fft2(x[c2])))
        expected = (dense @ x.reshape(-1)).reshape(2, 3, 3)
        assert np.max(np.abs(conv - expected)) < 1e-9


def test_kernel_rejects_a_class_index_outside_the_classes():
    Zbar, labels = image_stack(24)
    model = construct(Zbar, Partition(labels), L=1, eta=0.3, eps=0.5)
    for class_index in (-1, 2, 1.0):
        with pytest.raises(ValueError, match="class_index must be an integer"):
            layer_kernel(model.layers[0], "compress", class_index)


def test_kernel_of_scaled_identity_operator_is_delta():
    V = dft(np.zeros((2, 3, 4, 3)), 2)
    layer = spectral_operators(V, Partition(np.array([0, 0, 1])), 0.5)
    # zero features give E(p, q) = alpha I everywhere -> kernel alpha * delta
    kern = layer_kernel(layer, "expand")
    alpha = layer.alpha
    expected = np.zeros((2, 2, 3, 4))
    expected[0, 0, 0, 0] = alpha
    expected[1, 1, 0, 0] = alpha
    assert np.max(np.abs(kern - expected)) < 1e-12
