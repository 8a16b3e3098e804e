import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from redunet import _freq
from redunet.errors import ZeroVector
from redunet.rate import Partition, default_lambda
from redunet.spectral import (_spectra, augmented_partition, construct, forward,
                              group_circulant, group_gradient, group_rate_components,
                              layer_kernel, stacked_circulant)

import oracles
from oracles import (central_diff_grad, dft_matrix, labels_for, repeat_labels,
                     rng_for, slogdet_rate, spectral_layer)


def sample_stack(seed, C=2, T=8, m=4, k=2):
    rng = rng_for(seed)
    Zbar = rng.standard_normal((C, T, m))
    labels = labels_for(m, k, rng)
    return Zbar, labels


def frob_normalize(Zbar):
    norms = np.sqrt(np.sum(Zbar**2, axis=(0, 1)))
    return Zbar / norms


# ----------------------------------------------------------- transforms

def test_dft_matches_matrix_oracle():
    rng = rng_for(0)
    z = rng.standard_normal((3, 8))
    F = dft_matrix(8)
    expected = (z @ F.T)[:, :5].T  # per-channel transform, the rfft half
    assert np.max(np.abs(_spectra(z[..., None])[..., 0] - expected)) < 1e-12


def test_dft_parseval():
    # each half-spectrum slice counts for itself and its conjugate mirror
    rng = rng_for(1)
    z = rng.standard_normal((3, 16))
    v = _spectra(z[..., None])[..., 0]
    energy = _freq.half_weights((16,)) @ np.sum(np.abs(v) ** 2, axis=1)
    assert abs(np.linalg.norm(z) - np.sqrt(energy)) < 1e-12


# ------------------------------------------------------ circulant layout

def test_circulant_pinned_example():
    got = group_circulant(np.array([1.0, 2.0, 3.0]))
    expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    assert np.array_equal(got, expected)


def test_circulant_diagonalized_by_dft():
    rng = rng_for(3)
    z = rng.standard_normal(8)
    F = dft_matrix(8)
    got = F @ group_circulant(z) @ F.conj().T
    expected = np.diag(np.fft.fft(z) / np.sqrt(8) * np.sqrt(8))
    # diag entries are the unnormalized DFT of z
    assert np.max(np.abs(got - expected)) < 1e-10


def test_multichannel_layout_matches_oracle():
    rng = rng_for(4)
    zbar = rng.standard_normal((3, 5))
    assert np.array_equal(stacked_circulant(zbar[..., None]),
                          oracles.multichannel_circulant(zbar))
    Zbar = rng.standard_normal((2, 4, 3))
    assert np.array_equal(stacked_circulant(Zbar), oracles.stacked_circulant(Zbar))


def test_circulant_convolution_property():
    # circ(z) @ x is the circular convolution of z and x.
    rng = rng_for(5)
    z, x = rng.standard_normal(7), rng.standard_normal(7)
    expected = np.real(np.fft.ifft(np.fft.fft(z) * np.fft.fft(x)))
    assert np.max(np.abs(group_circulant(z) @ x - expected)) < 1e-12


# ------------------------------------------------------------- objective

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_equals_dense_objective(seed):
    Zbar, labels = sample_stack(seed)
    P = Partition(labels)
    eps = 0.5
    fast = group_rate_components(Zbar, P, eps, method="fast")
    dense = group_rate_components(Zbar, P, eps, method="dense")
    assert np.max(np.abs(np.array(fast) - np.array(dense))) < 1e-9


def test_objective_matches_slogdet_oracle():
    Zbar, labels = sample_stack(6)
    P = Partition(labels)
    eps = 0.4
    T = Zbar.shape[1]
    fast = group_rate_components(Zbar, P, eps)
    oracle = np.array(slogdet_rate(oracles.stacked_circulant(Zbar),
                                   repeat_labels(labels, T), eps)) / T
    assert np.max(np.abs(np.array(fast) - oracle)) < 1e-9


def test_objective_shift_invariant():
    Zbar, labels = sample_stack(7)
    P = Partition(labels)
    shifted = Zbar.copy()
    shifted[:, :, 0] = np.roll(shifted[:, :, 0], 3, axis=1)
    shifted[:, :, 2] = np.roll(shifted[:, :, 2], 5, axis=1)
    a = group_rate_components(Zbar, P, 0.5)[0]
    b = group_rate_components(shifted, P, 0.5)[0]
    assert abs(a - b) < 1e-10


def test_single_class_objective_is_zero():
    Zbar, _ = sample_stack(8)
    P = Partition(np.zeros(Zbar.shape[2], dtype=int))
    assert abs(group_rate_components(Zbar, P, 0.5)[0]) < 1e-10


# ------------------------------------------------------------- operators

def dense_ops(Zbar, labels, eps):
    """Dense expansion/compression operators of the circulant stack."""
    C, T, m = Zbar.shape
    big = oracles.stacked_circulant(Zbar)
    n = C * T
    alpha = C / (m * eps**2)
    E = alpha * np.linalg.inv(np.eye(n) + alpha * big @ big.T)
    Cs = []
    aug = repeat_labels(labels, T)
    for j in range(labels.max() + 1):
        bigj = big[:, aug == j]
        aj = C / ((labels == j).sum() * eps**2)
        Cs.append(aj * np.linalg.inv(np.eye(n) + aj * bigj @ bigj.T))
    return E, np.array(Cs)


def assemble_dense(stack, T):
    """Dense (C*T, C*T) matrix from half-spectrum (T//2 + 1, C, C) blocks."""
    stack = oracles.full_stack(stack, (T,))
    C = stack.shape[1]
    F = dft_matrix(T)
    out = np.zeros((C * T, C * T), dtype=complex)
    for c in range(C):
        for c2 in range(C):
            out[c * T:(c + 1) * T, c2 * T:(c2 + 1) * T] = \
                F.conj().T @ np.diag(stack[:, c, c2]) @ F
    return out


def test_spectral_operators_match_dense():
    Zbar, labels = sample_stack(9)
    P = Partition(labels)
    eps = 0.5
    layer = spectral_layer(Zbar, P, eps)
    E_dense, C_dense = dense_ops(Zbar, labels, eps)
    got_E = assemble_dense(layer.Ebar, Zbar.shape[1])
    assert np.max(np.abs(got_E.imag)) < 1e-9
    assert np.max(np.abs(got_E.real - E_dense)) < 1e-9
    for j in range(P.k):
        got_C = assemble_dense(layer.Cbar[j], Zbar.shape[1])
        assert np.max(np.abs(got_C.real - C_dense[j])) < 1e-9


def test_half_spectrum_equals_full():
    # the factored half spectrum and its conjugate mirror give every block
    # of the full dense operators; odd T exercises the mirror bounds
    Zbar, labels = sample_stack(10, T=9)
    P = Partition(labels)
    half = spectral_layer(Zbar, P, 0.5)
    E_dense, C_dense = dense_ops(Zbar, labels, 0.5)
    assert np.max(np.abs(assemble_dense(half.Ebar, 9) - E_dense)) < 1e-9
    for j in range(P.k):
        assert np.max(np.abs(assemble_dense(half.Cbar[j], 9) - C_dense[j])) < 1e-9


def test_operator_slices_hermitian_pd():
    Zbar, labels = sample_stack(11)
    layer = spectral_layer(Zbar, Partition(labels), 0.5)
    E, Cs = oracles.full_operators(layer)
    for p in range(Zbar.shape[1]):
        for M in [E[p]] + [Cs[j, p] for j in range(2)]:
            assert np.max(np.abs(M - M.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(M)) > 0


# -------------------------------------------------------------- gradient

@pytest.mark.parametrize("seed", [0, 1])
def test_spectral_gradient_matches_finite_differences(seed):
    Zbar, labels = sample_stack(20 + seed, C=2, T=5, m=3)
    P = Partition(labels)
    eps, T = 0.5, Zbar.shape[1]

    def objective(W):
        return slogdet_rate(oracles.stacked_circulant(W),
                            repeat_labels(labels, T), eps)[0] / T

    expand, compress = group_gradient(Zbar, P, eps)
    analytic = expand - compress.sum(axis=0)
    fd = central_diff_grad(objective, Zbar, h=1e-6)
    rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    assert rel < 1e-6


# ---------------------------------------------- layer updates and model

def dense_construct(Zbar, labels, L, eta, eps, lam):
    """Signal-domain reference construction with dense circulant operators."""
    C, T, m = Zbar.shape
    Z = frob_normalize(Zbar.astype(float))
    gamma = np.array([(labels == j).mean() for j in range(labels.max() + 1)])
    for _ in range(L):
        E, Cs = dense_ops(Z, labels, eps)
        Znew = np.empty_like(Z)
        for i in range(m):
            z = Z[:, :, i].reshape(-1)
            norms = np.array([np.linalg.norm(Cj @ z) for Cj in Cs])
            w = np.exp(-lam * norms - np.max(-lam * norms))
            pi = w / w.sum()
            step = z + eta * E @ z
            for j in range(len(Cs)):
                step = step - eta * gamma[j] * pi[j] * (Cs[j] @ z)
            Znew[:, :, i] = (step / np.linalg.norm(step)).reshape(C, T)
        Z = Znew
    return Z


def test_layer_update_matches_dense_reference():
    Zbar, labels = sample_stack(13)
    P = Partition(labels)
    eta, eps = 0.3, 0.5
    lam = default_lambda(P.k)
    got = construct(Zbar, P, L=3, eta=eta, eps=eps).features
    expected = dense_construct(Zbar, labels, 3, eta, eps, lam)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_hard_label_layer_is_exact_gradient_step():
    Zbar, labels = sample_stack(21)
    P = Partition(labels)
    eta, eps = 0.3, 0.5
    Z0 = frob_normalize(Zbar)
    model = construct(Zbar, P, L=1, eta=eta, eps=eps, use_labels=True)
    expand, compress = group_gradient(Z0, P, eps)
    step = Z0 + eta * (expand - compress.sum(axis=0))
    expected = frob_normalize(step)
    assert np.max(np.abs(model.features - expected)) < 1e-10


def test_hard_and_soft_labels_differ():
    Zbar, labels = sample_stack(22)
    P = Partition(labels)
    soft = construct(Zbar, P, L=2, eta=0.3, eps=0.5).features
    hard = construct(Zbar, P, L=2, eta=0.3, eps=0.5, use_labels=True).features
    assert np.max(np.abs(soft - hard)) > 1e-8


def test_construct_zero_layers():
    Zbar, labels = sample_stack(14)
    model = construct(Zbar, Partition(labels), L=0, eta=0.5, eps=0.5)
    assert model.depth == 0
    assert model.trace.shape == (1, 3)
    assert np.max(np.abs(model.features - frob_normalize(Zbar))) < 1e-12
    out = forward(model, Zbar)
    assert np.max(np.abs(out - frob_normalize(Zbar))) < 1e-12


def test_forward_replays_training_features():
    Zbar, labels = sample_stack(15)
    model = construct(Zbar, Partition(labels), L=4, eta=0.3, eps=0.5)
    replay = forward(model, Zbar)
    assert np.max(np.abs(replay - model.features)) < 1e-6


def test_carry_matches_forward():
    Zbar, labels = sample_stack(16)
    rng = rng_for(99)
    Y = rng.standard_normal((2, 8, 3))
    model = construct(Zbar, Partition(labels), L=3, eta=0.3, eps=0.5, carry=Y)
    assert np.max(np.abs(model.carry_features - forward(model, Y))) < 1e-12


def test_streaming_mode():
    Zbar, labels = sample_stack(17)
    rng = rng_for(98)
    Y = rng.standard_normal((2, 8, 3))
    P = Partition(labels)
    full = construct(Zbar, P, L=3, eta=0.3, eps=0.5, carry=Y)
    sunk = []
    slim = construct(Zbar, P, L=3, eta=0.3, eps=0.5, carry=Y, sink=sunk.append)
    assert slim.depth == 0
    assert np.allclose(slim.carry_features, full.carry_features)
    for got, want in zip(sunk, full.layers, strict=True):
        assert np.array_equal(got.Ebar, want.Ebar) and np.array_equal(got.Cbar, want.Cbar)


def test_forward_is_shift_equivariant():
    Zbar, labels = sample_stack(18, T=16, m=6)
    model = construct(Zbar, Partition(labels), L=3, eta=0.3, eps=0.5)
    rng = rng_for(97)
    x = rng.standard_normal((2, 16))
    base = forward(model, x)
    for s in range(16):
        shifted = forward(model, np.roll(x, s, axis=1))
        assert np.max(np.abs(shifted - np.roll(base, s, axis=1))) < 1e-10


def test_trace_single_class_stays_zero():
    Zbar, _ = sample_stack(19)
    P = Partition(np.zeros(Zbar.shape[2], dtype=int))
    model = construct(Zbar, P, L=2, eta=0.3, eps=0.5)
    assert np.max(np.abs(model.trace[:, 0])) < 1e-9


def test_spectral_layer_update_single_matches_batch():
    Zbar, labels = sample_stack(21)
    P = Partition(labels)
    layer = spectral_layer(frob_normalize(Zbar), P, 0.5, eta=0.3)
    Vt = np.fft.rfft(frob_normalize(Zbar), axis=1, norm="ortho").transpose(1, 0, 2)
    out = _freq.update_batch(Vt, layer)
    for i in range(Zbar.shape[2]):
        single = _freq.update_batch(Vt[:, :, i:i + 1], layer)
        assert np.max(np.abs(single[:, :, 0] - out[:, :, i])) < 1e-12


def half_spectra(Zbar):
    return np.fft.rfft(frob_normalize(Zbar), axis=1, norm="ortho").transpose(1, 0, 2)


def block_case(seed, T, m, k=2):
    """A layer factored from 6 samples and the half spectra of m more, (C=2, T)."""
    Zbar, labels = sample_stack(seed, T=T, m=6, k=k)
    layer = _freq.build_layer(half_spectra(Zbar), Partition(labels), 0.5, eta=0.3,
                              lam=10.0, freq_shape=(T,))
    return layer, half_spectra(rng_for(seed + 1).standard_normal((2, T, m)))


def test_update_rejects_zero_sample_in_last_block(monkeypatch):
    layer, Vt = block_case(24, T=8, m=2 * 3 + 3)
    monkeypatch.setattr(_freq, "_UPDATE_BLOCK_VALUES", 3 * Vt.shape[0] * Vt.shape[1])
    _freq.update_batch(Vt, layer)
    Vt[:, :, -1] = 0.0
    with pytest.raises(ZeroVector):
        _freq.update_batch(Vt, layer)


def test_update_rejects_zero_sample_in_another_workers_block(monkeypatch):
    # three blocks of 3 samples on two workers: worker 1 steps the middle
    # block, worker 0 the first and the last; each error reaches the caller
    layer, Vt = block_case(26, T=8, m=3 * 3)
    monkeypatch.setattr(_freq, "_UPDATE_BLOCK_VALUES", 3 * Vt.shape[0] * Vt.shape[1])
    monkeypatch.setattr(_freq, "_WORKERS", 2)
    for sample in (4, 8):
        bad = Vt.copy()
        bad[:, :, sample] = 0.0
        with pytest.raises(ZeroVector, match="zero-norm"):
            _freq.update_batch(bad, layer)


def test_layer_step_shares_blocks_with_the_pool_unless_it_cannot(monkeypatch):
    # two workers step four blocks of a cyclic group: the calling thread
    # two, a pool thread the other two; one block, and any step of the
    # trivial group, stay on the calling thread
    seen = []
    real = _freq.compressions

    def compressions(*args):
        seen.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(_freq, "compressions", compressions)
    monkeypatch.setattr(_freq, "_WORKERS", 2)
    layer, Vt = block_case(27, T=8, m=4 * 3)
    monkeypatch.setattr(_freq, "_UPDATE_BLOCK_VALUES", 3 * Vt.shape[0] * Vt.shape[1])
    _freq.update_batch(Vt, layer)
    caller = threading.current_thread().name
    assert seen.count(caller) == 2
    assert len([name for name in seen if name.startswith("redunet-step")]) == 2
    seen.clear()
    _freq.update_batch(Vt[:, :, :3], layer)
    assert seen == [caller]
    seen.clear()
    Z = _freq.normalize_samples(rng_for(28).standard_normal((3, 12)))
    P = Partition(np.array([0, 1] * 6))
    vector = _freq.build_layer(Z[None], P, 0.5, eta=0.3, lam=10.0, freq_shape=())
    monkeypatch.setattr(_freq, "_TRIVIAL_BLOCK_VALUES", 3 * 3)
    _freq.update_batch(Z[None], vector)
    assert seen == [caller] * 4


def test_no_helper_thread_outlives_the_step(monkeypatch):
    # a step shared over helper threads joins them before it returns, and
    # before it raises a helper's error: worker 1 steps the middle block
    def helpers():
        return [t for t in threading.enumerate() if t.name.startswith("redunet-step")]

    layer, Vt = block_case(30, T=8, m=3 * 3)
    monkeypatch.setattr(_freq, "_UPDATE_BLOCK_VALUES", 3 * Vt.shape[0] * Vt.shape[1])
    monkeypatch.setattr(_freq, "_WORKERS", 3)
    _freq.update_batch(Vt, layer)
    assert helpers() == []
    Vt[:, :, 4] = 0.0
    with pytest.raises(ZeroVector):
        _freq.update_batch(Vt, layer)
    assert helpers() == []


def test_more_workers_than_cores_switching_often_give_the_bytes_of_one(monkeypatch):
    # eight workers on one-sample blocks, the interpreter switching threads
    # every microsecond: a block lost or written by two workers would show
    layer, Vt = block_case(29, T=8, m=40)
    monkeypatch.setattr(_freq, "_UPDATE_BLOCK_VALUES", Vt.shape[0] * Vt.shape[1])
    monkeypatch.setattr(_freq, "_WORKERS", 1)
    want = _freq.update_batch(Vt, layer)
    monkeypatch.setattr(_freq, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(_freq.update_batch(Vt, layer), want)
    finally:
        sys.setswitchinterval(interval)


def _update_peak_over_output(monkeypatch, workers, b=256, blocks=16, k=2):
    """(peak traced bytes of one step less its output, bytes of one block)
    for both memberships, on ``workers`` worker threads."""
    layer, Vt = block_case(25, T=64, m=blocks * b, k=k)
    monkeypatch.setattr(_freq, "_UPDATE_BLOCK_VALUES", b * Vt.shape[0] * Vt.shape[1])
    monkeypatch.setattr(_freq, "_WORKERS", workers)
    peaks = []
    for pi in (None, np.full((k, Vt.shape[2]), 1.0 / k)):
        tracemalloc.start()
        try:
            out = _freq.update_batch(Vt, layer, pi)
            peaks.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    return max(peaks), Vt.nbytes // blocks


def test_update_memory_is_bounded_by_blocks(monkeypatch):
    # one step holds its output and a few blocks, whatever m is: the stacked
    # product (k+1 blocks) and at most three blocks of squares and norms,
    # where the unblocked step held about (k+4) arrays the size of its input
    k = 2
    peak, block_bytes = _update_peak_over_output(monkeypatch, workers=1, k=k)
    assert peak <= (k + 4) * block_bytes


def test_update_memory_is_bounded_by_blocks_per_worker(monkeypatch):
    # the same (k+4) blocks for each worker, whatever m is: every worker has
    # its own product buffer and steps one block at a time
    k, workers = 2, 2
    peak, block_bytes = _update_peak_over_output(monkeypatch, workers=workers, k=k)
    assert peak <= workers * (k + 4) * block_bytes


def _forward_peak(model, x):
    """Peak traced bytes of one `forward` of x."""
    tracemalloc.start()
    try:
        forward(model, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_steps_one_spectral_stack_in_place(monkeypatch):
    # every layer steps the batch's spectra in place: four layers peak no
    # higher than one plus a block buffer, and below the input spectra plus
    # a step output, which a loop of fresh outputs (`oracles`) holds at once
    C, T, b, k = 3, 64, 16, 2
    Zbar, labels = sample_stack(31, C=C, T=T, m=12, k=k)
    model = construct(Zbar, Partition(labels), 4, eta=0.3, eps=0.5)
    x = rng_for(32).standard_normal((C, T, 32 * b))
    F_h = T // 2 + 1
    monkeypatch.setattr(_freq, "_UPDATE_BLOCK_VALUES", b * F_h * C)
    monkeypatch.setattr(_freq, "_WORKERS", 1)
    forward(model, x)  # the transforms' first use
    one = _forward_peak(dataclasses.replace(model, layers=model.layers[:1]), x)
    four = _forward_peak(model, x)
    spectra = 16 * F_h * C * x.shape[-1]
    assert four <= one + (k + 1) * 16 * F_h * C * b
    assert four < 2 * spectra


def test_construct_rejects_zero_sample():
    Zbar, labels = sample_stack(22)
    Zbar[:, :, 1] = 0.0
    with pytest.raises(ZeroVector):
        construct(Zbar, Partition(labels), L=1, eta=0.3, eps=0.5)


def test_augmented_partition_counts():
    P = Partition(np.array([0, 1, 1]))
    aug = augmented_partition(P, 4)
    assert aug.m == 12
    assert list(aug.counts) == [4, 8]


# ----------------------------------------------------------------- kernels

def test_kernel_applies_operator_by_convolution():
    Zbar, labels = sample_stack(23)
    P = Partition(labels)
    layer = spectral_layer(Zbar, P, 0.5)
    E_dense, C_dense = dense_ops(Zbar, labels, 0.5)
    rng = rng_for(96)
    x = rng.standard_normal((2, 8))
    for stack, dense in [(layer_kernel(layer, "expand"), E_dense),
                         (layer_kernel(layer, "compress", 1), C_dense[1])]:
        conv = np.zeros_like(x)
        for c in range(2):
            for c2 in range(2):
                conv[c] += np.real(np.fft.ifft(np.fft.fft(stack[c, c2]) * np.fft.fft(x[c2])))
        expected = (dense @ x.reshape(-1)).reshape(2, 8)
        assert np.max(np.abs(conv - expected)) < 1e-9


@pytest.mark.parametrize("class_index", [-1, 2, 1.0, True, "0", None])
def test_kernel_rejects_a_class_index_outside_the_classes(class_index):
    # a 3-channel shift model of k = 2 classes; -1 and True would silently
    # pick class 1, 2 raise a bare IndexError and 1.0 a TypeError
    rng = rng_for(97)
    model = construct(rng.standard_normal((3, 8, 6)), Partition([0, 1, 0, 1, 1, 0]),
                      L=1, eta=0.3, eps=0.5)
    with pytest.raises(ValueError, match=r"class_index must be an integer in \[0, 2\)"):
        layer_kernel(model.layers[0], "compress", class_index)
    assert layer_kernel(model.layers[0], "compress", np.int64(1)).shape == (3, 3, 8)


@pytest.mark.parametrize("which", ["expand", "compress"])
def test_kernel_refuses_a_vector_layer(which):
    # the trivial group has no grid to convolve over
    rng = rng_for(98)
    model = construct(rng.standard_normal((5, 8)), Partition(np.arange(8) % 2),
                      L=1, eta=0.3, eps=0.5)
    with pytest.raises(ValueError, match="vector layer"):
        layer_kernel(model.layers[0], which)


def test_kernel_of_scaled_identity_operator_is_delta():
    layer = spectral_layer(np.zeros((2, 6, 3)), Partition(np.array([0, 0, 1])), 0.5)
    # zero features give E(p) = alpha I for every p -> kernel alpha * delta
    kern = layer_kernel(layer, "expand")
    alpha = layer.alpha
    expected = np.zeros((2, 2, 6))
    expected[0, 0, 0] = alpha
    expected[1, 1, 0] = alpha
    assert np.max(np.abs(kern - expected)) < 1e-12