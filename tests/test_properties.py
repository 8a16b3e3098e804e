"""Property tests over random small shapes; skipped when hypothesis is absent."""

import os
import pathlib
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from redunet import _freq
from redunet.classify import fit_subspaces, predict
from redunet.datasets import augment_shifts
from redunet.errors import ConfigError, DataError, NotPositiveDefinite
from redunet.harness.archive import load_model, save_model
from redunet.harness.config import KINDS, load_config
from redunet.harness.experiments import _orthogonal_fraction_all_shifts
from redunet.rate import Partition, RateParams, gram_logdet
from redunet.spectral import (SpectralReduNet, _spectra, construct, forward,
                              group_rate_components, stacked_circulant)

from oracles import (dense_layer, dense_regularized_inverse, dft_matrix, full_operators,
                     full_spectrum_construct, full_spectrum_forward, joined_save_model,
                     labels_for, orbit_subspaces, repeat_labels, roll_orbit,
                     roll_orthogonal_fraction, same_operators, slice_build_layer,
                     spectral_layer, unblocked_update_batch, with_header)


@settings(max_examples=60, deadline=None)
@given(C=st.integers(1, 3), T=st.integers(1, 12), m=st.integers(3, 10),
       m_test=st.integers(3, 8), k=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_shift_sweep_equals_roll_loop(C, T, m, m_test, k, seed):
    rng = np.random.default_rng(seed)
    F_train = rng.standard_normal((C, T, m))
    F_test = rng.standard_normal((C, T, m_test))
    F_train /= np.linalg.norm(F_train.reshape(-1, m), axis=0)
    F_test /= np.linalg.norm(F_test.reshape(-1, m_test), axis=0)
    case = (F_test, labels_for(m_test, k, rng), F_train, labels_for(m, k, rng))
    assert _orthogonal_fraction_all_shifts(*case) == roll_orthogonal_fraction(*case)


# ------------------------------------------------- the spectral engine

# group grids: 1-d (T,) or 2-d (H, W), with T = 1, H = 1 and W = 1 reachable
groups = st.one_of(st.tuples(st.integers(1, 7)),
                   st.tuples(st.integers(1, 4), st.integers(1, 4)))
# the trivial group of the vector network as well as the cyclic ones
any_group = st.one_of(st.just(()), groups)


def random_stack(seed, C, G, m, k):
    rng = np.random.default_rng(seed)
    return rng, rng.standard_normal((C, *G, m)), Partition(labels_for(m, k, rng))


@settings(max_examples=40, deadline=None)
@given(G=any_group, C=st.integers(1, 3), m=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@example(G=(1,), C=2, m=3, seed=0)
@example(G=(1, 5), C=2, m=3, seed=1)
@example(G=(4, 1), C=1, m=4, seed=2)
@example(G=(), C=3, m=2, seed=3)
def test_fast_objective_equals_dense_oracle(G, C, m, seed):
    _, Zbar, P = random_stack(seed, C, G, m, 2)
    fast = group_rate_components(Zbar, P, 0.5, method="fast")
    dense = group_rate_components(Zbar, P, 0.5, method="dense")
    assert np.max(np.abs(np.array(fast) - np.array(dense))) < 1e-9
    if not G:  # the circulant stack of a feature matrix is the matrix itself
        assert fast == dense


@settings(max_examples=30, deadline=None)
@given(G=groups, C=st.integers(1, 3), m=st.integers(2, 6), L=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
@example(G=(1,), C=2, m=3, L=2, seed=0)
@example(G=(1, 5), C=2, m=4, L=2, seed=1)
@example(G=(4, 1), C=1, m=4, L=2, seed=2)
def test_forward_commutes_with_cyclic_translation(G, C, m, L, seed):
    rng, Zbar, P = random_stack(seed, C, G, m, 2)
    model = construct(Zbar, P, L, eta=0.3, eps=0.5)
    x = rng.standard_normal((C, *G, 3))
    t = tuple(int(rng.integers(0, n)) for n in G)
    axes = tuple(range(1, len(G) + 1))
    moved = forward(model, np.roll(x, t, axis=axes))
    assert np.max(np.abs(moved - np.roll(forward(model, x), t, axis=axes))) < 1e-10


def roll_each(stack, shifts):
    """Sample i of a (C, *G, m) stack rolled along the group axes by shifts[i]."""
    axes = tuple(range(1, stack.ndim - 1))
    return np.stack([np.roll(stack[..., i], t, axis=axes) for i, t in enumerate(shifts)],
                    axis=-1)


def random_shifts(rng, G, count):
    return [tuple(int(rng.integers(0, n)) for n in G) for _ in range(count)]


@pytest.mark.parametrize("G", [(16,), (6, 8)])
@pytest.mark.parametrize("use_labels", [False, True])
def test_construct_commutes_with_per_sample_rolls(G, use_labels):
    # every training and every carried sample rolled by its own group
    # element: the layers are convolutions built from translation-invariant
    # Grams, and the memberships read roll-invariant norms, so a deep
    # construction returns the rolled features and the same trace
    rng, Zbar, P = random_stack(11, 3, G, 12, 3)
    carry = rng.standard_normal((3, *G, 5))
    shifts = random_shifts(rng, G, 12 + 5)
    train, carried = shifts[:12], shifts[12:]
    base = construct(Zbar, P, 30, eta=0.5, eps=0.5, carry=carry, use_labels=use_labels)
    rolled = construct(roll_each(Zbar, train), P, 30, eta=0.5, eps=0.5,
                       carry=roll_each(carry, carried), use_labels=use_labels)
    assert np.max(np.abs(rolled.features - roll_each(base.features, train))) < 1e-12
    assert np.max(np.abs(rolled.carry_features - roll_each(base.carry_features, carried))) < 1e-12
    assert np.max(np.abs(rolled.trace - base.trace)) < 1e-12


@pytest.mark.parametrize("G", [(16,), (6, 8)])
@pytest.mark.parametrize("use_labels", [False, True])
def test_forward_commutes_with_per_sample_rolls(G, use_labels):
    # the eval-side twin: a deep model, built with given or estimated
    # memberships, forwards a batch whose samples are each rolled by their
    # own group element to the rolled features of the batch; the harness
    # scores an invariant model's augmented set from rolled test features
    rng, Zbar, P = random_stack(12, 3, G, 12, 3)
    model = construct(Zbar, P, 30, eta=0.5, eps=0.5, use_labels=use_labels)
    assert model.depth == 30
    x = rng.standard_normal((3, *G, 9))
    shifts = random_shifts(rng, G, 9)
    moved = forward(model, roll_each(x, shifts))
    assert np.max(np.abs(moved - roll_each(forward(model, x), shifts))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(G=groups, C=st.integers(1, 3), m=st.integers(2, 6), L=st.integers(0, 3),
       use_labels=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(G=(1,), C=2, m=3, L=2, use_labels=False, seed=0)
@example(G=(2,), C=2, m=4, L=2, use_labels=True, seed=1)
@example(G=(7,), C=3, m=5, L=3, use_labels=False, seed=2)
@example(G=(6,), C=2, m=4, L=3, use_labels=True, seed=3)
@example(G=(1, 1), C=2, m=3, L=2, use_labels=False, seed=4)
@example(G=(1, 2), C=2, m=4, L=2, use_labels=True, seed=5)
@example(G=(1, 5), C=2, m=4, L=2, use_labels=False, seed=6)
@example(G=(1, 4), C=1, m=4, L=3, use_labels=True, seed=7)
@example(G=(3, 4), C=2, m=5, L=2, use_labels=False, seed=8)
@example(G=(4, 3), C=2, m=5, L=2, use_labels=True, seed=9)
def test_half_spectrum_loop_equals_full_spectrum_oracle(G, C, m, L, use_labels, seed):
    # the rfftn half spectrum with weighted frequency sums is the full
    # spectrum loop, for the trained features, a carry and forward alike
    rng, Zbar, P = random_stack(seed, C, G, m, 2)
    carry = rng.standard_normal((C, *G, 3))
    model = construct(Zbar, P, L, eta=0.3, eps=0.5, carry=carry, use_labels=use_labels)
    layers, features, carried, trace = full_spectrum_construct(
        Zbar, P, L, eta=0.3, eps=0.5, carry=carry, use_labels=use_labels)
    assert np.max(np.abs(model.features - features)) < 1e-12
    assert np.max(np.abs(model.carry_features - carried)) < 1e-12
    assert np.max(np.abs(model.trace - trace)) < 1e-10
    x = rng.standard_normal((C, *G, 4))
    assert np.max(np.abs(forward(model, x) - full_spectrum_forward(layers, (C, *G), x))) < 1e-12


# sample counts around a block of b samples: one, a block minus one, one
# block, one past it, two blocks and three
BLOCK_EDGES = {"one": lambda b: 1, "short": lambda b: max(b - 1, 1), "exact": lambda b: b,
               "past": lambda b: b + 1, "two_plus_three": lambda b: 2 * b + 3}


# layer shapes, as (C, class counts) from a draw of k classes: every class
# of at least C samples, fewer samples than C in all, or at least C samples
# with class 0 of one sample; the first and last make dense layers (m >= C),
# the second a factored one
LAYER_FORMS = {
    "dense": lambda C, k: (C, [C + j % 2 for j in range(k)]),
    "factored": lambda C, k: (2 * k + C, [1 + j % 2 for j in range(k)]),
    "mixed": lambda C, k: (C + 1, [1] + [C + 1] * max(k - 1, 1)),
}
# memberships of a step: estimated, soft, one-hot in class order or shuffled
MEMBERSHIPS = ("estimated", "soft", "onehot_sorted", "onehot_shuffled")


def membership_of(kind, k, m, rng):
    if kind == "estimated":
        return None
    if kind == "soft":
        return rng.dirichlet(np.ones(k), size=m).T
    labels = np.sort(rng.integers(0, k, m))
    if kind == "onehot_shuffled":
        labels = rng.permutation(labels)
    return np.eye(k)[:, labels]


@settings(max_examples=60, deadline=None)
@given(G=st.one_of(st.just(()), groups), C=st.integers(1, 3), b=st.integers(1, 5),
       edge=st.sampled_from(sorted(BLOCK_EDGES)), k=st.integers(1, 3),
       form=st.sampled_from(sorted(LAYER_FORMS)), kind=st.sampled_from(MEMBERSHIPS),
       seed=st.integers(0, 2**32 - 1))
@example(G=(7,), C=2, b=3, edge="two_plus_three", k=2, form="dense", kind="estimated", seed=0)
@example(G=(3, 4), C=3, b=4, edge="past", k=3, form="dense", kind="soft", seed=1)
@example(G=(1, 1), C=1, b=1, edge="one", k=1, form="dense", kind="estimated", seed=2)
@example(G=(5,), C=2, b=2, edge="two_plus_three", k=2, form="dense", kind="onehot_sorted",
         seed=3)
@example(G=(), C=3, b=2, edge="two_plus_three", k=3, form="dense", kind="onehot_shuffled",
         seed=4)
@example(G=(), C=2, b=3, edge="past", k=2, form="factored", kind="estimated", seed=5)
@example(G=(2, 3), C=1, b=2, edge="two_plus_three", k=2, form="factored", kind="soft", seed=6)
@example(G=(4,), C=2, b=1, edge="short", k=3, form="factored", kind="onehot_shuffled", seed=7)
@example(G=(), C=2, b=2, edge="exact", k=2, form="mixed", kind="onehot_sorted", seed=8)
@example(G=(3,), C=3, b=3, edge="two_plus_three", k=3, form="mixed", kind="estimated", seed=9)
def test_blocked_layer_step_equals_unblocked_oracle(G, C, b, edge, k, form, kind, seed):
    C, counts = LAYER_FORMS[form](C, k)
    k = len(counts)
    rng = np.random.default_rng(seed)
    P = Partition(np.repeat(np.arange(k), counts))  # in class order, as `construct` holds it
    Vt0 = _spectra(_freq.normalize_samples(rng.standard_normal((C, *G, P.m))))
    layer = _freq.build_layer(Vt0, P, 0.5, eta=0.3, lam=10.0, freq_shape=G)
    forms = [isinstance(op, _freq.Factored) for op in _freq.operators(layer)]
    assert forms == [form == "factored"] * (k + 1)
    m = BLOCK_EDGES[edge](b)
    Vt = _spectra(_freq.normalize_samples(rng.standard_normal((C, *G, m))))
    pi = membership_of(kind, k, m, rng)
    F_h = Vt.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_freq, "_UPDATE_BLOCK_VALUES", b * F_h * C)
        mp.setattr(_freq, "_TRIVIAL_BLOCK_VALUES", b * F_h * C)
        got = _freq.update_batch(Vt, layer, pi)
        own = _freq.update_batch(Vt0, layer, P.onehot())  # the stack it was built from
    dense = dense_layer(layer)
    assert np.max(np.abs(got - unblocked_update_batch(Vt, dense, pi)), initial=0.0) < 1e-12
    assert np.max(np.abs(own - unblocked_update_batch(Vt0, dense, P.onehot()))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(G=st.one_of(st.just(()), groups), C=st.integers(1, 3), b=st.integers(1, 4),
       edge=st.sampled_from(sorted(BLOCK_EDGES)), k=st.integers(1, 3),
       form=st.sampled_from(sorted(LAYER_FORMS)), kind=st.sampled_from(MEMBERSHIPS),
       workers=st.sampled_from([1, 2]), contiguous=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(G=(7,), C=2, b=2, edge="two_plus_three", k=2, form="dense", kind="estimated",
         workers=2, contiguous=False, seed=0)
@example(G=(3, 4), C=2, b=1, edge="past", k=2, form="mixed", kind="soft", workers=2,
         contiguous=True, seed=1)
@example(G=(5,), C=2, b=1, edge="two_plus_three", k=2, form="factored", kind="estimated",
         workers=2, contiguous=False, seed=2)
@example(G=(), C=2, b=2, edge="two_plus_three", k=3, form="factored", kind="onehot_sorted",
         workers=1, contiguous=False, seed=3)
@example(G=(2, 3), C=1, b=2, edge="two_plus_three", k=2, form="factored",
         kind="onehot_shuffled", workers=2, contiguous=True, seed=4)
@example(G=(2,), C=1, b=1, edge="exact", k=3, form="factored", kind="estimated", workers=1,
         contiguous=False, seed=0)  # one sample, the frequency-major layout
def test_layer_step_in_place_equals_step_into_a_fresh_array(G, C, b, edge, k, form, kind,
                                                           workers, contiguous, seed):
    # every block reads its own samples before it writes them, so stepping a
    # stack into itself gives the bytes of a step of its copy into a fresh
    # output, on any worker count; the stack is in C order, or in the
    # frequency-major layout of `_spectra` (the copy keeps it)
    C, counts = LAYER_FORMS[form](C, k)
    k = len(counts)
    rng = np.random.default_rng(seed)
    P = Partition(np.repeat(np.arange(k), counts))
    Vt0 = _spectra(_freq.normalize_samples(rng.standard_normal((C, *G, P.m))))
    layer = _freq.build_layer(Vt0, P, 0.5, eta=0.3, lam=10.0, freq_shape=G)
    m = BLOCK_EDGES[edge](b)
    V = _spectra(_freq.normalize_samples(rng.standard_normal((C, *G, m))))
    if contiguous:
        V = np.ascontiguousarray(V)
    pi = membership_of(kind, k, m, rng)
    F_h = V.shape[0]
    want = run_on_workers(workers, b, F_h, C, _freq.update_batch, np.copy(V, order="K"),
                          layer, pi)
    got = run_on_workers(workers, b, F_h, C, _freq.update_batch, V, layer, pi, out=V)
    assert got is V
    assert np.array_equal(got, want)


# ------------------------------------------------- the batched layer loop

def stack_of_counts(seed, C, G, counts):
    """A (C, *G, m) stack whose class j holds counts[j] samples, shuffled."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    return rng.standard_normal((C, *G, labels.size)), Partition(labels)


# C = 4 with classes of 2 and 6 samples factors the expansion and class 1 on
# the C x C side and class 0 on its m_j x m_j side, multiplied out; C = 6
# with 2 and 3 samples factors every operator on the sample side
@pytest.mark.parametrize("G", [(), (5,), (3, 4)])
@pytest.mark.parametrize("C, counts", [(4, (2, 6)), (6, (2, 3))])
def test_batched_build_layer_equals_per_slice_oracle(G, C, counts):
    Zbar, P = stack_of_counts(sum(counts) + len(G), C, G, counts)
    Vt = _spectra(_freq.normalize_samples(Zbar))
    got = _freq.build_layer(Vt, P, 0.5, eta=0.3, lam=10.0, freq_shape=G)
    want = slice_build_layer(Vt, P, 0.5, eta=0.3, lam=10.0, freq_shape=G)
    assert np.array_equal(_freq.dense(got.Ebar), want.Ebar)
    assert np.array_equal(_freq.dense(got.Cbar), want.Cbar)
    objective = np.array(_freq.spectral_components(Vt, P, 0.5, G))
    assert np.max(np.abs(np.array(got.components) - objective)) <= 1e-12 * np.max(
        np.abs(objective))


@settings(max_examples=60, deadline=None)
@given(G=any_group, C=st.integers(1, 6),
       counts=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(G=(), C=4, counts=[1, 5], seed=0)  # m > C, a class of one sample
@example(G=(3,), C=5, counts=[2, 3], seed=1)  # m = C
@example(G=(2, 3), C=6, counts=[2, 3], seed=2)  # m < C
def test_layer_takes_one_operator_form_chosen_by_m_below_c(G, C, counts, seed):
    # m < C: every operator Factored; else every one a dense stack, a class
    # of fewer than C samples multiplied out; either way every operator's
    # dense stack has the bytes of `regularized_inverse`
    Zbar, P = stack_of_counts(seed, C, G, counts)
    Vt = _spectra(_freq.normalize_samples(Zbar))
    layer = _freq.build_layer(Vt, P, 0.5, eta=0.3, lam=10.0, freq_shape=G)
    form = _freq.Factored if P.m < C else np.ndarray
    assert all(isinstance(op, form) for op in _freq.operators(layer))
    assert (layer.features is None) == (form is np.ndarray)
    scale = float(np.prod(G))
    assert np.array_equal(_freq.dense(layer.Ebar),
                          _freq.regularized_inverse(Vt, layer.alpha, scale)[0])
    for j, op in enumerate(layer.Cbar):
        want = _freq.regularized_inverse(Vt[:, :, P.mask(j)], layer.alpha_class[j], scale)[0]
        assert np.array_equal(_freq.dense(op), want)


@settings(max_examples=30, deadline=None)
@given(G=any_group, C=st.integers(1, 4), m=st.integers(2, 9), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(G=(), C=4, m=3, k=2, seed=0)
@example(G=(1, 1), C=1, m=2, k=1, seed=1)
@example(G=(6,), C=3, m=9, k=3, seed=2)
def test_layer_objective_is_the_objective_of_its_features(G, C, m, k, seed):
    # the log-dets of the layer's own factors give the triple that a
    # separate factorization of the same features gives
    k = min(k, m)
    _, Zbar, P = random_stack(seed, C, G, m, k)
    Vt = _spectra(_freq.normalize_samples(Zbar))
    got = _freq.build_layer(Vt, P, 0.5, eta=0.3, lam=10.0, freq_shape=G).components
    want = _freq.spectral_components(Vt, P, 0.5, G)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12 * max(1.0, abs(want[1]))


def run_on_workers(workers, b, F_h, C, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with blocks of b samples on ``workers`` workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_freq, "_UPDATE_BLOCK_VALUES", b * F_h * C)
        mp.setattr(_freq, "_TRIVIAL_BLOCK_VALUES", b * F_h * C)
        mp.setattr(_freq, "_WORKERS", workers)
        return fn(*args, **kwargs)


@settings(max_examples=30, deadline=None)
@given(G=any_group, C=st.integers(1, 3), b=st.integers(1, 4),
       edge=st.sampled_from(sorted(BLOCK_EDGES)), k=st.integers(1, 2),
       use_labels=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(G=(7,), C=2, b=2, edge="two_plus_three", k=2, use_labels=False, seed=0)
@example(G=(3, 4), C=2, b=3, edge="past", k=2, use_labels=True, seed=1)
@example(G=(), C=3, b=1, edge="two_plus_three", k=2, use_labels=False, seed=2)
# all-factored layers (2 training samples, C = 3) with labels on: one-sample
# blocks over three workers, the trivial group and a 1-d one
@example(G=(5,), C=3, b=1, edge="exact", k=2, use_labels=True, seed=3)
@example(G=(), C=3, b=1, edge="one", k=2, use_labels=True, seed=4)
def test_worker_count_leaves_construct_and_forward_bytes_alone(G, C, b, edge, k, use_labels,
                                                              seed):
    m = BLOCK_EDGES[edge](b)
    rng, Zbar, P = random_stack(seed, C, G, max(m, k), k)
    carry, x = rng.standard_normal((2, C, *G, m))
    F_h = _freq.half_count(G)
    models = [run_on_workers(w, b, F_h, C, construct, Zbar, P, 2, eta=0.3, eps=0.5,
                             carry=carry, use_labels=use_labels) for w in (1, 3)]
    one, many = models
    assert np.array_equal(one.features, many.features)
    assert np.array_equal(one.carry_features, many.carry_features)
    assert np.array_equal(one.trace, many.trace)
    for a, c in zip(one.layers, many.layers):
        assert same_operators(a, c)
    outs = [run_on_workers(w, b, F_h, C, forward, one, x) for w in (1, 3)]
    assert np.array_equal(*outs)


@settings(max_examples=30, deadline=None)
@given(G=groups, C=st.integers(1, 3), m=st.integers(2, 5), L=st.integers(0, 2),
       k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@example(G=(1,), C=1, m=2, L=0, k=1, seed=0)
@example(G=(1, 3), C=2, m=3, L=1, k=2, seed=1)
@example(G=(3, 1), C=2, m=3, L=2, k=2, seed=2)
def test_archive_roundtrip_is_bit_exact(G, C, m, L, k, seed):
    _, Zbar, P = random_stack(seed, C, G, m, k)
    model = construct(Zbar, P, L, eta=0.3, eps=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        back = load_model(save_model(model, os.path.join(tmp, "m.rnet")))
    assert isinstance(back, SpectralReduNet)
    assert (back.C, back.freq_shape, back.k, back.depth) == (C, G, k, L)
    assert (back.eps, back.eta, back.lam) == (model.eps, model.eta, model.lam)
    assert np.array_equal(back.trace, model.trace)
    assert np.array_equal(back.gamma, model.gamma)
    for got, want in zip(back.layers, model.layers):
        assert got.freq_shape == want.freq_shape
        assert same_operators(got, want)
        assert got.alpha == want.alpha and np.array_equal(got.alpha_class, want.alpha_class)


@settings(max_examples=30, deadline=None)
@given(G=groups, C=st.integers(1, 2), m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
@example(G=(9,), C=2, m=3, seed=0)
@example(G=(1, 6), C=2, m=3, seed=1)
@example(G=(4, 5), C=1, m=3, seed=2)
def test_half_spectrum_operators_equal_dense_operators(G, C, m, seed):
    # the factored half spectrum plus its conjugate mirror is every block
    # of the dense operators on the circulant stack
    _, Zbar, P = random_stack(seed, C, G, m, 2)
    layer = spectral_layer(Zbar, P, 0.5)
    big = stacked_circulant(Zbar)
    F = big.shape[1] // m
    unitary = dft_matrix(G[0])
    for n in G[1:]:
        unitary = np.kron(unitary, dft_matrix(n))
    blocks = np.kron(np.eye(C), unitary)
    labels = repeat_labels(P.labels, F)
    E, Cs = full_operators(layer)
    for j, stack in [(None, E)] + list(enumerate(Cs)):
        cols = big if j is None else big[:, labels == j]
        a = C / (cols.shape[1] / F * 0.25)
        dense = a * np.linalg.inv(np.eye(C * F) + a * cols @ cols.T)
        spectral = np.zeros((C * F, C * F), dtype=complex)
        for c in range(C):
            for c2 in range(C):
                spectral[c * F:(c + 1) * F, c2 * F:(c2 + 1) * F] = np.diag(stack[:, c, c2])
        assert np.max(np.abs(blocks.conj().T @ spectral @ blocks - dense)) < 1e-9


# ------------------------------------------------------ the vector network

def assert_matches_dense(got, Z, a):
    # the n x n route is the oracle's own; the m x m route matches it closely
    want = dense_regularized_inverse(Z, a)
    if Z.shape[1] >= Z.shape[0]:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 12), eps=st.floats(0.1, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=6, m=1, eps=0.5, seed=0)
@example(n=5, m=5, eps=0.3, seed=1)
@example(n=3, m=8, eps=0.5, seed=2)
def test_regularized_inverse_equals_dense_oracle(n, m, eps, seed):
    Z = _freq.normalize_samples(np.random.default_rng(seed).standard_normal((n, m)))
    a = RateParams(eps).alpha(n, m)
    got, logdet = _freq.regularized_inverse(Z, a)
    assert_matches_dense(got, Z, a)
    sign, want = np.linalg.slogdet(np.eye(n) + a * (Z @ Z.T))
    assert sign == 1.0 and abs(logdet - want) <= 1e-10 * max(1.0, abs(want))


def random_gram_stack(seed, F, n, m, complex_):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((F, n, m))
    return V + 1j * rng.standard_normal((F, n, m)) if complex_ else V


# m < n, m = n and m > n: each side of the Gram gets factored
@settings(max_examples=80, deadline=None)
@given(F=st.integers(1, 4), n=st.integers(1, 6), m=st.integers(0, 8),
       complex_=st.booleans(), weighted=st.booleans(), coeff=st.floats(0.01, 10.0),
       seed=st.integers(0, 2**32 - 1))
@example(F=1, n=5, m=2, complex_=False, weighted=False, coeff=2.0, seed=0)
@example(F=3, n=4, m=4, complex_=True, weighted=True, coeff=0.5, seed=1)
@example(F=2, n=2, m=7, complex_=True, weighted=False, coeff=5.0, seed=2)
@example(F=4, n=6, m=3, complex_=False, weighted=True, coeff=1.0, seed=3)
def test_gram_logdet_equals_slogdet(F, n, m, complex_, weighted, coeff, seed):
    V = random_gram_stack(seed, F, n, m, complex_)
    weight = np.random.default_rng(seed + 1).uniform(0.5, 2.0, F) if weighted else np.ones(F)
    want = sum(w * np.linalg.slogdet(np.eye(n) + coeff * (Vp @ Vp.conj().T))[1]
               for w, Vp in zip(weight, V))
    got = gram_logdet(V, coeff, weight if weighted else None)
    assert isinstance(got, float)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=40, deadline=None)
@given(F=st.integers(1, 4), n=st.integers(1, 6), m=st.integers(1, 8),
       complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gram_logdet_rejects_an_indefinite_matrix(F, n, m, complex_, seed):
    V = random_gram_stack(seed, F, n, m, complex_)
    top = np.linalg.eigvalsh(V[-1] @ V[-1].conj().T).max()
    with pytest.raises(NotPositiveDefinite):  # I - 2 G / top has eigenvalue -1
        gram_logdet(V, -2.0 / top)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(2, 12), lone=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=6, m=5, lone=True, seed=0)
@example(n=4, m=9, lone=True, seed=1)
def test_vector_operators_equal_dense_oracle(n, m, lone, seed):
    # lone: class 0 holds a single sample
    rng = np.random.default_rng(seed)
    Z = _freq.normalize_samples(rng.standard_normal((n, m)))
    labels = np.array([0] + [1] * (m - 1)) if lone else labels_for(m, 2, rng)
    P, params = Partition(labels), RateParams(0.5)
    layer = _freq.build_layer(Z[None], P, 0.5, eta=0.3, lam=10.0, freq_shape=())
    assert_matches_dense(_freq.dense(layer.Ebar)[0], Z, params.alpha(n, m))
    for j, Cj in enumerate(_freq.dense(layer.Cbar)[:, 0]):
        assert_matches_dense(Cj, Z[:, labels == j], params.alpha_class(n, int(P.counts[j])))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(3, 10), b=st.integers(1, 6), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_vector_update_estimates_membership_from_its_own_projections(n, m, b, k, seed):
    rng = np.random.default_rng(seed)
    P = Partition(labels_for(m, k, rng))
    layer = construct(rng.standard_normal((n, m)), P, L=1, eta=0.3, eps=0.5).layers[0]
    Z = _freq.normalize_samples(rng.standard_normal((n, b)))[None]
    if isinstance(layer.Ebar, _freq.Factored):  # norms read off the m side
        pi = _freq.membership(_freq.dense(layer.Cbar) @ Z, layer.lam, _freq.half_weights(()))
        got, want = _freq.update_batch(Z, layer), _freq.update_batch(Z, layer, pi)
        assert np.max(np.abs(got - want)) < 1e-12
    else:  # its own projections
        CZ = _freq.compressions(Z, layer, np.empty((k + 1, 1, n, b)))[1:]
        pi = _freq.membership(CZ, layer.lam, _freq.half_weights(()))
        assert np.array_equal(_freq.update_batch(Z, layer), _freq.update_batch(Z, layer, pi))


@settings(max_examples=30, deadline=None)
@given(G=st.one_of(st.just(()), groups), C=st.integers(1, 3), m=st.integers(2, 5),
       L=st.integers(0, 2), k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@example(G=(), C=3, m=4, L=0, k=2, seed=0)
@example(G=(), C=3, m=4, L=2, k=2, seed=1)
@example(G=(5,), C=2, m=3, L=0, k=2, seed=2)
@example(G=(2, 3), C=2, m=3, L=1, k=1, seed=3)
def test_streamed_archive_equals_joined_blob_and_loads_writable(G, C, m, L, k, seed):
    # G = () is the vector network on C-dimensional features
    _, Zbar, P = random_stack(seed, C, G, m, k)
    model = construct(Zbar, P, L, eta=0.3, eps=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, os.path.join(tmp, "m.rnet"))
        with open(path, "rb") as fh:
            assert fh.read() == joined_save_model(model)
        back = load_model(path)
    for layer in back.layers:
        for op in vars(layer).values():
            if isinstance(op, np.ndarray):
                assert op.flags.writeable


# ------------------------------------------------ the strided classifier

@st.composite
def subgroups(draw):
    """(G, stride) on 1 or 2 axes: per axis N cosets of d positions, where
    N <= 2 has only real characters and N >= 3 complex pairs too; an axis
    of one coset gets a stride equal to its length or a longer one."""
    G, stride = [], []
    for _ in range(draw(st.integers(1, 2))):
        N, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
        G.append(N * d)
        stride.append(d if N > 1 else draw(st.sampled_from([d, d + 2])))
    return tuple(G), tuple(stride)


def decided(Q, model, margin=1e-8):
    """Columns of Q whose two least class residuals differ by more than rounding."""
    Qf = Q.reshape(-1, Q.shape[-1])
    sq = np.sum(Qf**2, axis=0)
    res = np.sort([sq - np.sum((U.T @ Qf) ** 2, axis=0) for U in model.bases], axis=0)
    return res[1] - res[0] > margin * sq


@settings(max_examples=80, deadline=None)
@given(group=subgroups(), C=st.integers(1, 2), m=st.integers(2, 14),
       energy=st.one_of(st.just(1.0), st.floats(0.05, 1.0)), seed=st.integers(0, 2**32 - 1))
@example(group=((12,), (3,)), C=1, m=10, energy=0.9, seed=0)      # complex pairs, wide
@example(group=((4, 6), (2, 3)), C=2, m=4, energy=0.8, seed=1)    # real characters, tall
@example(group=((6,), (8,)), C=2, m=5, energy=0.95, seed=2)       # stride past the axis
def test_strided_fit_equals_materialized_orbit_oracle(group, C, m, energy, seed):
    G, stride = group
    rng, F, P = random_stack(seed, C, G, m, 2)
    model = fit_subspaces(F, P, energy, stride=stride)
    oracle = orbit_subspaces(F, P, energy, stride)
    split = False
    for j, (U, W) in enumerate(zip(model.bases, oracle.bases)):
        assert U.dtype == np.float64
        orbit = roll_orbit(F[..., P.mask(j)], stride)
        lam = np.linalg.svd(orbit.reshape(-1, orbit.shape[-1]), compute_uv=False) ** 2
        r = W.shape[1]
        if r < lam.size and lam[r - 1] - lam[r] <= 1e-9 * lam[0]:
            # the dense cut halves a conjugate pair, which this fit keeps whole
            split = True
            assert U.shape[1] == r + 1
            assert np.max(np.abs(U @ (U.T @ W) - W)) < 1e-8
        else:
            assert U.shape[1] == r
            assert np.max(np.abs(U @ U.T - W @ W.T)) < 1e-10
    if not split:
        for X in (rng.standard_normal(F.shape[:-1] + (30,)), F):
            keep = decided(X, oracle)
            assert np.array_equal(predict(X, model)[keep], predict(X, oracle)[keep])


# (G, stride) of an invariant kind's augmentation, one stride on every group
# axis: one that divides each axis, or is at least as long as one of them
AUGMENTATIONS = [((12,), 3), ((12,), 12), ((10,), 20), ((6, 8), 2), ((6, 8), 8)]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(AUGMENTATIONS), C=st.integers(1, 3), m=st.integers(2, 12),
       energy=st.one_of(st.just(1.0), st.floats(0.05, 1.0)), seed=st.integers(0, 2**32 - 1))
@example(case=((12,), 3), C=2, m=8, energy=0.95, seed=0)
@example(case=((12,), 12), C=2, m=8, energy=0.95, seed=1)
@example(case=((10,), 20), C=1, m=6, energy=0.9, seed=2)
@example(case=((6, 8), 2), C=2, m=6, energy=0.95, seed=3)
@example(case=((6, 8), 8), C=1, m=5, energy=0.8, seed=4)
def test_invariant_classifier_ignores_the_augmented_shifts(case, C, m, energy, seed):
    # each class is fitted to its orbit under the stride's rolls, which are
    # the augmented shifts, so rolling unit features by any of them moves
    # no class that wins by more than 1e-9
    G, stride = case
    rng, F, P = random_stack(seed, C, G, m, 2)
    clf = fit_subspaces(F, P, energy, stride=(stride,) * len(G))
    axes = tuple(range(1, len(G) + 1))
    for X in (rng.standard_normal(F.shape[:-1] + (30,)), F):
        X = X / np.linalg.norm(X.reshape(-1, X.shape[-1]), axis=0)
        keep = decided(X, clf, margin=1e-9)
        want = predict(X, clf)[keep]
        for shift in augment_shifts(G, stride):
            assert np.array_equal(predict(np.roll(X, shift, axis=axes), clf)[keep], want)


# ------------------------------------------------------ archive headers

U32_MAX = 2**32 - 1
# small values reach the decoder's consistency checks, large ones its size arithmetic
u32s = st.one_of(st.integers(0, 4), st.sampled_from([2**31, U32_MAX]),
                 st.integers(0, U32_MAX))


@settings(max_examples=200, deadline=None)
@given(kind=u32s, k=u32s, L=u32s, trace_rows=u32s, ndim=u32s,
       dims=st.lists(u32s, max_size=4))
@example(kind=2, k=1, L=1, trace_rows=3, ndim=3, dims=[U32_MAX] * 3)  # sizes past int64
@example(kind=1, k=2, L=U32_MAX, trace_rows=3, ndim=2, dims=[0, 8])  # empty layers, 2^32 of them
def test_any_header_with_a_valid_crc_loads_or_raises_data_error(kind, k, L, trace_rows,
                                                                ndim, dims):
    rng = np.random.default_rng(0)
    model = construct(rng.standard_normal((2, 8, 5)), Partition([0, 1, 0, 1, 0]), L=2,
                      eta=0.3, eps=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, os.path.join(tmp, "m.rnet"))
        with open(path, "rb") as fh:
            blob = with_header(fh.read(), kind, k, L, trace_rows, ndim, dims)
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_model(path)
        except DataError:
            pass


def factored_vector_archive():
    """A two-layer v3 vector archive whose operators are all factored (6
    features, classes of 2 and 3 samples, shuffled)."""
    rng = np.random.default_rng(38)
    model = construct(rng.standard_normal((6, 5)), Partition([0, 1, 0, 1, 1]),
                      L=2, eta=0.3, eps=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        with open(save_model(model, os.path.join(tmp, "m.rnet")), "rb") as fh:
            return fh.read()


FACTORED_BLOB = factored_vector_archive()
# magic, version, kind, k, ndim and the dim, eight f64s: the forms, then m,
# the five labels and the first layer's features
V3_FIELDS = 24 + 4 + 64
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# that archive and the committed one of dense and factored layers
V3_BLOBS = {"factored": FACTORED_BLOB,
            "v3_mixed_vector.rnet": (FIXTURES / "v3_mixed_vector.rnet").read_bytes()}
# the committed archives of the version-1 and version-2 writers, converted to
# version 3 with dense layers
OLD_BLOBS = {path.name: path.read_bytes() for path in sorted(FIXTURES.glob("v[12]_*.rnet"))}


def fields_before_the_layers(blob):
    """Bytes of an archive from its magic up to its first layer: the header,
    the operator forms and, when they are factored, m and the labels."""
    k, ndim = struct.unpack_from("<II", blob, 16)
    end = 24 + 4 * ndim + 8 * (4 + 2 * k)
    factored = struct.unpack_from("<I", blob, end)[0]
    end += 4 * (k + 1)
    if factored:
        end += 4 * (1 + struct.unpack_from("<I", blob, end)[0])
    return end


def load_damaged_archive(blob, flips, cut, header, reseal, version=None):
    """Flip bytes of ``blob``, set its version field and cut it, then load
    it: return the model, or None when it raises a DataError, and check that
    no allocation was sized by a damaged field.

    ``header`` moves every flip into the fields before the first layer;
    ``reseal`` cuts the body at ``cut`` and recomputes the CRC, so the
    decoder's own checks must catch what it would; without it the file
    itself is cut there."""
    blob = bytearray(blob)
    size = fields_before_the_layers(blob) if header else len(blob)
    for at, mask in flips:
        blob[at % size] ^= mask
    if version is not None:
        struct.pack_into("<I", blob, 8, version)
    if reseal:
        body = bytes(blob[8:-4][:cut])
        blob = blob[:8] + body + struct.pack("<I", zlib.crc32(body))
    else:
        blob = blob[:cut]
    model = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.rnet")
        with open(path, "wb") as fh:
            fh.write(blob)
        tracemalloc.start()
        try:
            model = load_model(path)
        except DataError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peak < 2**20  # no allocation sized by a damaged field
    return model


damages = dict(flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=3),
               cut=st.one_of(st.none(), st.integers(0, 2**16)), header=st.booleans(),
               reseal=st.booleans())


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(V3_BLOBS)), **damages)
@example(name="factored", flips=[(V3_FIELDS, 2)], cut=None, header=False,
         reseal=True)  # a form of 3
@example(name="factored", flips=[(V3_FIELDS + 4, 1)], cut=None, header=False,
         reseal=True)  # forms 1, 0, 1
@example(name="factored", flips=[(V3_FIELDS + 16, 1)], cut=None, header=False,
         reseal=True)  # label 1
@example(name="factored", flips=[(V3_FIELDS + 12, 5)], cut=None, header=False,
         reseal=True)  # m = 0
@example(name="factored", flips=[], cut=V3_FIELDS + 12, header=False,
         reseal=True)  # cut inside the labels
@example(name="v3_mixed_vector.rnet", flips=[(120, 1)], cut=None, header=True,
         reseal=True)  # class 2 factored beside dense operators
def test_flipped_or_cut_v3_archive_loads_or_raises_data_error(name, flips, cut, header,
                                                              reseal):
    load_damaged_archive(V3_BLOBS[name], flips, cut, header, reseal)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(OLD_BLOBS)), version=st.sampled_from([1, 2, 3]),
       **damages)
@example(name="v2_vector.rnet", version=3, flips=[(20, 1)], cut=None, header=True,
         reseal=True)  # ndim
@example(name="v2_shift.rnet", version=3, flips=[], cut=20, header=False,
         reseal=True)  # cut in the dims
@example(name="v1_vector.rnet", version=3, flips=[], cut=100, header=False, reseal=False)
@example(name="v1_shift.rnet", version=1, flips=[], cut=None, header=False,
         reseal=True)  # the version of the old writer, resealed
@example(name="v2_translation.rnet", version=2, flips=[(24, 1)], cut=None, header=True,
         reseal=True)  # the old version and a damaged dim
def test_flipped_or_cut_v1_or_v2_archive_loads_or_raises_data_error(name, version, flips, cut,
                                                                  header, reseal):
    # ``version`` is written over the version field after the flips: the
    # old writers' 1 and 2 never load, however the rest of the archive reads
    model = load_damaged_archive(OLD_BLOBS[name], flips, cut, header, reseal, version)
    assert version == 3 or model is None


@settings(max_examples=60, deadline=None)
@given(G=st.one_of(st.just(()), groups), L=st.integers(0, 3), cut=st.integers(0, 3),
       honest=st.booleans(), depth=u32s, trace_rows=u32s, seed=st.integers(0, 2**32 - 1))
@example(G=(5,), L=3, cut=1, honest=True, depth=0, trace_rows=0, seed=0)
@example(G=(2, 3), L=2, cut=0, honest=False, depth=2, trace_rows=3, seed=1)
@example(G=(), L=3, cut=2, honest=False, depth=U32_MAX, trace_rows=4, seed=2)
def test_archive_cut_at_a_layer_boundary_loads_those_layers_or_raises_data_error(
        G, L, cut, honest, depth, trace_rows, seed):
    # keep the first `cut` layers and a resealed trailer: with the honest
    # counts that is a valid shorter archive, with any others a DataError
    _, Zbar, P = random_stack(seed, 2, G, 4, 2)
    model = construct(Zbar, P, L, eta=0.3, eps=0.5)
    cut = min(cut, L)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, os.path.join(tmp, "m.rnet"))
        with open(path, "rb") as fh:
            blob = fh.read()
        rows = len(model.trace)
        trace_at = len(blob) - 12 - 24 * rows
        # magic, five u32s and the dims, eight f64s, three operator forms, and
        # the labels when some operator is factored
        labels = model.layers[0].labels if L else None
        header = 8 + 4 * (5 + len(G)) + 8 * 8 + 4 * 3 + (0 if labels is None else 4 * (1 + 4))
        layer_bytes = 0 if L == 0 else (trace_at - header) // L
        kept = blob[8:trace_at - (L - cut) * layer_bytes]
        if honest:
            depth, trace_rows = cut, rows
        body = kept + blob[trace_at:-12] + struct.pack("<II", depth, trace_rows)
        with open(path, "wb") as fh:
            fh.write(blob[:8] + body + struct.pack("<I", zlib.crc32(body)))
        try:
            back = load_model(path)
        except DataError:
            assert not honest
            return
    if honest:
        assert back.depth == cut and np.array_equal(back.trace, model.trace)
        for got, want in zip(back.layers, model.layers):
            assert same_operators(got, want)


# ------------------------------------------------------ config files

# pieces of INI text, among them the interpolation syntax, bytes that are
# not UTF-8, and the values the casters reject
INI_PIECES = [b"[signals1d]\n", b"[gauss2d]\n", b"[custom-vector]\n", b"[DEFAULT]\n",
              b"layers = ", b"eta: ", b"radii = ", b"data = /d/100%/x.npz\n", b"1", b"0.5",
              b"nan", b"-1", b"1,2", b"%", b"%(layers)s", b"%%", b"=", b":", b"[", b"]",
              b"\n", b" ", b"\t", b"#", b";", b"\xe9", b"\xff\xfe", b"\x00"]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS),
       parts=st.lists(st.one_of(st.sampled_from(INI_PIECES), st.binary(max_size=6)),
                      max_size=24))
@example(kind="signals1d", parts=[b"[signals1d]\n", b"layers = ", b"1", b"%", b"\n"])
@example(kind="signals1d", parts=[b"[signals1d]\n", b"#", b"\xe9", b"\n"])
def test_any_config_file_loads_or_raises_config_error(kind, parts):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ini")
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))
        try:
            load_config(kind, path)
        except ConfigError:
            pass
