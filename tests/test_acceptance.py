"""End-to-end acceptance gate, one test per shipped guarantee.

Each test name states the guarantee; the body pins the tolerance. Small
algebraic checks run in process, desk-scale runs go through the command
line the way a user would drive them. The two handwritten-digit checks
need the four standard IDX files (train + t10k images and labels) under
$REDUNET_MNIST_DIR or tests/data/mnist/ and skip loudly otherwise.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import redunet
from redunet import (Partition, construct, fit_subspaces, forward, group_gradient,
                     group_rate_components, lift_1d, lift_2d, predict, random_filters,
                     rate_reduction, signals_1d, sparsify)
from redunet.harness import read_csv
from redunet.harness.cli import main as cli_main
from redunet.rate import default_lambda
from redunet.spectral import dft, spectral_operators

import oracles
import test_spectral1d as s1
import test_spectral2d as s2
from test_experiments import _glyphs

MNIST_NAMES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def mnist_root():
    root = os.environ.get("REDUNET_MNIST_DIR")
    if not root:
        root = os.path.join(os.path.dirname(__file__), "data", "mnist")
    for name in MNIST_NAMES:
        if not any(os.path.exists(os.path.join(root, name + ext))
                   for ext in ("", ".gz")):
            return None
    return root


needs_digits = pytest.mark.skipif(
    mnist_root() is None,
    reason="BLOCKED: needs the four standard handwritten-digit IDX files "
           "(train + t10k); point REDUNET_MNIST_DIR at them or place them "
           "in tests/data/mnist/")


def metrics(out_dir):
    _, rows = read_csv(os.path.join(out_dir, "accuracy.csv"))
    return {name: float(value) for name, value in rows}


def loss_column(out_dir):
    _, rows = read_csv(os.path.join(out_dir, "loss_curve.csv"))
    return np.array([float(row[1]) for row in rows])


def run_cli(args):
    rc = cli_main(args)
    assert rc == 0


# ---------------------------------------------------------------- 1


def test_criterion_01_spectral_path_matches_dense_within_1e7():
    t0 = time.monotonic()
    eps = 0.5

    # shift case, stack (C=2, T=8, m=4)
    Zbar, labels = s1.sample_stack(0)
    P = Partition(labels)
    fast = group_rate_components(Zbar, P, eps, method="fast")
    dense = group_rate_components(Zbar, P, eps, method="dense")
    assert max(abs(f - d) for f, d in zip(fast, dense)) <= 1e-7

    layer = spectral_operators(dft(Zbar, 1), P, eps)
    E, Cs = s1.dense_ops(Zbar, labels, eps)
    assert np.max(np.abs(s1.assemble_dense(layer.Ebar, 8) - E)) <= 1e-7
    for j in range(P.k):
        assert np.max(np.abs(s1.assemble_dense(layer.Cbar[j], 8) - Cs[j])) <= 1e-7

    expand, compress = group_gradient(Zbar, P, eps)
    num = oracles.central_diff_grad(
        lambda A: group_rate_components(A, P, eps, method="dense")[0], Zbar)
    assert np.max(np.abs(expand - compress.sum(axis=0) - num)) <= 1e-7

    model = construct(Zbar, P, 3, 0.5, eps)
    ref = s1.dense_construct(Zbar, labels, 3, 0.5, eps, default_lambda(P.k))
    assert np.max(np.abs(model.features - ref)) <= 1e-7

    # translation case, stack (C=2, H=W=3, m=2)
    Qbar, qlabels = s2.image_stack(0, m=2)
    Q = Partition(qlabels)
    fast = group_rate_components(Qbar, Q, eps, method="fast")
    dense = group_rate_components(Qbar, Q, eps, method="dense")
    assert max(abs(f - d) for f, d in zip(fast, dense)) <= 1e-7

    layer2 = spectral_operators(dft(Qbar, 2), Q, eps)
    E2, Cs2 = s2.dense_ops(Qbar, qlabels, eps)
    assert np.max(np.abs(s2.assemble_dense(layer2.Ebar, 3, 3) - E2)) <= 1e-7
    for j in range(Q.k):
        assert np.max(np.abs(s2.assemble_dense(layer2.Cbar[j], 3, 3) - Cs2[j])) <= 1e-7

    expand2, compress2 = group_gradient(Qbar, Q, eps)
    num2 = oracles.central_diff_grad(
        lambda A: group_rate_components(A, Q, eps, method="dense")[0], Qbar)
    assert np.max(np.abs(expand2 - compress2.sum(axis=0) - num2)) <= 1e-7

    model2 = construct(Qbar, Q, 3, 0.5, eps)
    ref2 = s2.dense_construct(Qbar, qlabels, 3, 0.5, eps, default_lambda(Q.k))
    assert np.max(np.abs(model2.features - ref2)) <= 1e-7

    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------- 2


def test_criterion_02_gradients_match_finite_differences_within_1e5():
    t0 = time.monotonic()
    checked = 0

    def rel_err(analytic, f, Z):
        num = oracles.central_diff_grad(f, Z)
        return np.max(np.abs(analytic - num)) / np.max(np.abs(num))

    def scalar_grad(pair):
        expand, compress = pair
        return expand - compress.sum(axis=0)

    vector_shapes = [(2, 4, 2), (3, 6, 2), (5, 6, 3), (4, 8, 2),
                     (3, 5, 2), (6, 6, 3), (2, 6, 2), (5, 8, 2)]
    for i, (n, m, k) in enumerate(vector_shapes):
        rng = np.random.default_rng(100 + i)
        Z = rng.standard_normal((n, m))
        P = Partition(np.arange(m) % k)
        eps = (0.3, 0.5, 1.0)[i % 3]
        err = rel_err(scalar_grad(group_gradient(Z, P, eps)),
                      lambda A: rate_reduction(A, P, eps), Z)
        assert err <= 1e-5, f"vector instance {i}: {err:.2e}"
        checked += 1

    shift_shapes = [(1, 4, 4), (2, 4, 3), (2, 6, 4), (3, 8, 3), (2, 8, 4), (3, 4, 4)]
    for i, (C, T, m) in enumerate(shift_shapes):
        rng = np.random.default_rng(200 + i)
        Zbar = rng.standard_normal((C, T, m))
        P = Partition(np.arange(m) % 2)
        eps = (0.3, 0.5, 1.0)[i % 3]
        err = rel_err(scalar_grad(group_gradient(Zbar, P, eps)),
                      lambda A: group_rate_components(A, P, eps)[0], Zbar)
        assert err <= 1e-5, f"shift instance {i}: {err:.2e}"
        checked += 1

    image_shapes = [(1, 2, 3, 3), (2, 3, 3, 3), (2, 2, 2, 4),
                    (1, 3, 4, 3), (2, 3, 4, 2), (2, 4, 4, 3)]
    for i, (C, H, W, m) in enumerate(image_shapes):
        rng = np.random.default_rng(300 + i)
        Zbar = rng.standard_normal((C, H, W, m))
        P = Partition(np.arange(m) % 2)
        eps = (0.3, 0.5, 1.0)[i % 3]
        err = rel_err(scalar_grad(group_gradient(Zbar, P, eps)),
                      lambda A: group_rate_components(A, P, eps)[0], Zbar)
        assert err <= 1e-5, f"image instance {i}: {err:.2e}"
        checked += 1

    assert checked >= 20
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------- 3


def test_criterion_03_degenerate_inputs_and_norm_conservation():
    rng = np.random.default_rng(3)

    # one class only: nothing to separate, the objective vanishes
    Z = rng.standard_normal((4, 6))
    assert abs(rate_reduction(Z, Partition(np.zeros(6, dtype=int)), 0.5)) < 1e-10
    Zbar = rng.standard_normal((2, 8, 4))
    assert abs(group_rate_components(Zbar, Partition(np.zeros(4, dtype=int)), 0.5)[0]) < 1e-10
    Qbar = rng.standard_normal((2, 3, 3, 4))
    assert abs(group_rate_components(Qbar, Partition(np.zeros(4, dtype=int)), 0.5)[0]) < 1e-10

    # both Gram orders give the same log-volume
    for n, m in [(3, 8), (8, 3), (5, 5)]:
        A = rng.standard_normal((n, m))
        alpha = n / (m * 0.25)
        primal = np.linalg.slogdet(np.eye(n) + alpha * A @ A.T)[1]
        dual = np.linalg.slogdet(np.eye(m) + alpha * A.T @ A)[1]
        assert abs(primal - dual) <= 1e-9

    # the unitary transforms conserve energy sample by sample
    Sbar = rng.standard_normal((3, 16, 5))
    sig = np.sqrt((Sbar ** 2).sum(axis=(0, 1)))
    spec = np.sqrt((np.abs(dft(Sbar, 1)) ** 2).sum(axis=(0, 1)))
    assert np.max(np.abs(sig - spec)) <= 1e-10
    Ibar = rng.standard_normal((2, 4, 6, 5))
    sig2 = np.sqrt((Ibar ** 2).sum(axis=(0, 1, 2)))
    spec2 = np.sqrt((np.abs(dft(Ibar, 2)) ** 2).sum(axis=(0, 1, 2)))
    assert np.max(np.abs(sig2 - spec2)) <= 1e-10

    # every constructed feature (and carried sample) lands on the sphere
    X = rng.standard_normal((4, 12))
    P = Partition(np.arange(12) % 2)
    net = construct(X, P, 5, 0.5, 0.5, carry=rng.standard_normal((4, 3)))
    assert np.max(np.abs(np.linalg.norm(net.features, axis=0) - 1)) <= 1e-10
    assert np.max(np.abs(np.linalg.norm(net.carry_features, axis=0) - 1)) <= 1e-10

    Zbar, labels = s1.sample_stack(7)
    net1 = construct(Zbar, Partition(labels), 5, 0.5, 0.5,
                     carry=rng.standard_normal((2, 8, 3)))
    for F in (net1.features, net1.carry_features):
        norms = np.sqrt((F ** 2).sum(axis=(0, 1)))
        assert np.max(np.abs(norms - 1)) <= 1e-10

    Qbar, qlabels = s2.image_stack(7)
    net2 = construct(Qbar, Partition(qlabels), 5, 0.5, 0.5,
                     carry=rng.standard_normal((2, 3, 3, 3)))
    for F in (net2.features, net2.carry_features):
        norms = np.sqrt((F ** 2).sum(axis=(0, 1, 2)))
        assert np.max(np.abs(norms - 1)) <= 1e-10


# ---------------------------------------------------------------- 4


def test_criterion_04_equivariance_and_prediction_stability():
    # full shift group on T = 32 signals
    train = signals_1d(m_per_class=30, n=32, seed=0, noise=0.05)
    test = signals_1d(m_per_class=25, n=32, seed=1, noise=0.05)
    bank = random_filters(3, 3, seed=2)
    Zb = sparsify(lift_1d(train.samples.T, bank))
    Tb = sparsify(lift_1d(test.samples.T, bank))
    model = construct(Zb, Partition(train.labels), 30, 0.1, 0.1,
                      use_labels=True)
    base = forward(model, Tb)

    # fitted to the orbit of the training features under all 32 shifts
    clf = fit_subspaces(model.features, Partition(train.labels), 0.95, stride=(1,))
    base_pred = predict(base.reshape(base.shape[0] * 32, -1), clf)

    worst = 0.0
    agree = 0
    total = 0
    for s in range(32):
        shifted = forward(model, np.roll(Tb, s, axis=1))
        worst = max(worst, np.max(np.abs(shifted - np.roll(base, s, axis=1))))
        pred = predict(shifted.reshape(shifted.shape[0] * 32, -1), clf)
        agree += int((pred == base_pred).sum())
        total += base_pred.size
    assert worst <= 1e-8
    assert agree / total >= 0.999

    # stride-7 subgroup on 28 x 28 images
    imgs, labels = _glyphs(20, seed=0, size=28)
    timgs, tlabels = _glyphs(15, seed=1, size=28)
    bank2 = random_filters(2, (3, 3), seed=2)
    Zb2 = sparsify(lift_2d(imgs.astype(float).transpose(1, 2, 0) / 255.0, bank2))
    Tb2 = sparsify(lift_2d(timgs.astype(float).transpose(1, 2, 0) / 255.0, bank2))
    model2 = construct(Zb2, Partition(labels), 15, 0.5, 0.1,
                       use_labels=True)
    base2 = forward(model2, Tb2)

    rolls = [(p, q) for p in range(0, 28, 7) for q in range(0, 28, 7)]
    clf2 = fit_subspaces(model2.features, Partition(labels), 0.95, stride=(7, 7))
    base_pred2 = predict(base2.reshape(2 * 28 * 28, -1), clf2)

    worst2 = 0.0
    agree2 = 0
    total2 = 0
    for p, q in rolls:
        shifted = forward(model2, np.roll(Tb2, (p, q), axis=(1, 2)))
        worst2 = max(worst2, np.max(np.abs(shifted - np.roll(base2, (p, q), axis=(1, 2)))))
        pred = predict(shifted.reshape(2 * 28 * 28, -1), clf2)
        agree2 += int((pred == base_pred2).sum())
        total2 += base_pred2.size
    assert worst2 <= 1e-8
    assert agree2 / total2 >= 0.999


# ---------------------------------------------------------------- 5


def test_criterion_05_gaussian_desks_reach_orthogonal_features(tmp_path):
    # defaults are the desk configuration: 500 samples per class on the
    # circle / sphere, sigma 0.1, eta 0.5, eps 0.1, 2000 layers
    for kind in ("gauss2d", "gauss3d"):
        out = str(tmp_path / kind)
        t0 = time.monotonic()
        run_cli(["construct", kind, "--out", out])
        assert time.monotonic() - t0 < 120.0

        vals = metrics(out)
        assert vals["within_class_max_angle_deg"] < 10.0
        assert vals["cross_class_max_abs_cos"] < 0.1

        loss = loss_column(out)
        assert loss[-1] >= loss[0]
        assert np.diff(loss[:101]).min() >= -1e-3


# ---------------------------------------------------------------- 6


def test_criterion_06_shifted_signals_become_cross_class_orthogonal(tmp_path):
    # 200 train signals per class of length 150, 7 lifting channels,
    # 2000 layers at eta 0.1, eps 0.1; the test split is smaller than
    # the default to keep the run well inside the time budget
    ini = tmp_path / "signals.ini"
    ini.write_text("[signals1d]\nm_test_per_class = 100\nstride = 50\n")
    out = str(tmp_path / "signals")
    t0 = time.monotonic()
    run_cli(["construct", "signals1d", "--config", str(ini), "--out", out])
    assert time.monotonic() - t0 < 900.0
    assert metrics(out)["cross_class_orthogonal_fraction"] >= 0.95


# ---------------------------------------------------------------- 7


@needs_digits
def test_criterion_07_rotation_invariant_model_beats_vector_baseline(tmp_path):
    root = mnist_root()
    base = ("data_dir = {root}\n"
            "m_per_class = 250\n"
            "m_test_per_class = 50\n"
            "gamma = 100\n"
            "channels = 5\n"
            "layers = 500\n").format(root=root)

    ini = tmp_path / "invariant.ini"
    ini.write_text("[mnist-rotation]\n" + base + "stride = 1\nvariant = invariant\n")
    inv_out = str(tmp_path / "invariant")
    run_cli(["construct", "mnist-rotation", "--config", str(ini), "--out", inv_out])
    inv = metrics(inv_out)
    assert inv["augmented_test_accuracy"] >= 0.95

    # the flat baseline sees 20 evenly spaced rotations of each test digit
    ini2 = tmp_path / "vector.ini"
    ini2.write_text("[mnist-rotation]\n" + base + "stride = 5\nvariant = vector\n")
    vec_out = str(tmp_path / "vector")
    run_cli(["construct", "mnist-rotation", "--config", str(ini2), "--out", vec_out])
    vec = metrics(vec_out)
    assert vec["test_accuracy"] - vec["augmented_test_accuracy"] >= 0.15


# ---------------------------------------------------------------- 8


@needs_digits
def test_criterion_08_translation_invariant_model_beats_vector_baseline(tmp_path):
    t0 = time.monotonic()
    root = mnist_root()
    base = ("data_dir = {root}\n"
            "m_per_class = 200\n"
            "m_test_per_class = 50\n"
            "channels = 5\n"
            "kernel_size = 3\n"
            "stride = 7\n"
            "layers = 500\n").format(root=root)

    ini = tmp_path / "invariant.ini"
    ini.write_text("[mnist-translation]\n" + base + "variant = invariant\n")
    inv_out = str(tmp_path / "invariant")
    run_cli(["construct", "mnist-translation", "--config", str(ini), "--out", inv_out])
    assert metrics(inv_out)["augmented_test_accuracy"] >= 0.85

    ini2 = tmp_path / "vector.ini"
    ini2.write_text("[mnist-translation]\n" + base + "variant = vector\n")
    vec_out = str(tmp_path / "vector")
    run_cli(["construct", "mnist-translation", "--config", str(ini2), "--out", vec_out])
    assert metrics(vec_out)["augmented_test_accuracy"] <= 0.70

    assert time.monotonic() - t0 < 1800.0


# ---------------------------------------------------------------- 9


def test_criterion_09_frequency_factorization_is_10x_faster(tmp_path):
    out = str(tmp_path / "selftest")
    run_cli(["selftest", "--out", out])
    _, rows = read_csv(os.path.join(out, "selftest.csv"))
    vals = {name: float(value) for name, value in rows}
    assert vals["benchmark_speedup"] >= 10.0


# ---------------------------------------------------------------- 10


def _package_env():
    """The parent's environment with the imported redunet's root first on PYTHONPATH.

    A relative PYTHONPATH (the source-tree ``PYTHONPATH=src``) would resolve
    against a child's own working directory, so the children get the
    absolute directory that holds the package this test run imports.
    """
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(redunet.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


def _run_child(args, env, cwd):
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          check=False, env=env, cwd=cwd)
    assert done.returncode == 0, (
        f"{' '.join(args)} exited {done.returncode}:\n"
        + done.stderr.decode(errors="replace"))
    return done.stdout.decode()


def test_criterion_10_same_seed_reproduces_artifacts_byte_for_byte(tmp_path):
    env = _package_env()
    child_file = _run_child(["-c", "import redunet; print(redunet.__file__)"],
                            env, str(tmp_path)).strip()
    assert os.path.realpath(child_file) == os.path.realpath(redunet.__file__), (
        f"child imports {child_file}, this test run {redunet.__file__}")
    ini = tmp_path / "repro.ini"
    ini.write_text("[gauss2d]\nm_per_class = 40\nm_test_per_class = 30\n"
                   "layers = 60\nsave_model = true\nseed = 5\n")
    for name in ("one", "two"):
        _run_child(["-m", "redunet.harness.cli", "construct", "gauss2d",
                    "--config", str(ini), "--out", str(tmp_path / name)],
                   env, str(tmp_path))
    artifacts = ["loss_curve.csv", "cosine_train.csv", "cosine_test.csv",
                 "accuracy.csv", "model.rnet"]
    for name in artifacts:
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
