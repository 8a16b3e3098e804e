import re

import numpy as np
import pytest

from redunet.errors import ConfigError, DataError
from redunet.harness.archive import load_model
from redunet.harness.config import load_config
from redunet.harness import experiments
from redunet.harness.csvio import read_csv, read_matrix
from redunet.harness.cli import main
from redunet.harness.experiments import eval_experiment, run_experiment

from oracles import all_copies_accuracies, roll_orthogonal_fraction
from test_datasets import write_idx_images, write_idx_labels


def gauss_cfg(**kw):
    raw = {"m_per_class": "12", "m_test_per_class": "8", "layers": "15"}
    raw.update({k: str(v) for k, v in kw.items()})
    return load_config("gauss2d", None, raw)


def artifact_names(out):
    return sorted(p.name for p in out.iterdir())


# -------------------------------------------------------------- vector kinds

def test_gauss_artifacts_and_metrics(tmp_path):
    out = tmp_path / "run"
    metrics = run_experiment(gauss_cfg(), out)
    assert artifact_names(out) == ["accuracy.csv", "cosine_test.csv",
                                   "cosine_train.csv", "loss_curve.csv"]
    assert set(metrics) == {"train_accuracy", "test_accuracy",
                            "within_class_max_angle_deg", "cross_class_max_abs_cos"}
    loss = read_matrix(out / "loss_curve.csv")
    assert loss.shape == (16, 4)  # initial state plus one row per layer
    assert np.array_equal(loss[:, 0], np.arange(16))
    # objective rows satisfy reduction = rate - class rate
    assert np.max(np.abs(loss[:, 1] - (loss[:, 2] - loss[:, 3]))) < 1e-12
    cos_tr = read_matrix(out / "cosine_train.csv")
    assert cos_tr.shape == (24, 24)
    assert np.max(np.abs(np.diag(cos_tr) - 1.0)) < 1e-12  # unit-norm features
    assert read_matrix(out / "cosine_test.csv").shape == (16, 24)


def test_zero_layer_run_has_single_loss_row(tmp_path):
    out = tmp_path / "run"
    run_experiment(gauss_cfg(layers=0), out)
    header, rows = read_csv(out / "loss_curve.csv")
    assert header == ["layer", "rate_reduction", "rate", "class_rate"]
    assert len(rows) == 1


def test_archive_written_when_requested(tmp_path):
    out = tmp_path / "run"
    run_experiment(gauss_cfg(save_model="true"), out)
    model = load_model(out / "model.rnet")
    assert model.depth == 15 and model.C == 2


def _fail_on_call(original, n):
    calls = []

    def fn(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise RuntimeError(f"call {n} failed")
        return original(*args, **kwargs)
    return fn


@pytest.mark.parametrize("target", ["build_layer", "_metric_rows"])
def test_failed_run_leaves_no_archive_and_no_temporary_file(tmp_path, monkeypatch, target):
    # the layers stream to a temporary file that only a finished run renames
    from redunet import _freq
    module, n = (_freq, 2) if target == "build_layer" else (experiments, 1)
    monkeypatch.setattr(module, target, _fail_on_call(getattr(module, target), n))
    cfg = load_config("signals1d", None, {"m_per_class": "4", "m_test_per_class": "3",
                                          "n": "12", "channels": "2", "layers": "3",
                                          "save_model": "true"})
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match=f"call {n} failed"):
        run_experiment(cfg, out)
    assert artifact_names(out) == []


def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    cfg = gauss_cfg(save_model="true")
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    for name in artifact_names(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seed_changes_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(gauss_cfg(), a)
    run_experiment(gauss_cfg(seed=1), b)
    assert (a / "cosine_train.csv").read_bytes() != (b / "cosine_train.csv").read_bytes()


def test_eval_reproduces_metric_set(tmp_path):
    out = tmp_path / "run"
    run_experiment(gauss_cfg(save_model="true"), out)
    redo = tmp_path / "redo"
    metrics = eval_experiment(gauss_cfg(), out / "model.rnet", redo)
    assert set(metrics) == {"train_accuracy", "test_accuracy",
                            "within_class_max_angle_deg", "cross_class_max_abs_cos"}
    assert (redo / "loss_curve.csv").exists()


SMALL = {"gauss2d": {"m_per_class": "12", "m_test_per_class": "8", "layers": "15"},
         "gauss3d": {"m_per_class": "6", "m_test_per_class": "4"},
         "signals1d": {"m_per_class": "4", "m_test_per_class": "3", "n": "12",
                       "channels": "2", "layers": "2"}}


# the dims' length is the group rank plus one, so comparing the dims alone
# also refuses an archive of another geometry
@pytest.mark.parametrize("built, evaluated, dims, shape", [
    ("gauss2d", "gauss3d", (2,), (3,)),
    ("gauss2d", "signals1d", (2,), (2, 12)),
    ("signals1d", "gauss2d", (2, 12), (2,)),
])
def test_eval_rejects_mismatched_archive(tmp_path, built, evaluated, dims, shape):
    out = tmp_path / "run"
    run_experiment(load_config(built, None, {**SMALL[built], "save_model": "true"}), out)
    cfg = load_config(evaluated, None, {**SMALL[evaluated], "save_model": "true"})
    with pytest.raises(ConfigError, match=re.escape(
            f"holds a model of shape {dims}, but the experiment needs one of shape {shape}")):
        eval_experiment(cfg, out / "model.rnet", tmp_path / "redo")
    assert not (tmp_path / "redo").exists()


def test_each_stage_releases_the_freed_heap_even_when_it_fails(tmp_path, monkeypatch):
    trims = []
    monkeypatch.setattr(experiments, "_malloc_trim", trims.append)
    out = tmp_path / "run"
    run_experiment(gauss_cfg(save_model="true", layers=2), out)
    assert trims == [0]
    cfg3 = load_config("gauss3d", None, {"m_per_class": "6", "m_test_per_class": "4"})
    with pytest.raises(ConfigError):
        eval_experiment(cfg3, out / "model.rnet", tmp_path / "redo")
    assert trims == [0, 0]
    assert (run_experiment.__name__, eval_experiment.__name__) == (
        "run_experiment", "eval_experiment")


# ------------------------------------------------------------- custom vector

def test_custom_vector_npz(tmp_path):
    rng = np.random.default_rng(5)
    data = tmp_path / "data.npz"
    np.savez(data, X=rng.standard_normal((4, 10)),
             labels=np.repeat([0, 1], 5),
             X_test=rng.standard_normal((4, 6)),
             labels_test=np.repeat([0, 1], 3))
    cfg = load_config("custom-vector", _write_ini(tmp_path, data), {"layers": "10"})
    out = tmp_path / "run"
    metrics = run_experiment(cfg, out)
    assert "test_accuracy" in metrics
    assert (out / "cosine_test.csv").exists()


def _write_ini(tmp_path, data):
    path = tmp_path / "c.ini"
    path.write_text(f"[custom-vector]\ndata = {data}\n")
    return path


def test_custom_vector_without_test_split(tmp_path):
    rng = np.random.default_rng(6)
    data = tmp_path / "data.npz"
    np.savez(data, X=rng.standard_normal((3, 8)), labels=np.repeat([0, 1], 4))
    cfg = load_config("custom-vector", _write_ini(tmp_path, data), {"layers": "5"})
    out = tmp_path / "run"
    metrics = run_experiment(cfg, out)
    assert set(metrics) == {"train_accuracy"}
    assert not (out / "cosine_test.csv").exists()


def test_custom_vector_missing_pieces(tmp_path):
    cfg = load_config("custom-vector", _write_ini(tmp_path, tmp_path / "absent.npz"))
    with pytest.raises(DataError):
        run_experiment(cfg, tmp_path / "run")
    bad = tmp_path / "bad.npz"
    np.savez(bad, X=np.ones((3, 4)))
    cfg = load_config("custom-vector", _write_ini(tmp_path, bad))
    with pytest.raises(DataError):
        run_experiment(cfg, tmp_path / "run")


def test_custom_vector_requires_data_key(tmp_path):
    cfg = load_config("custom-vector")
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path / "run")


# ------------------------------------------------------------------ signals

def test_signals_run_includes_shift_metrics(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text("[signals1d]\nm_per_class = 5\nm_test_per_class = 3\nn = 12\n"
                    "channels = 3\nstride = 4\nlayers = 8\n")
    cfg = load_config("signals1d", path)
    out = tmp_path / "run"
    metrics = run_experiment(cfg, out)
    assert set(metrics) == {"train_accuracy", "test_accuracy",
                            "augmented_test_accuracy",
                            "cross_class_orthogonal_fraction"}
    assert 0.0 <= metrics["cross_class_orthogonal_fraction"] <= 1.0
    # cosine matrices are |cos|, bounded by one
    assert read_matrix(out / "cosine_train.csv").max() <= 1.0 + 1e-12


def _unit_stack(rng, C, T, m, scale=1.0):
    F = rng.standard_normal((C, T, m))
    return scale * F / np.linalg.norm(F.reshape(-1, m), axis=0)


def _sweep_case(seed, C, T, train_counts, test_counts, scale=1.0):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(train_counts)), train_counts))
    test_labels = rng.permutation(np.repeat(np.arange(len(test_counts)), test_counts))
    return (_unit_stack(rng, C, T, test_labels.size, scale), test_labels,
            _unit_stack(rng, C, T, labels.size, scale), labels)


@pytest.mark.parametrize("C, T, train_counts, test_counts", [
    (3, 1, (4, 6), (5, 2)),
    (3, 2, (4, 6), (5, 2)),
    (2, 7, (3, 5), (4, 1)),
    (2, 8, (3, 5), (4, 1)),
    (1, 9, (6, 2), (2, 3)),
    (4, 6, (2, 5, 3), (3, 1, 4)),
    (2, 5, (1, 4, 7), (2, 6, 1)),
])
def test_shift_sweep_equals_roll_loop(C, T, train_counts, test_counts):
    case = _sweep_case(C * 100 + T, C, T, train_counts, test_counts)
    assert (experiments._orthogonal_fraction_all_shifts(*case)
            == roll_orthogonal_fraction(*case))


def test_shift_sweep_splits_a_class_into_row_blocks():
    T, per_class = 256, 4096
    assert experiments._SWEEP_BLOCK_VALUES // (per_class * T) < 3
    case = _sweep_case(5, 1, T, (per_class, per_class), (3, 2))
    assert (experiments._orthogonal_fraction_all_shifts(*case)
            == roll_orthogonal_fraction(*case))


def test_shift_sweep_uneven_last_block(monkeypatch):
    T, per_class = 6, 5
    monkeypatch.setattr(experiments, "_SWEEP_BLOCK_VALUES", 2 * per_class * T + 1)
    case = _sweep_case(6, 2, T, (per_class, per_class), (5, 3))
    assert (experiments._orthogonal_fraction_all_shifts(*case)
            == roll_orthogonal_fraction(*case))


@pytest.mark.parametrize("T", [1, 2])
def test_shift_sweep_counts_a_cosine_at_the_threshold(T):
    F_test = np.zeros((1, T, 1))
    F_test[0, 0, 0] = experiments.ORTHO_COS
    F_train = np.zeros((1, T, 2))
    F_train[0, 0] = 1.0
    case = (F_test, np.array([0]), F_train, np.array([0, 1]))
    assert experiments._orthogonal_fraction_all_shifts(*case) == 1.0
    assert roll_orthogonal_fraction(*case) == 1.0


def test_shift_sweep_with_cosines_near_threshold():
    # unit columns in C*T = 100 dimensions have cosines of spread 0.1; scaling
    # both stacks by 1.2 puts the median |cos| at the 0.1 threshold
    case = _sweep_case(7, 4, 25, (30, 20), (15, 25), scale=1.2)
    F_test, _, F_train, _ = case
    cos = np.abs(F_test.reshape(100, -1).T @ F_train.reshape(100, -1))
    assert np.mean(np.abs(cos - 0.1) < 0.01) > 0.05
    fraction = experiments._orthogonal_fraction_all_shifts(*case)
    assert 0.4 < fraction < 0.6
    assert fraction == roll_orthogonal_fraction(*case)


# ------------------------------------------------------- synthetic IDX runs

def _glyphs(m_per_class, seed, size=12):
    """Two translated noisy shapes: filled block vs plus sign."""
    rng = np.random.default_rng(seed)
    images = np.zeros((2 * m_per_class, size, size), dtype=np.uint8)
    labels = np.repeat(np.arange(2), m_per_class).astype(np.uint8)
    for i in range(2 * m_per_class):
        img = np.zeros((size, size))
        if labels[i] == 0:
            img[3:9, 3:9] = 200.0
        else:
            img[5:7, 1:11] = 200.0
            img[1:11, 5:7] = 200.0
        img += rng.integers(0, 30, size=(size, size))
        img = np.roll(img, tuple(rng.integers(0, size, size=2)), axis=(0, 1))
        images[i] = np.clip(img, 0, 255)
    return images, labels


@pytest.fixture
def glyph_dir(tmp_path):
    d = tmp_path / "idx"
    d.mkdir()
    for stem, m, seed in (("train", 6, 0), ("t10k", 4, 1)):
        images, labels = _glyphs(m, seed)
        write_idx_images(d / f"{stem}-images-idx3-ubyte", images)
        write_idx_labels(d / f"{stem}-labels-idx1-ubyte", labels)
    return d


def _digit_cfg(kind, glyph_dir, tmp_path, variant, **kw):
    values = {"data_dir": glyph_dir, "variant": variant, "m_per_class": 4,
              "m_test_per_class": 3, "layers": 3}
    values.update(kw)
    lines = [f"[{kind}]"] + [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / "d.ini"
    path.write_text("\n".join(lines) + "\n")
    return load_config(kind, path)


@pytest.mark.parametrize("variant", ["invariant", "vector"])
def test_rotation_pipeline_on_synthetic_digits(tmp_path, glyph_dir, variant):
    cfg = _digit_cfg("mnist-rotation", glyph_dir, tmp_path, variant,
                     gamma=8, stride=2, channels=3)
    out = tmp_path / f"run-{variant}"
    metrics = run_experiment(cfg, out)
    assert {"train_accuracy", "test_accuracy",
            "augmented_test_accuracy"} <= set(metrics)
    loss = read_matrix(out / "loss_curve.csv")
    assert loss.shape[0] == 4
    # augmented accuracy is over 8/2 = 4 rotations of each of 6 test grids
    assert read_matrix(out / "cosine_test.csv").shape == (6, 8)


@pytest.mark.parametrize("variant", ["invariant", "vector"])
def test_translation_pipeline_on_synthetic_digits(tmp_path, glyph_dir, variant):
    cfg = _digit_cfg("mnist-translation", glyph_dir, tmp_path, variant,
                     stride=6, kernel_size=3, channels=2)
    out = tmp_path / f"run-{variant}"
    metrics = run_experiment(cfg, out)
    assert {"train_accuracy", "test_accuracy",
            "augmented_test_accuracy"} <= set(metrics)
    assert all(0.0 <= v <= 1.0 for v in metrics.values())


def test_translation_stride_must_divide_or_cover_the_image(tmp_path, glyph_dir, capsys):
    # 5 neither divides nor covers the 12 x 12 glyphs; the vector variant
    # only augments with it and fits no orbit
    vector = _digit_cfg("mnist-translation", glyph_dir, tmp_path, "vector",
                        stride=5, kernel_size=3, channels=2, layers=0)
    run_experiment(vector, tmp_path / "vector")
    invariant = _digit_cfg("mnist-translation", glyph_dir, tmp_path, "invariant",
                           stride=5, kernel_size=3, channels=2, layers=0)
    with pytest.raises(ConfigError, match="stride 5"):
        run_experiment(invariant, tmp_path / "invariant")
    for stride, code in (("5", 2), ("12", 0), ("13", 0)):
        rc = main(["construct", "mnist-translation", "--config", str(tmp_path / "d.ini"),
                   "--stride", stride, "--out", str(tmp_path / f"cli{stride}")])
        assert rc == code
    assert "Traceback" not in capsys.readouterr().err


def test_translation_invariant_model_kind(tmp_path, glyph_dir):
    cfg = _digit_cfg("mnist-translation", glyph_dir, tmp_path, "invariant",
                     stride=6, kernel_size=3, channels=2, save_model="true")
    out = tmp_path / "run"
    run_experiment(cfg, out)
    model = load_model(out / "model.rnet")
    assert (model.C, *model.freq_shape) == (2, 12, 12)


DIGIT_SHAPES = {"mnist-translation": {"stride": 6, "kernel_size": 3, "channels": 2},
                "mnist-rotation": {"gamma": 8, "stride": 2, "channels": 3}}


@pytest.mark.parametrize("kind", sorted(DIGIT_SHAPES))
@pytest.mark.parametrize("variant", ["invariant", "vector"])
def test_digit_pipelines_run_offline_through_the_cli(tmp_path, glyph_dir, capsys,
                                                     kind, variant):
    # construct, augment-eval and export-kernel on generated IDX files, so
    # the polar transform, both augmentations and both variants of each
    # digit kind run without real MNIST
    _digit_cfg(kind, glyph_dir, tmp_path, variant, save_model="true", **DIGIT_SHAPES[kind])
    ini = str(tmp_path / "d.ini")
    built, evaluated, kernels = (tmp_path / name for name in ("construct", "eval", "kernels"))
    assert main(["construct", kind, "--config", ini, "--out", str(built)]) == 0
    archive = str(built / "model.rnet")
    assert main(["augment-eval", kind, archive, "--config", ini, "--out", str(evaluated)]) == 0
    rows = [dict(read_csv(out / "accuracy.csv")[1]) for out in (built, evaluated)]
    assert set(rows[0]) == {"train_accuracy", "test_accuracy", "augmented_test_accuracy"}
    # the carried test and augmented features score as their forwards do
    for key in ("test_accuracy", "augmented_test_accuracy"):
        assert rows[0][key] == rows[1][key]
    code = main(["export-kernel", archive, "--out", str(kernels)])
    if variant == "vector":
        assert code == 2
        assert "vector archives store no convolution kernels" in capsys.readouterr().err
        return
    assert code == 0
    model = load_model(archive)
    for name in ("kernel_expand", "kernel_compress_class0", "kernel_compress_class1"):
        header, cells = read_csv(kernels / f"{name}.csv")
        assert len(cells) == model.C**2
        assert len(header) == 2 + int(np.prod(model.freq_shape))


def _signals_cfg(seed):
    # 12 shifts of 40 noisy test signals; test accuracy 0.925 at seed 1, 0.775 at seed 2
    raw = {"layers": 4, "seed": seed, "save_model": "true", "m_per_class": 20,
           "m_test_per_class": 20, "n": 48, "stride": 4, "noise": 0.5}
    return load_config("signals1d", None, {key: str(value) for key, value in raw.items()})


@pytest.mark.parametrize("case", ["signals1d-seed1", "signals1d-seed2",
                                  "mnist-translation", "mnist-rotation"])
def test_augmented_accuracy_equals_the_all_copies_route(tmp_path, glyph_dir, case):
    # an invariant model scores its augmented set from rolled test features;
    # carrying and forwarding every shifted input, as the harness once did,
    # gives the same accuracy rows, and the carried copies are the rolled
    # carried test features
    cfg = (_signals_cfg(int(case[-1])) if case.startswith("signals1d")
           else _digit_cfg(case, glyph_dir, tmp_path, "invariant", save_model="true",
                           **DIGIT_SHAPES[case]))
    built = run_experiment(cfg, tmp_path / "construct")
    archive = tmp_path / "construct" / "model.rnet"
    evaluated = eval_experiment(cfg, archive, tmp_path / "eval", augmented=True)
    (carried, forwarded), gap = all_copies_accuracies(cfg, archive)
    assert gap < 1e-12
    assert built["augmented_test_accuracy"] == carried
    assert evaluated["augmented_test_accuracy"] == forwarded


def test_insufficient_class_samples_rejected(tmp_path, glyph_dir):
    cfg = _digit_cfg("mnist-rotation", glyph_dir, tmp_path, "invariant",
                     gamma=8, stride=2, channels=3, m_per_class=50)
    with pytest.raises(DataError):
        run_experiment(cfg, tmp_path / "run")


def test_missing_mnist_paths_rejected(tmp_path, monkeypatch):
    monkeypatch.delenv("REDUNET_MNIST_DIR", raising=False)
    cfg = load_config("mnist-rotation", None,
                      {"m_per_class": "2", "m_test_per_class": "2", "layers": "1"})
    with pytest.raises(DataError):
        run_experiment(cfg, tmp_path / "run")
