import numpy as np
import pytest

from redunet.harness.archive import save_model
from redunet.harness.cli import main
from redunet.harness.csvio import read_csv

from oracles import (no_class_model, rng_for, with_header, with_header_value,
                     with_last_operator_value)


def gauss_ini(tmp_path, **kw):
    values = {"m_per_class": 10, "m_test_per_class": 6, "layers": 12}
    values.update(kw)
    path = tmp_path / "g.ini"
    path.write_text("[gauss2d]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def test_construct_writes_artifacts_and_prints_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["construct", "gauss2d", "--config", gauss_ini(tmp_path),
               "--out", str(out)])
    assert rc == 0
    for name in ("loss_curve.csv", "cosine_train.csv", "cosine_test.csv",
                 "accuracy.csv"):
        assert (out / name).exists(), name
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("train_accuracy = ") for line in lines)


def test_flag_overrides_layer_count(tmp_path):
    out = tmp_path / "run"
    assert main(["construct", "gauss2d", "--config", gauss_ini(tmp_path),
                 "--layers", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out / "loss_curve.csv")
    assert len(rows) == 1  # only the initial objective row


def test_same_seed_byte_identical_artifacts(tmp_path):
    ini = gauss_ini(tmp_path, save_model="true")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["construct", "gauss2d", "--config", ini, "--out", str(a)]) == 0
    assert main(["construct", "gauss2d", "--config", ini, "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert "model.rnet" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_flag_changes_artifacts(tmp_path):
    ini = gauss_ini(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["construct", "gauss2d", "--config", ini, "--out", str(a)])
    main(["construct", "gauss2d", "--config", ini, "--seed", "9", "--out", str(b)])
    assert (a / "cosine_train.csv").read_bytes() != (b / "cosine_train.csv").read_bytes()


# ------------------------------------------------------------- exit codes

def test_unknown_kind_exits_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["construct", "gauss9d", "--out", str(tmp_path)])
    assert info.value.code == 2


def test_bad_flag_value_exits_two(tmp_path, capsys):
    rc = main(["construct", "gauss2d", "--layers", "minus-one", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e200", "1e-160"])
def test_eps_without_a_normal_square_exits_two(tmp_path, capsys, eps):
    # 1e200 squared overflows, 1e-160 squared is subnormal: either would end
    # in a traceback or in layers built on NaN
    rc = main(["construct", "gauss2d", "--layers", "2", "--eps", eps, "--out",
               str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: eps") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_bad_thread_count_exits_two(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("REDUNET_THREADS", threads)
    rc = main(["construct", "gauss2d", "--config", gauss_ini(tmp_path), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    assert "error: REDUNET_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[gauss2d]\nlayerz = 3\n")
    assert main(["construct", "gauss2d", "--config", str(ini),
                 "--out", str(tmp_path / "run")]) == 2


def test_stride_that_is_no_subgroup_exits_two(tmp_path, capsys):
    rc = main(["construct", "signals1d", "--stride", "7", "--layers", "1",
               "--out", str(tmp_path / "run")])  # n 150
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "stride 7" in err and "Traceback" not in err


def test_missing_config_file_exits_two(tmp_path):
    assert main(["construct", "gauss2d", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "run")]) == 2


def test_percent_in_config_value_is_a_plain_character(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[signals1d]\nlayers = 1%\n")
    rc = main(["construct", "signals1d", "--config", str(ini), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "'1%'" in err and "Traceback" not in err
    data = tmp_path / "100%" / "x.npz"
    ini.write_text(f"[custom-vector]\nlayers = 1\ndata = {data}\n")
    rc = main(["construct", "custom-vector", "--config", str(ini),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3  # the path reaches the loader as written
    assert str(data) in err and "Traceback" not in err


def test_config_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_bytes(b"[signals1d]\nlayers = 1\n# caf\xe9\n")
    rc = main(["construct", "signals1d", "--config", str(ini), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_missing_digit_files_exit_three(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REDUNET_MNIST_DIR", raising=False)
    rc = main(["construct", "mnist-rotation", "--layers", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "REDUNET_MNIST_DIR" in capsys.readouterr().err


def test_missing_archive_exits_three(tmp_path):
    rc = main(["eval", "gauss2d", str(tmp_path / "absent.rnet"),
               "--config", gauss_ini(tmp_path), "--out", str(tmp_path / "run")])
    assert rc == 3


def test_corrupt_archive_exits_three(tmp_path):
    bad = tmp_path / "corrupt.rnet"
    bad.write_bytes(b"REDUNET1" + b"\x01\x00\x00\x00" + b"junk")
    rc = main(["eval", "gauss2d", str(bad), "--config", gauss_ini(tmp_path),
               "--out", str(tmp_path / "run")])
    assert rc == 3


def test_non_finite_custom_vector_exits_four(tmp_path, capsys):
    rng = rng_for(1)
    X = rng.standard_normal((3, 8))
    X[1, 4] = np.nan
    data = tmp_path / "bad.npz"
    np.savez(data, X=X, labels=np.repeat([0, 1], 4))
    ini = tmp_path / "c.ini"
    ini.write_text(f"[custom-vector]\ndata = {data}\nlayers = 2\n")
    rc = main(["construct", "custom-vector", "--config", str(ini),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_non_finite_custom_vector_exits_four_before_any_layer(tmp_path, capsys, monkeypatch):
    import redunet._freq

    def fail(*args, **kwargs):
        pytest.fail("a layer was built from non-finite input")

    monkeypatch.setattr(redunet._freq, "build_layer", fail)
    X = rng_for(1).standard_normal((3, 8))
    X[1, 4] = np.nan
    data = tmp_path / "bad.npz"
    np.savez(data, X=X, labels=np.repeat([0, 1], 4))
    ini = tmp_path / "c.ini"
    ini.write_text(f"[custom-vector]\ndata = {data}\nlayers = 500\n")
    rc = main(["construct", "custom-vector", "--config", str(ini),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error:") and "non-finite" in err


def _bad_npz(case):
    rng = rng_for(2)
    arrays = {"X": rng.standard_normal((3, 8)), "labels": np.repeat([0, 1], 4),
              "X_test": rng.standard_normal((3, 4)), "labels_test": np.array([0, 1, 0, 1])}
    if case == "test_rows":
        arrays["X_test"] = rng.standard_normal((4, 4))
    elif case == "test_1d":
        arrays["X_test"] = rng.standard_normal(12)
    elif case == "test_label_count":
        arrays["labels_test"] = np.array([0, 1, 0])
    elif case == "negative_labels":
        arrays["labels"] = np.repeat([-1, 1], 4)
    elif case == "fractional_labels":
        arrays["labels"] = np.repeat([0.5, 1.5], 4)
    elif case == "negative_test_labels":
        arrays["labels_test"] = np.array([0, -1, 0, 1])
    elif case == "fractional_test_labels":
        arrays["labels_test"] = np.array([0.0, 1.0, 0.5, 1.0])
    elif case == "label_count":
        arrays["labels"] = np.repeat([0, 1], 3)
    return arrays


@pytest.mark.parametrize("case", ["test_rows", "test_1d", "test_label_count",
                                  "negative_labels", "fractional_labels",
                                  "negative_test_labels", "fractional_test_labels",
                                  "label_count"])
def test_bad_custom_vector_npz_exits_three_before_any_layer(tmp_path, capsys,
                                                            monkeypatch, case):
    import redunet._freq

    def fail(*args, **kwargs):
        pytest.fail("a layer was built from an inconsistent .npz")

    monkeypatch.setattr(redunet._freq, "build_layer", fail)
    data = tmp_path / "bad.npz"
    np.savez(data, **_bad_npz(case))
    ini = tmp_path / "c.ini"
    ini.write_text(f"[custom-vector]\ndata = {data}\nlayers = 500\n")
    rc = main(["construct", "custom-vector", "--config", str(ini),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("labels, missing", [([1, 2], 0), ([0, 2], 1)])
def test_custom_vector_labels_skipping_a_class_exit_three_before_any_layer(
        tmp_path, capsys, monkeypatch, labels, missing):
    import redunet._freq

    def fail(*args, **kwargs):
        pytest.fail("a layer was built from labels that skip a class")

    monkeypatch.setattr(redunet._freq, "build_layer", fail)
    data = tmp_path / "skip.npz"
    np.savez(data, X=rng_for(3).standard_normal((3, 8)), labels=np.repeat(labels, 4))
    ini = tmp_path / "c.ini"
    ini.write_text(f"[custom-vector]\ndata = {data}\nlayers = 500\n")
    rc = main(["construct", "custom-vector", "--config", str(ini),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and f"class {missing} has no training column" in err


def test_custom_vector_test_label_outside_the_trained_classes_exits_three_before_any_layer(
        tmp_path, capsys, monkeypatch):
    import redunet._freq

    def fail(*args, **kwargs):
        pytest.fail("a layer was built for test labels outside the trained classes")

    monkeypatch.setattr(redunet._freq, "build_layer", fail)
    rng = rng_for(3)
    data = tmp_path / "unknown.npz"
    np.savez(data, X=rng.standard_normal((3, 8)), labels=np.repeat([0, 1], 4),
             X_test=rng.standard_normal((3, 4)), labels_test=np.array([0, 1, 5, 1]))
    ini = tmp_path / "c.ini"
    ini.write_text(f"[custom-vector]\ndata = {data}\nlayers = 5\n")
    rc = main(["construct", "custom-vector", "--config", str(ini),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "labels_test holds label 5" in err
    assert not (tmp_path / "run" / "accuracy.csv").exists()


def _unreadable_npz(path, case):
    if case == "text":
        path.write_text("1 2 3\n4 5 6\n")
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "not_zip":
        path.write_bytes(b"PK\x03\x04" + bytes(64))
    elif case == "bad_member_crc":  # a valid zip layout whose array bytes were damaged
        with open(path, "wb") as fh:
            np.savez(fh, X=np.ones((3, 8)), labels=np.repeat([0, 1], 4))
        raw = bytearray(path.read_bytes())
        at = raw.index(b"\x93NUMPY") + 100
        raw[at:at + 8] = b"\xff" * 8
        path.write_bytes(bytes(raw))


@pytest.mark.parametrize("case", ["text", "empty", "not_zip", "bad_member_crc"])
def test_unreadable_custom_vector_data_exits_three(tmp_path, capsys, case):
    data = tmp_path / "x.txt"
    _unreadable_npz(data, case)
    ini = tmp_path / "c.ini"
    ini.write_text(f"[custom-vector]\ndata = {data}\nlayers = 2\n")
    rc = main(["construct", "custom-vector", "--config", str(ini),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and str(data) in err and "Traceback" not in err


@pytest.mark.parametrize("kind,key,value", [
    ("signals1d", "lambda", "inf"), ("signals1d", "eps", "inf"),
    ("signals1d", "noise", "nan"), ("signals1d", "eta", "inf"),
    ("gauss2d", "eta", "-inf"), ("gauss2d", "sigma", "nan"),
    ("gauss2d", "energy", "nan"), ("mnist-rotation", "radii", "1,nan,2,3,4"),
    ("mnist-rotation", "radii", "1,2,3,4,inf")])
def test_non_finite_config_value_exits_two(tmp_path, capsys, kind, key, value):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{kind}]\nlayers = 1\n{key} = {value}\n")
    rc = main(["construct", kind, "--config", str(ini), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and key in err and "Traceback" not in err


def test_stray_linalg_error_exits_four(tmp_path, capsys, monkeypatch):
    import redunet.harness.cli as cli

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "run_experiment", fail)
    rc = main(["construct", "gauss2d", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error:") and "did not converge" in err


# ------------------------------------------------------- eval and kernels

def _constructed(tmp_path, **kw):
    ini = gauss_ini(tmp_path, save_model="true", **kw)
    out = tmp_path / "built"
    assert main(["construct", "gauss2d", "--config", ini, "--out", str(out)]) == 0
    return ini, out / "model.rnet"


def test_eval_roundtrip(tmp_path, capsys):
    ini, archive = _constructed(tmp_path)
    rc = main(["eval", "gauss2d", str(archive), "--config", ini,
               "--out", str(tmp_path / "redo")])
    assert rc == 0
    assert (tmp_path / "redo" / "accuracy.csv").exists()


def test_eval_wrong_kind_exits_two(tmp_path):
    ini, archive = _constructed(tmp_path)
    sig = tmp_path / "s.ini"
    sig.write_text("[signals1d]\nm_per_class = 4\nm_test_per_class = 3\n"
                   "n = 12\nchannels = 2\nlayers = 2\n")
    rc = main(["eval", "signals1d", str(archive), "--config", str(sig),
               "--out", str(tmp_path / "redo")])
    assert rc == 2


def test_eval_of_archive_with_nan_trace_exits_three(tmp_path, capsys):
    ini, archive = _constructed(tmp_path)
    archive.write_bytes(with_header_value(archive.read_bytes(), "trace", np.nan))
    rc = main(["eval", "gauss2d", str(archive), "--config", ini,
               "--out", str(tmp_path / "redo")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_of_archive_with_nan_operator_exits_three(tmp_path, capsys):
    ini, archive = _constructed(tmp_path)
    archive.write_bytes(with_last_operator_value(archive.read_bytes(), np.nan))
    rc = main(["eval", "gauss2d", str(archive), "--config", ini,
               "--out", str(tmp_path / "redo")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "non-finite operator" in err


def test_eval_of_archive_with_no_classes_exits_three(tmp_path, capsys):
    archive = save_model(no_class_model(2), tmp_path / "k0.rnet")
    rc = main(["eval", "gauss2d", archive, "--config", gauss_ini(tmp_path),
               "--out", str(tmp_path / "redo")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "no classes" in err


def test_export_kernel_on_vector_archive_exits_two(tmp_path):
    _, archive = _constructed(tmp_path)
    assert main(["export-kernel", str(archive), "--out", str(tmp_path / "k")]) == 2


def test_export_kernel_on_archive_with_overflowing_sizes_exits_three(tmp_path, capsys):
    _, archive = _constructed(tmp_path)
    top = 2**32 - 1  # kind 2, k = 1, L = 1, three dims whose products wrap in int64
    archive.write_bytes(with_header(archive.read_bytes(), 2, 1, 1, 3, 3, [top] * 3))
    rc = main(["export-kernel", str(archive), "--out", str(tmp_path / "k")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "Traceback" not in err


def test_export_kernel_writes_per_operator_files(tmp_path, capsys):
    sig = tmp_path / "s.ini"
    sig.write_text("[signals1d]\nm_per_class = 4\nm_test_per_class = 3\nn = 12\n"
                   "channels = 2\nstride = 4\nlayers = 2\nsave_model = true\n")
    out = tmp_path / "built"
    assert main(["construct", "signals1d", "--config", str(sig),
                 "--out", str(out)]) == 0
    kdir = tmp_path / "kernels"
    assert main(["export-kernel", str(out / "model.rnet"), "--out", str(kdir)]) == 0
    names = sorted(p.name for p in kdir.iterdir())
    assert names == ["kernel_compress_class0.csv", "kernel_compress_class1.csv",
                     "kernel_expand.csv"]
    header, rows = read_csv(kdir / "kernel_expand.csv")
    assert header[:2] == ["out_channel", "in_channel"]
    assert len(header) == 2 + 12 and len(rows) == 4  # (C*C) kernels of length T


def test_export_kernel_without_layers_exits_three(tmp_path):
    ini = gauss_ini(tmp_path)  # archive-less run directory
    sig = tmp_path / "s.ini"
    sig.write_text("[signals1d]\nm_per_class = 4\nm_test_per_class = 3\nn = 12\n"
                   "channels = 2\nlayers = 0\nsave_model = true\n")
    out = tmp_path / "built"
    assert main(["construct", "signals1d", "--config", str(sig),
                 "--out", str(out)]) == 0
    assert main(["export-kernel", str(out / "model.rnet"),
                 "--out", str(tmp_path / "k")]) == 3


def test_selftest_passes_and_reports_speedup(tmp_path, capsys):
    rc = main(["selftest", "--out", str(tmp_path / "st")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "benchmark_speedup = " in out
    speedup = float([l for l in out.splitlines()
                     if l.startswith("benchmark_speedup")][0].split(" = ")[1])
    assert speedup >= 10.0
    header, rows = read_csv(tmp_path / "st" / "selftest.csv")
    assert header == ["metric", "value"]
    assert len(rows) == 7
