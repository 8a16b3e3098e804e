import hashlib
import os
import pathlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from redunet.errors import BadArchiveValue, BadMagic, ChecksumFailure, VersionMismatch
from redunet.harness.archive import VERSION, ArchiveWriter, load_model, save_model
from redunet.harness.config import load_config
from redunet.harness import experiments
from redunet.harness.experiments import eval_experiment, run_experiment
from redunet.rate import Partition
from redunet.spectral import (construct, construct_shift1d, construct_translation2d,
                              forward_shift1d, forward_translation2d)
from redunet.vector import construct_vector_net, forward_vector

from oracles import (labels_for, no_class_model, rng_for, with_header_value,
                     with_last_operator_value)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def vector_model(L=3):
    rng = rng_for(31)
    X = rng.standard_normal((4, 6))
    return construct_vector_net(X, Partition(labels_for(6, 2, rng)), L=L,
                                eta=0.3, eps=0.5), X


def shift_model(L=2):
    rng = rng_for(32)
    Z = rng.standard_normal((2, 8, 5))
    return construct_shift1d(Z, Partition(labels_for(5, 2, rng)), L=L,
                             eta=0.3, eps=0.5), Z


def translation_model(L=2):
    rng = rng_for(33)
    Z = rng.standard_normal((2, 3, 4, 5))
    return construct_translation2d(Z, Partition(labels_for(5, 2, rng)), L=L,
                                   eta=0.3, eps=0.5), Z


# ------------------------------------------------------------- roundtrips

def test_vector_roundtrip_bit_identical(tmp_path):
    model, _ = vector_model()
    path = save_model(model, tmp_path / "m.rnet")
    back = load_model(path)
    assert back.C == model.C and back.k == model.k
    assert (back.eps, back.eta, back.lam) == (model.eps, model.eta, model.lam)
    assert np.array_equal(back.trace, model.trace)
    assert np.array_equal(back.gamma, model.gamma)
    assert len(back.layers) == len(model.layers)
    for got, want in zip(back.layers, model.layers):
        assert np.array_equal(got.Ebar, want.Ebar)
        assert np.array_equal(got.Cbar, want.Cbar)
        assert got.alpha == want.alpha
        assert np.array_equal(got.alpha_class, want.alpha_class)


@pytest.mark.parametrize("maker", [shift_model, translation_model])
def test_spectral_roundtrip_bit_identical(tmp_path, maker):
    model, _ = maker()
    back = load_model(save_model(model, tmp_path / "m.rnet"))
    for got, want in zip(back.layers, model.layers):
        assert np.array_equal(got.Ebar, want.Ebar)
        assert np.array_equal(got.Cbar, want.Cbar)
        assert got.freq_shape == tuple(want.freq_shape)


def test_rewrite_is_byte_identical(tmp_path):
    model, _ = shift_model()
    a = tmp_path / "a.rnet"
    b = tmp_path / "b.rnet"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_zero_layer_model_roundtrip(tmp_path):
    model, _ = vector_model(L=0)
    back = load_model(save_model(model, tmp_path / "m.rnet"))
    assert back.depth == 0
    assert np.array_equal(back.trace, model.trace)


# ------------------------------------------------- forward on loaded model

def test_forward_on_loaded_vector_model_is_exact(tmp_path):
    model, X = vector_model()
    back = load_model(save_model(model, tmp_path / "m.rnet"))
    assert np.array_equal(forward_vector(back, X), forward_vector(model, X))


def test_forward_on_loaded_shift_model_is_exact(tmp_path):
    model, Z = shift_model()
    back = load_model(save_model(model, tmp_path / "m.rnet"))
    assert np.array_equal(forward_shift1d(back, Z), forward_shift1d(model, Z))


def test_forward_on_loaded_translation_model_is_exact(tmp_path):
    model, Z = translation_model()
    back = load_model(save_model(model, tmp_path / "m.rnet"))
    assert np.array_equal(forward_translation2d(back, Z),
                          forward_translation2d(model, Z))


# ------------------------------------------------------------ error paths

def test_truncated_archive_fails_checksum(tmp_path):
    model, _ = shift_model()
    path = tmp_path / "m.rnet"
    save_model(model, path)
    blob = path.read_bytes()
    for cut in (1, 17, len(blob) // 2, len(blob) - 9):
        path.write_bytes(blob[:cut] if cut > 8 else blob[:8])
        with pytest.raises(ChecksumFailure):
            load_model(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "m.rnet"
    path.write_bytes(b"NOTANRCH" + b"\x00" * 40)
    with pytest.raises(BadMagic):
        load_model(path)


def test_unknown_version_rejected(tmp_path):
    model, _ = vector_model(L=1)
    path = tmp_path / "m.rnet"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 9  # version field, little-endian low byte
    # keep the checksum consistent so only the version check can fire
    import zlib
    import struct
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    model, _ = vector_model(L=1)
    path = tmp_path / "m.rnet"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumFailure):
        load_model(path)


def test_unarchivable_object_rejected(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "m.rnet")


HEADER_FLOATS = ("eps", "eta", "lam", "gamma", "alpha", "alpha_class", "trace")


@pytest.mark.parametrize("field", HEADER_FLOATS)
def test_non_finite_header_value_rejected(tmp_path, field):
    model, _ = vector_model(L=1)
    path = tmp_path / "m.rnet"
    save_model(model, path)
    path.write_bytes(with_header_value(path.read_bytes(), field, np.nan))
    with pytest.raises(BadArchiveValue, match=f"non-finite {field} "):
        load_model(path)


@pytest.mark.parametrize("field", ["eps", "eta", "lam"])
@pytest.mark.parametrize("value", [0.0, -0.5])
def test_non_positive_header_scale_rejected(tmp_path, field, value):
    model, _ = vector_model(L=1)
    path = tmp_path / "m.rnet"
    save_model(model, path)
    path.write_bytes(with_header_value(path.read_bytes(), field, value))
    with pytest.raises(BadArchiveValue, match="must be positive"):
        load_model(path)


def test_model_of_no_classes_rejected(tmp_path):
    # forwarding through it would fail on an empty membership softmax
    path = save_model(no_class_model(4), tmp_path / "m.rnet")
    with pytest.raises(BadArchiveValue, match=r"no classes \(k = 0\)"):
        load_model(path)


def test_non_finite_operator_rejected(tmp_path):
    model, _ = shift_model()
    path = tmp_path / "m.rnet"
    save_model(model, path)
    path.write_bytes(with_last_operator_value(path.read_bytes(), np.nan))
    with pytest.raises(BadArchiveValue, match="non-finite operator in layer 1"):
        load_model(path)


# -------------------------------------------------------- version 2 layout

@pytest.mark.parametrize("maker, half", [(shift_model, 5), (translation_model, 9),
                                         (vector_model, 1)])
def test_archive_holds_half_spectrum_stacks(tmp_path, maker, half):
    # T = 8 keeps 5 of 8 frequencies, 3 x 4 keeps 3 x 3 of 12; vectors have one
    model, _ = maker()
    with open(save_model(model, tmp_path / "m.rnet"), "rb") as fh:
        blob = fh.read()
    assert struct.unpack_from("<I", blob, 8)[0] == VERSION == 2
    C, k = model.C, model.k
    itemsize = 16 if model.freq_shape else 8
    layer_bytes = (1 + k) * half * C * C * itemsize
    assert all(layer.Ebar.shape == (half, C, C) for layer in model.layers)
    assert len(blob) == (8 + 4 * (4 + 1 + len(model.freq_shape)) + 8 * (4 + 2 * k)
                         + model.depth * layer_bytes + 24 * len(model.trace) + 8 + 4)


def test_writer_removes_its_temporary_file_when_the_block_fails(tmp_path):
    model, _ = shift_model()
    path = tmp_path / "m.rnet"
    with pytest.raises(RuntimeError):
        with ArchiveWriter(path, model.eps) as writer:
            writer.append(model.layers[0])
            raise RuntimeError("construction failed")
    assert list(tmp_path.iterdir()) == []


def test_writer_rejects_layers_that_disagree_on_shared_scalars(tmp_path):
    model, _ = shift_model()
    other, _ = shift_model()
    other.layers[1].eta = 0.5
    with ArchiveWriter(tmp_path / "m.rnet", model.eps) as writer:
        writer.append(model.layers[0])
        with pytest.raises(ValueError, match="shared scalars"):
            writer.append(other.layers[1])
    assert list(tmp_path.iterdir()) == []


def test_streamed_construct_holds_one_layer_at_a_time(tmp_path):
    # C = 4 channels on T = 64 (33 half frequencies), k = 2: 25 KB of
    # operators per layer; a construction that kept its layers would hold
    # six more of them at L = 8 than at L = 2
    rng = rng_for(34)
    Z = rng.standard_normal((4, 64, 20))
    P = Partition(labels_for(20, 2, rng))

    def traced_peak(L):
        with ArchiveWriter(tmp_path / f"{L}.rnet", 0.5) as writer:
            tracemalloc.start()
            try:
                model = construct(Z, P, L, eta=0.3, eps=0.5, sink=writer.append)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            writer.close(model)
        return peak

    layer_bytes = 3 * 33 * 4 * 4 * 16
    traced_peak(2)  # warm up caches that a first call allocates once
    growth = traced_peak(8) - traced_peak(2)
    assert growth < layer_bytes
    assert load_model(tmp_path / "8.rnet").depth == 8


# ------------------------------------------------------ version 1 archives
#
# The fixtures were written by the version-1 writer, whose layers stored the
# full (F, C, C) stacks with the mirrors filled by conjugation:
# v1_shift.rnet and v1_vector.rnet by `run_experiment` of SHIFT_RUN and
# VECTOR_RUN, v1_translation.rnet by `save_model(translation_model()[0])`.

SHIFT_RUN = ("signals1d", {"m_per_class": "4", "m_test_per_class": "3", "n": "12",
                           "channels": "2", "stride": "4", "layers": "2",
                           "save_model": "true"})
VECTOR_RUN = ("gauss2d", {"m_per_class": "6", "m_test_per_class": "4", "layers": "2",
                          "save_model": "true"})


def run_archive(run, out):
    run_experiment(load_config(run[0], None, run[1]), out)
    return out / "model.rnet"


def assert_same_layers(got, want):
    # the same construction on another BLAS build may round differently
    assert (got.C, got.freq_shape, got.k, got.depth) == (want.C, want.freq_shape,
                                                         want.k, want.depth)
    assert np.max(np.abs(got.trace - want.trace)) <= 1e-12
    for a, b in zip(got.layers, want.layers):
        for x, y in ((a.Ebar, b.Ebar), (a.Cbar, b.Cbar)):
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("name, fresh", [
    ("v1_shift.rnet", lambda tmp: load_model(run_archive(SHIFT_RUN, tmp))),
    ("v1_vector.rnet", lambda tmp: load_model(run_archive(VECTOR_RUN, tmp))),
    ("v1_translation.rnet",
     lambda tmp: load_model(save_model(translation_model()[0], tmp / "m.rnet")))])
def test_v1_fixture_loads_into_the_half_stacks_of_a_v2_roundtrip(tmp_path, name, fresh):
    old = load_model(FIXTURES / name)
    assert struct.unpack_from("<I", (FIXTURES / name).read_bytes(), 8)[0] == 1
    assert_same_layers(old, fresh(tmp_path))


@pytest.mark.parametrize("name, run", [("v1_shift.rnet", SHIFT_RUN),
                                       ("v1_vector.rnet", VECTOR_RUN)])
def test_eval_of_v1_and_v2_archive_writes_identical_bytes(tmp_path, name, run):
    v2 = save_model(load_model(FIXTURES / name), tmp_path / "v2.rnet")
    cfg = load_config(run[0], None, run[1])
    eval_experiment(cfg, FIXTURES / name, tmp_path / "from_v1", augmented=True)
    eval_experiment(cfg, v2, tmp_path / "from_v2", augmented=True)
    names = sorted(os.listdir(tmp_path / "from_v1"))
    assert names == sorted(os.listdir(tmp_path / "from_v2"))
    assert "model.rnet" in names and "accuracy.csv" in names
    for name in names:
        assert ((tmp_path / "from_v1" / name).read_bytes()
                == (tmp_path / "from_v2" / name).read_bytes()), name


def refuse_to_serialize(model, path):
    raise AssertionError(f"re-serialized a current-version archive to {path}")


@pytest.mark.parametrize("run", [SHIFT_RUN, VECTOR_RUN], ids=["shift", "vector"])
def test_eval_copies_a_v2_archive_byte_for_byte(tmp_path, monkeypatch, run):
    archive = run_archive(run, tmp_path / "built")
    monkeypatch.setattr(experiments, "save_model", refuse_to_serialize)
    cfg = load_config(run[0], None, run[1])
    eval_experiment(cfg, archive, tmp_path / "eval", augmented=True)
    assert (tmp_path / "eval" / "model.rnet").read_bytes() == archive.read_bytes()
    assert sorted(os.listdir(tmp_path / "eval")) == [
        "accuracy.csv", "cosine_test.csv", "cosine_train.csv", "loss_curve.csv", "model.rnet"]
    before = archive.read_bytes()  # evaluated into its own directory: left as it is
    eval_experiment(cfg, archive, tmp_path / "built", augmented=True)
    assert archive.read_bytes() == before


# SHA-256 of the version-2 archive that `save_model` writes for each v1
# fixture (by `eval_experiment` with `save_model` on, for the two runs)
V1_RESAVED = {
    "v1_shift.rnet": "e78e10ef833b3ef4b9b8ee0b8a921ace43efe88911fa1d02fc87d044162a31f2",
    "v1_vector.rnet": "92f9cf1d32939a30bce88f6515556dd4b075f726f0200f96ba2d7d4d79da4bf2",
    "v1_translation.rnet": "76cb9bfa566d193df57ce97cd3a1920e46b2f07412338f461f5ebcb6f225b16f",
}


@pytest.mark.parametrize("name, run", [("v1_shift.rnet", SHIFT_RUN),
                                       ("v1_vector.rnet", VECTOR_RUN),
                                       ("v1_translation.rnet", None)])
def test_v1_fixture_resaves_to_pinned_bytes(tmp_path, name, run):
    if run is None:
        written = save_model(load_model(FIXTURES / name), tmp_path / "m.rnet")
    else:
        eval_experiment(load_config(run[0], None, run[1]), FIXTURES / name, tmp_path,
                        augmented=True)
        written = tmp_path / "model.rnet"
    data = pathlib.Path(written).read_bytes()
    assert struct.unpack_from("<I", data, 8)[0] == VERSION
    assert hashlib.sha256(data).hexdigest() == V1_RESAVED[name]


def test_v1_archive_with_a_non_conjugate_mirror_rejected(tmp_path):
    blob = bytearray((FIXTURES / "v1_shift.rnet").read_bytes())
    k, _, trace_rows, ndim = struct.unpack_from("<IIII", blob, 16)
    C, T = struct.unpack_from("<II", blob, 32)
    layer0 = 32 + 4 * ndim + 8 * (4 + 2 * k) + 24 * trace_rows
    last = layer0 + (T - 1) * C * C * 16  # Ebar at frequency T-1, the mirror of 1
    struct.pack_into("<d", blob, last, struct.unpack_from("<d", blob, last)[0] + 1e-3)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[8:-4]))
    path = tmp_path / "m.rnet"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadArchiveValue, match="layer 0 has a mirror frequency"):
        load_model(path)
