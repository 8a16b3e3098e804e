import hashlib
import os
import pathlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from redunet.errors import BadArchiveValue, BadMagic, ChecksumFailure, VersionMismatch
from redunet._freq import Factored, operators
from redunet.harness.archive import VERSION, ArchiveWriter, load_model, save_model
from redunet.harness.cli import main
from redunet.harness.config import load_config
from redunet.harness import experiments
from redunet.harness.experiments import eval_experiment, run_experiment
from redunet.rate import Partition
from redunet.spectral import (construct, construct_shift1d, construct_translation2d,
                              forward_shift1d, forward_translation2d)
from redunet.vector import construct_vector_net, forward_vector

from oracles import (labels_for, no_class_model, rng_for, same_operators, with_header_value,
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
    # a dense model (6 samples in 4 dimensions) and a factored one (5 in 6)
    for model in (vector_model()[0], wide_vector_model()):
        back = load_model(save_model(model, tmp_path / "m.rnet"))
        assert back.C == model.C and back.k == model.k
        assert (back.eps, back.eta, back.lam) == (model.eps, model.eta, model.lam)
        assert np.array_equal(back.trace, model.trace)
        assert np.array_equal(back.gamma, model.gamma)
        assert len(back.layers) == len(model.layers)
        for got, want in zip(back.layers, model.layers):
            assert same_operators(got, want)
            assert got.alpha == want.alpha
            assert np.array_equal(got.alpha_class, want.alpha_class)
            # the class Grams the step reads its norms from, formed again on load
            for a, b in zip(got.Cbar, want.Cbar):
                if isinstance(b, Factored):
                    assert np.array_equal(a.gram, b.gram)


@pytest.mark.parametrize("maker", [shift_model, translation_model])
def test_spectral_roundtrip_bit_identical(tmp_path, maker):
    model, _ = maker()
    back = load_model(save_model(model, tmp_path / "m.rnet"))
    for got, want in zip(back.layers, model.layers):
        assert same_operators(got, want)
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


@pytest.mark.parametrize("version", [1, 2, 9])
def test_unknown_version_rejected(tmp_path, capsys, version):
    # versions 1 and 2 are the layouts of older writers; only version 3 loads
    model, _ = vector_model(L=1)
    path = tmp_path / "m.rnet"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = version  # version field, little-endian low byte
    # keep the checksum consistent so only the version check can fire
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch, match=f"archive version {version}, expected 3"):
        load_model(path)
    assert main(["export-kernel", str(path), "--out", str(tmp_path / "k")]) == 3
    assert f"archive version {version}, expected 3" in capsys.readouterr().err


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


# -------------------------------------------------------- version 3 layout

@pytest.mark.parametrize("maker, half", [(shift_model, 5), (translation_model, 9),
                                         (vector_model, 1)])
def test_archive_holds_half_spectrum_stacks(tmp_path, maker, half):
    # T = 8 keeps 5 of 8 frequencies, 3 x 4 keeps 3 x 3 of 12; vectors have
    # one; every model has at least C samples, so it stores every operator
    # dense, the vector model's one-sample class too
    model, _ = maker()
    with open(save_model(model, tmp_path / "m.rnet"), "rb") as fh:
        blob = fh.read()
    assert struct.unpack_from("<I", blob, 8)[0] == VERSION == 3
    C, k = model.C, model.k
    itemsize = 16 if model.freq_shape else 8
    assert all(layer.Ebar.shape == (half, C, C) for layer in model.layers)
    assert model.layers[0].labels is None
    layer_bytes = (1 + k) * half * C * C * itemsize
    assert len(blob) == (8 + 4 * (4 + 1 + len(model.freq_shape)) + 8 * (4 + 2 * k)
                         + 4 * (k + 1) + model.depth * layer_bytes + 24 * len(model.trace)
                         + 8 + 4)


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


# ------------------------------------------------------ committed fixtures
#
# Seven version-3 archives of dense layers. Each was converted once, by
# `save_model(load_model(...))` of code that still read the layout of the
# writer that first built it:
# - v1_shift.rnet, v1_vector.rnet and v1_translation.rnet by the version-1
#   writer, whose layers stored the full (F, C, C) stacks with the mirrors
#   filled by conjugation: the first two by `run_experiment` of SHIFT_RUN
#   and VECTOR_RUN, the third by `save_model(translation_model()[0])`;
# - v2_shift.rnet, v2_vector.rnet and v2_translation.rnet by the version-2
#   writer, which had no operator forms: the first two by `run_experiment`
#   of SHIFT_RUN and WIDE_RUN, the third by
#   `save_model(translation_model()[0])`. WIDE_RUN's 16-dimensional features
#   (tests/fixtures/wide_vector.npz, classes of 4 training samples) make
#   every operator one that version 3 stores factored; version 2 stored it
#   dense, and so does the converted file;
# - v3_mixed_vector.rnet by the version-3 writer before a layer took one
#   operator form: `save_model(mixed_vector_model())`, whose layers held E
#   and class 2 dense beside classes 0 and 1 factored, converted with those
#   class operators multiplied out.

SHIFT_RUN = ("signals1d", {"m_per_class": "4", "m_test_per_class": "3", "n": "12",
                           "channels": "2", "stride": "4", "layers": "2",
                           "save_model": "true"})
VECTOR_RUN = ("gauss2d", {"m_per_class": "6", "m_test_per_class": "4", "layers": "2",
                          "save_model": "true"})
WIDE_RUN = ("custom-vector", {"data": str(FIXTURES / "wide_vector.npz"), "layers": "2",
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
    assert struct.unpack_from("<I", (FIXTURES / name).read_bytes(), 8)[0] == VERSION
    assert_same_layers(old, fresh(tmp_path))


@pytest.mark.parametrize("run", [SHIFT_RUN, VECTOR_RUN], ids=["shift", "vector"])
def test_eval_copies_a_v2_archive_byte_for_byte(tmp_path, run):
    # eval saves the model it loaded again: the bytes of the archive it read
    archive = run_archive(run, tmp_path / "built")
    cfg = load_config(run[0], None, run[1])
    eval_experiment(cfg, archive, tmp_path / "eval", augmented=True)
    assert (tmp_path / "eval" / "model.rnet").read_bytes() == archive.read_bytes()
    assert sorted(os.listdir(tmp_path / "eval")) == [
        "accuracy.csv", "cosine_test.csv", "cosine_train.csv", "loss_curve.csv", "model.rnet"]
    before = archive.read_bytes()  # evaluated into its own directory: the same bytes
    eval_experiment(cfg, archive, tmp_path / "built", augmented=True)
    assert archive.read_bytes() == before


# SHA-256 of the version-2 archive that `save_model` wrote for each v1
# fixture (by `eval_experiment` with `save_model` on, for the two runs)
# before version 3; a version-3 archive of these dense layers is the same
# archive with its operator forms added (`as_version_2`)
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
    assert data == (FIXTURES / name).read_bytes()
    assert struct.unpack_from("<I", data, 8)[0] == VERSION
    assert hashlib.sha256(as_version_2(data)).hexdigest() == V1_RESAVED[name]


def as_version_2(blob):
    """The version-2 archive of a version-3 archive whose operators are all
    dense: the same bytes without the k+1 forms, resealed."""
    k, ndim = struct.unpack_from("<II", blob, 16)
    forms_at = 24 + 4 * ndim + 8 * (4 + 2 * k)
    assert blob[forms_at:forms_at + 4 * (k + 1)] == bytes(4 * (k + 1))  # all dense
    body = struct.pack("<I", 2) + blob[12:forms_at] + blob[forms_at + 4 * (k + 1):-4]
    return blob[:8] + body + struct.pack("<I", zlib.crc32(body))


FIXTURE_RUNS = {"v1_shift": SHIFT_RUN, "v2_shift": SHIFT_RUN, "v1_vector": VECTOR_RUN,
                "v2_vector": WIDE_RUN, "v1_translation": None, "v2_translation": None}

# SHA-256 of what each fixture gave, in the layout of the writer that
# first built it, before version 3: the `augment-eval` artifacts of its run
# (its archive aside), the layer-0 kernels of a spectral model, and the
# bytes of `forward` on the translation model's stack where no run matches
# the model; the converted fixtures give the same
FIXTURE_ARTIFACTS = {
    "v1_shift": {
        "accuracy.csv": "9c3929884822b138300d9f1201fd9ce3c6ede61107718970c8316d646aa64115",
        "cosine_test.csv": "1d30713f12bac8c8047969daf10cffacc143268c3dd5d84d536fb3a75dcc1eaa",
        "cosine_train.csv": "5c43fc3a079af569d6a4ac082bcdb50a0d1b36b80a9eeebed16b67981ea0fd29",
        "kernel_compress_class0.csv": "a19fec07452a6e48f8f68ffbba52cc89bad648dba8695f8e6256e4a55801b6e4",
        "kernel_compress_class1.csv": "7df13494022a0945cc3c4fda93e23fbf16f3da175882888d4e2399820c420323",
        "kernel_expand.csv": "c001b18e72b469bb424989f689cab6e019236562bde18adc9d342322b69ae52b",
        "loss_curve.csv": "69b1e40a0ebb872f7c2da42652a9848015e9b695c922ad2db40786577fe942ec",
    },
    "v2_shift": {
        "accuracy.csv": "9c3929884822b138300d9f1201fd9ce3c6ede61107718970c8316d646aa64115",
        "cosine_test.csv": "85555c7a62f287cc28e2b3d2425497f57e00a4f5544112ef7b012491a3878f7f",
        "cosine_train.csv": "92fe0669b06363742601d77a99d4dbffb5cf3c3a5508e05327c298a9a4f4d22a",
        "kernel_compress_class0.csv": "a19fec07452a6e48f8f68ffbba52cc89bad648dba8695f8e6256e4a55801b6e4",
        "kernel_compress_class1.csv": "7df13494022a0945cc3c4fda93e23fbf16f3da175882888d4e2399820c420323",
        "kernel_expand.csv": "c001b18e72b469bb424989f689cab6e019236562bde18adc9d342322b69ae52b",
        "loss_curve.csv": "314ff0ea0f4c6cca868c4b5af44c4014097a2930c081415abc0343c46802a63a",
    },
    "v1_vector": {
        "accuracy.csv": "17c0ee16bf17d37fc9195dd15c78b1cb26d603d42a184db66696d78ff5240012",
        "cosine_test.csv": "bd3371c561acc2718fbb0c26f4e69c8449b8d320d4f659d7a36f3dd800d394c2",
        "cosine_train.csv": "eff4edfdbf95bcd9673ae65adf922a41b44120720bd4e37595fbda5b119d112f",
        "loss_curve.csv": "2030403e6fff3b877df9452275a6b8b238079d159b46db7047ed2be0bdadd471",
    },
    "v2_vector": {
        "accuracy.csv": "ba414d527145f49bfae6d1cb4c7eaf16db64ce11d8b9e542a454c7d72fb8af89",
        "cosine_test.csv": "0ef2bd1118eec02c7c675a81e878df1ec460b3c14dd300dfa72fde834acd344b",
        "cosine_train.csv": "4ddb487d6c4ddcf97b57b54202456ae0f4da819291d057f0a7ca55a3db5c04f2",
        "loss_curve.csv": "52f7b33b3b4929e86b252c3fb4d7b6b125299339b576300137f7fdb6f7e61279",
    },
    "v1_translation": {
        "forward.bin": "2a9ef88642d07bde89683fe8b32350775e868507c051a603e252aacbac139f7c",
        "kernel_compress_class0.csv": "c1a772a85a36e800a6559bdf87c3a4d5b4f11d852691d5da7f22360818bcbbcc",
        "kernel_compress_class1.csv": "14464fc390ce00a36440c1e99fdad6c64c5989b9ea0459306a17e734ef1b8e9e",
        "kernel_expand.csv": "9356b3186eee8eee6fbb3293799fa5bf5f3231711b974e97938dde728979729e",
    },
    "v2_translation": {
        "forward.bin": "0cae49349662ba9cfe425882383215e2646fb10c22b848ec717af37d05d2af1b",
        "kernel_compress_class0.csv": "c1a772a85a36e800a6559bdf87c3a4d5b4f11d852691d5da7f22360818bcbbcc",
        "kernel_compress_class1.csv": "14464fc390ce00a36440c1e99fdad6c64c5989b9ea0459306a17e734ef1b8e9e",
        "kernel_expand.csv": "9356b3186eee8eee6fbb3293799fa5bf5f3231711b974e97938dde728979729e",
    },
}


def fixture_artifacts(archive, name, out):
    """SHA-256 of every artifact `FIXTURE_ARTIFACTS` lists for fixture ``name``,
    made from ``archive`` into ``out``."""
    run = FIXTURE_RUNS[name]
    if run is None:
        out.mkdir(parents=True)
        Z = translation_model()[1]
        (out / "forward.bin").write_bytes(forward_translation2d(load_model(archive), Z).tobytes())
    else:
        eval_experiment(load_config(run[0], None, run[1]), archive, out, augmented=True)
    if "vector" not in name:
        experiments.export_kernels(archive, out)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in sorted(os.listdir(out)) if f != "model.rnet"}


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_fixture_evaluates_and_exports_kernels_as_before_version_3(tmp_path, name):
    path = FIXTURES / f"{name}.rnet"
    assert struct.unpack_from("<I", path.read_bytes(), 8)[0] == VERSION
    assert fixture_artifacts(path, name, tmp_path / "out") == FIXTURE_ARTIFACTS[name]


# ------------------------------------------------- version 3 header fields
#
# The v3 vector model: 6 features, classes of 2 and 3 samples in shuffled
# order, so every operator is factored and E's inverse is stored in class
# order; its forms start at byte 24 + 4 * ndim + 8 * (4 + 2k) = 92, then
# m at 104 and the labels from 108.

def wide_vector_model():
    rng = rng_for(36)
    return construct_vector_net(rng.standard_normal((6, 5)), Partition([0, 1, 0, 1, 1]),
                                L=2, eta=0.3, eps=0.5)


def factored_vector_blob(tmp_path):
    return pathlib.Path(save_model(wide_vector_model(), tmp_path / "m.rnet")).read_bytes()


def with_u32s(blob, offset, *values):
    """``blob`` with u32 ``values`` from ``offset`` on, resealed."""
    body = bytearray(blob[8:-4])
    struct.pack_into("<" + "I" * len(values), body, offset - 8, *values)
    return blob[:8] + bytes(body) + struct.pack("<I", zlib.crc32(body))


def test_v3_vector_archive_stores_its_operators_factored(tmp_path):
    blob = factored_vector_blob(tmp_path)
    assert struct.unpack_from("<3I", blob, 92) == (1, 1, 1)
    # construct holds the samples in class order, so the layers' labels are sorted
    assert struct.unpack_from("<6I", blob, 104) == (5, 0, 0, 1, 1, 1)
    path = tmp_path / "m.rnet"
    back = load_model(path)
    for layer in back.layers:
        assert all(isinstance(op, Factored) for op in operators(layer))
        assert layer.features.shape == (1, 6, 5) and layer.features.flags.writeable


@pytest.mark.parametrize("offset, values, message", [
    (92, (2,), "unknown operator form 2"),
    (100, (7,), "unknown operator form 7"),
    (104, (0,), "m = 0"),
    (112, (2,), "label 2 out of range for k = 2"),
    (108, (0, 0, 0, 0, 0), "class 1 has no samples"),
])
def test_inconsistent_v3_header_field_rejected(tmp_path, offset, values, message):
    path = tmp_path / "m.rnet"
    path.write_bytes(with_u32s(factored_vector_blob(tmp_path), offset, *values))
    with pytest.raises(BadArchiveValue, match=message):
        load_model(path)


def test_v3_factored_form_of_an_operator_with_c_columns_rejected(tmp_path):
    # C = 4 rows (the dim at byte 24) for the 5 samples the operators are
    # factored over: a factored operator needs fewer columns than rows
    (tmp_path / "m.rnet").write_bytes(with_u32s(factored_vector_blob(tmp_path), 24, 4))
    with pytest.raises(BadArchiveValue, match="operators factored over m = 5 columns; a "
                                              "factored operator has fewer columns than C = 4"):
        load_model(tmp_path / "m.rnet")


def test_v3_factored_e_beside_a_dense_class_operator_rejected(tmp_path):
    # a layer takes one form for all of its operators
    blob = factored_vector_blob(tmp_path)
    (tmp_path / "m.rnet").write_bytes(with_u32s(blob, 96, 0))
    with pytest.raises(BadArchiveValue, match=r"operator forms \[1, 0, 1\] differ; a layer "
                                              "takes one form"):
        load_model(tmp_path / "m.rnet")


def test_v3_labels_that_disagree_with_the_stored_factors_rejected(tmp_path):
    # moving a sample from class 1 to class 0 keeps every header check and
    # the payload size, but reads the classes' inverses as 3 x 3 and 2 x 2
    # from the bytes of a 2 x 2 and a 3 x 3 one
    path = tmp_path / "m.rnet"
    path.write_bytes(with_u32s(factored_vector_blob(tmp_path), 116, 0))
    with pytest.raises(BadArchiveValue, match="layer 0 holds a factored inverse that is "
                                              "not Hermitian"):
        load_model(path)


def test_v3_mixed_archive_with_a_non_hermitian_factored_inverse_rejected(tmp_path):
    # layer 0: the 6 x 5 features from byte 128, then E's 5 x 5 inverse,
    # whose entry (0, 1) this moves off its mirror (1, 0)
    blob = bytearray(factored_vector_blob(tmp_path))
    at = 128 + 8 * 6 * 5 + 8
    struct.pack_into("<d", blob, at, struct.unpack_from("<d", blob, at)[0] + 1e-3)
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[8:-4]))
    (tmp_path / "m.rnet").write_bytes(bytes(blob))
    with pytest.raises(BadArchiveValue, match="layer 0 holds a factored inverse that is "
                                              "not Hermitian"):
        load_model(tmp_path / "m.rnet")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [1e160, 2.0])
def test_v3_factored_features_off_the_unit_sphere_rejected(tmp_path, capsys, factor):
    # layer 0's 6 x 5 features from byte 128, scaled and resealed: a class
    # Gram of the 1e160 ones would overflow to inf, and the model forward NaN
    blob = bytearray(factored_vector_blob(tmp_path))
    at, count = 128, 6 * 5
    features = np.frombuffer(blob, "<f8", count, at) * factor
    blob[at:at + 8 * count] = features.astype("<f8").tobytes()
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[8:-4]))
    path = tmp_path / "m.rnet"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadArchiveValue, match="layer 0 holds features that are not unit-norm"):
        load_model(path)
    data = tmp_path / "d.npz"
    np.savez(data, X=rng_for(36).standard_normal((6, 5)), labels=[0, 1, 0, 1, 1])
    ini = tmp_path / "c.ini"
    ini.write_text(f"[custom-vector]\ndata = {data}\nlayers = 2\n")
    assert main(["eval", "custom-vector", str(path), "--config", str(ini),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not unit-norm" in err


def test_export_kernel_of_a_bad_v3_form_exits_three(tmp_path, capsys):
    # a shift model of 6 channels and 5 samples: every operator factored
    rng = rng_for(37)
    model = construct_shift1d(rng.standard_normal((6, 4, 5)), Partition([0, 1, 0, 1, 1]),
                              L=1, eta=0.3, eps=0.5)
    blob = pathlib.Path(save_model(model, tmp_path / "m.rnet")).read_bytes()
    forms_at = 24 + 4 * 2 + 8 * (4 + 2 * 2)
    assert struct.unpack_from("<3I", blob, forms_at) == (1, 1, 1)
    (tmp_path / "m.rnet").write_bytes(with_u32s(blob, forms_at, 3))
    assert main(["export-kernel", str(tmp_path / "m.rnet"), "--out", str(tmp_path / "k")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown operator form 3" in err


# ----------------------------------------------- the fixture of mixed layers
#
# v3_mixed_vector.rnet (see the committed fixtures): classes of 2, 3 and 5
# samples in 4 dimensions, stored dense (forms 0, 0, 0, 0 at byte 108).

MIXED = FIXTURES / "v3_mixed_vector.rnet"
# SHA-256 of each layer's (3, 1, 4, 4) class stacks as the code that wrote the
# mixed layers multiplied them out on load (`np.asarray(layer.Cbar)`)
MIXED_CLASS_STACKS = ["55eaf6d1d4f068ba67332f40e50bcad28c2c9e56774c813caf8a76198f2d7f25",
                      "5ae04525200ecdd97d49827b9159a3d34c545467afa82176a2c489ba259d709e"]


def mixed_vector_model():
    rng = rng_for(38)
    X = rng.standard_normal((4, 10))
    labels = rng.permutation(np.repeat([0, 1, 2], [2, 3, 5]))
    return construct_vector_net(X, Partition(labels), L=2, eta=0.3, eps=0.5)


def test_v3_mixed_archive_loads_as_dense_layers(tmp_path):
    back = load_model(MIXED)
    assert struct.unpack_from("<4I", MIXED.read_bytes(), 108) == (0, 0, 0, 0)
    for layer, digest in zip(back.layers, MIXED_CLASS_STACKS, strict=True):
        assert all(isinstance(op, np.ndarray) for op in (layer.Ebar, layer.Cbar))
        assert layer.features is None and layer.labels is None
        assert hashlib.sha256(layer.Cbar.tobytes()).hexdigest() == digest
    # layer 0 is the dense layer a construction builds now from the same features
    assert same_operators(back.layers[0], mixed_vector_model().layers[0])
    # and it resaves to the same bytes
    blob = pathlib.Path(save_model(back, tmp_path / "m.rnet")).read_bytes()
    assert blob == MIXED.read_bytes()

