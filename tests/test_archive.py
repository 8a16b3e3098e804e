import numpy as np
import pytest

from redunet.errors import BadArchiveValue, BadMagic, ChecksumFailure, VersionMismatch
from redunet.harness.archive import load_model, save_model
from redunet.rate import Partition
from redunet.spectral import (construct_shift1d, construct_translation2d, forward_shift1d,
                              forward_translation2d)
from redunet.vector import construct_vector_net, forward_vector

from oracles import labels_for, rng_for, with_header_value


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
