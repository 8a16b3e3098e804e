import gzip
import os
import struct

import numpy as np
import pytest

from redunet.datasets import (LabeledDataset, _rolled, augment_shifts, default_means,
                              gaussian_sphere, load_mnist, sample_grid, signals_1d, waveform)
from redunet.errors import BadMagic, LabelImageCountMismatch, TruncatedFile


# -------------------------------------------------------- sphere mixtures

def test_zero_sigma_returns_the_means():
    data = gaussian_sphere(k=2, sigma=0.0, m_per_class=3, dim=2, seed=0)
    means = default_means(2, 2)
    # equality up to the final renormalization roundoff
    assert np.max(np.abs(data.samples[:3] - means[0])) < 1e-15
    assert np.max(np.abs(data.samples[3:] - means[1])) < 1e-15


def test_samples_lie_on_the_sphere():
    data = gaussian_sphere(k=3, sigma=0.1, m_per_class=50, dim=3, seed=1)
    norms = np.linalg.norm(data.samples, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_reference_two_class_configuration():
    data = gaussian_sphere(k=2, sigma=0.1, m_per_class=500, dim=2, seed=2)
    assert data.samples.shape == (1000, 2)
    assert list(np.bincount(data.labels)) == [500, 500]


def test_same_seed_reproduces_exactly():
    a = gaussian_sphere(k=2, sigma=0.1, m_per_class=20, dim=2, seed=3)
    b = gaussian_sphere(k=2, sigma=0.1, m_per_class=20, dim=2, seed=3)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)


def test_default_means_are_unit_and_equiangular():
    for k, dim in [(2, 2), (3, 3)]:
        mu = default_means(k, dim)
        assert np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0)) < 1e-12
        for a in range(k):
            for b in range(a + 1, k):
                assert abs(mu[a] @ mu[b] - 0.5) < 1e-12
    with pytest.raises(ValueError):
        default_means(4, 2)


# ------------------------------------------------------------ 1-d signals

def test_grid_covers_one_period_without_endpoint():
    t = sample_grid(0.0, 4)
    assert np.max(np.abs(t - np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]))) < 1e-15
    assert np.max(np.abs(waveform(0, t) - np.array([0.0, 1.0, 0.0, -1.0]))) < 1e-15


def test_square_wave_values():
    t = sample_grid(0.0, 4)
    # sin(pi) rounds to a positive float, so the third sample is +1
    assert np.array_equal(waveform(1, t), np.array([0.0, 1.0, 1.0, -1.0]))


def test_signal_shapes_and_labels():
    data = signals_1d(m_per_class=10, n=150, seed=0)
    assert data.samples.shape == (20, 150)
    assert np.array_equal(data.labels, np.repeat([0, 1], 10))


def test_noiseless_sine_class_occupies_one_frequency():
    data = signals_1d(m_per_class=5, n=32, seed=4, noise=0.0)
    spectra = np.abs(np.fft.fft(data.samples[:5], axis=1))
    # a full period sampled at n points has energy only in bins 1 and n-1
    mask = np.ones(32, dtype=bool)
    mask[[1, 31]] = False
    assert np.max(spectra[:, mask]) < 1e-10
    assert np.min(spectra[:, 1]) > 1.0


def test_signal_seed_reproducibility_and_noise():
    a = signals_1d(m_per_class=4, n=50, seed=5)
    b = signals_1d(m_per_class=4, n=50, seed=5)
    c = signals_1d(m_per_class=4, n=50, seed=6)
    assert np.array_equal(a.samples, b.samples)
    assert np.max(np.abs(a.samples - c.samples)) > 1e-3


def test_grid_rejects_tiny_n():
    with pytest.raises(ValueError):
        sample_grid(0.0, 1)


# ------------------------------------------------------------ IDX loading

def write_idx_images(path, images, magic=0x00000803, compress=False, truncate=0):
    images = np.asarray(images, dtype=np.uint8)
    blob = struct.pack(">IIII", magic, *images.shape) + images.tobytes()
    if truncate:
        blob = blob[:-truncate]
    if compress:
        blob = gzip.compress(blob)
    with open(path, "wb") as fh:
        fh.write(blob)


def write_idx_labels(path, labels, magic=0x00000801):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", magic, labels.shape[0]) + labels.tobytes())


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
    labels = np.array([0, 1, 7, 1, 0, 7], dtype=np.uint8)
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    return ipath, lpath, images, labels


def test_load_mnist_shapes_and_scaling(idx_pair):
    ipath, lpath, images, labels = idx_pair
    data = load_mnist(ipath, lpath)
    assert data.samples.shape == (6, 4, 3)
    assert np.array_equal(data.labels, labels)
    assert np.max(np.abs(data.samples - images / 255.0)) == 0.0
    assert data.samples.min() >= 0.0 and data.samples.max() <= 1.0


def test_load_mnist_digit_filter_relabels(idx_pair):
    ipath, lpath, images, labels = idx_pair
    data = load_mnist(ipath, lpath, digits=[7, 1])
    # kept rows are source labels [1, 7, 1, 7] with 7 -> 0 and 1 -> 1
    assert np.array_equal(data.labels, np.array([1, 0, 1, 0]))
    assert np.array_equal(data.samples[0], images[1] / 255.0)


def test_load_mnist_reads_gzip(tmp_path, idx_pair):
    _, lpath, images, labels = idx_pair
    gzpath = tmp_path / "imgs.idx.gz"
    write_idx_images(gzpath, images, compress=True)
    data = load_mnist(gzpath, lpath)
    assert np.array_equal(data.samples, images / 255.0)


def test_load_mnist_rejects_bad_magic(tmp_path, idx_pair):
    _, lpath, images, _ = idx_pair
    bad = tmp_path / "bad.idx"
    write_idx_images(bad, images, magic=0x00000804)
    with pytest.raises(BadMagic):
        load_mnist(bad, lpath)


def test_load_mnist_rejects_truncation(tmp_path, idx_pair):
    _, lpath, images, _ = idx_pair
    short = tmp_path / "short.idx"
    write_idx_images(short, images, truncate=5)
    with pytest.raises(TruncatedFile):
        load_mnist(short, lpath)


def test_load_mnist_rejects_count_mismatch(tmp_path, idx_pair):
    ipath, _, _, _ = idx_pair
    lpath = tmp_path / "fewer.idx"
    write_idx_labels(lpath, np.array([0, 1], dtype=np.uint8))
    with pytest.raises(LabelImageCountMismatch):
        load_mnist(ipath, lpath)


def mnist_dir():
    root = os.environ.get("REDUNET_MNIST_DIR", os.path.join(os.path.dirname(__file__), "data", "mnist"))
    names = ["t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    paths = []
    for name in names:
        for cand in [os.path.join(root, name), os.path.join(root, name + ".gz")]:
            if os.path.exists(cand):
                paths.append(cand)
                break
    return paths if len(paths) == 2 else None


@pytest.mark.skipif(mnist_dir() is None, reason="reference digit files not present")
def test_reference_test_set_zero_one_count():
    ipath, lpath = mnist_dir()
    data = load_mnist(ipath, lpath, digits=[0, 1])
    assert data.m == 2115
    assert list(np.bincount(data.labels)) == [980, 1135]


# ----------------------------------------------------------- augmentation

def shifted(data, stride, rank=None):
    """Every sample of ``data`` rolled by each multiple of ``stride`` along
    its leading ``rank`` axes (all of them when omitted)."""
    shape = data.samples.shape[1:]
    return _rolled(data, augment_shifts(shape[:rank], stride))


def test_shifts_1d_order_and_count():
    X = np.arange(12, dtype=float).reshape(2, 6)
    data = LabeledDataset(X, np.array([0, 1]))
    aug = shifted(data, stride=2)
    assert aug.samples.shape == (6, 6)
    assert np.array_equal(aug.labels, np.array([0, 0, 0, 1, 1, 1]))
    for a, s in enumerate([0, 2, 4]):
        assert np.array_equal(aug.samples[a], np.roll(X[0], s))
        assert np.array_equal(aug.samples[3 + a], np.roll(X[1], s))


def test_shifts_2d_reference_grid():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 28, 28))
    data = LabeledDataset(X, np.zeros(3, dtype=int))
    aug = shifted(data, stride=7)
    assert aug.samples.shape == (48, 28, 28)  # 16 translations per image
    assert np.array_equal(aug.samples[16 + 4 * 1 + 2], np.roll(X[1], (7, 14), axis=(0, 1)))


def test_shifts_full_stride_is_identity():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 10))
    data = LabeledDataset(X, np.arange(4))
    aug = shifted(data, stride=10)
    assert np.array_equal(aug.samples, X)
    assert np.array_equal(aug.labels, data.labels)


def test_shifts_closed_under_stride_shifts():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((1, 8))
    data = LabeledDataset(X, np.zeros(1, dtype=int))
    pre = LabeledDataset(np.roll(X, 2, axis=1), np.zeros(1, dtype=int))
    a = shifted(data, stride=2)
    b = shifted(pre, stride=2)
    rows = {tuple(np.round(r, 12)) for r in a.samples}
    assert rows == {tuple(np.round(r, 12)) for r in b.samples}


def test_angle_shifts_counts_and_shifts():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2, 200, 5))
    data = LabeledDataset(X, np.array([0, 1]))
    aug = shifted(data, stride=10, rank=1)  # 20 rotations of 200 angle bins
    assert aug.samples.shape == (40, 200, 5)
    assert np.array_equal(aug.samples[3], np.roll(X[0], 30, axis=0))  # 3 * (200/20)
    assert np.array_equal(aug.labels, np.repeat([0, 1], 20))


def test_angle_shifts_identity_and_group_law():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((1, 12, 2))
    data = LabeledDataset(X, np.zeros(1, dtype=int))
    assert np.array_equal(shifted(data, stride=12, rank=1).samples, X)
    aug = shifted(data, stride=3, rank=1).samples  # four quarter turns
    # two successive quarter turns equal one half turn
    assert np.array_equal(np.roll(aug[1], 3, axis=0), aug[2])


def test_dataset_validates_lengths():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
