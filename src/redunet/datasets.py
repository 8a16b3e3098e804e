"""Deterministic generators and loaders for experiment inputs.

Datasets are sample-major: samples[i] is one vector, signal, image, or
polar grid, and labels[i] its class. Generators thread a single seed
through numpy's default PRNG so regeneration is bit-identical.
"""

import gzip
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, LabelImageCountMismatch, TruncatedFile, ZeroVector
from .rate import NORM_FLOOR

_RESAMPLE_TRIES = 100

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    """Sample-major data with integer class labels."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.samples.shape[0] != self.labels.shape[0]:
            raise ValueError(f"{self.samples.shape[0]} samples vs {self.labels.shape[0]} labels")

    @property
    def m(self) -> int:
        return self.samples.shape[0]


# ------------------------------------------------------- sphere mixtures

def default_means(k: int, dim: int) -> np.ndarray:
    """Reference class means: 60 degrees apart on the circle, a regular
    tetrahedron face on the sphere."""
    if dim == 2 and k == 2:
        return np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    if dim == 3 and k == 3:
        return np.array([[1.0, 0.0, 0.0],
                         [0.5, np.sqrt(3) / 2, 0.0],
                         [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3]])
    raise ValueError(f"no reference means for k={k}, dim={dim}")


def gaussian_sphere(k: int = 2, sigma: float = 0.1, m_per_class: int = 500,
                    dim: int = 2, seed: int = 0) -> LabeledDataset:
    """Gaussian blobs around the reference means (`default_means`),
    projected onto the sphere.

    Samples are class-ordered: all of class 0, then class 1, and so on.
    """
    means = default_means(k, dim)
    rng = np.random.default_rng(seed)
    samples = np.empty((k * m_per_class, dim))
    for j in range(k):
        block = means[j] + sigma * rng.standard_normal((m_per_class, dim))
        norms = np.linalg.norm(block, axis=1)
        for _ in range(_RESAMPLE_TRIES):
            bad = norms < NORM_FLOOR
            if not bad.any():
                break
            block[bad] = means[j] + sigma * rng.standard_normal((int(bad.sum()), dim))
            norms = np.linalg.norm(block, axis=1)
        else:
            raise ZeroVector("could not draw samples away from the origin")
        samples[j * m_per_class:(j + 1) * m_per_class] = block / norms[:, None]
    labels = np.repeat(np.arange(k), m_per_class)
    return LabeledDataset(samples, labels)


# ------------------------------------------------------------ 1-d signals

def sample_grid(t0: float, n: int) -> np.ndarray:
    """n equidistant points covering one period: t0 + 2*pi*i/n."""
    if n < 2:
        raise ValueError("need at least two sample points")
    return t0 + 2.0 * np.pi * np.arange(n) / n


def waveform(class_index: int, t: np.ndarray) -> np.ndarray:
    """Noise-free class generators: a sine and its square-wave cousin."""
    t = np.asarray(t)
    if class_index == 0:
        return np.sin(t)
    if class_index == 1:
        return np.sign(np.sin(t))
    raise ValueError(f"no waveform for class {class_index}")


def signals_1d(m_per_class: int = 200, n: int = 150, seed: int = 0,
               noise: float = 0.1) -> LabeledDataset:
    """Randomly-placed single periods of the two waveforms plus noise.

    Each sample picks its own start t0 ~ Uniform[0, 10*pi]; `noise` is
    the standard deviation of the pointwise Gaussian corruption (0 turns
    it off for closed-form checks).
    """
    rng = np.random.default_rng(seed)
    samples = np.empty((2 * m_per_class, n))
    labels = np.repeat(np.arange(2), m_per_class)
    for i in range(2 * m_per_class):
        t = sample_grid(rng.uniform(0.0, 10.0 * np.pi), n)
        samples[i] = waveform(labels[i], t)
        if noise > 0:
            samples[i] += noise * rng.standard_normal(n)
    return LabeledDataset(samples, labels)


# ------------------------------------------------------------ IDX loading

def _read_idx(path, expected_magic: int, dims: int) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        raw = gzip.open(fh).read() if head == b"\x1f\x8b" else fh.read()
    if len(raw) < 4 * (1 + dims):
        raise TruncatedFile(f"{path}: header incomplete")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    shape = struct.unpack(f">{dims}I", raw[4:4 + 4 * dims])
    payload = raw[4 + 4 * dims:]
    need = int(np.prod(shape))
    if len(payload) < need:
        raise TruncatedFile(f"{path}: header promises {need} bytes, found {len(payload)}")
    return np.frombuffer(payload[:need], dtype=np.uint8).reshape(shape)


def load_mnist(image_path, label_path, digits=None) -> LabeledDataset:
    """Images and labels from IDX files (gzipped or raw), pixels in [0, 1].

    `digits` keeps only those classes and relabels them 0..len(digits)-1
    in the order given.
    """
    images = _read_idx(image_path, IMAGE_MAGIC, 3)
    labels = _read_idx(label_path, LABEL_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise LabelImageCountMismatch(
            f"{images.shape[0]} images vs {labels.shape[0]} labels")
    samples = images.astype(np.float64) / 255.0
    labels = labels.astype(int)
    if digits is not None:
        digits = list(digits)
        keep = np.isin(labels, digits)
        samples, labels = samples[keep], labels[keep]
        remap = {d: i for i, d in enumerate(digits)}
        labels = np.array([remap[d] for d in labels], dtype=int)
    return LabeledDataset(samples, labels)


# ----------------------------------------------------------- augmentation

def augment_shifts(shape, stride) -> list:
    """Every multiple of ``stride`` along each axis of ``shape``, row-major:
    an augmentation's cyclic shifts, in the order `_rolled` lays them out."""
    return list(itertools.product(*(range(0, n, stride) for n in shape)))


def _rolled(dataset: LabeledDataset, shifts) -> LabeledDataset:
    """Every sample replaced by its rolls by each of ``shifts`` (one entry
    per leading sample axis), contiguous."""
    X = dataset.samples
    axes = tuple(range(1, 1 + len(shifts[0])))
    stacked = np.stack([np.roll(X, s, axis=axes) for s in shifts], axis=1)
    samples = stacked.reshape((-1,) + X.shape[1:])
    labels = np.repeat(dataset.labels, len(shifts))
    return LabeledDataset(samples, labels)
