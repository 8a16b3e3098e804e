"""Multichannel lifting of raw signals and images.

A scalar signal carries too little variability for class-discriminative
rate gaps, so it is lifted to C channels by circular convolution against
a bank of random unit-norm filters, optionally sparsified. Images headed
for the rotation experiments are first resampled onto a polar grid so
that rotation becomes a cyclic shift along the angle axis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RadiusOutOfBounds


@dataclass(frozen=True)
class FilterBank:
    """Random convolution kernels, one per output channel."""

    filters: np.ndarray  # (C, size) or (C, h, w)
    seed: int
    kind: str = "random-gaussian"

    @property
    def channels(self) -> int:
        return self.filters.shape[0]


def random_filters(C: int, size, seed: int) -> FilterBank:
    """Bank of C i.i.d. standard-normal kernels, each unit l2 norm.

    `size` is a kernel length for 1-d signals or an (h, w) pair for
    images. Deterministic given the seed.
    """
    if C < 1:
        raise ValueError("need at least one filter")
    shape = (size,) if np.isscalar(size) else tuple(size)
    rng = np.random.default_rng(seed)
    filters = rng.standard_normal((C,) + shape)
    norms = np.sqrt(np.sum(filters**2, axis=tuple(range(1, filters.ndim)), keepdims=True))
    return FilterBank(filters=filters / norms, seed=seed, kind="random-gaussian")


def _circular(x: np.ndarray, bank: FilterBank, rank: int) -> np.ndarray:
    """Circular convolution over the first ``rank`` axes of x (*G[, m]) with
    every kernel of the bank, zero-embedded to G, through the real
    transform; returns (C, *G[, m])."""
    G, size = x.shape[:rank], bank.filters.shape[1:]
    if any(k > g for k, g in zip(size, G)):
        raise ValueError(f"kernel {size} does not fit into {G}")
    kernels = np.zeros((bank.channels, *G))
    kernels[(slice(None), *(slice(0, k) for k in size))] = bank.filters
    axes = tuple(range(1, rank + 1))
    kf = np.fft.rfftn(kernels, axes=axes)
    xf = np.fft.rfftn(x, axes=tuple(range(rank)))
    prod = kf[..., None] * xf[None] if x.ndim > rank else kf * xf[None]
    return np.fft.irfftn(prod, s=G, axes=axes)


def lift_1d(x: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Circular convolution of a signal against every kernel in the bank.

    Accepts (T,) or (T, m); returns (C, T) or (C, T, m).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("expected a (T,) signal or (T, m) batch")
    return _circular(x, bank, 1)


def lift_2d(img: np.ndarray, bank: FilterBank) -> np.ndarray:
    """2-d circular convolution against the bank; (H, W[, m]) -> (C, H, W[, m])."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError("expected an (H, W) image or (H, W, m) batch")
    return _circular(img, bank, 2)


def sparsify(zbar: np.ndarray, mode: str = "relu", threshold: float = 0.0) -> np.ndarray:
    """Sparsity-promoting elementwise nonlinearity.

    "relu" keeps positive responses; "soft" shrinks magnitudes by the
    threshold and zeroes whatever falls below it.
    """
    zbar = np.asarray(zbar)
    if mode == "relu":
        return np.maximum(zbar, 0.0)
    if mode == "soft":
        if threshold < 0:
            raise ValueError("soft threshold must be >= 0")
        return np.sign(zbar) * np.maximum(np.abs(zbar) - threshold, 0.0)
    raise ValueError(f"unknown sparsify mode {mode!r}")


def polar_transform(img: np.ndarray, gamma: int, radii, mode: str = "bilinear") -> np.ndarray:
    """Resample an image onto a (gamma, C) polar grid about its center.

    Row l holds samples at angle 2*pi*l/gamma, column i at radius
    radii[i]; rotating the underlying pattern by 2*pi*s/gamma cyclically
    shifts the angle axis by s (up to interpolation error). Radii must
    stay inside the inscribed circle of the pixel grid.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("expected an (H, W) image")
    H, W = img.shape
    radii = np.asarray(radii, dtype=np.float64)
    rmax = (min(H, W) - 1) / 2.0
    if np.any(radii < 0) or np.any(radii > rmax):
        raise RadiusOutOfBounds(f"radii must lie in [0, {rmax}] for a {H}x{W} image")
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    angles = 2.0 * np.pi * np.arange(gamma) / gamma
    ys = cy + np.sin(angles)[:, None] * radii[None, :]
    xs = cx + np.cos(angles)[:, None] * radii[None, :]
    if mode == "nearest":
        return img[np.rint(ys).astype(int), np.rint(xs).astype(int)]
    if mode != "bilinear":
        raise ValueError(f"unknown interpolation mode {mode!r}")
    y0 = np.clip(np.floor(ys).astype(int), 0, H - 2)
    x0 = np.clip(np.floor(xs).astype(int), 0, W - 2)
    fy, fx = ys - y0, xs - x0
    return ((1 - fy) * (1 - fx) * img[y0, x0] + (1 - fy) * fx * img[y0, x0 + 1]
            + fy * (1 - fx) * img[y0 + 1, x0] + fy * fx * img[y0 + 1, x0 + 1])
