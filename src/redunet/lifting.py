"""Multichannel lifting of raw signals and images.

A scalar signal carries too little variability for class-discriminative
rate gaps, so it is lifted to C channels by circular convolution against
a bank of random unit-norm filters, optionally sparsified. Images headed
for the rotation experiments are first resampled onto a polar grid so
that rotation becomes a cyclic shift along the angle axis.
"""

import numpy as np

from .errors import RadiusOutOfBounds


def random_filters(C: int, size, seed: int) -> np.ndarray:
    """C i.i.d. standard-normal kernels of unit l2 norm, (C, size) or (C, h, w).

    `size` is a kernel length for 1-d signals or an (h, w) pair for
    images. Deterministic given the seed.
    """
    if C < 1:
        raise ValueError("need at least one filter")
    shape = (size,) if np.isscalar(size) else tuple(size)
    rng = np.random.default_rng(seed)
    filters = rng.standard_normal((C,) + shape)
    norms = np.sqrt(np.sum(filters**2, axis=tuple(range(1, filters.ndim)), keepdims=True))
    return filters / norms


def _circular(x, filters: np.ndarray, rank: int, what: str) -> np.ndarray:
    """Circular convolution over the first ``rank`` axes of x (*G[, m]),
    which is ``what``, with every kernel of ``filters`` (C, *size),
    zero-embedded to G, through the real transform; returns (C, *G[, m])."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (rank, rank + 1):
        raise ValueError(f"expected {what}")
    G, size = x.shape[:rank], filters.shape[1:]
    if len(size) != rank or any(k > g for k, g in zip(size, G)):
        raise ValueError(f"kernel {size} does not fit into {G}")
    kernels = np.zeros((filters.shape[0], *G))
    kernels[(slice(None), *(slice(0, k) for k in size))] = filters
    axes = tuple(range(1, rank + 1))
    kf = np.fft.rfftn(kernels, axes=axes)
    xf = np.fft.rfftn(x, axes=tuple(range(rank)))
    prod = kf[..., None] * xf[None] if x.ndim > rank else kf * xf[None]
    return np.fft.irfftn(prod, s=G, axes=axes)


def lift_1d(x: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Circular convolution of a signal against every (C, size) kernel.

    Accepts (T,) or (T, m); returns (C, T) or (C, T, m).
    """
    return _circular(x, filters, 1, "a (T,) signal or (T, m) batch")


def lift_2d(img: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """2-d circular convolution against (C, h, w) kernels; (H, W[, m]) -> (C, H, W[, m])."""
    return _circular(img, filters, 2, "an (H, W) image or (H, W, m) batch")


def sparsify(zbar: np.ndarray) -> np.ndarray:
    """Sparsity-promoting elementwise nonlinearity: the ReLU."""
    return np.maximum(np.asarray(zbar), 0.0)


def polar_transform(img: np.ndarray, gamma: int, radii) -> np.ndarray:
    """Resample an image bilinearly onto a (gamma, C) polar grid about its center.

    Row l holds samples at angle 2*pi*l/gamma, column i at radius
    radii[i]; rotating the underlying pattern by 2*pi*s/gamma cyclically
    shifts the angle axis by s (up to interpolation error). Radii must
    stay inside the inscribed circle of the pixel grid. A batch (..., H, W)
    of images gives (..., gamma, C), each image to the bytes it gets alone.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim < 2:
        raise ValueError("expected an (H, W) image or a (..., H, W) batch")
    H, W = img.shape[-2:]
    radii = np.asarray(radii, dtype=np.float64)
    rmax = (min(H, W) - 1) / 2.0
    if np.any(radii < 0) or np.any(radii > rmax):
        raise RadiusOutOfBounds(f"radii must lie in [0, {rmax}] for a {H}x{W} image")
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    angles = 2.0 * np.pi * np.arange(gamma) / gamma
    ys = cy + np.sin(angles)[:, None] * radii[None, :]
    xs = cx + np.cos(angles)[:, None] * radii[None, :]
    y0 = np.clip(np.floor(ys).astype(int), 0, H - 2)
    x0 = np.clip(np.floor(xs).astype(int), 0, W - 2)
    fy, fx = ys - y0, xs - x0
    # the gathers put a batch's axes last in memory, and later products' bytes follow layout
    return np.ascontiguousarray(
        (1 - fy) * (1 - fx) * img[..., y0, x0] + (1 - fy) * fx * img[..., y0, x0 + 1]
        + fy * (1 - fx) * img[..., y0 + 1, x0] + fy * fx * img[..., y0 + 1, x0 + 1])
