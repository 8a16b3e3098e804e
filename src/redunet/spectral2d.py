"""Translation invariant construction on multichannel 2-d signals.

A sample is a real (C, H, W) array. Cyclic translations in both axes play
the role cyclic shifts play in one dimension: each sample stands for the
(C*H*W, H*W) stack of all its translations, the 2-d per-channel DFT block
diagonalizes every operator into H*W independent C x C blocks indexed by
frequency pairs (p, q), and the dense doubly-circulant route is kept as
the oracle for the per-frequency fast path. Conventions follow the 1-d
module: unitary transforms (1/sqrt(HW)), per-frequency Grams scaled by
the frequency count, translation columns ordered with q fastest.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _freq
from .errors import ImaginaryResidue
from .rate import Partition, rate_components, real_finite
from .vector import default_lambda

IMAG_TOL = 1e-6


# ------------------------------------------------------------ transforms

def dft2_channels(z: np.ndarray, axes: tuple = (1, 2)) -> np.ndarray:
    """Unitary 2-d DFT over the spatial axes of a (C, H, W, ...) array."""
    z = np.asarray(z)
    H, W = z.shape[axes[0]], z.shape[axes[1]]
    return np.fft.fft2(z, axes=axes) / np.sqrt(H * W)


def idft2_channels(v: np.ndarray, axes: tuple = (1, 2), require_real: bool = True,
                   tol: float = IMAG_TOL) -> np.ndarray:
    """Unitary inverse 2-d DFT; truncates to real after a residue check."""
    v = np.asarray(v)
    H, W = v.shape[axes[0]], v.shape[axes[1]]
    w = np.fft.ifft2(v, axes=axes) * np.sqrt(H * W)
    if not require_real:
        return w
    residue = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if residue > tol:
        raise ImaginaryResidue(f"inverse transform kept imaginary residue {residue:.3e}")
    return w.real


def translate_image(z: np.ndarray, p: int, q: int) -> np.ndarray:
    """Cyclic translation: output (h, w) reads input (h - p mod H, w - q mod W)."""
    return np.roll(np.asarray(z), (p, q), axis=(0, 1))


# ------------------------------------------------------- dense oracles

def doubly_circulant_oracle(z: np.ndarray) -> np.ndarray:
    """(HW, HW) matrix whose columns are row-major vecs of all translations.

    Columns are ordered with the W index fastest: (0,0), (0,1), ...,
    (0,W-1), (1,0), ...
    """
    z = np.asarray(z)
    if z.ndim != 2:
        raise ValueError("doubly_circulant_oracle expects an (H, W) image")
    H, W = z.shape
    cols = [translate_image(z, p, q).reshape(-1) for p in range(H) for q in range(W)]
    return np.stack(cols, axis=1)


def multichannel_doubly_circulant(zbar: np.ndarray) -> np.ndarray:
    """(C*HW, HW): per-channel doubly circulant blocks stacked vertically."""
    zbar = np.asarray(zbar)
    if zbar.ndim != 3:
        raise ValueError("expected a (C, H, W) sample")
    return np.vstack([doubly_circulant_oracle(ch) for ch in zbar])


def stacked_doubly_circulant(Zbar: np.ndarray) -> np.ndarray:
    """(C*HW, HW*m): the translation stacks of all samples side by side."""
    Zbar = np.asarray(Zbar)
    if Zbar.ndim != 4:
        raise ValueError("expected a (C, H, W, m) sample stack")
    return np.hstack([multichannel_doubly_circulant(Zbar[..., i]) for i in range(Zbar.shape[3])])


def augmented_partition_2d(partition: Partition, H: int, W: int) -> Partition:
    """Partition of the column set where each sample contributes H*W translations."""
    return Partition(np.repeat(partition.labels, H * W), k=partition.k)


# ------------------------------------------------------------- objective

def translation_rate_components(Zbar, partition: Partition, eps: float,
                                method: str = "fast") -> tuple[float, float, float]:
    """Objective triple under the full translation group, divided by H*W."""
    Zbar = np.asarray(Zbar)
    if Zbar.ndim != 4:
        raise ValueError("expected a (C, H, W, m) sample stack")
    C, H, W, m = Zbar.shape
    if method == "fast":
        Vt = dft2_channels(Zbar).reshape(C, H * W, m).transpose(1, 0, 2)
        return _freq.spectral_components(Vt, partition, eps, scale=float(H * W))
    if method == "dense":
        big = stacked_doubly_circulant(Zbar)
        dR, R, Rc = rate_components(big, augmented_partition_2d(partition, H, W), eps)
        return dR / (H * W), R / (H * W), Rc / (H * W)
    raise ValueError(f"unknown method {method!r}")


def translation_rate_reduction(Zbar, partition: Partition, eps: float,
                               method: str = "fast") -> float:
    return translation_rate_components(Zbar, partition, eps, method)[0]


# ------------------------------------------------------------- operators

def spectral_operators_2d(Vbar: np.ndarray, partition: Partition, eps: float,
                          eta: float = 1.0, lam: float | None = None,
                          full_spectrum: bool = False) -> _freq.SpectralLayer:
    """Per-frequency operators from spectral features Vbar (C, H, W, m).

    Only the W axis uses the real-signal half-spectrum shortcut; every row
    frequency p is factored for q <= W//2 and the remaining (p, q) slices
    are conjugate mirrors of ((H-p) mod H, W-q).
    """
    Vbar = np.asarray(Vbar, dtype=np.complex128)
    if Vbar.ndim != 4:
        raise ValueError("expected (C, H, W, m) spectral features")
    C, H, W, m = Vbar.shape
    if lam is None:
        lam = default_lambda(partition.k)
    plan = _freq.full_plan(H * W) if full_spectrum else _freq.conjugate_plan_2d(H, W)
    Vt = Vbar.reshape(C, H * W, m).transpose(1, 0, 2)
    return _freq.build_layer(Vt, partition, eps, plan, eta=eta, lam=lam,
                             freq_shape=(H, W), gram_scale=float(H * W))


def spectral_gradient_2d(Zbar, partition: Partition, eps: float):
    """Ascent terms of the translation objective, in the image domain.

    Returns ``(expand, compress)`` with shapes (C, H, W, m) and
    (k, C, H, W, m); ``expand - compress.sum(axis=0)`` is the derivative
    of translation_rate_reduction.
    """
    Zbar = np.asarray(Zbar)
    C, H, W, m = Zbar.shape
    V = dft2_channels(Zbar)
    layer = spectral_operators_2d(V, partition, eps)
    Vt = V.reshape(C, H * W, m).transpose(1, 0, 2)
    U = (layer.Ebar @ Vt).transpose(1, 0, 2).reshape(C, H, W, m)
    expand = idft2_channels(U)
    compress = np.empty((partition.k, C, H, W, m))
    for j in range(partition.k):
        Wj = (layer.Cbar[j] @ Vt).transpose(1, 0, 2).copy()
        Wj[:, :, ~partition.mask(j)] = 0.0
        compress[j] = partition.gamma[j] * idft2_channels(Wj.reshape(C, H, W, m))
    return expand, compress


# ----------------------------------------------------------------- model

@dataclass
class Translation2DReduNet:
    """Constructed translation-invariant network and its construction trace."""

    layers: list
    C: int
    H: int
    W: int
    k: int
    eps: float
    eta: float
    lam: float
    trace: np.ndarray
    gamma: np.ndarray
    features: np.ndarray | None = None
    carry_features: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.layers)


def construct_translation2d(Zbar, partition: Partition, L: int, eta: float, eps: float,
                            lam: float | None = None, full_spectrum: bool = False,
                            keep_layers: bool = True, carry=None,
                            use_labels: bool = False) -> Translation2DReduNet:
    """Build an L-layer translation-invariant network from (C, H, W, m) data.

    Mirrors the 1-d construction: per-sample Frobenius normalization, one
    forward transform, per-layer operator factorization from the current
    spectral features, batched updates (one-hot memberships when
    ``use_labels`` is set, estimated otherwise), objective triple recorded
    initially and after every layer.
    """
    Zbar = real_finite(Zbar, "training images")
    if Zbar.ndim != 4:
        raise ValueError("expected a (C, H, W, m) sample stack")
    C, H, W, m = Zbar.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, stack has {m}")
    if L < 0:
        raise ValueError("L must be >= 0")
    if lam is None:
        lam = default_lambda(partition.k)

    plan = _freq.full_plan(H * W) if full_spectrum else _freq.conjugate_plan_2d(H, W)

    def to_spectral(A):
        return dft2_channels(_freq.normalize_samples(A)).reshape(C, H * W, -1).transpose(1, 0, 2)

    def to_images(Vt):
        return idft2_channels(Vt.transpose(1, 0, 2).reshape(C, H, W, -1))

    Vt = to_spectral(Zbar)
    Vc = None
    if carry is not None:
        carry = real_finite(carry, "carry images")
        carry = carry[..., None] if carry.ndim == 3 else carry
        Vc = to_spectral(carry)

    onehot = partition.onehot() if use_labels else None
    trace = [_freq.spectral_components(Vt, partition, eps, scale=float(H * W))]
    layers = []
    for _ in range(int(L)):
        layer = _freq.build_layer(Vt, partition, eps, plan, eta=eta, lam=lam,
                                  freq_shape=(H, W), gram_scale=float(H * W))
        Vt = _freq.update_batch(Vt, layer, pi=onehot)
        if Vc is not None:
            Vc = _freq.update_batch(Vc, layer)
        trace.append(_freq.spectral_components(Vt, partition, eps, scale=float(H * W)))
        if keep_layers:
            layers.append(layer)

    return Translation2DReduNet(layers=layers, C=C, H=H, W=W, k=partition.k, eps=eps,
                                eta=eta, lam=lam, trace=np.array(trace),
                                gamma=partition.gamma.copy(), features=to_images(Vt),
                                carry_features=None if Vc is None else to_images(Vc))


def forward_translation2d(model: Translation2DReduNet, xbar: np.ndarray) -> np.ndarray:
    """Map raw images (C, H, W) or (C, H, W, b) through the constructed layers."""
    xbar = real_finite(xbar)
    single = xbar.ndim == 3
    X = xbar[..., None] if single else xbar
    C, H, W = model.C, model.H, model.W
    if X.shape[:3] != (C, H, W):
        raise ValueError(f"expected ({C}, {H}, {W}) images, got {X.shape[:3]}")
    Vt = dft2_channels(_freq.normalize_samples(X)).reshape(C, H * W, -1).transpose(1, 0, 2)
    for layer in model.layers:
        Vt = _freq.update_batch(Vt, layer)
    out = idft2_channels(Vt.transpose(1, 0, 2).reshape(C, H, W, -1))
    return out[..., 0] if single else out


def kernel_extract_2d(layer: _freq.SpectralLayer, which: str = "expand",
                      class_index: int = 0) -> np.ndarray:
    """Image-domain convolution kernel of a layer operator, shape (C, C, H, W)."""
    if which == "expand":
        stack = layer.Ebar
    elif which == "compress":
        stack = layer.Cbar[class_index]
    else:
        raise ValueError(f"unknown operator kind {which!r}")
    H, W = layer.freq_shape
    C = stack.shape[1]
    grid = stack.reshape(H, W, C, C)
    kern = np.fft.ifft2(grid, axes=(0, 1))
    residue = float(np.max(np.abs(kern.imag)))
    if residue > IMAG_TOL:
        raise ImaginaryResidue(f"operator kernel kept imaginary residue {residue:.3e}")
    return kern.real.transpose(2, 3, 0, 1)
