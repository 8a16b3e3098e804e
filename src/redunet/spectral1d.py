"""Cyclic-shift invariant construction on multichannel 1-d signals.

A sample is a real (C, T) array: C channels observed at T positions on a
circle. Treating every cyclic shift of every sample as equally valid
training data is equivalent to replacing each sample by the (C*T, T)
stack of per-channel circulant matrices; because the channel-wise DFT
block-diagonalizes all of them at once, the objective, the operators and
the layer updates all decouple into T independent C x C problems, one per
frequency. The dense circulant route is kept alongside as the oracle the
fast path is tested against.

Conventions: the DFT here is unitary (1/sqrt(T) scaling, negative
exponent), and `circulant_oracle(z)` places shift-by-t in column t, e.g.
[1, 2, 3] -> [[1, 3, 2], [2, 1, 3], [3, 2, 1]].
"""

from dataclasses import dataclass, field

import numpy as np

from . import _freq
from .errors import ImaginaryResidue
from .rate import Partition, rate_components, real_finite
from .vector import default_lambda

IMAG_TOL = 1e-6


# ------------------------------------------------------------ transforms

def dft_channels(z: np.ndarray, axis: int = 1) -> np.ndarray:
    """Unitary DFT along the position axis of a (C, T, ...) array."""
    z = np.asarray(z)
    T = z.shape[axis]
    return np.fft.fft(z, axis=axis) / np.sqrt(T)


def idft_channels(v: np.ndarray, axis: int = 1, require_real: bool = True,
                  tol: float = IMAG_TOL) -> np.ndarray:
    """Unitary inverse DFT; truncates to real after checking the residue.

    Spectra of real signals are conjugate-symmetric, so their inverse
    transforms must be real up to rounding. A larger imaginary residue
    means the caller fed data that is not actually a real signal's
    spectrum, which is reported instead of silently discarded.
    """
    v = np.asarray(v)
    T = v.shape[axis]
    w = np.fft.ifft(v, axis=axis) * np.sqrt(T)
    if not require_real:
        return w
    residue = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if residue > tol:
        raise ImaginaryResidue(f"inverse transform kept imaginary residue {residue:.3e}")
    return w.real


# ------------------------------------------------------- dense oracles

def circulant_oracle(z: np.ndarray) -> np.ndarray:
    """(T, T) matrix whose column t is z cyclically shifted down by t."""
    z = np.asarray(z)
    if z.ndim != 1:
        raise ValueError("circulant_oracle expects a 1-d vector")
    return np.stack([np.roll(z, t) for t in range(z.shape[0])], axis=1)


def multichannel_circulant(zbar: np.ndarray) -> np.ndarray:
    """(C*T, T): the per-channel circulants of one sample, stacked vertically."""
    zbar = np.asarray(zbar)
    if zbar.ndim != 2:
        raise ValueError("expected a (C, T) sample")
    return np.vstack([circulant_oracle(ch) for ch in zbar])


def stacked_circulant(Zbar: np.ndarray) -> np.ndarray:
    """(C*T, T*m): multichannel circulants of all samples side by side."""
    Zbar = np.asarray(Zbar)
    if Zbar.ndim != 3:
        raise ValueError("expected a (C, T, m) sample stack")
    return np.hstack([multichannel_circulant(Zbar[:, :, i]) for i in range(Zbar.shape[2])])


def augmented_partition(partition: Partition, times: int) -> Partition:
    """Partition of the column set where each sample contributes `times` shifts."""
    return Partition(np.repeat(partition.labels, times), k=partition.k)


# ------------------------------------------------------------- objective

def shift_rate_components(Zbar, partition: Partition, eps: float,
                          method: str = "fast") -> tuple[float, float, float]:
    """Objective triple of the shift-augmented feature set, divided by T.

    The fast route sums per-frequency log-dets; the dense route actually
    builds the (C*T, T*m) circulant stack and evaluates the plain rate on
    it. Both exist on purpose and are compared by the tests.
    """
    Zbar = np.asarray(Zbar)
    if Zbar.ndim != 3:
        raise ValueError("expected a (C, T, m) sample stack")
    C, T, m = Zbar.shape
    if method == "fast":
        Vt = dft_channels(Zbar).transpose(1, 0, 2)
        return _freq.spectral_components(Vt, partition, eps, scale=float(T))
    if method == "dense":
        big = stacked_circulant(Zbar)
        dR, R, Rc = rate_components(big, augmented_partition(partition, T), eps)
        return dR / T, R / T, Rc / T
    raise ValueError(f"unknown method {method!r}")


def shift_rate_reduction(Zbar, partition: Partition, eps: float,
                         method: str = "fast") -> float:
    """Rate reduction of the feature set under the full cyclic shift group."""
    return shift_rate_components(Zbar, partition, eps, method)[0]


# ------------------------------------------------------------- operators

def spectral_operators(Vbar: np.ndarray, partition: Partition, eps: float,
                       eta: float = 1.0, lam: float | None = None,
                       full_spectrum: bool = False) -> _freq.SpectralLayer:
    """Per-frequency operator stacks from spectral features Vbar (C, T, m).

    ``Vbar`` is the unitary spectrum (dft_channels output); the factored
    slices are exactly the frequency blocks of the dense operators on the
    circulant stacks, whose eigenvalue data is sqrt(T) larger (the Grams
    are scaled accordingly). By default only frequencies 0..T//2 are
    factored and the rest is mirror-filled by conjugation (exact for
    spectra of real signals); ``full_spectrum=True`` factors every
    frequency directly.
    """
    Vbar = np.asarray(Vbar, dtype=np.complex128)
    if Vbar.ndim != 3:
        raise ValueError("expected (C, T, m) spectral features")
    C, T, m = Vbar.shape
    if lam is None:
        lam = default_lambda(partition.k)
    plan = _freq.full_plan(T) if full_spectrum else _freq.conjugate_plan_1d(T)
    return _freq.build_layer(Vbar.transpose(1, 0, 2), partition, eps, plan,
                             eta=eta, lam=lam, freq_shape=(T,), gram_scale=float(T))


def spectral_gradient(Zbar, partition: Partition, eps: float):
    """Ascent terms of the shift-invariant objective, in the signal domain.

    Returns ``(expand, compress)`` with shapes (C, T, m) and (k, C, T, m):
    the inverse transforms of E(p) V(p) and gamma_j C_j(p) V(p) Pi_j.
    Their difference ``expand - compress.sum(axis=0)`` is exactly the
    derivative of shift_rate_reduction with respect to the signals.
    """
    Zbar = np.asarray(Zbar)
    C, T, m = Zbar.shape
    layer = spectral_operators(dft_channels(Zbar), partition, eps)
    Vt = dft_channels(Zbar).transpose(1, 0, 2)
    U = (layer.Ebar @ Vt).transpose(1, 0, 2)
    expand = idft_channels(U)
    compress = np.empty((partition.k, C, T, m))
    for j in range(partition.k):
        Wj = (layer.Cbar[j] @ Vt).transpose(1, 0, 2)
        Wj = Wj.copy()
        Wj[:, :, ~partition.mask(j)] = 0.0
        compress[j] = partition.gamma[j] * idft_channels(Wj)
    return expand, compress


def spectral_layer_update(vbar: np.ndarray, layer: _freq.SpectralLayer,
                          pi: np.ndarray | None = None) -> np.ndarray:
    """One layer step on spectral features (C, T) or (C, T, b)."""
    vbar = np.asarray(vbar, dtype=np.complex128)
    single = vbar.ndim == 2
    V = vbar[:, :, None] if single else vbar
    out = _freq.update_batch(V.transpose(1, 0, 2), layer, pi).transpose(1, 0, 2)
    return out[:, :, 0] if single else out


# ----------------------------------------------------------------- model

@dataclass
class Shift1DReduNet:
    """Constructed shift-invariant network and its construction trace."""

    layers: list
    C: int
    T: int
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


def construct_shift1d(Zbar, partition: Partition, L: int, eta: float, eps: float,
                      lam: float | None = None, full_spectrum: bool = False,
                      keep_layers: bool = True, carry=None,
                      use_labels: bool = False) -> Shift1DReduNet:
    """Build an L-layer shift-invariant network from labeled (C, T, m) signals.

    Samples are normalized to unit Frobenius norm, transformed once, and
    every layer factors its operators from the current spectral features,
    then updates all samples and renormalizes. ``use_labels`` drives the
    training updates with the true one-hot memberships (the exact ascent
    step) instead of the estimated ones. The trace records the objective
    triple (reduction, expand, compress) of the initial features and after
    every layer. ``carry`` propagates an optional unlabeled batch through
    the same layers with estimated membership (identical to running
    forward_shift1d afterwards), for use with ``keep_layers=False``.
    """
    Zbar = real_finite(Zbar, "training signals")
    if Zbar.ndim != 3:
        raise ValueError("expected a (C, T, m) sample stack")
    C, T, m = Zbar.shape
    if m != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, stack has {m}")
    if L < 0:
        raise ValueError("L must be >= 0")
    if lam is None:
        lam = default_lambda(partition.k)

    plan = _freq.full_plan(T) if full_spectrum else _freq.conjugate_plan_1d(T)
    Vt = dft_channels(_freq.normalize_samples(Zbar)).transpose(1, 0, 2)
    Vc = None
    if carry is not None:
        carry = real_finite(carry, "carry signals")
        single = carry.ndim == 2
        carry = carry[:, :, None] if single else carry
        Vc = dft_channels(_freq.normalize_samples(carry)).transpose(1, 0, 2)

    onehot = partition.onehot() if use_labels else None
    trace = [_freq.spectral_components(Vt, partition, eps, scale=float(T))]
    layers = []
    for _ in range(int(L)):
        layer = _freq.build_layer(Vt, partition, eps, plan, eta=eta, lam=lam,
                                  freq_shape=(T,), gram_scale=float(T))
        Vt = _freq.update_batch(Vt, layer, pi=onehot)
        if Vc is not None:
            Vc = _freq.update_batch(Vc, layer)
        trace.append(_freq.spectral_components(Vt, partition, eps, scale=float(T)))
        if keep_layers:
            layers.append(layer)

    features = idft_channels(Vt.transpose(1, 0, 2))
    carry_features = None if Vc is None else idft_channels(Vc.transpose(1, 0, 2))
    return Shift1DReduNet(layers=layers, C=C, T=T, k=partition.k, eps=eps, eta=eta,
                          lam=lam, trace=np.array(trace), gamma=partition.gamma.copy(),
                          features=features, carry_features=carry_features)


def forward_shift1d(model: Shift1DReduNet, xbar: np.ndarray) -> np.ndarray:
    """Map raw signals (C, T) or (C, T, b) through the constructed layers.

    Inputs are Frobenius-normalized per sample; a zero-layer model returns
    the normalized input. Membership is estimated at every layer.
    """
    xbar = real_finite(xbar)
    single = xbar.ndim == 2
    X = xbar[:, :, None] if single else xbar
    if X.shape[0] != model.C or X.shape[1] != model.T:
        raise ValueError(f"expected ({model.C}, {model.T}) signals, got {X.shape[:2]}")
    Vt = dft_channels(_freq.normalize_samples(X)).transpose(1, 0, 2)
    for layer in model.layers:
        Vt = _freq.update_batch(Vt, layer)
    out = idft_channels(Vt.transpose(1, 0, 2))
    return out[:, :, 0] if single else out


def kernel_extract(layer: _freq.SpectralLayer, which: str = "expand",
                   class_index: int = 0) -> np.ndarray:
    """Signal-domain convolution kernel of a layer operator, shape (C, C, T).

    The per-frequency stacks are diagonalized circulant blocks; the
    inverse transform of each (c, c') frequency sequence is the first
    column of that block, i.e. the kernel whose multichannel circular
    convolution applies the operator.
    """
    if which == "expand":
        stack = layer.Ebar
    elif which == "compress":
        stack = layer.Cbar[class_index]
    else:
        raise ValueError(f"unknown operator kind {which!r}")
    kern = np.fft.ifft(stack, axis=0)  # (T, C, C)
    residue = float(np.max(np.abs(kern.imag)))
    if residue > IMAG_TOL:
        raise ImaginaryResidue(f"operator kernel kept imaginary residue {residue:.3e}")
    return kern.real.transpose(1, 2, 0)
