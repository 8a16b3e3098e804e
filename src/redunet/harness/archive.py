"""Binary model archives.

Layout, all little-endian:

    magic "REDUNET1" | u32 version | u32 kind | u32 k | u32 L
    u32 trace_rows | u32 ndim | ndim x u32 dims
    f64 eps, eta, lam | k x f64 gamma | f64 alpha | k x f64 alpha_class
    trace_rows x 3 f64 trace
    L layer payloads    (f64 reals; complex as interleaved real, imag)
    u32 CRC32 over everything between the magic and this field

The kind is the group rank, the dims (C, *G): (n,) for vector, (C, T)
for shift, (C, H, W) for translation. Every layer stores Ebar (F*C*C)
then Cbar (k*F*C*C), F the full frequency count; complex, except for the
vector kind, the trivial group, whose real F = 1 stacks are E (n*n) and
the k class operators. The per-layer scalars (alpha, gamma, step size)
are constant across a construction, so they are stored once in the
header.

Neither direction copies the operators. ``save_model`` streams each
operator's own buffer to the file while the CRC runs over it;
``load_model`` reads the file into one buffer, checks the CRC on a view,
and hands out the operators as writable arrays viewing that buffer.
"""

import math
import os
import struct
import zlib

import numpy as np

from ..errors import BadArchiveValue, BadMagic, ChecksumFailure, VersionMismatch
from ..spectral import SpectralReduNet
from .. import _freq

MAGIC = b"REDUNET1"
VERSION = 1
# a model's kind is the rank of its symmetry group: none, shifts, translations
KIND_VECTOR, KIND_SHIFT1D, KIND_TRANSLATION2D = 0, 1, 2


def _u32(value) -> bytes:
    return struct.pack("<I", int(value))


def _f64(*values) -> bytes:
    return struct.pack("<" + "d" * len(values), *(float(v) for v in values))


def _bytes(arr, dtype="<f8") -> np.ndarray:
    """The bytes of ``arr`` as ``dtype``: a view when it already is one, no copy."""
    return np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8)


def _shared_layer_scalars(layers):
    """Alpha / alpha_class are per-layer fields but constant per model."""
    first = layers[0]
    for layer in layers[1:]:
        same = (layer.alpha == first.alpha
                and np.array_equal(layer.alpha_class, first.alpha_class)
                and np.array_equal(layer.gamma, first.gamma)
                and layer.eta == first.eta and layer.lam == first.lam)
        if not same:
            raise ValueError("layers disagree on shared scalars; cannot archive")
    return float(first.alpha), np.asarray(first.alpha_class, dtype=np.float64)


def save_model(model, path) -> str:
    """Serialize a constructed network; returns the path written."""
    if not (isinstance(model, SpectralReduNet) and len(model.freq_shape) <= 2):
        raise TypeError(f"cannot archive a {type(model).__name__}")
    kind, dims = len(model.freq_shape), (model.C, *model.freq_shape)

    k = model.k
    trace = np.asarray(model.trace, dtype=np.float64)
    if trace.ndim != 2 or trace.shape[1] != 3:
        raise ValueError("model trace must be (rows, 3)")
    if model.layers:
        alpha, alpha_class = _shared_layer_scalars(model.layers)
    else:
        alpha, alpha_class = 0.0, np.zeros(k)

    parts = [
        _u32(VERSION), _u32(kind), _u32(k), _u32(len(model.layers)),
        _u32(trace.shape[0]), _u32(len(dims)),
    ]
    parts.extend(_u32(d) for d in dims)
    parts.append(_f64(model.eps, model.eta, model.lam))
    parts.append(_bytes(model.gamma))
    parts.append(_f64(alpha))
    parts.append(_bytes(alpha_class))
    parts.append(_bytes(trace))
    dtype = "<f8" if kind == KIND_VECTOR else "<c16"
    for layer in model.layers:
        parts.extend(_bytes(op, dtype) for op in (layer.Ebar, layer.Cbar))
    crc = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(_u32(crc))
    return str(path)


class _Cursor:
    """Sequential reader raising ChecksumFailure on overruns."""

    def __init__(self, buf, start, end):
        self.buf, self.off, self.end = buf, start, end

    def _take(self, nbytes):
        if self.off + nbytes > self.end:
            raise ChecksumFailure("declared shapes exceed the payload size")
        view = self.buf[self.off:self.off + nbytes]
        self.off += nbytes
        return view

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def f64(self) -> float:
        return float(self.array(()))

    def array(self, shape, dtype="<f8") -> np.ndarray:
        """Little-endian ``dtype`` values as a native array of ``shape``."""
        dtype = np.dtype(dtype)
        n = math.prod(shape)  # a Python int: a huge declared shape overruns, never wraps
        out = np.frombuffer(self._take(dtype.itemsize * n), dtype=dtype)
        return out.astype(dtype.newbyteorder("="), copy=False).reshape(shape)


def load_model(path):
    """Read an archive back into the matching model type.

    Rejects wrong magic, unknown versions, a trailing CRC32 mismatch
    (truncation, corruption) and header values out of their domain. The
    operator payloads go unscanned: that would be a pass over every layer.
    """
    with open(path, "rb") as fh:
        buf = memoryview(bytearray(os.fstat(fh.fileno()).st_size))
        fh.readinto(buf)
    if len(buf) < len(MAGIC):
        raise ChecksumFailure(f"{path}: shorter than the archive magic")
    if buf[:len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: not a model archive")
    if len(buf) < len(MAGIC) + 8:
        raise ChecksumFailure(f"{path}: truncated archive")
    version = struct.unpack_from("<I", buf, len(MAGIC))[0]
    if version != VERSION:
        raise VersionMismatch(f"{path}: archive version {version}, expected {VERSION}")
    stored = struct.unpack_from("<I", buf, len(buf) - 4)[0]
    actual = zlib.crc32(buf[len(MAGIC):len(buf) - 4])
    if stored != actual:
        raise ChecksumFailure(f"{path}: CRC32 {actual:#010x} != stored {stored:#010x}")

    cur = _Cursor(buf, len(MAGIC) + 4, len(buf) - 4)
    kind = cur.u32()
    k = cur.u32()
    depth = cur.u32()
    trace_rows = cur.u32()
    ndim = cur.u32()
    if kind not in (KIND_VECTOR, KIND_SHIFT1D, KIND_TRANSLATION2D):
        raise ChecksumFailure(f"{path}: unknown model kind {kind}")
    if ndim != kind + 1:  # the channel count (or n), then the group grid
        raise ChecksumFailure(f"{path}: kind {kind} expects {kind + 1} dims, got {ndim}")
    dims = tuple(cur.u32() for _ in range(ndim))
    if 0 in dims:  # every layer must take payload bytes, or `depth` alone sets the work
        raise ChecksumFailure(f"{path}: zero dimension in {dims}")
    eps, eta, lam = (cur.f64() for _ in range(3))
    gamma = cur.array((k,))
    alpha = cur.f64()
    alpha_class = cur.array((k,))
    trace = cur.array((trace_rows, 3))
    for name, value in (("eps", eps), ("eta", eta), ("lam", lam), ("gamma", gamma),
                        ("alpha", alpha), ("alpha_class", alpha_class), ("trace", trace)):
        if not np.isfinite(value).all():
            raise BadArchiveValue(f"{path}: non-finite {name} in the header")
    if min(eps, eta, lam) <= 0:
        raise BadArchiveValue(f"{path}: eps, eta and lam must be positive, "
                              f"got {eps}, {eta}, {lam}")

    # the vector kind is the trivial group: one frequency, real operators
    C, freq_shape = dims[0], dims[1:]
    grid = (math.prod(freq_shape),)
    dtype = "<f8" if kind == KIND_VECTOR else "<c16"
    layers = []
    for _ in range(depth):
        Ebar = cur.array(grid + (C, C), dtype)
        Cbar = cur.array((k,) + grid + (C, C), dtype)
        layers.append(_freq.SpectralLayer(
            Ebar=Ebar, Cbar=Cbar, freq_shape=freq_shape, gamma=gamma.copy(), alpha=alpha,
            alpha_class=alpha_class.copy(), eta=eta, lam=lam))
    model = SpectralReduNet(layers=layers, C=C, freq_shape=freq_shape, k=k, eps=eps,
                            eta=eta, lam=lam, trace=trace, gamma=gamma)
    if cur.off != len(buf) - 4:
        raise ChecksumFailure(f"{path}: {len(buf) - 4 - cur.off} unread payload bytes")
    return model
