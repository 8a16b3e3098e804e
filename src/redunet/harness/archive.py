"""Binary model archives, written one layer at a time.

Layout of version 3, all little-endian:

    magic "REDUNET1" | u32 version (3) | u32 kind | u32 k | u32 ndim | ndim x u32 dims
    f64 eps, eta, lam | k x f64 gamma | f64 alpha | k x f64 alpha_class
    (k+1) x u32 form    (per operator E, C_1, ..., C_k: 0 dense, 1 factored)
    [u32 m | m x u32 labels]    (only when the operators are factored)
    L layer payloads    (f64 reals; complex as interleaved real, imag)
    trace_rows x 3 f64 trace | u32 L | u32 trace_rows
    u32 CRC32 over everything between the magic and this field

The kind is the group rank, the dims (C, *G): (n,) for vector, (C, T)
for shift, (C, H, W) for translation. A layer's stacks are the rfftn
half spectrum, F_h = prod(G[:-1]) * (G[-1]//2 + 1) frequencies, complex;
the vector kind is the trivial group, real, F_h = 1. A layer takes one
form, chosen by m < C (`_freq.build_layer`). A dense layer stores each
operator's stacks (F_h*C*C), E first. A factored layer stores the
features V (F_h*C*m) it was built from, its samples in class order
(`_freq.Factored`), then each operator's inverse K (F_h*m_op*m_op,
m_op = m for E, the class count for C_j), so no layer outweighs its dense
form; the labels (each in [0, k), every class present) give the class
order and the counts. The per-layer scalars (alpha, gamma, step size) and
the k+1 equal forms are constant across a construction, so they are
stored once in the header. Files written before a layer took one form
may hold mixed layers, a dense E beside factored class operators (each
on fewer than C columns); `load_model` multiplies those class operators
out and loads the layer as dense.

The header holds only what is known before the first layer, so an
`ArchiveWriter` can append each layer as the construction builds it and
drop it; the depth and the trace follow in a trailer, whose two counts
sit at a fixed distance from the end. The file is written under a
temporary name next to its target and moved into place only once it is
complete.

``load_model`` reads the whole file into one buffer, checks the CRC on a
view, and hands out the operators as writable arrays viewing that buffer,
after checking that every layer holds finite values only. It still reads
versions 1 and 2, whose layers store every operator dense: version 2 is
version 3 without the forms and labels, and version 1's header carries
the depth and the trace and its layers the full (F, C, C) stacks, where
it checks that every mirror is the exact conjugate of its half-spectrum
frequency and keeps the half.
"""

import contextlib
import math
import os
import struct
import zlib

import numpy as np

from ..errors import BadArchiveValue, BadMagic, ChecksumFailure, VersionMismatch
from ..spectral import SpectralReduNet
from .. import _freq

MAGIC = b"REDUNET1"
VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
# a model's kind is the rank of its symmetry group: none, shifts, translations
KIND_VECTOR, KIND_SHIFT1D, KIND_TRANSLATION2D = 0, 1, 2
TRAILER_COUNTS = 8  # u32 depth, u32 trace_rows
DENSE, FACTORED = 0, 1  # the form of an operator


def _u32(*values) -> bytes:
    return struct.pack("<" + "I" * len(values), *(int(v) for v in values))


def _f64(*values) -> bytes:
    return struct.pack("<" + "d" * len(values), *(float(v) for v in values))


def _bytes(arr, dtype="<f8") -> np.ndarray:
    """The bytes of ``arr`` as ``dtype``: a view when it already is one, no copy."""
    return np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8)


def _header(freq_shape, C, k, eps, eta, lam, gamma, alpha, alpha_class, forms,
            labels=None) -> bytes:
    if len(freq_shape) > KIND_TRANSLATION2D:
        raise TypeError(f"cannot archive a model over a rank-{len(freq_shape)} group")
    dims = (C, *freq_shape)
    parts = [_u32(len(freq_shape), k, len(dims), *dims), _f64(eps, eta, lam),
             _f64(*gamma), _f64(alpha), _f64(*alpha_class), _u32(*forms)]
    if labels is not None:
        parts.append(_u32(len(labels), *labels))
    return b"".join(parts)


class ArchiveWriter:
    """A version-3 archive at ``path``, written one layer at a time.

    ``append`` writes a layer's stacks as soon as it gets them (the header
    goes out with the first), so it can be a construction's layer sink.
    ``close(model)`` writes the model's trace and depth and the CRC, then
    moves the file from ``path + ".tmp"`` to ``path``. Leaving a ``with``
    block without `close`, by an exception or otherwise, removes the
    temporary file, so a failed run leaves neither an archive nor a part
    of one.
    """

    def __init__(self, path, eps: float):
        self.path = os.fspath(path)
        self.eps = float(eps)
        self.depth = 0
        self._tmp = self.path + ".tmp"
        self._fh = open(self._tmp, "wb")
        self._fh.write(MAGIC)
        self._crc = 0
        self._header = None
        self._write(_u32(VERSION))

    def _write(self, part):
        self._fh.write(part)
        self._crc = zlib.crc32(part, self._crc)

    def _start(self, header: bytes):
        if self._header is None:
            self._header = header
            self._write(header)
        elif header != self._header:
            raise ValueError("layers disagree on shared scalars or operator forms; "
                             "cannot archive")

    def append(self, layer: _freq.SpectralLayer):
        k, _, C, _ = layer.Cbar.shape
        factored = layer.features is not None
        self._start(_header(layer.freq_shape, C, k, self.eps, layer.eta, layer.lam,
                            layer.gamma, layer.alpha, layer.alpha_class,
                            [FACTORED if factored else DENSE] * (k + 1), layer.labels))
        dtype = "<c16" if layer.freq_shape else "<f8"
        if factored:
            self._write(_bytes(layer.features, dtype))
        for op in _freq.operators(layer):
            self._write(_bytes(op.K if factored else op, dtype))
        self.depth += 1

    def close(self, model: SpectralReduNet) -> str:
        """Finish the archive with ``model``'s trace; returns the path written."""
        trace = np.asarray(model.trace, dtype=np.float64)
        if trace.ndim != 2 or trace.shape[1] != 3:
            raise ValueError("model trace must be (rows, 3)")
        if not self.depth:  # no layer brought the header
            self._start(_header(model.freq_shape, model.C, model.k, self.eps, model.eta,
                                model.lam, model.gamma, 0.0, np.zeros(model.k),
                                [DENSE] * (model.k + 1)))
        self._write(_bytes(trace))
        self._write(_u32(self.depth, trace.shape[0]))
        self._fh.write(_u32(self._crc))
        self._fh.close()
        os.replace(self._tmp, self.path)
        return self.path

    def discard(self):
        """Remove the temporary file; nothing left to do after `close`."""
        self._fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self._tmp)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.discard()


def save_model(model, path) -> str:
    """Serialize a constructed network; returns the path written."""
    if not isinstance(model, SpectralReduNet):
        raise TypeError(f"cannot archive a {type(model).__name__}")
    with ArchiveWriter(path, model.eps) as writer:
        for layer in model.layers:
            writer.append(layer)
        writer.close(model)
    return str(path)


def archive_version(path) -> int:
    """The format version in the header of the archive at ``path``."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 4)
    if len(head) < len(MAGIC) + 4 or head[:len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: not a model archive")
    return struct.unpack_from("<I", head, len(MAGIC))[0]


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
    """Read an archive, version 1, 2 or 3, back into a model of half-spectrum layers.

    Rejects wrong magic, unknown versions, a trailing CRC32 mismatch
    (truncation, corruption), header values out of their domain (among
    them operator forms, labels and class counts that disagree with each
    other or with C), and operator payloads that hold a non-finite value,
    a factored inverse that is not Hermitian or, in version 1, a mirror
    that is not the conjugate of its frequency. A mixed layer of an older
    writer loads as a dense one.
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
    if version not in READABLE_VERSIONS:
        raise VersionMismatch(f"{path}: archive version {version}, expected one of "
                              f"{READABLE_VERSIONS}")
    stored = struct.unpack_from("<I", buf, len(buf) - 4)[0]
    actual = zlib.crc32(buf[len(MAGIC):len(buf) - 4])
    if stored != actual:
        raise ChecksumFailure(f"{path}: CRC32 {actual:#010x} != stored {stored:#010x}")

    start, end = len(MAGIC) + 4, len(buf) - 4
    if version == 1:
        cur = _Cursor(buf, start, end)
        kind, k, depth, trace_rows, ndim = (cur.u32() for _ in range(5))
    else:  # the trailer's counts sit just before the CRC, the trace before them
        if end - TRAILER_COUNTS < start:
            raise ChecksumFailure(f"{path}: truncated archive")
        end -= TRAILER_COUNTS
        depth, trace_rows = struct.unpack_from("<II", buf, end)
        if end - 24 * trace_rows < start:
            raise ChecksumFailure(f"{path}: declared trace exceeds the payload size")
        end -= 24 * trace_rows
        trace = _Cursor(buf, end, end + 24 * trace_rows).array((trace_rows, 3))
        cur = _Cursor(buf, start, end)
        kind, k, ndim = (cur.u32() for _ in range(3))
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
    if version == 1:
        trace = cur.array((trace_rows, 3))
    for name, value in (("eps", eps), ("eta", eta), ("lam", lam), ("gamma", gamma),
                        ("alpha", alpha), ("alpha_class", alpha_class), ("trace", trace)):
        if not np.isfinite(value).all():
            raise BadArchiveValue(f"{path}: non-finite {name} value")
    if min(eps, eta, lam) <= 0:
        raise BadArchiveValue(f"{path}: eps, eta and lam must be positive, "
                              f"got {eps}, {eta}, {lam}")
    if k == 0:  # no class to steer a layer step or to classify into
        raise BadArchiveValue(f"{path}: the model has no classes (k = 0)")
    C, freq_shape = dims[0], dims[1:]
    forms, labels = [DENSE] * (k + 1), None
    if version >= 3:
        forms, labels = _forms(path, cur, k, C)

    # the vector kind is the trivial group: one frequency, real operators
    dtype = "<c16" if freq_shape else "<f8"
    grid = math.prod(freq_shape) if version == 1 else _freq.half_count(freq_shape)
    scale = float(math.prod(freq_shape))
    layers = []
    for index in range(depth):
        features, stored = _read_layer(cur, grid, C, k, dtype, forms, labels)
        if not all(np.isfinite(arr).all() for arr in (*stored, features) if arr is not None):
            raise BadArchiveValue(f"{path}: non-finite operator in layer {index}")
        # a factored inverse is exactly Hermitian; one read with the wrong
        # class counts (of the right total size) is not
        if not all(np.array_equal(K, K.conj().swapaxes(-1, -2))
                   for K, form in zip(stored, forms) if form == FACTORED):
            raise BadArchiveValue(f"{path}: layer {index} holds a factored inverse that "
                                  "is not Hermitian")
        if labels is None:
            Ebar, Cbar = stored
        elif all(forms):
            Ebar, Cbar = _freq.factored_operators(features, labels, stored,
                                                  [alpha, *alpha_class], scale)
        else:  # a mixed layer of an older writer: its factored class operators multiplied out
            classes = np.sort(labels)
            Ebar, features, Cbar = stored[0], None, np.stack([
                _freq.dense(_freq.Factored(features, classes == j, K, a, scale))
                if form == FACTORED else K
                for j, (K, form, a) in enumerate(zip(stored[1:], forms[1:], alpha_class))])
        if version == 1 and freq_shape:  # keep the half of exactly conjugate mirrors
            try:
                for op in (Ebar, Cbar.swapaxes(0, 1)):
                    _freq.check_conjugate_symmetry(op, freq_shape, tol=0.0)
            except ValueError:
                raise BadArchiveValue(f"{path}: layer {index} has a mirror frequency that "
                                      "is not the conjugate of its half-spectrum "
                                      "frequency") from None
            half = _freq.half_spectrum(freq_shape)
            Ebar, Cbar = Ebar[half], Cbar[:, half]
        layers.append(_freq.SpectralLayer(
            Ebar=Ebar, Cbar=Cbar, freq_shape=freq_shape, gamma=gamma.copy(), alpha=alpha,
            alpha_class=alpha_class.copy(), eta=eta, lam=lam, features=features,
            labels=None if features is None else labels.copy()))
    model = SpectralReduNet(layers=layers, C=C, freq_shape=freq_shape, k=k, eps=eps,
                            eta=eta, lam=lam, trace=trace, gamma=gamma)
    if cur.off != cur.end:
        raise ChecksumFailure(f"{path}: {cur.end - cur.off} unread payload bytes")
    return model


def _forms(path, cur, k: int, C: int):
    """The operator forms of a version-3 header, and its labels (None when
    every operator is dense), each checked against k, C and the others."""
    forms = cur.array((k + 1,), "<u4")
    unknown = forms[~np.isin(forms, (DENSE, FACTORED))]
    if unknown.size:
        raise BadArchiveValue(f"{path}: unknown operator form {unknown[0]}")
    if not forms.any():
        return forms, None
    m = cur.u32()
    if m == 0:
        raise BadArchiveValue(f"{path}: factored operators over m = 0 samples")
    labels = cur.array((m,), "<u4").astype(np.int64)
    if labels.max() >= k:
        raise BadArchiveValue(f"{path}: label {labels.max()} out of range for k = {k}")
    counts = np.bincount(labels, minlength=k)
    if counts.min() == 0:
        raise BadArchiveValue(f"{path}: class {int(np.argmin(counts))} has no samples")
    for i, (form, m_op) in enumerate(zip(forms, [m, *counts])):
        if form == FACTORED and m_op >= C:
            raise BadArchiveValue(f"{path}: operator {i} is factored over {m_op} columns; "
                                  f"a factored operator has fewer columns than C = {C}")
    if forms[0] == FACTORED and not forms.all():  # m < C: so has every class
        raise BadArchiveValue(f"{path}: E is factored, so every class operator must be")
    return forms, labels


def _read_layer(cur, grid, C, k, dtype, forms, labels):
    """The next layer as stored: its features (None when every operator is
    dense) and its operators, the k class stacks as one (k, grid, C, C)
    array when every operator is dense, else E and each C_j in turn, a
    factored one as its inverse K."""
    if labels is None:
        return None, [cur.array((grid, C, C), dtype), cur.array((k, grid, C, C), dtype)]
    sizes = [labels.size, *np.bincount(labels, minlength=k)]
    features = cur.array((grid, C, labels.size), dtype)
    return features, [cur.array((grid, n, n) if form == FACTORED else (grid, C, C), dtype)
                      for form, n in zip(forms, sizes)]
