"""Experiment drivers: dataset preparation, construction, evaluation, artifacts.

Every experiment follows the same shape: prepare a labeled training stack
(and a test stack, plus optionally an augmented test set) in the model's
input space, construct the network with label-driven updates while
co-propagating the test data, fit the nearest-subspace classifier on the
training features, and emit loss_curve.csv, cosine_train.csv,
cosine_test.csv, accuracy.csv, and (optionally) a model archive. The
construction streams each layer to that archive as it builds it, so a
saved run holds one layer at a time, not all of them.

For the shift- and translation-invariant models the classifier is fitted
to the orbit of the training features under the subgroup of rolls by
multiples of the configured ``stride`` along each group axis. Those rolls
equal forwarding shifted inputs because the constructed maps are exactly
equivariant, and `fit_subspaces` fits the orbit from the unrolled features
on one block per character of the subgroup, so no shifted copy is ever
propagated or formed. The kept subspaces are exactly invariant under the
subgroup (a conjugate pair of characters is kept whole). The stride must
therefore divide each rolled axis, or be at least as long (the identity
alone); any other stride is a ConfigError. By the same equivariance the
augmented test set is scored from the test features rolled one shift at a
time; only a vector model lifts, carries and forwards the shifted copies.
"""

import contextlib
import ctypes
import functools
import os
import zipfile
import zlib

import numpy as np

from ..classify import evaluate, fit_subspaces, predict
from ..datasets import (LabeledDataset, _rolled, augment_shifts, gaussian_sphere,
                        load_mnist, signals_1d)
from ..errors import ConfigError, DataError
from ..lifting import lift_1d, lift_2d, polar_transform, random_filters, sparsify
from ..rate import Partition
from ..spectral import construct, forward, layer_kernel
from .archive import ArchiveWriter, load_model, save_model
from .csvio import emit_csv

ORTHO_COS = 0.1  # |cos| at or below this counts as orthogonal
_SWEEP_BLOCK_VALUES = 2**20  # cosines per (rows, columns, shifts) block: 8 MB of float64

_MNIST_FILES = {"train_images": "train-images-idx3-ubyte",
                "train_labels": "train-labels-idx1-ubyte",
                "test_images": "t10k-images-idx3-ubyte",
                "test_labels": "t10k-labels-idx1-ubyte"}


try:  # glibc only; other allocators keep their own policy
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _releases_freed_heap(stage):
    """Hand the C heap's free pages back to the OS once ``stage`` returns.

    glibc trims its heap only from the top, so whether a dropped model's
    operators stay resident depends on where one small survivor landed;
    the next stage in the process would then peak higher in some runs.
    """
    @functools.wraps(stage)
    def run(*args, **kwargs):
        try:
            return stage(*args, **kwargs)
        finally:
            if _malloc_trim is not None:
                _malloc_trim(0)
    return run


class Prepared:
    """Model-space data for one experiment (sample axis last).

    ``carry`` is the stack a construction carries: the test stack, or, for
    a vector model with an augmented one, both as one stack of which
    ``test`` and ``aug`` are views. An invariant model has ``shifts`` in
    place of ``aug``: its test features are rolled by each (`_mapped`).
    """

    def __init__(self, train, labels, test, test_labels,
                 aug=None, aug_labels=None, fit_stride=None, carry=None):
        self.train, self.labels = train, labels
        self.test, self.test_labels = test, test_labels
        self.aug, self.aug_labels, self.shifts = aug, aug_labels, None
        self.fit_stride = fit_stride
        self.carry = test if carry is None else carry

    def drop_stacks(self):
        """Let go of the model-space stacks once they are consumed; the
        metrics read only the features and the labels."""
        self.train = self.test = self.aug = self.carry = None


def _flat(F) -> np.ndarray:
    return F.reshape(-1, F.shape[-1])


def _take_per_class(ds: LabeledDataset, per_class: int, k: int) -> LabeledDataset:
    """First per_class samples of every class, in class order."""
    picks = []
    for j in range(k):
        where = np.flatnonzero(ds.labels == j)
        if where.size < per_class:
            raise DataError(f"class {j} has {where.size} samples, need {per_class}")
        picks.append(where[:per_class])
    order = np.concatenate(picks)
    return LabeledDataset(ds.samples[order], ds.labels[order])


def _resolve_mnist_paths(cfg) -> dict:
    root = cfg.data_dir or os.environ.get("REDUNET_MNIST_DIR")
    paths = {}
    for key, base in _MNIST_FILES.items():
        explicit = getattr(cfg, key)
        if explicit:
            paths[key] = explicit
            continue
        if root is None:
            raise DataError(
                f"no {key} given; set it in the config or point REDUNET_MNIST_DIR "
                "at a directory with the standard IDX files")
        cand = os.path.join(root, base)
        if not os.path.exists(cand) and os.path.exists(cand + ".gz"):
            cand += ".gz"
        if not os.path.exists(cand):
            raise DataError(f"{key}: neither {cand} nor {cand}.gz exists")
        paths[key] = cand
    return paths


def _load_mnist_pair(cfg):
    paths = _resolve_mnist_paths(cfg)
    train = load_mnist(paths["train_images"], paths["train_labels"], digits=(0, 1))
    test = load_mnist(paths["test_images"], paths["test_labels"], digits=(0, 1))
    return (_take_per_class(train, cfg.m_per_class, 2),
            _take_per_class(test, cfg.m_test_per_class, 2))


def _default_radii(channels: int, H: int, W: int) -> tuple:
    rmax = (min(H, W) - 1) / 2.0
    return tuple(rmax * (i + 1) / channels for i in range(channels))


def _prepare_gauss(cfg, dim: int) -> Prepared:
    k = dim  # 2 classes on the circle, 3 on the sphere
    train = gaussian_sphere(k=k, sigma=cfg.sigma, m_per_class=cfg.m_per_class,
                            dim=dim, seed=cfg.seed)
    test = gaussian_sphere(k=k, sigma=cfg.sigma, m_per_class=cfg.m_test_per_class,
                           dim=dim, seed=cfg.seed + 1)
    return Prepared(train.samples.T, train.labels, test.samples.T, test.labels)


def _mapped(as_input, train, test, rank, stride, want_aug, vector=False) -> Prepared:
    """The datasets' samples mapped into model space by ``as_input``, and,
    if ``want_aug``, the augmented set as the shifts by multiples of
    ``stride`` along the samples' axes 1..``rank`` (`Prepared`): an
    invariant model rolls its test features by each, a ``vector`` model
    carries the rolled test samples after the test set, as one stack."""
    shifts = augment_shifts(test.samples.shape[1:1 + rank], stride) if want_aug else None
    if vector and shifts:
        aug = _rolled(test, shifts)
        carry = as_input(np.concatenate([test.samples, aug.samples]))
        return Prepared(as_input(train.samples), train.labels, carry[..., :test.m],
                        test.labels, carry[..., test.m:], aug.labels, carry=carry)
    prep = Prepared(as_input(train.samples), train.labels, as_input(test.samples),
                    test.labels, fit_stride=None if vector else (stride,) * rank)
    if shifts:
        prep.shifts = shifts
        prep.aug_labels = np.repeat(test.labels, len(shifts))
    return prep


def _flat_samples(X) -> np.ndarray:
    return X.reshape(X.shape[0], -1).T


def _prepare_signals(cfg, want_aug: bool) -> Prepared:
    train = signals_1d(cfg.m_per_class, cfg.n, cfg.seed, cfg.noise)
    test = signals_1d(cfg.m_test_per_class, cfg.n, cfg.seed + 1, cfg.noise)
    bank = random_filters(cfg.channels, cfg.kernel_size, cfg.seed + 2)
    return _mapped(lambda X: sparsify(lift_1d(X.T, bank)), train, test, 1, cfg.stride, want_aug)


def _prepare_rotation(cfg, want_aug: bool) -> Prepared:
    train, test = _load_mnist_pair(cfg)
    H, W = train.samples.shape[1:]
    radii = cfg.radii or _default_radii(cfg.channels, H, W)

    def to_polar(ds):
        return LabeledDataset(polar_transform(ds.samples, cfg.gamma, radii), ds.labels)

    vector = cfg.variant == "vector"
    as_input = _flat_samples if vector else lambda X: X.transpose(2, 1, 0)  # (C, gamma, m)
    return _mapped(as_input, to_polar(train), to_polar(test), 1, cfg.stride, want_aug, vector)


def _prepare_translation(cfg, want_aug: bool) -> Prepared:
    train, test = _load_mnist_pair(cfg)
    if cfg.variant == "vector":
        return _mapped(_flat_samples, train, test, 2, cfg.stride, want_aug, vector=True)
    for size in train.samples.shape[1:]:
        if cfg.stride < size and size % cfg.stride:
            raise ConfigError(f"stride {cfg.stride} must divide the image size {size} "
                              "or be at least that size")
    bank = random_filters(cfg.channels, (cfg.kernel_size, cfg.kernel_size), cfg.seed + 2)
    return _mapped(lambda X: sparsify(lift_2d(X.transpose(1, 2, 0), bank)),
                   train, test, 2, cfg.stride, want_aug)


def _npz_labels(path, raw, count: int, key: str) -> np.ndarray:
    """One non-negative integer label per column, else DataError."""
    labels = np.asarray(raw)
    if labels.shape != (count,):
        raise DataError(f"{path}: {key} has shape {labels.shape}, "
                        f"expected one label for each of {count} columns")
    if (labels.dtype.kind not in "iuf" or not np.isfinite(labels).all()
            or np.any(labels % 1 != 0) or np.any(labels < 0)):
        raise DataError(f"{path}: {key} must hold non-negative integers")
    return labels.astype(int)


def _npz_features(path, raw, key: str, rows=None) -> np.ndarray:
    """A real numeric (n, m) matrix of n >= 1 rows (``rows`` if given) and
    m >= 1 columns, as float64, else DataError."""
    arr = np.asarray(raw)
    if arr.dtype.kind not in "iuf":
        raise DataError(f"{path}: {key} must hold real numbers, got dtype {arr.dtype}")
    if arr.ndim != 2 or 0 in arr.shape or rows not in (None, arr.shape[0]):
        raise DataError(f"{path}: {key} must be ({rows or 'n'}, m), with at least one row "
                        f"and one column, got shape {arr.shape}")
    return np.asarray(arr, dtype=np.float64)


def _prepare_custom(cfg) -> Prepared:
    if not cfg.data:
        raise ConfigError("custom-vector needs a data = path/to/arrays.npz entry")
    try:  # read every array now, so a damaged member fails here too
        with open(cfg.data, "rb") as fh:
            arrays = np.load(fh)
            arrays = dict(arrays) if isinstance(arrays, np.lib.npyio.NpzFile) else {}
    except FileNotFoundError:
        raise DataError(f"data file {cfg.data} does not exist") from None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"{cfg.data}: not a readable .npz archive: {exc}") from None
    for key in ("X", "labels"):
        if key not in arrays:
            raise DataError(f"{cfg.data}: missing array {key!r}")
    X = _npz_features(cfg.data, arrays["X"], "X")
    labels = _npz_labels(cfg.data, arrays["labels"], X.shape[1], "labels")
    missing = np.flatnonzero(np.bincount(labels) == 0)
    if missing.size:
        raise DataError(f"{cfg.data}: class {missing[0]} has no training column; "
                        f"labels must cover every class from 0 to {labels.max()}")
    test = test_labels = None
    if "X_test" in arrays:
        if "labels_test" not in arrays:
            raise DataError(f"{cfg.data}: X_test without labels_test")
        test = _npz_features(cfg.data, arrays["X_test"], "X_test", X.shape[0])
        test_labels = _npz_labels(cfg.data, arrays["labels_test"], test.shape[1],
                                  "labels_test")
        unknown = test_labels[test_labels > labels.max()]
        if unknown.size:
            raise DataError(f"{cfg.data}: labels_test holds label {unknown[0]}, but the "
                            f"training labels cover only 0 to {labels.max()}")
    return Prepared(X, labels, test, test_labels)


_PREPARE = {"gauss2d": lambda cfg, want_aug: _prepare_gauss(cfg, 2),
            "gauss3d": lambda cfg, want_aug: _prepare_gauss(cfg, 3),
            "signals1d": _prepare_signals, "mnist-rotation": _prepare_rotation,
            "mnist-translation": _prepare_translation,
            "custom-vector": lambda cfg, want_aug: _prepare_custom(cfg)}


def _prepare(cfg, want_aug: bool = True) -> Prepared:
    if cfg.kind not in _PREPARE:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    return _PREPARE[cfg.kind](cfg, want_aug)


def _check_model_matches(model, prep: Prepared, archive_path):
    # the group rank is the number of dims after C, so this checks the geometry too
    shape, dims = prep.train.shape[:-1], (model.C, *model.freq_shape)
    if dims != shape:
        raise ConfigError(f"{archive_path}: archive holds a model of shape {dims}, "
                          f"but the experiment needs one of shape {shape}")


def _within_class_max_angle_deg(flat_tr, partition: Partition) -> float:
    worst = 1.0
    for j in range(partition.k):
        Fj = flat_tr[:, partition.mask(j)]
        worst = min(worst, float(np.clip(Fj.T @ Fj, -1.0, 1.0).min()))
    return float(np.degrees(np.arccos(worst)))


def _cross_class_max_abs_cos(flat_tr, labels) -> float:
    cos = np.abs(flat_tr.T @ flat_tr)
    cross = labels[:, None] != labels[None, :]
    return float(cos[cross].max()) if cross.any() else 0.0


def _orthogonal_fraction_all_shifts(F_test, test_labels, F_train, labels) -> float:
    """Fraction of cross-class (shifted test, train) pairs with |cos| <= 0.1,
    over every cyclic shift of the test features.

    The cosine of test column i shifted by s against train column j is the
    cross-correlation sum_c sum_t F_test[c, t-s, i] F_train[c, t, j], which
    is irfft_s(sum_c conj(A[c, f, i]) B[c, f, j]) with A, B the rffts of
    the two stacks along the position axis: one batched product per block
    of test rows gives the cosines at all T shifts at once.
    """
    T = F_train.shape[1]
    A = np.fft.rfft(F_test, axis=1).conj().transpose(1, 2, 0)  # (F, m_test, C)
    B = np.fft.rfft(F_train, axis=1).transpose(1, 0, 2)         # (F, C, m)
    total = hits = 0
    for j in np.unique(test_labels):
        rows = np.flatnonzero(test_labels == j)
        Bx = B[:, :, labels != j]
        step = max(1, _SWEEP_BLOCK_VALUES // max(1, Bx.shape[2] * T))
        for start in range(0, rows.size, step):
            prod = A[:, rows[start:start + step]] @ Bx  # (F, r, m_x)
            cos = np.fft.irfft(prod.transpose(1, 2, 0), n=T, axis=-1)
            hits += int((np.abs(cos) <= ORTHO_COS).sum())
        total += rows.size * Bx.shape[2] * T
    return hits / total


def _augmented_predictions(clf, F_test, F_aug, shifts) -> np.ndarray:
    """Classes of the forwarded copies ``F_aug``, or of the test features rolled
    by each of ``shifts`` in turn, never stacked, sample-major as `_rolled` lays them."""
    if shifts is None:
        return predict(F_aug, clf)
    axes = tuple(range(1, F_test.ndim - 1))  # the group axes
    return np.stack([predict(np.roll(F_test, s, axis=axes), clf) for s in shifts], 1).ravel()


def _metric_rows(cfg, prep: Prepared, F_train, F_test, F_aug) -> list:
    clf = fit_subspaces(F_train, Partition(prep.labels), cfg.energy, stride=prep.fit_stride)
    rows = [("train_accuracy", evaluate(predict(F_train, clf), prep.labels))]
    if F_test is not None:
        rows.append(("test_accuracy", evaluate(predict(F_test, clf), prep.test_labels)))
    if prep.aug_labels is not None:
        rows.append(("augmented_test_accuracy", evaluate(
            _augmented_predictions(clf, F_test, F_aug, prep.shifts), prep.aug_labels)))
    if cfg.kind in ("gauss2d", "gauss3d"):
        flat_tr = _flat(F_train)
        P = Partition(prep.labels)
        rows.append(("within_class_max_angle_deg",
                     _within_class_max_angle_deg(flat_tr, P)))
        rows.append(("cross_class_max_abs_cos",
                     _cross_class_max_abs_cos(flat_tr, prep.labels)))
    if cfg.kind == "signals1d" and F_test is not None:
        rows.append(("cross_class_orthogonal_fraction",
                     _orthogonal_fraction_all_shifts(
                         F_test, prep.test_labels, F_train, prep.labels)))
    return rows


def _emit_artifacts(cfg, prep: Prepared, model, F_train, F_test, rows, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    trace = np.asarray(model.trace)
    loss_rows = [(i, trace[i, 0], trace[i, 1], trace[i, 2])
                 for i in range(trace.shape[0])]
    emit_csv(loss_rows, os.path.join(out_dir, "loss_curve.csv"),
             ["layer", "rate_reduction", "rate", "class_rate"])
    flat_tr = _flat(F_train)
    names = [f"c{i}" for i in range(flat_tr.shape[1])]
    emit_csv(np.abs(flat_tr.T @ flat_tr),
             os.path.join(out_dir, "cosine_train.csv"), names)
    if F_test is not None:
        emit_csv(np.abs(_flat(F_test).T @ flat_tr),
                 os.path.join(out_dir, "cosine_test.csv"), names)
    emit_csv(rows, os.path.join(out_dir, "accuracy.csv"), ["metric", "value"])


def _split_carry(carry_features, prep: Prepared):
    """The test and augmented features of a carry (`Prepared.carry`)."""
    if prep.aug is None:
        return carry_features, None
    m_test = prep.test_labels.size
    return carry_features[..., :m_test], carry_features[..., m_test:]


@_releases_freed_heap
def run_experiment(cfg, out_dir) -> dict:
    """Construct, evaluate, and write one experiment's artifacts.

    Returns the accuracy.csv rows as a dict. Deterministic for a fixed
    config: every random draw derives from cfg.seed (test data uses
    seed+1, filter banks seed+2). With ``save_model`` the layers go to
    ``model.rnet`` as they are built; the archive appears only after the
    other artifacts, and not at all if the run fails.
    """
    prep = _prepare(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with (ArchiveWriter(os.path.join(out_dir, "model.rnet"), cfg.eps) if cfg.save_model
          else contextlib.nullcontext()) as archive:
        model = construct(prep.train, Partition(prep.labels), cfg.layers, cfg.eta,
                          cfg.eps, lam=cfg.lam, use_labels=True, carry=prep.carry,
                          sink=archive.append if archive else lambda layer: None)
        F_test, F_aug = _split_carry(model.carry_features, prep)
        prep.drop_stacks()
        rows = _metric_rows(cfg, prep, model.features, F_test, F_aug)
        _emit_artifacts(cfg, prep, model, model.features, F_test, rows, out_dir)
        if archive:
            archive.close(model)
    return dict(rows)


@_releases_freed_heap
def eval_experiment(cfg, archive_path, out_dir, augmented: bool = False) -> dict:
    """Re-evaluate an archived model on the experiment's data.

    Features come from forwarding (estimated membership at every layer).
    ``augmented`` adds the augmented test set's accuracy row. With
    ``save_model`` the evaluated model is saved again as ``model.rnet``.
    """
    prep = _prepare(cfg, want_aug=augmented)
    model = load_model(archive_path)
    _check_model_matches(model, prep, archive_path)
    F_train = forward(model, prep.train)
    F_test = forward(model, prep.test) if prep.test is not None else None
    F_aug = forward(model, prep.aug) if prep.aug is not None else None
    prep.drop_stacks()
    rows = _metric_rows(cfg, prep, F_train, F_test, F_aug)
    _emit_artifacts(cfg, prep, model, F_train, F_test, rows, out_dir)
    if cfg.save_model:
        save_model(model, os.path.join(out_dir, "model.rnet"))
    return dict(rows)


def export_kernels(archive_path, out_dir) -> list:
    """Write the layer-0 convolution kernels of a spectral archive as CSVs."""
    model = load_model(archive_path)
    if not model.freq_shape:
        raise ConfigError("vector archives store no convolution kernels")
    if not model.layers:
        raise DataError(f"{archive_path}: archive has no stored layers")
    layer = model.layers[0]
    letters = "t" if len(model.freq_shape) == 1 else "pq"
    names = ["".join(f"{a}{i}" for a, i in zip(letters, t))
             for t in np.ndindex(*model.freq_shape)]
    os.makedirs(out_dir, exist_ok=True)
    header = ["out_channel", "in_channel"] + names

    def rows_of(kern):
        C = kern.shape[0]
        return [(a, b) + tuple(kern[a, b].ravel())
                for a in range(C) for b in range(C)]

    paths = []
    path = os.path.join(out_dir, "kernel_expand.csv")
    emit_csv(rows_of(layer_kernel(layer, "expand")), path, header)
    paths.append(path)
    for j in range(model.k):
        path = os.path.join(out_dir, f"kernel_compress_class{j}.csv")
        emit_csv(rows_of(layer_kernel(layer, "compress", class_index=j)), path, header)
        paths.append(path)
    return paths
