"""Nearest-subspace classification over learned features.

Each class gets the top principal subspace of its features. For a
shift-invariant model, `fit_subspaces` fits instead the orbit of a class's
(C, *G, m) features under the subgroup H of cyclic rolls by multiples of a
stride along each group axis, without forming it: the rolls commute with
the orbit's Gram, whose DFT over the coset index of each rolled axis is
|H| independent blocks of n/|H| rows, one per character of H (10 blocks of
105 rows instead of one of 1050 for 7 channels of 150 samples at stride
15). A complex character and its conjugate become two real directions and
are kept or dropped together, so the fitted subspaces are exactly
H-invariant. Plain features are the order-1 subgroup, one real block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, LengthMismatch
from .rate import Partition, real_finite

ORTHONORMAL_TOL = 1e-10
_SQUARE_BLOCK_VALUES = 2**18  # feature values squared at a time in `predict`: 2 MB


def _flatten(Z) -> np.ndarray:
    """Feature stack of any shape with trailing sample axis -> (n, m) columns."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim == 1:
        return Z[:, None]
    return Z.reshape(math.prod(Z.shape[:-1]), Z.shape[-1])  # -1 cannot size an empty stack


@dataclass(frozen=True)
class SubspaceModel:
    """Per-class orthonormal bases; prediction is the least-residual class."""

    bases: tuple  # k matrices, each (n, r_j)

    def __post_init__(self):
        for U in self.bases:
            gram = U.T @ U
            if np.max(np.abs(gram - np.eye(U.shape[1]))) > ORTHONORMAL_TOL:
                raise ValueError("basis columns must be orthonormal")

    @property
    def k(self) -> int:
        return len(self.bases)

    @property
    def ranks(self) -> tuple:
        return tuple(U.shape[1] for U in self.bases)


def _cosets(group, stride) -> tuple:
    """(N_i, d_i) per group axis of the subgroup of rolls by multiples of ``stride``.

    Rolling axis G_i by d_i permutes its N_i = G_i / d_i cosets of d_i
    consecutive positions cyclically. A stride that divides G_i gives
    d_i = stride; one at least G_i long rolls by nothing but the identity
    (N_i = 1). Any other stride generates no subgroup of that size.
    """
    if len(stride) != len(group):
        raise ValueError(f"{len(stride)} strides given for {len(group)} group axes")
    out = []
    for G, s in zip(group, stride):
        s = int(s)
        if s < 1 or (s < G and G % s):
            raise ValueError(f"stride {s} neither divides nor covers a group axis of {G}")
        out.append((1, G) if s >= G else (G // s, s))
    return tuple(out)


def _characters(N: tuple):
    """(character, paired) for one character of each conjugate class of the
    cyclic group Z_N1 x ... x Z_Nr; ``paired`` is False for a real one."""
    for chi in np.ndindex(*N):
        mirror = tuple(-c % n for c, n in zip(chi, N))
        if chi <= mirror:
            yield chi, chi != mirror


def _character(chi, N: tuple, paired: bool) -> np.ndarray:
    """The (N1, ..., Nr) values exp(2 pi i chi.a / N) of one character."""
    order = math.prod(N)
    # chi.a in units of 1/|H| of a turn, so a real character is +-1 exactly
    turns = sum(c * (order // n) * a for c, n, a in zip(chi, N, np.indices(N))) % order
    if not paired:
        return np.where(turns == 0, 1.0, -1.0)
    return np.exp(2j * np.pi * turns / order)


def _class_basis(Zc: np.ndarray, samples: np.ndarray, energy: float, j: int) -> np.ndarray:
    """Orthonormal (n, r) basis of the top principal directions of one class's
    orbit under a roll subgroup H, with the orbit never formed.

    ``Zc`` is (N1, ..., Nr, C, d1, ..., dr, m), every sample's features with
    each group axis split into its cosets and the coset axes first (a view),
    and ``samples`` the indices of the class's m_j samples. The class is
    copied once, into that cosets-first order, one coset at a time, and the
    copy is dropped once its transform exists. The orbit's Gram commutes
    with H, so a DFT over the coset axes splits it into |H| blocks
    B_chi B_chi^*, one per character chi of H, where B_chi is the
    (C*d1*...*dr, m_j) slice of the transform at chi; the blocks hold the
    orbit Gram's eigenvalues. Each block is decomposed
    on its smaller side, and the eigenvalues of all blocks are ranked
    together with the dense fit's energy cut and rounding floor. A block's
    eigenvector u maps back to the orbit direction exp(2 pi i chi.a)/sqrt(|H|)
    x u, which is real for a real character (chi = -chi). A complex
    character and its conjugate share their eigenvalues, and each pair
    becomes the two real directions sqrt(2) Re and sqrt(2) Im; a pair is
    kept whole, so where the cut falls inside one the rank is one higher
    than a dense fit's, whose choice in that degenerate eigenspace is
    arbitrary, and the kept span is exactly H-invariant.

    Plain features are the order-1 subgroup, N = (): ``Zc`` is (n, m), and
    its one character is the constant 1, exactly, so the one real block is
    the dense fit itself. Eigenvalues at the Gram's rounding level count as
    exact zeros, so `energy = 1.0` keeps the true rank.
    """
    rank = (Zc.ndim - 2) // 2
    N, grid_shape = Zc.shape[:rank], Zc.shape[rank:-1]  # grid_shape: (C, d1, ..., dr)
    order, n, mj = math.prod(N), math.prod(Zc.shape[:-1]), samples.size
    coset_axes = tuple(range(1, 2 * rank, 2))  # of (C, N1, d1, ..., Nr, dr)
    chars = list(_characters(N))
    pairing = [paired for _, paired in chars]
    table = np.stack([_character(chi, N, paired) for chi, paired in chars])
    # the DFT over the cosets, at one character of each conjugate pair
    Zj = np.empty(Zc.shape[:-1] + (mj,))
    for coset in np.ndindex(*N):  # np.take would copy all of Zc first
        Zj[coset] = Zc[coset][..., samples]
    spectra = (table.conj().reshape(len(pairing), order) @ Zj.reshape(order, -1)).reshape(
        len(pairing), n // order, mj)
    del Zj
    blocks = []  # (paired, block, wide, descending eigenvalues and vectors)
    for paired, B in zip(pairing, spectra):
        if not paired and np.iscomplexobj(B):
            B = np.ascontiguousarray(B.real)
        wide = B.shape[0] <= mj
        lam, V = np.linalg.eigh(B @ B.conj().T if wide else B.conj().T @ B)
        blocks.append((paired, B, wide, lam[::-1], V[:, ::-1]))
    # every eigenvalue ranked once per orbit direction: twice for a pair
    lam = np.concatenate([np.repeat(b[3], 1 + b[0]) for b in blocks])
    owner = np.concatenate([np.full(b[3].size * (1 + b[0]), i) for i, b in enumerate(blocks)])
    order_desc = np.argsort(-lam, kind="stable")
    lam, owner = lam[order_desc], owner[order_desc]
    floor = max(n, order * mj) * np.finfo(np.float64).eps * lam[0]
    power = np.where(lam > floor, lam, 0.0)
    total = power.sum()
    if total == 0.0:
        raise EmptyClass(f"class {j} features are all zero")
    r = int(np.searchsorted(np.cumsum(power) / total, energy) + 1)
    # a zero-power direction carries no energy and has no well-defined
    # image under Zj, so it is never kept
    r = min(max(r, 1), int(np.count_nonzero(power)))
    # each block's eigenvalues are ranked in their own order, so a block
    # keeps a leading run of them; a pair cut in half is kept whole
    kept = np.bincount(owner[:r], minlength=len(blocks))
    columns = []
    for (paired, B, wide, _, V), character, count in zip(blocks, table, kept):
        rb = (count + 1) // 2 if paired else count
        if rb == 0:
            continue
        if wide:
            U = V[:, :rb].copy()
        else:
            # B v_i has norm sqrt(lam_i), but dividing by it leaves an error
            # near eps * lam_0 / lam_i in the basis's orthogonality, which
            # fails the model's check once the kept spectrum spans several
            # decades; QR of the kept images gives the same span,
            # orthonormal to working precision
            U, _ = np.linalg.qr(B @ V[:, :rb])
        grid = U.reshape(grid_shape + (rb,))
        grid = np.expand_dims(grid, coset_axes)
        phase = (character if paired else character.real).reshape(
            (1,) + sum(((size, 1) for size in N), ()) + (1,))
        v = (grid * (phase / math.sqrt(order))).reshape(n, rb)
        if paired:
            v = math.sqrt(2.0) * np.stack([v.real, v.imag], axis=-1).reshape(n, 2 * rb)
        columns.append(v)
    return columns[0] if len(columns) == 1 else np.hstack(columns)


def fit_subspaces(Z, partition: Partition, energy: float = 0.95,
                  stride=None) -> SubspaceModel:
    """Top singular subspace of each class, keeping >= `energy` of the
    squared singular value mass (at least one direction per class).

    With ``stride`` (one int per group axis), ``Z`` is a (C, *G, m) stack
    and each class's subspace is fitted to the orbit of its features under
    the subgroup of cyclic rolls by multiples of ``stride[i]`` along group
    axis i, as if every rolled copy had been appended with its label. The
    copies are never formed (see `_class_basis`). Each stride must divide
    its axis or be at least as long as it (then that axis rolls by nothing).
    Complex features raise ValueError, a NaN or inf NumericalError.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    Z = real_finite(Z, "features")
    if stride is None:
        Zs = _flatten(Z)
    else:
        if Z.ndim < 2:
            raise ValueError(f"strided features must be (C, *G, m), got shape {Z.shape}")
        cosets = _cosets(Z.shape[1:-1], stride)
        Zs = Z.reshape(Z.shape[:1] + sum(cosets, ()) + Z.shape[-1:])
        Zs = np.moveaxis(Zs, range(1, 2 * len(cosets), 2), range(len(cosets)))
    if Zs.shape[-1] != partition.m:
        raise ValueError(f"partition covers {partition.m} samples, features have {Zs.shape[-1]}")
    bases = []
    for j in range(partition.k):
        mask = partition.mask(j)
        if not mask.any():
            raise EmptyClass(f"class {j} has no samples")
        bases.append(_class_basis(Zs, np.flatnonzero(mask), energy, j))
    return SubspaceModel(bases=tuple(bases))


def predict(z, model: SubspaceModel):
    """Class with the smallest projection residual; ties go to the lowest index.

    A 1-d input is a single feature vector and returns an int; anything
    else is a stack with trailing sample axis and returns (m,) ints.
    Complex features raise ValueError, a NaN or inf NumericalError.
    """
    z = real_finite(z, "features")
    single = z.ndim == 1
    Zf = z[:, None] if single else _flatten(z)
    # the squared norms over column blocks, without an (n, m) square; numpy
    # sums a block of two or more columns row by row, like the whole stack,
    # but one lone column pairwise, so no block is left with one column
    n, m = Zf.shape
    sq = np.empty(m)
    step = max(2, _SQUARE_BLOCK_VALUES // max(1, n))
    s = 0
    while s < m:
        e = s + step if m - s - step > 1 else m
        sq[s:e] = np.sum(Zf[:, s:e] ** 2, axis=0)
        s = e
    residuals = np.empty((model.k, Zf.shape[1]))
    for j, U in enumerate(model.bases):
        proj = U.T @ Zf
        residuals[j] = sq - np.sum(proj**2, axis=0)
    labels = np.argmin(residuals, axis=0)
    return int(labels[0]) if single else labels


def evaluate(preds, labels) -> float:
    """Fraction of matching entries."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise LengthMismatch(f"got {preds.shape} predictions for {labels.shape} labels")
    if preds.size == 0:
        raise LengthMismatch("nothing to evaluate")
    return float(np.mean(preds == labels))
