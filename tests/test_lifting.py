import numpy as np
import pytest

from redunet.errors import RadiusOutOfBounds
from redunet.lifting import lift_1d, lift_2d, polar_transform, random_filters, sparsify

import oracles
from oracles import rng_for


# ------------------------------------------------------------ filter banks

def test_same_seed_gives_identical_bank():
    a = random_filters(4, 3, seed=7)
    b = random_filters(4, 3, seed=7)
    assert np.array_equal(a, b)


def test_kernels_have_unit_norm():
    bank = random_filters(5, 9, seed=0)
    assert np.max(np.abs(np.linalg.norm(bank, axis=1) - 1.0)) < 1e-12
    bank2 = random_filters(3, (4, 4), seed=0)
    norms = np.sqrt(np.sum(bank2**2, axis=(1, 2)))
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert bank.shape == (5, 9) and bank2.shape == (3, 4, 4)  # the kernel arrays themselves


def test_different_seeds_differ():
    a = random_filters(2, 5, seed=0)
    b = random_filters(2, 5, seed=1)
    assert np.max(np.abs(a - b)) > 1e-6


def test_bank_validates_channel_count():
    with pytest.raises(ValueError):
        random_filters(0, 5, seed=0)


# ----------------------------------------------------------------- lifting

def test_delta_kernel_reproduces_signal():
    rng = rng_for(1)
    x = rng.standard_normal(12)
    assert np.max(np.abs(lift_1d(x, np.ones((1, 1)))[0] - x)) < 1e-12


def test_lift_1d_matches_dense_circulant():
    rng = rng_for(2)
    x = rng.standard_normal(11)
    bank = random_filters(3, 4, seed=3)
    got = lift_1d(x, bank)
    for c in range(3):
        kern = np.zeros(11)
        kern[:4] = bank[c]
        assert np.max(np.abs(got[c] - oracles.circulant(kern) @ x)) < 1e-9


def test_lift_1d_batch_matches_loop():
    rng = rng_for(3)
    X = rng.standard_normal((10, 4))
    bank = random_filters(2, 5, seed=1)
    got = lift_1d(X, bank)
    assert got.shape == (2, 10, 4)
    for i in range(4):
        assert np.max(np.abs(got[:, :, i] - lift_1d(X[:, i], bank))) < 1e-12


def test_lift_1d_shift_equivariant():
    rng = rng_for(4)
    x = rng.standard_normal(16)
    bank = random_filters(3, 6, seed=2)
    base = lift_1d(x, bank)
    shifted = lift_1d(np.roll(x, 5), bank)
    assert np.max(np.abs(shifted - np.roll(base, 5, axis=1))) < 1e-10


def test_lift_2d_matches_dense_doubly_circulant():
    rng = rng_for(5)
    img = rng.standard_normal((5, 6))
    bank = random_filters(2, (3, 3), seed=4)
    got = lift_2d(img, bank)
    for c in range(2):
        kern = np.zeros((5, 6))
        kern[:3, :3] = bank[c]
        expected = (oracles.doubly_circulant(kern) @ img.reshape(-1)).reshape(5, 6)
        assert np.max(np.abs(got[c] - expected)) < 1e-9


def test_lift_2d_translation_equivariant():
    rng = rng_for(6)
    img = rng.standard_normal((8, 8))
    bank = random_filters(3, (3, 3), seed=5)
    base = lift_2d(img, bank)
    shifted = lift_2d(np.roll(img, (2, 5), axis=(0, 1)), bank)
    assert np.max(np.abs(shifted - np.roll(base, (2, 5), axis=(1, 2)))) < 1e-10


def test_lift_2d_batch_shape():
    rng = rng_for(7)
    imgs = rng.standard_normal((6, 7, 3))
    bank = random_filters(4, (2, 2), seed=6)
    got = lift_2d(imgs, bank)
    assert got.shape == (4, 6, 7, 3)
    assert np.max(np.abs(got[:, :, :, 1] - lift_2d(imgs[:, :, 1], bank))) < 1e-12


def test_lift_rejects_oversized_kernel():
    bank = random_filters(1, 9, seed=0)
    with pytest.raises(ValueError):
        lift_1d(np.zeros(5), bank)
    # 1-d kernels as wide as the image would broadcast along its rows
    with pytest.raises(ValueError, match="does not fit"):
        lift_2d(np.zeros((6, 5)), random_filters(1, 5, seed=0))


# ---------------------------------------------------------------- sparsify

def test_relu_keeps_nonnegative_input():
    z = np.array([[0.0, 1.5], [2.0, 0.3]])
    assert np.array_equal(sparsify(z), z)


def test_relu_idempotent():
    rng = rng_for(9)
    z = rng.standard_normal(50)
    once = sparsify(z)
    assert np.array_equal(sparsify(once), once)


def test_sparsify_is_1_lipschitz():
    rng = rng_for(10)
    a, b = rng.standard_normal(200), rng.standard_normal(200)
    gap = np.abs(sparsify(a) - sparsify(b))
    assert np.all(gap <= np.abs(a - b) + 1e-15)


# ---------------------------------------------------------- polar transform

def radial_pattern(H, W, f):
    """Image whose intensity is an analytic function of (radius, angle)."""
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    y, x = np.mgrid[0:H, 0:W]
    return f(np.hypot(y - cy, x - cx), np.arctan2(y - cy, x - cx))


def test_constant_image_gives_constant_grid():
    grid = polar_transform(np.full((9, 9), 2.5), 12, [1.0, 2.0, 3.0])
    assert grid.shape == (12, 3)
    assert np.max(np.abs(grid - 2.5)) < 1e-12


def test_rotation_becomes_angle_shift():
    H = W = 33
    rmax = (H - 1) / 2.0
    gamma, s = 24, 5
    delta = 2 * np.pi * s / gamma

    def f(shift):
        return lambda r, th: (np.cos(th - shift) * (r / rmax)
                              + 0.5 * np.sin(2 * (th - shift)) * (r / rmax)**2
                              + 0.2 * np.cos(3 * (th - shift)) * (r / rmax)**3)

    radii = np.array([4.0, 7.0, 10.0, 13.0])
    base = polar_transform(radial_pattern(H, W, f(0.0)), gamma, radii)
    rotated = polar_transform(radial_pattern(H, W, f(delta)), gamma, radii)
    assert np.max(np.abs(np.roll(base, s, axis=0) - rotated)) < 1e-2


def test_polar_rejects_outside_radii():
    img = np.zeros((28, 28))
    with pytest.raises(RadiusOutOfBounds):
        polar_transform(img, 16, [14.0])
    with pytest.raises(RadiusOutOfBounds):
        polar_transform(img, 16, [-1.0])


def test_polar_grid_shape_at_reference_sizes():
    rng = rng_for(11)
    grid = polar_transform(rng.standard_normal((28, 28)), 200, np.linspace(2.0, 13.0, 5))
    assert grid.shape == (200, 5)


def test_polar_batch_equals_each_image_alone():
    # the bytes and the C-order layout of a stack of single-image calls,
    # which every later product of the rotation pipeline reads
    rng = rng_for(12)
    imgs = rng.standard_normal((2, 25, 28, 28))
    radii = np.linspace(2.0, 13.0, 5)
    batch = polar_transform(imgs, 16, radii)
    alone = np.stack([[polar_transform(img, 16, radii) for img in row] for row in imgs])
    assert batch.shape == (2, 25, 16, 5) and batch.flags.c_contiguous
    assert np.array_equal(batch, alone)
    with pytest.raises(ValueError):
        polar_transform(np.zeros(28), 16, radii)
