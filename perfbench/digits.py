"""Seeded stand-in for the MNIST IDX files, so the digit pipelines run offline.

Writes the four standard file names (train and t10k, images and labels)
into a directory. Digits 0 and 1 are drawn as a jittered ellipse ring and
a slanted stroke; a few images of other digits (random strokes) are mixed
in so the loader's digit filter and relabelling are exercised. The same
seed gives byte-identical files.
"""

import os
import struct

import numpy as np

SIDE = 28
OTHER_SHARE = 0.1  # extra images of digits 2..9, as a share of the 0/1 count


def _stroke(dist, width):
    """Anti-aliased ink from a distance field: 1 inside, 0 one pixel out."""
    return np.clip(1.0 - (dist - width), 0.0, 1.0)


def _segment_distance(yy, xx, y0, x0, y1, x1):
    dy, dx = y1 - y0, x1 - x0
    t = ((yy - y0) * dy + (xx - x0) * dx) / max(dy * dy + dx * dx, 1e-9)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(yy - (y0 + t * dy), xx - (x0 + t * dx))


def _draw(digit, rng, yy, xx):
    cy = 13.5 + rng.uniform(-2.0, 2.0)
    cx = 13.5 + rng.uniform(-2.0, 2.0)
    width = rng.uniform(0.8, 1.8)
    if digit == 0:
        ry, rx = rng.uniform(7.0, 10.0), rng.uniform(4.0, 7.0)
        tilt = rng.uniform(-0.4, 0.4)
        v, u = yy - cy, xx - cx
        v, u = v * np.cos(tilt) - u * np.sin(tilt), v * np.sin(tilt) + u * np.cos(tilt)
        radius = np.hypot(v / ry, u / rx)
        ink = _stroke(np.abs(radius - 1.0) * min(ry, rx), width)
    elif digit == 1:
        half, slant = rng.uniform(7.0, 10.0), rng.uniform(-0.35, 0.35)
        ink = _stroke(_segment_distance(yy, xx, cy - half, cx + slant * half,
                                        cy + half, cx - slant * half), width)
    else:
        ends = rng.uniform(4.0, 24.0, size=(2, 2))
        ink = _stroke(_segment_distance(yy, xx, *ends[0], *ends[1]), width)
    return np.clip(255.0 * ink, 0, 255).astype(np.uint8)


def digit_images(per_class: int, seed: int):
    """(images, labels): per_class of each of 0 and 1 plus a few others, shuffled."""
    rng = np.random.default_rng(seed)
    others = max(1, int(OTHER_SHARE * 2 * per_class))
    labels = np.concatenate([np.repeat([0, 1], per_class),
                             rng.integers(2, 10, size=others)]).astype(np.uint8)
    labels = labels[rng.permutation(labels.size)]
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    images = np.stack([_draw(int(d), rng, yy, xx) for d in labels])
    return images, labels


def _write_idx(path, magic, array):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def write_digits(directory, train_per_class: int, test_per_class: int, seed: int) -> str:
    """Write train-* and t10k-* IDX files into ``directory``; returns it."""
    os.makedirs(directory, exist_ok=True)
    for stem, per_class, part_seed in (("train", train_per_class, seed),
                                       ("t10k", test_per_class, seed + 1)):
        images, labels = digit_images(per_class, part_seed)
        _write_idx(os.path.join(directory, f"{stem}-images-idx3-ubyte"), 0x00000803, images)
        _write_idx(os.path.join(directory, f"{stem}-labels-idx1-ubyte"), 0x00000801, labels)
    return directory
