"""Built-in oracle-equivalence checks and the per-frequency benchmark.

The checks recompute a handful of the package's core identities from
independent routes (dense structured matrices, finite differences, group
actions) at small sizes. The benchmark then times the layer build that
`construct` runs every layer, `_freq.build_layer`, on both
representations at (C=8, T=64, m=64): on the rfftn half spectra, and on
the dense (C*T, T*m) circulant stack as a feature matrix, the trivial
group's stack, whose operators are dense C*T x C*T matrices.
"""

import os
import time

import numpy as np

from .._freq import build_layer, normalize_samples
from ..rate import Partition
from ..spectral import (_spectra, augmented_partition, construct, forward, group_gradient,
                        group_rate_components, stacked_circulant)
from .csvio import emit_csv

_BENCH_REPEATS = 3


def _objective_gap(seed: int, shape: tuple, labels) -> float:
    """Largest gap between the fast and dense objective triples."""
    Zbar = normalize_samples(np.random.default_rng(seed).standard_normal(shape))
    P = Partition(np.array(labels))
    fast = group_rate_components(Zbar, P, 0.5, method="fast")
    dense = group_rate_components(Zbar, P, 0.5, method="dense")
    return float(np.max(np.abs(np.array(fast) - np.array(dense))))


def _gradient_rel_err() -> float:
    rng = np.random.default_rng(2)
    Z0 = normalize_samples(rng.standard_normal((2, 6, 3)))
    labels = np.array([0, 1, 0])
    P = Partition(labels)
    expand, compress = group_gradient(Z0, P, 0.5)
    grad = expand - compress.sum(axis=0)
    h = 1e-6
    numeric = np.empty_like(Z0)
    for idx in np.ndindex(Z0.shape):
        Zp, Zm = Z0.copy(), Z0.copy()
        Zp[idx] += h
        Zm[idx] -= h
        numeric[idx] = (group_rate_components(Zp, P, 0.5)[0]
                        - group_rate_components(Zm, P, 0.5)[0]) / (2 * h)
    return float(np.max(np.abs(grad - numeric)) / np.max(np.abs(numeric)))


def _equivariance_err() -> float:
    rng = np.random.default_rng(3)
    Zbar = rng.standard_normal((2, 8, 4))
    labels = np.array([0, 1, 0, 1])
    model = construct(Zbar, Partition(labels), L=2, eta=0.3, eps=0.5)
    x = rng.standard_normal((2, 8))
    err = 0.0
    for s in range(8):
        shifted = forward(model, np.roll(x, s, axis=1))
        err = max(err, float(np.max(np.abs(shifted - np.roll(forward(model, x), s, axis=1)))))
    return err


def _benchmark() -> tuple[float, float]:
    """Best-of-N seconds for (half-spectrum, dense) layer factorization."""
    rng = np.random.default_rng(7)
    Zbar = normalize_samples(rng.standard_normal((8, 64, 64)))
    labels = np.repeat(np.arange(2), 32)
    P = Partition(labels)
    Vt = _spectra(Zbar)
    stack = stacked_circulant(Zbar)[None]
    Paug = augmented_partition(P, 64)

    def spectral_once():
        build_layer(Vt, P, 0.1, eta=0.5, lam=20.0, freq_shape=(64,))

    def dense_once():  # the circulant stack as a feature matrix, the trivial group
        build_layer(stack, Paug, 0.1, eta=0.5, lam=20.0, freq_shape=())

    spectral_once()  # warm caches before timing
    ts = td = float("inf")
    for _ in range(_BENCH_REPEATS):
        t0 = time.perf_counter()
        spectral_once()
        ts = min(ts, time.perf_counter() - t0)
        t0 = time.perf_counter()
        dense_once()
        td = min(td, time.perf_counter() - t0)
    return ts, td


def run_selftest(out_dir=None) -> tuple[list, list]:
    """Run every check; returns (metric rows, failure descriptions).

    An empty failure list means everything held; callers decide whether
    to raise (the CLI maps failures to NumericalError's exit code).
    """
    checks = [
        ("objective_gap_1d", _objective_gap(0, (2, 8, 4), [0, 1, 0, 1]), 1e-7),
        ("objective_gap_2d", _objective_gap(1, (2, 3, 3, 2), [0, 1]), 1e-7),
        ("gradient_rel_err", _gradient_rel_err(), 1e-5),
        ("equivariance_err", _equivariance_err(), 1e-8),
    ]
    rows = [(name, value) for name, value, _ in checks]
    failures = [f"{name} = {value:.3e} > {limit:.0e}"
                for name, value, limit in checks if not value <= limit]

    ts, td = _benchmark()
    speedup = td / ts
    rows += [("benchmark_spectral_seconds", ts),
             ("benchmark_dense_seconds", td),
             ("benchmark_speedup", speedup)]
    if speedup < 10.0:
        failures.append(f"benchmark_speedup = {speedup:.2f} < 10")

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        emit_csv(rows, os.path.join(out_dir, "selftest.csv"), ["metric", "value"])
    return rows, failures
