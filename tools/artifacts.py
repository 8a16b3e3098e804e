"""Write a fixed set of experiment artifacts, and compare two such sets.

    python3 tools/artifacts.py run OUT --seeds 1 2
    python3 tools/artifacts.py diff A B

Run from the root of a source checkout; ``run`` uses the ``redunet``
package in that checkout's ``src/``. Per seed it writes, under
``OUT/seed<N>/``, the ``construct`` and ``augment-eval`` artifacts of:

- the benchmark's workloads (``perfbench/workloads.py``, their generated
  digits from ``perfbench/digits.py``), model archives included;
- gauss2d, gauss3d and custom-vector (a seeded ``.npz``) at 20 layers;
- mnist-rotation, invariant and vector, on generated digits at 20 layers
  with a small polar grid (``ROTATION``);
- the layer-0 kernel CSVs (``export-kernel``) of every spectral archive.

``diff`` prints one line per file found under A or B: ``identical`` when
the bytes agree, else the largest |difference| over the largest |entry|
of the numbers the file holds (CSV cells, or an archive's trace and
operators, factored ones as their dense stacks, so a factored and a dense
archive of one model compare). It exits 0 when every file is identical
and 1 otherwise.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import digits  # noqa: E402
import workloads  # noqa: E402
from redunet import _freq  # noqa: E402
from redunet.harness.archive import load_model  # noqa: E402
from redunet.harness.config import load_config  # noqa: E402
from redunet.harness.csvio import read_csv  # noqa: E402
from redunet.harness.experiments import (eval_experiment, export_kernels,  # noqa: E402
                                         run_experiment)

SMALL_LAYERS = 20
CUSTOM_SHAPE = (16, 60, 30)  # features n, training and test columns
# 16 angle bins rolled by multiples of 4: 4 rotations of each test grid
ROTATION = {"m_per_class": 60, "m_test_per_class": 20, "gamma": 16, "stride": 4}


def _custom_npz(path, seed):
    """Three classes, each near its own random plane in R^n, in a seeded .npz."""
    rng = np.random.default_rng(seed)
    n, m, m_test = CUSTOM_SHAPE
    bases = rng.standard_normal((3, n, 2))

    def draw(count):
        labels = rng.integers(0, 3, count)
        X = (bases[labels] @ rng.standard_normal((count, 2, 1)))[..., 0].T
        return X + 0.05 * rng.standard_normal((n, count)), labels

    (X, labels), (X_test, labels_test) = draw(m), draw(m_test)
    np.savez(path, X=X, labels=labels, X_test=X_test, labels_test=labels_test)
    return path


def _experiments(seed, scratch):
    """(name, kind, raw overrides) of every experiment written at ``seed``."""
    for name, spec in sorted(workloads.WORKLOADS.items()):
        data_dir = None
        if spec["digits"] is not None:
            data_dir = digits.write_digits(os.path.join(scratch, name), *spec["digits"], seed)
        yield name, spec["kind"], workloads.overrides(name, seed, data_dir)
    small = {"layers": str(SMALL_LAYERS), "seed": str(seed), "save_model": "true"}
    yield "gauss2d", "gauss2d", small
    yield "gauss3d", "gauss3d", small
    data = _custom_npz(os.path.join(scratch, "custom.npz"), seed)
    yield "custom-vector", "custom-vector", dict(small, data=data)
    data_dir = digits.write_digits(os.path.join(scratch, "rotation"), ROTATION["m_per_class"],
                                   ROTATION["m_test_per_class"], seed)
    for variant in ("invariant", "vector"):
        yield (f"mnist-rotation-{variant}", "mnist-rotation",
               dict(small, data_dir=data_dir, variant=variant,
                    **{key: str(value) for key, value in ROTATION.items()}))


def run(out, seeds):
    for seed in seeds:
        with tempfile.TemporaryDirectory() as scratch:
            for name, kind, overrides in _experiments(seed, scratch):
                cfg = load_config(kind, None, overrides)
                base = os.path.join(out, f"seed{seed}", name)
                run_experiment(cfg, os.path.join(base, "construct"))
                archive = os.path.join(base, "construct", "model.rnet")
                eval_experiment(cfg, archive, os.path.join(base, "augment-eval"),
                                augmented=True)
                if load_model(archive).freq_shape:
                    export_kernels(archive, os.path.join(base, "kernels"))
                print(f"seed {seed}: {name}", flush=True)


def _numbers(path):
    """The numbers a file holds, as one flat float array (strings as NaN)."""
    if path.endswith(".rnet"):
        model = load_model(path)
        parts = [np.asarray(model.trace, dtype=np.float64).ravel()]
        for layer in model.layers:
            for op in (layer.Ebar, layer.Cbar):  # factored operators multiplied out
                op = _freq.dense(op)
                parts.append(op.ravel().view(np.float64) if np.iscomplexobj(op)
                             else op.ravel())
        return np.concatenate(parts)
    _, rows = read_csv(path)

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return np.nan
    return np.array([number(cell) for row in rows for cell in row], dtype=np.float64)


def _compare(a, b) -> str:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() == fb.read():
            return "identical"
    x, y = _numbers(a), _numbers(b)
    if x.shape != y.shape:
        return f"differs: {x.size} vs {y.size} values"
    if np.array_equal(x, y, equal_nan=True):
        return "differs: same numbers, other bytes"
    delta = np.nanmax(np.abs(x - y))
    scale = max(np.nanmax(np.abs(x)), np.nanmax(np.abs(y)))
    return f"max |delta| / max |entry| = {delta / scale if scale else delta:.3e}"


def _files(top):
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def diff(a, b) -> int:
    left, right = _files(a), _files(b)
    same = True
    for rel in sorted(left | right):
        if rel not in right or rel not in left:
            verdict = f"only in {a if rel in left else b}"
        else:
            verdict = _compare(os.path.join(a, rel), os.path.join(b, rel))
        same = same and verdict == "identical"
        print(f"{rel}: {verdict}")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="write the artifacts of every seed under OUT")
    p.add_argument("out")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p = sub.add_parser("diff", help="compare two artifact trees file by file")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out, args.seeds)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
