"""One benchmark repetition in a fresh process.

    python3 perfbench/child.py --root DIR --workload NAME --seed N \
        --work DIR --record FILE --spawned T [--trace]

Set-up (imports, the generated inputs, config resolution) is timed from
``--spawned``, the parent's monotonic clock reading just before it started
this process. Then the child runs ``run_experiment`` and
``eval_experiment(augmented=True)`` on the saved archive, as
``redunet construct`` and ``redunet augment-eval`` do, checks the outputs,
and writes one JSON record to ``--record``. The parent sets the thread
caps in this process's environment, so they hold before numpy loads.
"""

import argparse
import contextlib
import time

_T_START = time.monotonic()

import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OPERATIONS = ("construct", "eval", "archive_reloads", "carry_equals_forward",
              "loss_curve_sane")


def _machine(np, scipy) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "threads": os.environ.get("REDUNET_THREADS"),
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _loss_curve_sane(path) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(v) for row in rows for v in row.values()]
    reduction = [float(row["rate_reduction"]) for row in rows]
    return (bool(rows) and all(math.isfinite(v) for v in values)
            and reduction[-1] >= reduction[0])


def run_once(root, name, seed, work, spawned, trace=False) -> dict:
    """Set up, construct, evaluate and check one workload; returns the record."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy as np
    import scipy
    import redunet
    from redunet.harness import experiments
    from redunet.harness.archive import load_model
    from redunet.harness.config import load_config
    if not os.path.abspath(redunet.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported redunet from {redunet.__file__}, not {src}")

    import digits
    spec = workloads.WORKLOADS[name]
    data_dir = None
    if spec["digits"] is not None:
        data_dir = digits.write_digits(os.path.join(work, "idx"), *spec["digits"], seed)
    cfg = load_config(spec["kind"], None, workloads.overrides(name, seed, data_dir))
    setup_s = time.monotonic() - spawned

    construct_dir = os.path.join(work, "construct")
    eval_dir = os.path.join(work, "eval")
    archive = os.path.join(construct_dir, "model.rnet")
    record = {"workload": name, "seed": seed, "layers": cfg.layers, "setup_s": setup_s,
              "machine": _machine(np, scipy), "errors": {}}
    stage = "construct"
    with spans.Tracer() if trace else contextlib.nullcontext() as tracer:
        try:
            t0 = time.perf_counter()
            built = experiments.run_experiment(cfg, construct_dir)
            t1 = time.perf_counter()
            stage = "eval"
            evaluated = experiments.eval_experiment(cfg, archive, eval_dir, augmented=True)
            t2 = time.perf_counter()
        except Exception as exc:  # counted as failed operations, not fatal
            record["errors"][stage] = f"{type(exc).__name__}: {exc}"
            # the stage that raised and every operation after it
            failed = len(OPERATIONS) - OPERATIONS.index(stage)
            record.update(attempted=len(OPERATIONS), failed=failed)
            return record
    record.update(construct_s=t1 - t0, eval_s=t2 - t1,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                  archive_mb=os.path.getsize(os.path.join(eval_dir, "model.rnet")) / 1e6,
                  accuracy={"construct": built, "eval": evaluated})

    def reloads():
        return load_model(os.path.join(eval_dir, "model.rnet")).depth == cfg.layers

    def carry_equals_forward():
        keys = ("test_accuracy", "augmented_test_accuracy")
        return all(key in built and built[key] == evaluated.get(key) for key in keys)

    checks = {"archive_reloads": reloads, "carry_equals_forward": carry_equals_forward,
              "loss_curve_sane": lambda: _loss_curve_sane(
                  os.path.join(construct_dir, "loss_curve.csv"))}
    for check, fn in checks.items():
        try:
            ok = fn()
        except Exception as exc:  # a check that raises has failed
            record["errors"][check] = f"{type(exc).__name__}: {exc}"
            continue
        if not ok:
            record["errors"][check] = "check failed"
    record.update(attempted=len(OPERATIONS), failed=len(record["errors"]))
    if tracer is not None:
        record["trace"] = {"metrics": spans.layer_metrics(tracer.spans, cfg.layers),
                           "absent": tracer.absent,
                           "spans": spans.span_records(tracer.spans)}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spawned", type=float, default=_T_START)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_once(args.root, args.workload, args.seed, args.work,
                      args.spawned, args.trace)
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
