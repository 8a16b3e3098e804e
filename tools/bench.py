"""Collect the benchmark's numbers for one source checkout into BENCH_<label>.json.

    python3 tools/bench.py --label baseline [--root DIR] [--seconds 40]
        [--workload NAME ...]

For every workload it runs the checkout's ``perfbench/run.py`` as a
subprocess at seed ``SEED``, once with ``--trace 0`` (the timed
repetitions) and once with ``--trace 1`` (one traced repetition), and
keeps the details and result lines each prints last. From them it writes,
per workload:

- median, quartiles and every repetition of the end-to-end metrics;
- the traced per-layer metrics, and their split into the phases of one
  network layer (``PHASES``): factor, step, objective and carry;
- forward throughput: the samples ``eval`` forwards (training, test and
  augmented test stacks) over the median ``eval_s``.

It also times the deep workload: criterion 06's config (signals1d with
``m_test_per_class = 100`` and ``stride = 50``) through ``run_experiment``
in a fresh process at L = 0 and L = ``DEEP_LAYERS``, ``DEEP_REPETITIONS``
times each, and reports the difference of the medians as ms per layer.
The file records the checkout's git commit, its source line count
(``src_lines``, as ``wc -l src/redunet/*.py src/redunet/harness/*.py``
counts them) and the machine record that the benchmark prints (core
count, BLAS, threads, Python, numpy).
``--runner`` replaces ``perfbench/run.py`` by any script that takes its
options and prints its two last lines.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("signals1d", "translation2d", "vector784")

# phase -> the traced per-layer metrics (ms per network layer) it sums
PHASES = {
    "factor": ("freq.build_layer.self_ms", "freq.hermitian_inverse.ms"),
    "step": ("freq.update_batch.labelled_ms",),
    "objective": ("freq.spectral_components.ms",),
    "carry": ("freq.update_batch.estimated_ms",),
}
SEED = 1  # the benchmark seed of every run
DEEP_CONFIG = {"m_test_per_class": "100", "stride": "50"}  # criterion 06
DEEP_LAYERS, DEEP_REPETITIONS = 100, 3

# prints the samples `eval_experiment(augmented=True)` forwards for a workload
_COUNT = """
import os, sys, tempfile
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import digits, workloads
from redunet.harness.config import load_config
from redunet.harness.experiments import _prepare
spec = workloads.WORKLOADS[name]
with tempfile.TemporaryDirectory() as tmp:
    data_dir = None
    if spec["digits"] is not None:
        data_dir = digits.write_digits(os.path.join(tmp, "idx"), *spec["digits"], seed)
    prep = _prepare(load_config(spec["kind"], None, workloads.overrides(name, seed, data_dir)),
                    want_aug=True)
    print(sum(s.shape[-1] for s in (prep.train, prep.test, prep.aug) if s is not None))
"""

# prints the seconds `run_experiment` takes on criterion 06's config at L layers
_DEEP = """
import json, os, sys, tempfile, time
root, layers, overrides = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, os.path.join(root, "src"))
from redunet.harness.config import load_config
from redunet.harness.experiments import run_experiment
cfg = load_config("signals1d", None, dict(overrides, layers=layers))
with tempfile.TemporaryDirectory() as tmp:
    t0 = time.perf_counter()
    run_experiment(cfg, tmp)
    print(time.perf_counter() - t0)
"""


def summary(values: list) -> dict:
    """Median, quartiles and the values themselves."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _python(args: list, root: str) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise RuntimeError(f"{' '.join(args[:2])}: {tail[0]}")
    return proc.stdout


def run_benchmark(runner: str, root: str, workload: str, seed: int, seconds: float,
                  trace: int) -> tuple[dict, dict]:
    """The details and result lines of one benchmark run."""
    out = _python([runner, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)], root)
    details, result = out.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


def phases(metrics: dict) -> dict:
    """ms per network layer of each phase, from traced per-layer metrics."""
    return {phase: sum(metrics[name]["value"] for name in names if name in metrics)
            for phase, names in PHASES.items()}


def workload_record(runner: str, root: str, workload: str, seed: int,
                    seconds: float) -> dict:
    details, result = run_benchmark(runner, root, workload, seed, seconds, trace=0)
    traced_details, traced = run_benchmark(runner, root, workload, seed, seconds, trace=1)
    end_to_end = {key: dict(summary(values), unit=result["metrics"][key]["unit"])
                  for key, values in details["per_repetition"].items()}
    samples = int(_python(["-c", _COUNT, root, workload, str(seed)], root))
    return {
        "repetitions": details["repetitions"],
        "attempted": result["attempted"] + traced["attempted"],
        "failed": result["failed"] + traced["failed"],
        "end_to_end": end_to_end,
        "phases_ms_per_layer": phases(traced["metrics"]),
        "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        "absent": traced_details.get("absent", []),
        "forward": {"samples": samples,
                    "samples_per_s": samples / end_to_end["eval_s"]["median"]},
        "machine": details["machine"],
    }


def deep_record(root: str, layers: int, repetitions: int) -> dict:
    """Criterion 06's config at L = 0 and L = ``layers``, each in a fresh process."""
    config = json.dumps(DEEP_CONFIG)
    times = {0: [], layers: []}
    for _ in range(repetitions):
        for depth in times:
            times[depth].append(float(_python(["-c", _DEEP, root, str(depth), config], root)))
    shallow, deep = summary(times[0]), summary(times[layers])
    return {"config": DEEP_CONFIG, "layers": layers, "repetitions": repetitions,
            "L0_s": shallow, "deep_s": deep,
            "ms_per_layer": 1e3 * (deep["median"] - shallow["median"]) / max(layers, 1)}


def src_lines(root: str) -> int:
    """Lines of the package's modules and of its harness's modules."""
    total = 0
    for pattern in ("src/redunet/*.py", "src/redunet/harness/*.py"):
        for path in glob.glob(os.path.join(root, pattern)):
            with open(path, "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def commit_of(root: str) -> str | None:
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", default=ROOT, help="source checkout to measure")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runner", help="script in place of ROOT/perfbench/run.py")
    parser.add_argument("--out-dir", default=ROOT)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    runner = os.path.abspath(args.runner or os.path.join(root, "perfbench", "run.py"))

    workloads = {}
    for name in args.workload or WORKLOADS:
        print(f"{name} ...", file=sys.stderr, flush=True)
        workloads[name] = workload_record(runner, root, name, SEED, args.seconds)
    print("deep ...", file=sys.stderr, flush=True)
    deep = deep_record(root, DEEP_LAYERS, DEEP_REPETITIONS)
    machines = [w["machine"] for w in workloads.values()]
    record = {
        "label": args.label, "commit": commit_of(root), "src_lines": src_lines(root),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": {"seconds": args.seconds, "seed": SEED,
                     "redunet_threads": os.environ.get("REDUNET_THREADS")},
        "machine": machines[0] if machines else None,
        "workloads": workloads, "deep": deep,
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
