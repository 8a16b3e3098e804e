"""Benchmark runner: construct and augment-eval timings for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
``redunet`` package in ``src/``, nothing installed. Each repetition is a
fresh child process (perfbench/child.py) with the thread caps set in its
environment, so its set-up time and peak RSS belong to that repetition
alone. Repetitions run back to back until the next one would end after
``--seconds``; the reported value of every metric is the median over them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` also runs one
traced repetition, kept apart from the timed ones, and reports the
per-layer metrics, the tracing overhead and a single-thread reference pass
(``REDUNET_THREADS=1``), which is not gated.

The last stdout line is the JSON result; the line before it holds the
details (per-repetition values, machine record, single-thread pass).
Exits 2 without a result when there is no ``src/redunet`` to measure or
no repetition produced a record.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads
from child import OPERATIONS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, ".out")
DEADLINE_S = 170  # every child is stopped before the run exceeds this
MIN_REPS = 3

END_TO_END = {"setup_s": "s", "construct_s": "s", "eval_s": "s",
              "peak_rss_mb": "MB", "archive_mb": "MB"}
THREAD_VARS = ("REDUNET_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Runner:
    """Starts child repetitions in one temporary directory and collects records."""

    def __init__(self, workload, seed, deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.nproc = len(os.sched_getaffinity(0))
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
        self.count = 0
        self.lost = []  # repetitions that ended without a record

    def child(self, threads=None, trace=False):
        """One repetition; returns its record, or None if the child died."""
        self.count += 1
        rep = os.path.join(self.work, f"rep{self.count}")
        record_path = rep + ".json"
        env = dict(os.environ)
        env.update({var: str(threads or self.nproc) for var in THREAD_VARS})
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", rep, "--record", record_path]
        if trace:
            cmd.append("--trace")
        spawned = time.monotonic()
        cmd += ["--spawned", repr(spawned)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(self.deadline - spawned, 1.0))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            self.lost.append("timed out")
            return None
        finally:
            shutil.rmtree(rep, ignore_errors=True)
        if proc.returncode != 0 or not os.path.exists(record_path):
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            self.lost.append(tail[0])
            return None
        with open(record_path) as fh:
            record = json.load(fh)
        record["wall_s"] = time.monotonic() - spawned
        return record

    def timed(self, seconds):
        """Untraced repetitions until the next would end after ``seconds``."""
        records, start = [], time.monotonic()
        while True:
            rec = self.child()
            if rec is not None:
                records.append(rec)
            elapsed = time.monotonic() - start
            last = rec["wall_s"] if rec is not None else 0.0
            if len(records) >= MIN_REPS and elapsed + last > seconds:
                return records
            if time.monotonic() + last > self.deadline or len(self.lost) > MIN_REPS:
                return records

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass


def _counts(records, lost):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return (attempted + len(OPERATIONS) * len(lost),
            failed + len(OPERATIONS) * len(lost))


def _write_spans(workload, seed, record):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(record["trace"]["spans"], fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "redunet", "__init__.py")):
        print(f"error: no src/redunet under {ROOT} to benchmark", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        records = runner.timed(args.seconds)
        traced = single = None
        if args.trace and records:
            traced = runner.child(trace=True)
            if time.monotonic() + 2 * records[-1]["wall_s"] < runner.deadline:
                single = runner.child(threads=1)
    finally:
        runner.close()

    timed = [r for r in records if "construct_s" in r]
    if not timed or (args.trace and (traced is None or "trace" not in traced)):
        print(f"error: no usable repetition ({'; '.join(runner.lost) or 'failed'})",
              file=sys.stderr)
        return 2

    medians = {key: statistics.median(r[key] for r in timed) for key in END_TO_END}
    checked = records + [r for r in (traced, single) if r is not None]
    attempted, failed = _counts(checked, runner.lost)
    details = {
        "workload": args.workload, "seed": args.seed, "layers": workloads.LAYERS,
        "repetitions": len(timed), "lost": runner.lost,
        "machine": timed[0]["machine"],
        "per_repetition": {key: [r[key] for r in timed] for key in END_TO_END},
        "errors": [r["errors"] for r in checked if r["errors"]],
        "accuracy": timed[0]["accuracy"],
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": spans.METRICS[name]}
                   for name, value in traced["trace"]["metrics"].items()}
        overhead = 100.0 * (traced["construct_s"] / medians["construct_s"] - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        details.update(absent=traced["trace"]["absent"],
                       traced_construct_s=traced["construct_s"],
                       spans_file=_write_spans(args.workload, args.seed, traced))
        if single is not None and "construct_s" in single:
            details["single_thread"] = {key: single.get(key) for key in END_TO_END}
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    _print_summary(details, medians, attempted, failed)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_summary(details, medians, attempted, failed):
    m = details["machine"]
    print(f"{details['workload']}  seed {details['seed']}  L={details['layers']}  "
          f"repetitions {details['repetitions']}  threads {m['threads']}/{m['nproc']}  "
          f"{m['blas']}  python {m['python']} numpy {m['numpy']} scipy {m['scipy']}")
    single = details.get("single_thread")
    for key, unit in END_TO_END.items():
        line = f"  {key:<12} {medians[key]:10.4f} {unit}  (median)"
        if single is not None:
            line += f"   single-thread {single[key]:10.4f} {unit}"
        print(line)
    print(f"  failed {failed} / attempted {attempted}")


if __name__ == "__main__":
    sys.exit(main())
