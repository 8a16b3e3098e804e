"""`tools/bench.py` against a stub of the benchmark runner: the schema of the
BENCH_<label>.json it writes, and the runs it asks for."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

# prints what perfbench/run.py prints last (details, then result), with
# three repetitions and a traced per-layer split, and logs its options
STUB = """
import json, sys
log, args = sys.argv[0] + ".log", sys.argv[1:]
with open(log, "a") as fh:
    fh.write(" ".join(args) + "\\n")
trace = args[args.index("--trace") + 1] == "1"
machine = {"nproc": 2, "threads": "2", "blas": "stub 1", "python": "3", "numpy": "2",
           "scipy": "1"}
units = {"setup_s": "s", "construct_s": "s", "eval_s": "s", "peak_rss_mb": "MB",
         "archive_mb": "MB"}
reps = {key: [1.0, 2.0, 4.0] for key in units}
details = {"workload": args[args.index("--workload") + 1], "repetitions": 3, "lost": [],
           "machine": machine, "per_repetition": reps, "errors": [], "accuracy": {}}
if trace:
    metrics = {"freq.build_layer.self_ms": 2.0, "freq.hermitian_inverse.ms": 1.0,
               "freq.update_batch.labelled_ms": 3.0, "freq.update_batch.estimated_ms": 5.0,
               "freq.spectral_components.ms": 0.5, "freq.compressions.ms": 0.0}
    metrics = {name: {"value": value, "unit": "ms"} for name, value in metrics.items()}
    details["absent"] = ["vector.soft_membership"]
else:
    metrics = {key: {"value": 2.0, "unit": unit} for key, unit in units.items()}
print("summary line")
print(json.dumps(details))
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}))
"""


def test_bench_writes_the_schema_from_the_runner_output(tmp_path, monkeypatch, capsys):
    stub = tmp_path / "run.py"
    stub.write_text(STUB)
    # one shallow deep-workload repetition, for time
    monkeypatch.setattr(bench, "DEEP_LAYERS", 1)
    monkeypatch.setattr(bench, "DEEP_REPETITIONS", 1)
    assert bench.main(["--label", "stub", "--seconds", "1", "--workload", "signals1d",
                       "--runner", str(stub), "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "BENCH_stub.json")
    record = json.loads((tmp_path / "BENCH_stub.json").read_text())

    calls = (tmp_path / "run.py.log").read_text().splitlines()
    assert calls == [f"--workload signals1d --seed 1 --seconds 1.0 --trace {t}" for t in (0, 1)]
    assert set(record) == {"label", "commit", "src_lines", "created", "settings", "machine",
                           "workloads", "deep"}
    assert record["src_lines"] == bench.src_lines(ROOT) > 0
    assert record["label"] == "stub"
    assert (record["settings"]["seconds"], record["settings"]["seed"]) == (1.0, 1)
    assert record["machine"]["blas"] == "stub 1"
    assert list(record["workloads"]) == ["signals1d"]

    w = record["workloads"]["signals1d"]
    assert (w["repetitions"], w["attempted"], w["failed"]) == (3, 10, 0)
    construct = w["end_to_end"]["construct_s"]
    assert construct == {"median": 2.0, "q1": 1.5, "q3": 3.0, "values": [1.0, 2.0, 4.0],
                         "unit": "s"}
    assert set(w["end_to_end"]) == {"setup_s", "construct_s", "eval_s", "peak_rss_mb",
                                    "archive_mb"}
    assert w["phases_ms_per_layer"] == {"factor": 3.0, "step": 3.0, "objective": 0.5,
                                        "carry": 5.0}
    assert w["per_layer"]["freq.compressions.ms"] == 0.0
    assert w["absent"] == ["vector.soft_membership"]
    # signals1d's desk config forwards 400 training and 400 test samples; its
    # 4000 shifted test samples are scored from rolled test features
    assert w["forward"]["samples"] == 800
    assert w["forward"]["samples_per_s"] == w["forward"]["samples"] / 2.0

    deep = record["deep"]
    assert deep["config"] == {"m_test_per_class": "100", "stride": "50"}
    assert (deep["layers"], deep["repetitions"]) == (1, 1)
    assert deep["L0_s"]["median"] > 0 and deep["deep_s"]["median"] > 0
    assert deep["ms_per_layer"] == 1e3 * (deep["deep_s"]["median"] - deep["L0_s"]["median"])


def test_src_lines_counts_the_package_and_harness_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "redunet"
    (package / "harness" / "deeper").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\nthree\n")
    (package / "b.py").write_text("no newline at the end")  # wc -l counts 0
    (package / "harness" / "c.py").write_text("\n\n")
    (package / "notes.txt").write_text("not a module\n")
    (package / "harness" / "deeper" / "d.py").write_text("not counted\n")
    assert bench.src_lines(str(tmp_path)) == 5
