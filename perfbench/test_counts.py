"""Self-checks of the benchmark's traced run.

    python3 -m pytest -q perfbench/test_counts.py

The counts are exact properties of the workloads' shapes: per network
layer, (k+1) x (factored frequencies) Hermitian inverses (3 x 76 at T=150,
3 x 28 x 15 at 28x28, none on the vector path), and per classifier fit
the training columns times the shift grid (400 x 10, 400 x 4, 400).
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

EXPECTED = {"signals1d": (228, 4000), "translation2d": (1260, 1600),
            "vector784": (0, 400)}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_run_reports_exact_counts(name, tmp_path):
    record = child.run_once(ROOT, name, 0, str(tmp_path), time.monotonic(), trace=True)
    assert record["failed"] == 0, record["errors"]
    metrics = record["trace"]["metrics"]
    calls, columns = EXPECTED[name]
    assert metrics["freq.hermitian_inverse.calls"] == calls
    assert metrics["classify.fit_subspaces.columns"] == columns
    assert record["trace"]["absent"] == []
    assert list(metrics) == list(spans.METRICS)


def test_renamed_targets_are_reported_absent_and_originals_restored():
    from redunet import _freq
    from redunet.harness import experiments
    before = (_freq.build_layer, dict(experiments._CONSTRUCT))
    gone = (spans.Target("gone.function", "redunet._freq", "no_such_function"),
            spans.Target("gone.module", "redunet.no_such_module", "f"),
            spans.Target("gone.entry", spans.EX, "_CONSTRUCT", key="no_such_kind"))
    with spans.Tracer(spans.TARGETS + gone) as tracer:
        assert _freq.build_layer is not before[0]
    assert tracer.absent == ["gone.function", "gone.module", "gone.entry"]
    assert (_freq.build_layer, experiments._CONSTRUCT) == before


def test_self_time_excludes_child_spans():
    fake = [spans.Span("freq.build_layer", 0.0, 10.0, -1),
            spans.Span("freq.hermitian_inverse", 1.0, 2.0, 0),
            spans.Span("freq.hermitian_inverse", 3.0, 5.0, 0)]
    metrics = spans.layer_metrics(fake, layers=2)
    assert metrics["freq.build_layer.self_ms"] == pytest.approx(3500.0)
    assert metrics["freq.hermitian_inverse.ms"] == pytest.approx(1500.0)
    assert metrics["freq.hermitian_inverse.calls"] == 1


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert per_layer == list(spans.METRICS) + ["trace.overhead_pct"]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(EXPECTED)
