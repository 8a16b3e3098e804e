"""Span tracing from outside the program, and the per-layer metrics it yields.

Each traced function is replaced, at the name its caller looks up, by a
wrapper that records a span: name, start, end, parent span and a few
counts derived from the call's arguments and result. Spans stay in memory
until the run ends. A target that no longer exists (a module, function or
table entry renamed by a refactor) is reported as absent and skipped.
"""

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

EX = "redunet.harness.experiments"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """``module.attr`` (or ``module.attr[key]`` for a dispatch table)."""

    name: str
    module: str
    attr: str
    key: str | None = None
    attrs: Callable | None = None  # (args, kwargs, result) -> dict of counts


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _mb(nbytes) -> float:
    return float(nbytes) / 1e6


def _file_mb(args, kwargs, result):
    return {"mb": _mb(os.path.getsize(_arg(args, kwargs, 1, "path")))}


def _update_batch_attrs(args, kwargs, result):
    Vt, layer = _arg(args, kwargs, 0, "Vt"), _arg(args, kwargs, 1, "layer")
    k = layer.Cbar.shape[0]
    # operators read, plus input, E V, the k class projections and the output
    computed = layer.Ebar.nbytes + layer.Cbar.nbytes + (3 + k) * Vt.nbytes
    return {"samples": int(Vt.shape[-1]), "mb": _mb(computed),
            "labelled": _arg(args, kwargs, 2, "pi") is not None}


def _layer_attrs(args, kwargs, result):
    return {"mb": _mb(result.Ebar.nbytes + result.Cbar.nbytes)}


def _result_mb(args, kwargs, result):
    return {"mb": _mb(result.nbytes)}


def _columns(args, kwargs, result):
    return {"columns": int(_arg(args, kwargs, 0, "Z").shape[-1])}


TARGETS = (
    Target("freq.build_layer", "redunet._freq", "build_layer", attrs=_layer_attrs),
    Target("freq.hermitian_inverse", "redunet._freq", "hermitian_inverse"),
    Target("freq.update_batch", "redunet._freq", "update_batch", attrs=_update_batch_attrs),
    Target("freq.compressions", "redunet._freq", "compressions"),
    Target("freq.membership", "redunet._freq", "membership"),
    Target("freq.normalize_samples", "redunet._freq", "normalize_samples"),
    Target("freq.spectral_components", "redunet._freq", "spectral_components"),
    Target("spectral1d.construct_shift1d", EX, "_CONSTRUCT", key="shift1d"),
    Target("spectral1d.forward_shift1d", EX, "forward_shift1d"),
    Target("spectral2d.construct_translation2d", EX, "_CONSTRUCT", key="translation2d"),
    Target("spectral2d.forward_translation2d", EX, "forward_translation2d"),
    Target("vector.construct_vector_net", EX, "_CONSTRUCT", key="vector"),
    Target("vector.forward_vector", EX, "forward_vector"),
    Target("vector.expansion_operator", "redunet.vector", "expansion_operator",
           attrs=_result_mb),
    Target("vector.compression_operators", "redunet.vector", "compression_operators",
           attrs=_result_mb),
    Target("vector.soft_membership", "redunet.vector", "soft_membership"),
    Target("vector._update_batch", "redunet.vector", "_update_batch"),
    Target("rate.rate_components", "redunet.vector", "rate_components"),
    Target("classify.fit_subspaces", EX, "fit_subspaces", attrs=_columns),
    Target("classify.predict", EX, "predict"),
    Target("lifting.lift_1d", EX, "lift_1d"),
    Target("lifting.lift_2d", EX, "lift_2d"),
    Target("lifting.sparsify", EX, "sparsify"),
    Target("datasets.signals_1d", EX, "signals_1d"),
    Target("datasets.load_mnist", EX, "load_mnist"),
    Target("datasets.shift_augment", EX, "shift_augment"),
    Target("harness.archive.save_model", EX, "save_model", attrs=_file_mb),
    Target("harness.archive.load_model", EX, "load_model"),
    Target("harness.csvio.emit_csv", EX, "emit_csv", attrs=_file_mb),
    Target("harness.experiments._metric_rows", EX, "_metric_rows"),
    Target("harness.experiments.run_experiment", EX, "run_experiment"),
    Target("harness.experiments.eval_experiment", EX, "eval_experiment"),
)


class Tracer:
    """Installs span-recording wrappers; ``with`` removes them again."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []
        self._restore = []

    def _wrap(self, target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(target.name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.attrs is not None:
                span.attrs = target.attrs(args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        for target in self.targets:
            try:
                holder = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.name)
                continue
            if target.key is not None:
                holder = getattr(holder, target.attr, None)
                if not isinstance(holder, dict) or target.key not in holder:
                    self.absent.append(target.name)
                    continue
                fn = holder[target.key]
                holder[target.key] = self._wrap(target, fn)
                self._restore.append((holder.__setitem__, target.key, fn))
                continue
            fn = getattr(holder, target.attr, None)
            if not callable(fn):
                self.absent.append(target.name)
                continue
            setattr(holder, target.attr, self._wrap(target, fn))
            self._restore.append((functools.partial(setattr, holder), target.attr, fn))
        return self

    def __exit__(self, *exc):
        for put, name, fn in reversed(self._restore):
            put(name, fn)
        self._restore.clear()
        return False


def _totals(spans):
    """name -> [calls, total seconds, self seconds]."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out = {}
    for span, inner in zip(spans, child_time):
        acc = out.setdefault(span.name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += span.end - span.start
        acc[2] += span.end - span.start - inner
    return out


# per-layer metric name -> unit; order is the order of BENCHMARK.json
METRICS = {
    "freq.build_layer.self_ms": "ms",
    "freq.hermitian_inverse.ms": "ms",
    "freq.hermitian_inverse.calls": "count",
    "freq.build_layer.operator_mb": "MB",
    "freq.update_batch.labelled_ms": "ms",
    "freq.update_batch.estimated_ms": "ms",
    "freq.update_batch.samples": "count",
    "freq.update_batch.computed_mb": "MB",
    "freq.compressions.ms": "ms",
    "freq.membership.ms": "ms",
    "freq.normalize_samples.ms": "ms",
    "freq.spectral_components.ms": "ms",
    "spectral1d.construct_shift1d.self_ms": "ms",
    "spectral1d.forward_shift1d.self_ms": "ms",
    "spectral2d.construct_translation2d.self_ms": "ms",
    "spectral2d.forward_translation2d.self_ms": "ms",
    "vector.expansion_operator.ms": "ms",
    "vector.compression_operators.ms": "ms",
    "vector.soft_membership.ms": "ms",
    "vector._update_batch.ms": "ms",
    "vector.construct_vector_net.self_ms": "ms",
    "vector.forward_vector.self_ms": "ms",
    "vector.layer_mb": "MB",
    "rate.rate_components.ms": "ms",
    "classify.fit_subspaces.s": "s",
    "classify.fit_subspaces.columns": "count",
    "classify.predict.s": "s",
    "lifting.lift_1d.s": "s",
    "lifting.lift_2d.s": "s",
    "lifting.sparsify.s": "s",
    "datasets.signals_1d.s": "s",
    "datasets.load_mnist.s": "s",
    "datasets.shift_augment.s": "s",
    "harness.archive.save_model.s": "s",
    "harness.archive.save_model.mb": "MB",
    "harness.archive.load_model.s": "s",
    "harness.csvio.emit_csv.s": "s",
    "harness.csvio.emit_csv.mb": "MB",
    "harness.experiments._metric_rows.s": "s",
    "harness.experiments.run_experiment.self_s": "s",
    "harness.experiments.eval_experiment.self_s": "s",
}


def layer_metrics(spans, layers: int) -> dict:
    """Per-layer metrics of one traced construct + eval.

    ``.ms`` is per network layer (all calls of the run divided by the
    depth), ``.calls`` too; ``.s``, ``.mb`` and ``.samples`` are per run;
    ``columns`` is per classifier fit. A function that never ran reads 0.
    """
    totals = _totals(spans)
    per_layer = 1e3 / max(layers, 1)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def attr_sum(name, attr):
        return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)

    def ub_ms(labelled):
        return per_layer * sum(s.end - s.start for s in spans
                               if s.name == "freq.update_batch"
                               and s.attrs.get("labelled") == labelled)

    out = {}
    for name in METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "ms":
            out[name] = per_layer * total(base)
        elif stat == "self_ms":
            out[name] = per_layer * self_time(base)
        elif stat == "s":
            out[name] = total(base)
        elif stat == "self_s":
            out[name] = self_time(base)
    out.update({
        "freq.hermitian_inverse.calls": calls("freq.hermitian_inverse") / max(layers, 1),
        "freq.build_layer.operator_mb": attr_sum("freq.build_layer", "mb"),
        "freq.update_batch.labelled_ms": ub_ms(True),
        "freq.update_batch.estimated_ms": ub_ms(False),
        "freq.update_batch.samples": attr_sum("freq.update_batch", "samples"),
        "freq.update_batch.computed_mb": attr_sum("freq.update_batch", "mb"),
        "vector.layer_mb": (attr_sum("vector.expansion_operator", "mb")
                            + attr_sum("vector.compression_operators", "mb")),
        "classify.fit_subspaces.columns": (attr_sum("classify.fit_subspaces", "columns")
                                           / max(calls("classify.fit_subspaces"), 1)),
        "harness.archive.save_model.mb": attr_sum("harness.archive.save_model", "mb"),
        "harness.csvio.emit_csv.mb": attr_sum("harness.csvio.emit_csv", "mb"),
    })
    return {name: out[name] for name in METRICS}


def span_records(spans) -> list:
    """Spans as JSON-ready lists: name, start, end, parent index, attrs."""
    return [[s.name, s.start, s.end, s.parent, s.attrs] for s in spans]
