"""The benchmark's traced per-module split finds every function it wraps.

``perfbench/spans.py`` replaces functions at the names their callers look
up, and reports a name that no longer resolves as absent instead of
failing. A rename in the package would therefore silently blind part of
the traced split; this check fails on it at once. So does a layer loop,
spectral or vector, that stops calling one of the traced per-frequency
functions, whose per-layer numbers would otherwise read 0.
"""

import importlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import spans  # noqa: E402

from oracles import labels_for  # noqa: E402
from redunet.rate import Partition  # noqa: E402
from redunet.spectral import construct, forward  # noqa: E402

# targets whose functions the package no longer has: the vector network's
# own membership wrapper and layer step, and the objective as its own loop
# looked it up (it runs through the spectral engine); the per-geometry
# construct and forward entry points, whose callers call `spectral.construct`
# and `spectral.forward` on every group rank; and the dense vector operators,
# whose module is gone (a vector layer's operators come from
# `_freq.build_layer`, traced as freq.build_layer, and no program path
# called them, so their per-layer numbers already read 0); and the dataset
# shift augmentation, whose one remaining caller, a vector model's augmented
# set, now rolls its test set by the same list of shifts an invariant model
# rolls its features by (`datasets._rolled`; the span read 0 on signals1d
# and translation2d already)
RETIRED = ("vector.soft_membership", "vector._update_batch", "rate.rate_components",
           "spectral1d.construct_shift1d", "spectral1d.forward_shift1d",
           "spectral2d.construct_translation2d", "spectral2d.forward_translation2d",
           "vector.construct_vector_net", "vector.forward_vector",
           "vector.expansion_operator", "vector.compression_operators",
           "datasets.shift_augment")


def _current(target):
    holder = getattr(importlib.import_module(target.module), target.attr)
    return holder if target.key is None else holder[target.key]


def test_every_trace_target_resolves_and_is_restored():
    live = [target for target in spans.TARGETS if target.name not in RETIRED]
    before = {target.name: _current(target) for target in live}
    with spans.Tracer() as tracer:
        assert [name for name in tracer.absent if name not in RETIRED] == []
        for target in live:
            assert _current(target) is not before[target.name], target.name
    for target in live:
        assert _current(target) is before[target.name], target.name


def test_layer_loop_calls_every_traced_frequency_function():
    wanted = [t.name for t in spans.TARGETS if t.name.startswith("freq.")]
    assert wanted
    for shape in [(2, 3, 4), (5,)]:  # a 2-d group, and the vector network's (n, m) stack
        rng = np.random.default_rng(0)
        Zbar = rng.standard_normal((*shape, 6))
        P = Partition(labels_for(6, 2, rng))
        carry = rng.standard_normal((*shape, 2))
        with spans.Tracer() as tracer:
            model = construct(Zbar, P, L=2, eta=0.3, eps=0.5, carry=carry)
            forward(model, rng.standard_normal((*shape, 2)))
        recorded = {span.name for span in tracer.spans}
        assert [name for name in wanted if name not in recorded] == [], shape
