"""The benchmark's traced per-module split finds every function it wraps.

``perfbench/spans.py`` replaces functions at the names their callers look
up, and reports a name that no longer resolves as absent instead of
failing. A rename in the package would therefore silently blind part of
the traced split; this check fails on it at once. So does a layer loop
that stops calling one of the traced per-frequency or vector-layer
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
from redunet.vector import construct_vector_net, forward_vector  # noqa: E402


def _current(target):
    holder = getattr(importlib.import_module(target.module), target.attr)
    return holder if target.key is None else holder[target.key]


def test_every_trace_target_resolves_and_is_restored():
    before = {target.name: _current(target) for target in spans.TARGETS}
    with spans.Tracer() as tracer:
        assert tracer.absent == []
        for target in spans.TARGETS:
            assert _current(target) is not before[target.name], target.name
    for target in spans.TARGETS:
        assert _current(target) is before[target.name], target.name


def test_layer_loop_calls_every_traced_frequency_function():
    rng = np.random.default_rng(0)
    Zbar = rng.standard_normal((2, 3, 4, 6))
    P = Partition(labels_for(6, 2, rng))
    carry = rng.standard_normal((2, 3, 4, 2))
    with spans.Tracer() as tracer:
        model = construct(Zbar, P, L=2, eta=0.3, eps=0.5, carry=carry)
        forward(model, rng.standard_normal((2, 3, 4, 2)))
    recorded = {span.name for span in tracer.spans}
    wanted = [t.name for t in spans.TARGETS if t.name.startswith("freq.")]
    assert wanted
    assert [name for name in wanted if name not in recorded] == []


def test_vector_loop_calls_every_traced_layer_function():
    # vector.soft_membership is left out on purpose: the loop estimates the
    # membership inside vector._update_batch, from the class projections
    # the step computes anyway, so that metric reads 0 by design. The step
    # shares the spectral engine's membership softmax and sphere projection.
    rng = np.random.default_rng(0)
    P = Partition(labels_for(6, 2, rng))
    with spans.Tracer() as tracer:
        model = construct_vector_net(rng.standard_normal((4, 6)), P, L=2, eta=0.3, eps=0.5,
                                     carry=rng.standard_normal((4, 2)))
        forward_vector(model, rng.standard_normal((4, 3)))
    recorded = {span.name for span in tracer.spans}
    wanted = ["vector.expansion_operator", "vector.compression_operators",
              "vector._update_batch", "rate.rate_components", "freq.membership",
              "freq.normalize_samples"]
    assert [name for name in wanted if name not in recorded] == []
