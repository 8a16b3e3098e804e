"""The benchmark's traced per-module split finds every function it wraps.

``perfbench/spans.py`` replaces functions at the names their callers look
up, and reports a name that no longer resolves as absent instead of
failing. A rename in the package would therefore silently blind part of
the traced split; this check fails on it at once.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import spans  # noqa: E402


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
