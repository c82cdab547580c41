"""Span tracing of the rctherm layers, installed from outside the package.

Each layer boundary function is replaced by a wrapper in every rctherm
module namespace that binds it, so calls through ``module.func`` and through
names imported with ``from .module import func`` are both traced. Spans are
kept in memory and written once, when the benchmark ends.

Functions not listed in LAYERS (helpers such as ``write_trace_csv`` or
``kmeans``) count toward the self time of the listed function that calls
them, which is how the layer shares in README.md were measured.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings

LAYERS = {
    "rcnet": ("simulate_difference",),
    "timeseries": ("ingest_trace", "impute", "derive_controls", "build_regression",
                   "trace_to_csv_text"),
    "estimators": ("fit_bnn", "transfer", "fit_1r1c", "predict_one_step"),
    "baselines": ("fit_arimax", "predict_arimax"),
    "fleet": ("synth_fleet", "generate_trace", "cluster_homes", "sse_curve"),
    "harness": ("run_experiment",),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _ingest_counts(args, kwargs, trace):
    source = _arg(args, kwargs, 0, "source")
    is_path = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    return {"rows": len(trace), "bytes": os.path.getsize(source) if is_path else 0}


def _csv_text_counts(args, kwargs, text):
    trace = _arg(args, kwargs, 0, "trace")
    # a segment is one home's slice of the grid; the harness hashes each
    # train segment once per model kind
    segment = f"{trace.home_id}|{trace.start.isoformat()}|{len(trace)}"
    return {"bytes": len(text), "segment": segment}


def _generate_counts(args, kwargs, result):
    trace = result[0] if isinstance(result, tuple) else result
    return {"samples": len(trace)}


#: Work counts taken from a call's arguments and result, on outermost calls.
COUNTERS = {
    "timeseries.ingest_trace": _ingest_counts,
    "timeseries.trace_to_csv_text": _csv_text_counts,
    "timeseries.build_regression": lambda a, k, ds: {"rows": len(ds)},
    "estimators.fit_bnn": lambda a, k, post: {"rows": len(_arg(a, k, 0, "dataset"))},
    "fleet.generate_trace": _generate_counts,
    "rcnet.simulate_difference": lambda a, k, y: {"steps": len(y)},
}


class Span:
    __slots__ = ("trace_id", "span_id", "parent", "name", "start", "end",
                 "warnings", "errors", "counts")

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Records one span per call of a LAYERS function while installed.

    Use as a context manager around the calls to trace; set ``trace_id``
    before each repetition so its spans can be told apart.
    """

    def __init__(self):
        self.spans = []
        self.trace_id = 0
        self._stack = []
        self._patches = []
        self._t0 = time.perf_counter()

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rctherm" or n.startswith("rctherm.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"rctherm.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = Span()
            span.trace_id = tracer.trace_id
            # ids count the spans started so far: finished plus still open
            span.span_id = len(tracer.spans) + len(tracer._stack)
            span.parent = tracer._stack[-1] if tracer._stack else None
            span.name = name
            span.errors = 0
            span.counts = {}
            tracer._stack.append(span)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                span.start = time.perf_counter() - tracer._t0
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    span.errors = 1
                    raise
                finally:
                    span.end = time.perf_counter() - tracer._t0
                    tracer._stack.pop()
                    span.warnings = len(caught)
                    tracer.spans.append(span)
            outermost = span.parent is None or span.parent.name != name
            if counter is not None and outermost:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        rows = []
        for span in self.spans:
            row = span.to_dict()
            row["parent"] = None if span.parent is None else span.parent.span_id
            rows.append(row)
        rows.sort(key=lambda r: r["span_id"])
        path.write_text(json.dumps(rows))


def layer_totals(spans):
    """Per-function totals for one repetition's spans.

    ``self_s`` is span time minus the time of its child spans; ``calls`` and
    the work counts cover outermost calls only, since ``ingest_trace``
    re-enters itself when given a path.
    """
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (span.end - span.start)
    totals = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"self_s": 0.0, "calls": 0, "warnings": 0,
                                              "errors": 0, "segments": set()})
        entry["self_s"] += (span.end - span.start) - child_time.get(span, 0.0)
        entry["warnings"] += span.warnings
        entry["errors"] += span.errors
        if span.parent is None or span.parent.name != span.name:
            entry["calls"] += 1
            for key, value in span.counts.items():
                if key == "segment":
                    entry["segments"].add(value)
                else:
                    entry[key] = entry.get(key, 0) + value
    return totals
