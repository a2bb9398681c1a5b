"""Layer spans for the uvol engine, recorded from outside the package.

``Tracer.installed()`` replaces the module attributes through which
``uvol.estimators._run`` and ``_chunk_partials`` reach each layer with
timing wrappers, and restores the originals on exit.  ``Tracer.wrap_model``
wraps a ``Model``'s coefficient callables the same way, via
``dataclasses.replace``.  No file of the package changes, and the wrappers
pass arguments and results through untouched, so traced estimates are
bit-identical to untraced ones.

Each span records its name, start, end, thread, the span that caused it and
the number of elements it worked on.  Spans nest through a per-thread
stack; a span opened with an empty stack on a worker thread takes the open
request span as its parent, so chunk work done by the estimator's thread
pool is attributed to the request that caused it.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

import uvol.estimators as est
import uvol.rng as rng

# Model fields holding coefficient callables (every builtin and custom model).
COEFF_FIELDS = ("b_Y", "b1_Y", "b2_Y", "sigma_S", "sigma1_S", "sigma2_S",
                "sigma_Y", "sigma1_Y", "sigma2_Y", "sigma3_Y")


def _size(i):
    return lambda args: np.size(args[i])


# (module, attribute, span name, elements worked on).  ``rng.uniform_pair`` is
# wrapped in its own module so the call inside ``normal_pair`` is seen too.
TARGETS = (
    (rng, "uniform_pair", "rng.uniform_pair", _size(1)),
    (rng, "normal_pair", "rng.normal_pair", _size(1)),
    (est, "quantile", "renewal.quantile", _size(1)),
    (est, "frozen_coeffs", "flow.frozen_coeffs", _size(1)),
    (est, "chain_step", "chain.chain_step", _size(1)),
    (est, "step_weights", "weights.step_weights", lambda a: np.size(a[0].x_prev)),
    (est, "terminal_weights", "weights.terminal_weights", lambda a: np.size(a[0].x_prev)),
    (est, "aggregate", "estimators.aggregate", lambda a: 0),
    (est, "_chunk_partials", "estimators.chunk", lambda a: a[2] - a[1]),
)


class Span:
    __slots__ = ("name", "parent", "thread", "size", "start", "end")

    def __init__(self, name, parent, size):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.size = size
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans for one traced pass over a workload."""

    def __init__(self):
        self.spans = []
        self.request = None  # open request span, parent of worker-thread roots
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, size):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self.request, size)
        stack.append(span)
        span.start = perf_counter()
        return span, stack

    def _close(self, span, stack):
        span.end = perf_counter()
        stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name, fn, size_of):
        def traced(*args, **kwargs):
            span, stack = self._open(name, size_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, stack)
        traced.__wrapped__ = fn
        return traced

    def wrap_model(self, model):
        """A copy of ``model`` whose coefficient callables record spans."""
        return replace(model, **{f: self.wrap(f"model.{f}", getattr(model, f), _size(0))
                                 for f in COEFF_FIELDS})

    def call_request(self, fn, cfg):
        """Run one estimator request under an ``estimators.request`` span."""
        # a request span's size is its thread count, not an element count
        span, stack = self._open("estimators.request", cfg.threads)
        self.request = span
        try:
            return fn(cfg)
        finally:
            self.request = None
            self._close(span, stack)

    @contextmanager
    def installed(self):
        """Swap every layer entry point for its traced wrapper, then restore."""
        saved = []
        try:
            for module, attr, name, size_of in TARGETS:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(name, orig, size_of))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)


def _covered(span, kids):
    """Length of the part of ``span``'s interval covered by ``kids``."""
    ivs = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map each span to its duration minus the part its children cover."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    return {id(s): s.duration - _covered(s, kids.get(id(s), ())) for s in spans}


def exact_counts(spans):
    """Counts that depend only on the inputs, so repeat exactly across runs."""
    n = defaultdict(int)
    for s in spans:
        layer = s.name.split(".")[0]
        if s.name == "rng.uniform_pair":
            n["rng.pairs"] += s.size
        elif s.name == "renewal.quantile":
            n["renewal.rounds"] += 1
            n["gap_draws"] += s.size
        elif s.name == "flow.frozen_coeffs":
            n["flow.calls"] += 1
            n["flow.path_steps"] += s.size
        elif layer == "model":
            n["model.coeff_calls"] += 1
            n["model.coeff_evals"] += s.size
    return dict(n)


# Span name -> the self-time metric it adds to (``rng.uniform_pair`` and the
# ``model.*`` spans are resolved in ``_self_metric``).
SELF_METRIC = {
    "rng.normal_pair": "rng.normal_s",
    "renewal.quantile": "renewal.quantile_s",
    "flow.frozen_coeffs": "flow.frozen_coeffs_s",
    "chain.chain_step": "chain.step_s",
    "weights.step_weights": "weights.step_s",
    "weights.terminal_weights": "weights.terminal_s",
    "estimators.aggregate": "estimators.aggregate_s",
    "estimators.request": "estimators.self_s",
    "estimators.chunk": "estimators.self_s",
}


def _self_metric(span):
    if span.name == "rng.uniform_pair":
        in_normal = span.parent is not None and span.parent.name == "rng.normal_pair"
        return "rng.normal_s" if in_normal else "rng.gap_s"
    if span.name.startswith("model."):
        return "model.coeff_s"
    return SELF_METRIC[span.name]


def layer_metrics(spans, results):
    """Per-layer metrics of one traced pass.

    ``results`` are the pass's ``EstimateResult`` objects.  Times are self
    times in seconds summed over the pass.
    """
    own = self_times(spans)
    t = defaultdict(float)
    busy = wall_threads = request_wall = 0.0
    for s in spans:
        t[_self_metric(s)] += own[id(s)]
        if s.name == "estimators.chunk":
            busy += s.duration
        elif s.name == "estimators.request":
            request_wall += s.duration
            wall_threads += s.duration * s.size
    c = exact_counts(spans)
    steps = c["flow.path_steps"]
    n_paths = sum(r.n_paths for r in results)
    return {
        "rng.gap_s": t["rng.gap_s"],
        "rng.normal_s": t["rng.normal_s"],
        "rng.pairs": c["rng.pairs"],
        "rng.ns_per_pair": 1e9 * (t["rng.gap_s"] + t["rng.normal_s"]) / c["rng.pairs"],
        "renewal.quantile_s": t["renewal.quantile_s"],
        "renewal.rounds": c["renewal.rounds"],
        "renewal.useful_draw_frac": steps / c["gap_draws"],
        "flow.frozen_coeffs_s": t["flow.frozen_coeffs_s"],
        "flow.calls": c["flow.calls"],
        "flow.path_steps": steps,
        "flow.ns_per_path_step": 1e9 * t["flow.frozen_coeffs_s"] / steps,
        "model.coeff_s": t["model.coeff_s"],
        "model.coeff_calls": c["model.coeff_calls"],
        "model.coeff_evals": c["model.coeff_evals"],
        "model.evals_per_path_step": c["model.coeff_evals"] / steps,
        "chain.step_s": t["chain.step_s"],
        "weights.step_s": t["weights.step_s"],
        "weights.terminal_s": t["weights.terminal_s"],
        "weights.ns_per_path_step":
            1e9 * (t["weights.step_s"] + t["weights.terminal_s"]) / steps,
        "estimators.self_s": t["estimators.self_s"],
        "estimators.aggregate_s": t["estimators.aggregate_s"],
        "estimators.n_jumps_mean":
            sum(r.n_jumps_mean * r.n_paths for r in results) / n_paths,
        "estimators.thread_busy_frac": busy / wall_threads,
        "trace.request_wall_s": request_wall,
        "trace.self_sum_ratio": sum(own.values()) / request_wall,
    }


def layer_shares(metrics):
    """Each layer's share of the summed self time of a traced pass."""
    layers = {
        "rng": metrics["rng.gap_s"] + metrics["rng.normal_s"],
        "renewal": metrics["renewal.quantile_s"],
        "flow": metrics["flow.frozen_coeffs_s"],
        "model": metrics["model.coeff_s"],
        "chain": metrics["chain.step_s"],
        "weights": metrics["weights.step_s"] + metrics["weights.terminal_s"],
        "estimators": metrics["estimators.self_s"] + metrics["estimators.aggregate_s"],
    }
    total = sum(layers.values())
    return {k: v / total for k, v in layers.items()}


def dump(spans, path):
    """Write spans as JSON lines: name, thread, parent index, start, end, size."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min(s.start for s in spans)
    with open(path, "w") as fh:
        for s in spans:
            parent = index.get(id(s.parent)) if s.parent is not None else None
            fh.write(json.dumps([s.name, s.thread, parent, s.start - t0,
                                 s.end - t0, int(s.size)]) + "\n")
