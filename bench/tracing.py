"""Span recording for the traced benchmark run.

``install()`` wraps each function named in ``LAYER_FUNCTIONS`` and rebinds
the wrapper in every ``lecam`` module namespace that holds the original
(``from .kernels import transport_batch`` binds ``lecam.cli.transport_batch``
at import time, so patching ``lecam.kernels`` alone would miss the CLI path).
Spans record name, start, end and parent; they stay in memory and
``layer_metrics`` reduces them when the run ends.  A span's self time is its
duration minus the union of its children's intervals; children submitted to
``run_suite``'s thread pool keep ``run_suite`` as their parent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, attribute or Class.method, span name, options).  The layer is the
# span name's first component.  Options: "count" = (counter, fn(args, kwargs))
# adds to a counter per call; "integrand" counts points passed to the first
# argument; "peak" records a tracemalloc peak in the memory pass; "core_use"
# records process CPU time against wall time x parallel degree; "sample"
# wraps the returned kernel's sample callable under that span name.  Spans that
# no metric names (run_suite, cli.main, increments, ...) still give their time
# to their layer's self time.
LAYER_FUNCTIONS = [
    ("lecam.harness", "run_suite", "harness.run_suite", {"core_use": True}),
    ("lecam.harness", "verify_sufficiency", "harness.verify_sufficiency", {}),
    ("lecam.harness", "verify_transport", "harness.verify_transport", {}),
    ("lecam.harness", "verify_ystar_moments", "harness.verify_ystar_moments", {"peak": True}),
    ("lecam.harness", "verify_risk_transfer", "harness.verify_risk_transfer", {"peak": True}),
    ("lecam.harness", "rate_sweep", "harness.rate_sweep", {}),
    ("lecam.harness", "CheckReport.to_json", "harness.to_json", {}),
    ("lecam.kernels", "brownian_bridge_paths", "kernels.brownian_bridge_paths", {}),
    (
        "lecam.kernels",
        "TentBasis.ppf_indexed",
        "kernels.ppf_indexed",
        {"count": ("kernels.ppf_points", lambda a, k: np.size(_arg(a, k, 2, "u")))},
    ),
    ("lecam.kernels", "transport_batch", "kernels.transport_batch", {}),
    ("lecam.kernels", "transport_chain", "kernels.transport_chain", {"sample": "kernels.transport_chain_sample"}),
    ("lecam.kernels", "bin_counts", "kernels.bin_counts", {}),
    ("lecam.kernels", "synthesize_ystar", "kernels.synthesize_ystar", {}),
    ("lecam.kernels", "counts_to_midpoint_sample", "kernels.counts_to_midpoint_sample", {}),
    ("lecam.kernels", "TentBasis.cdf_matrix", "kernels.cdf_matrix", {}),
    (
        "lecam.experiments",
        "sample_iid",
        "experiments.sample_iid",
        {"count": ("experiments.sample_iid_points", lambda a, k: int(_arg(a, k, 1, "n")))},
    ),
    ("lecam.experiments", "theta_of", "experiments.theta_of", {}),
    ("lecam.experiments", "sqrt_cell_means", "experiments.sqrt_cell_means", {}),
    ("lecam.experiments", "sample_white_noise", "experiments.sample_white_noise", {}),
    ("lecam.experiments", "increments", "experiments.increments", {}),
    ("lecam.experiments", "load_samples", "experiments.load_samples", {}),
    ("lecam.approx", "reconstruct", "approx.reconstruct", {}),
    ("lecam.approx", "hellinger_bound", "approx.hellinger_bound", {}),
    ("lecam.approx", "l2_error_sq", "approx.l2_error_sq", {}),
    ("lecam.approx", "remainder_sup", "approx.remainder_sup", {}),
    ("lecam.measures", "hellinger_sq_quadrature", "measures.hellinger_sq_quadrature", {}),
    ("lecam.measures", "hellinger_sq_discrete", "measures.hellinger_sq_discrete", {}),
    ("lecam.measures", "tv_discrete", "measures.tv_discrete", {}),
    ("lecam.measures", "hellinger_sq_product", "measures.hellinger_sq_product", {}),
    ("lecam.measures", "DensityModel.validate", "measures.validate", {}),
    ("lecam.quadrature", "integrate", "quadrature.integrate", {"integrand": True}),
    ("lecam.quadrature", "cell_integrals", "quadrature.cell_integrals", {"integrand": True}),
    ("lecam.equivalence", "minimize_total", "equivalence.minimize_total", {}),
    ("lecam.rng", "substream", "rng.substream", {}),
    ("lecam.rng", "substream_seq", "rng.substream", {}),
    ("lecam.cli", "main", "cli.main", {}),
    ("scipy.stats", "chi2_contingency", "scipy.chi2_contingency", {}),
    ("scipy.stats", "kstest", "scipy.kstest", {}),
]

LAYERS = (
    "harness", "kernels", "experiments", "approx", "measures",
    "quadrature", "equivalence", "rng", "cli", "scipy",
)


class Recorder:
    """In-memory spans and counters; records only while ``recording`` is set."""

    def __init__(self):
        self.recording = False
        self.measure_memory = False
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self.core = [0.0, 0.0]  # run_suite cpu seconds, wall seconds x parallel
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._memory_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span of this thread, or the span it inherited."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def run_as_child(self, parent, fn, *args, **kwargs):
        """Run fn in this thread with ``parent`` as the parent of its root spans."""
        saved = getattr(self._local, "inherited", None)
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = saved

    def add(self, counter: str, amount) -> None:
        with self._lock:
            self.counts[counter] += amount

    def call(self, name, fn, args, kwargs, opts):
        if self.measure_memory and opts.get("peak"):
            with self._memory_lock:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks_mb[name] = max(self.peaks_mb[name], peak)
        if not self.recording:
            return fn(*args, **kwargs)
        if "count" in opts:
            counter, amount = opts["count"]
            self.add(counter, amount(args, kwargs))
        if opts.get("integrand"):
            args = (self._counting(args[0]),) + tuple(args[1:])
        parent = self.current()
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))
        if opts.get("core_use"):
            parallel = int(kwargs.get("parallel", 1))
            with self._lock:
                self.core[0] += time.process_time() - cpu0
                self.core[1] += (end - start) * parallel
        if "sample" in opts:
            result = dataclasses.replace(
                result, sample=self._wrap(opts["sample"], result.sample, {})
            )
        return result

    def _counting(self, integrand):
        def counted(x, *rest, **kw):
            self.add("quadrature.integrand_points", np.size(x))
            return integrand(x, *rest, **kw)

        return counted

    def _wrap(self, name, fn, opts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, opts)

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every function in LAYER_FUNCTIONS wherever a lecam module binds it."""
    import lecam.cli  # noqa: F401  (loads every lecam module)

    lecam_modules = [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "lecam" or key.startswith("lecam."))
    ]
    for module_name, attr, name, opts in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder._wrap(name, getattr(cls, meth), opts))
            continue
        original = getattr(module, attr)
        wrapper = recorder._wrap(name, original, opts)
        setattr(module, attr, wrapper)
        for mod in lecam_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    class SpanExecutor(ThreadPoolExecutor):
        """Thread pool whose jobs keep the submitting span as their parent."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(recorder.run_as_child, recorder.current(), fn, *args, **kwargs)

    lecam.harness.ThreadPoolExecutor = SpanExecutor


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(recorder: Recorder, passes: int) -> dict[str, float]:
    """Per-pass inclusive times, layer self times and counts."""
    spans = {s[0]: s for s in recorder.spans}
    children = defaultdict(list)
    for sid, parent, _, start, end in spans.values():
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"self.{layer}_s"] = 0.0
    substream_calls = 0
    for sid, parent, name, start, end in spans.values():
        self_time = (end - start) - _union_length(children[sid], start, end)
        out[f"self.{name.split('.')[0]}_s"] += self_time / passes
        ancestor = parent
        nested = False
        while ancestor is not None and ancestor in spans:
            if spans[ancestor][2] == name:
                nested = True
                break
            ancestor = spans[ancestor][1]
        if not nested:
            out[f"{name}_s"] += (end - start) / passes
            substream_calls += name == "rng.substream"
    for counter, total in recorder.counts.items():
        out[counter] = total / passes
    out["rng.substream_calls"] = substream_calls / passes
    cpu, capacity = recorder.core
    out["harness.core_use"] = cpu / capacity if capacity > 0 else 0.0
    return dict(out)
