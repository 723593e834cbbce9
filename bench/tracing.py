"""Spans around the package's public functions, placed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
sklpdm module that binds it, so calls through a by-name import (as
`diffusion_map` does with `pairwise_sq_distances` and `cli` with
`load_csv`/`save_csv`) are seen as well as calls through the module
attribute. Spans stay in memory and are written out by `write()`.
"""

import contextlib
import functools
import json
import os
import sys
import time
import tracemalloc

# (module, function) -> span name. Self time of each is reported as <name>_s.
TRACED = {
    ("dataset", "load_csv"): "dataset.load_csv",
    ("dataset", "save_csv"): "dataset.save_csv",
    ("silhouette_features", "load_pgm"): "silhouette_features.load_pgm",
    ("silhouette_features", "radon"): "silhouette_features.radon",
    ("silhouette_features", "r_transform"): "silhouette_features.r_transform",
    ("sklp_projection", "fit"): "sklp_projection.fit",
    ("sklp_projection", "init_state"): "sklp_projection.init_state",
    ("sklp_projection", "kernel_averages"): "sklp_projection.kernel_averages",
    ("sklp_projection", "alpha_weights"): "sklp_projection.alpha_weights",
    ("sklp_projection", "scatter_matrix"): "sklp_projection.scatter_matrix",
    ("sklp_projection", "solve_eig"): "sklp_projection.solve_eig",
    ("sklp_projection", "update_distances"): "sklp_projection.update_distances",
    ("sklp_projection", "objective"): "sklp_projection.objective",
    ("sklp_projection", "pairwise_sq_distances"): "sklp_projection.pairwise_sq_distances",
    ("diffusion_map", "fit"): "diffusion_map.fit",
    ("diffusion_map", "extend"): "diffusion_map.extend",
    ("diffusion_map", "save_model_json"): "diffusion_map.save_model_json",
    ("classify_eval", "knn_predict"): "classify_eval.knn_predict",
    ("classify_eval", "svm_fit"): "classify_eval.svm_fit",
    ("classify_eval", "cross_validate_actions"): "classify_eval.cross_validate_actions",
}

# Spans whose largest tracemalloc peak of new allocations is reported as <name>_peak_mb.
PEAK = ("sklp_projection.fit", "diffusion_map.fit", "classify_eval.knn_predict")

CLI_COMMANDS = ("fit", "project", "classify", "radon", "diffuse")

MB = 1024.0 * 1024.0


def _counts(name, args, result):
    """Work counts read off a traced call: {counter name: amount}."""
    if name == "sklp_projection.fit":
        return {"sklp_projection.iterations": result[1].iteration}
    if name == "classify_eval.svm_fit":
        return {"classify_eval.svm_epochs": sum(len(h) - 1 for h in result.objective_histories)}
    if name == "dataset.load_csv":
        return {"dataset.load_csv_cells": result.features.size}
    if name == "silhouette_features.r_transform":
        return {"silhouette_features.frames": 1}
    if name == "diffusion_map.save_model_json":
        return {"diffusion_map.model_json_mb": os.path.getsize(args[1]) / MB}
    return {}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for name in TRACED.values():
        if name != "classify_eval.cross_validate_actions":
            names[name + "_s"] = "s"
    for name in PEAK:
        names[name + "_peak_mb"] = "MB"
    names.update(
        {
            "sklp_projection.iterations": "count",
            "classify_eval.svm_epochs": "count",
            "dataset.load_csv_cells": "count",
            "silhouette_features.frames": "count",
            "diffusion_map.model_json_mb": "MB",
            "cli.startup_s": "s",
        }
    )
    for command in CLI_COMMANDS:
        names[f"cli.{command}_s"] = "s"
    names["cli.output_mb"] = "MB"
    names["trace.overhead_s"] = "s"
    return names


class Tracer:
    """Records spans (name, start, end, parent) and work counts in memory.

    With memory=True it also runs tracemalloc inside the PEAK spans. That
    slows the Python code inside them, so a memory tracer is used on a
    separate pass whose times are not reported.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.stack = []
        self.calls = {}
        self.counts = {}
        self._restore = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        span = {"id": len(self.spans), "name": name, "parent": self.stack[-1]["id"] if self.stack else None}
        if self.memory and name in PEAK:
            if tracemalloc.is_tracing():
                self._fold_peaks()
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
            span["base"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self.stack.append(span)
        self.calls[name] = self.calls.get(name, 0) + 1
        span["start"] = time.perf_counter()
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        if "base" in span:
            self._fold_peaks()
        self.stack.pop()
        if "base" in span and not any("base" in s for s in self.stack):
            tracemalloc.stop()

    def _fold_peaks(self):
        """Credit the current traced peak to every open memory-tracked span."""
        peak = tracemalloc.get_traced_memory()[1]
        for span in self.stack:
            if "base" in span:
                span["peak"] = max(span.get("peak", 0), peak - span["base"])

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- installation --------------------------------------------------------

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            for counter, amount in _counts(name, args, result).items():
                tracer.count(counter, amount)
            return result

        wrapper.tracer = self
        return wrapper

    def install(self):
        """Wrap every traced function at every sklpdm binding of it.

        Import every sklpdm module first: a module imported later would bind
        the wrapper by name, and uninstall() could not restore it.
        """
        modules = [m for key, m in list(sys.modules.items()) if key == "sklpdm" or key.startswith("sklpdm.")]
        for (module_name, func_name), span_name in TRACED.items():
            original = getattr(sys.modules[f"sklpdm.{module_name}"], func_name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        left = [f"{key}.{attr}" for key, module in list(sys.modules.items()) if key.startswith("sklpdm")
                for attr, value in vars(module).items() if getattr(value, "tracer", None) is self]
        if left:
            raise RuntimeError(f"wrappers left behind (module imported after install?): {left}")

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """{span name: summed self time}; self time excludes time inside child spans."""
        child_time = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
        totals = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def metrics(self):
        """Per-layer metric values, 0 for layers this run did not reach."""
        values = dict.fromkeys(metric_names(), 0.0)
        for name, seconds in self.self_times().items():
            if name + "_s" in values:
                values[name + "_s"] = seconds
        for span in self.spans:
            if span["name"] in PEAK:
                key = span["name"] + "_peak_mb"
                values[key] = max(values[key], span.get("peak", 0) / MB)
        for name, amount in self.counts.items():
            values[name] = values[name] + amount
        return values

    def write(self, path):
        """One JSON object per span: name, start, end, parent (seconds, perf_counter clock)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {k: span[k] for k in ("id", "name", "start", "end", "parent")}
                handle.write(json.dumps(record) + "\n")
