"""Spans and counts at the public functions of every cesarops module.

``Tracer.install`` replaces each public function in every cesarops module
namespace that holds a reference to it (``integrate_adaptive``, for
instance, is imported into ``measure``, ``series``, ``norms`` and
``carleson``), so calls are caught whichever module makes them.  The
integrand handed to ``integrate_adaptive`` is wrapped as a span of its
own, ``quadrature.integrand@<module that defined it>``, which parts the
quadrature's bookkeeping from the time spent in the kernel; the metrics
add the kernels of all modules under ``quadrature.integrand``.

A span records its name, start, end and parent in flat arrays that stay
in memory until the run ends.  A span's self time is its duration minus
the time covered by its children.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("measure", "series", "norms", "quadrature", "carleson", "verify",
           "cli", "catalog")

#: span name -> metric prefix, where the two differ
ALIASES = {
    "series.cesaro_like_integral_eval": "series.integral_eval",
    "series.cesaro_like_derivative_eval": "series.derivative_eval",
}

#: the per-layer metrics, in report order: (metric, unit)
LAYER_METRICS = (
    ("norms.circle_values.calls", "count"),
    ("norms.circle_values.points", "count"),
    ("norms.circle_values.self_s", "s"),
    ("norms.mean_lipschitz_norm.self_s", "s"),
    ("norms.bloch_norm.self_s", "s"),
    ("norms.besov_norm.calls", "count"),
    ("norms.besov_norm.self_s", "s"),
    ("norms.integral_mean.calls", "count"),
    ("norms.integral_mean.self_s", "s"),
    ("quadrature.integrate_adaptive.calls", "count"),
    ("quadrature.integrate_adaptive.self_s", "s"),
    ("quadrature.integrate_adaptive.errors", "count"),
    ("quadrature.integrand.calls", "count"),
    ("quadrature.integrand.nodes", "count"),
    ("quadrature.integrand.self_s", "s"),
    ("series.integral_eval.calls", "count"),
    ("series.integral_eval.self_s", "s"),
    ("series.derivative_eval.calls", "count"),
    ("series.derivative_eval.self_s", "s"),
    ("series.cesaro_like.self_s", "s"),
    ("series.evaluate.self_s", "s"),
    ("series.test_function.self_s", "s"),
    ("measure.moments.calls", "count"),
    ("measure.moments.orders", "count"),
    ("measure.moments.self_s", "s"),
    ("measure.tail.calls", "count"),
    ("measure.tail.self_s", "s"),
    ("carleson.classify_measure.self_s", "s"),
    ("carleson.classify_tail.self_s", "s"),
    ("carleson.classify_moments.self_s", "s"),
    ("carleson.integral_profile.self_s", "s"),
    ("carleson.carleson_integral.calls", "count"),
    ("carleson.carleson_integral.self_s", "s"),
    ("carleson.conclusive_ratio", "ratio"),
    ("verify.boundedness_experiment.self_s", "s"),
    ("verify.compactness_experiment.self_s", "s"),
    ("cli.main.self_s", "s"),
)


def _public_functions(module):
    names = getattr(module, "__all__", None) or ("main",)
    for name in names:
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type):
            yield name, obj


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def patch_everywhere(replacements):
    """Rebind every reference to each key of ``replacements`` (a dict
    original -> replacement) in the cesarops package and its modules.
    Returns the undo list of ``(module, name, original)``."""
    modules = [importlib.import_module("cesarops")]
    modules += [importlib.import_module("cesarops." + m) for m in MODULES]
    by_id = {id(fn): (fn, new) for fn, new in replacements.items()}
    undo = []
    for module in modules:
        for name, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
                undo.append((module, name, value))
    return undo


def unpatch(undo):
    for module, name, original in undo:
        setattr(module, name, original)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = Counter()
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        return self.call(self._name_id(name), fn, args, kwargs)

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        call = self.call
        counts = self.counts
        if name == "norms.circle_values":
            def hook(args, kwargs, result):
                counts["norms.circle_values.points"] += int(
                    _arg(args, kwargs, 2, "m"))
        elif name == "measure.moments":
            def hook(args, kwargs, result):
                counts["measure.moments.orders"] += int(
                    _arg(args, kwargs, 1, "n_max")) + 1
        elif name == "carleson.classify_measure":
            def hook(args, kwargs, result):
                labels = list(result.per_criterion.values())
                counts["carleson.labels"] += len(labels)
                counts["carleson.conclusive"] += sum(
                    lab != "inconclusive" for lab in labels)
        else:
            hook = None

        if name == "quadrature.integrate_adaptive":
            from cesarops.quadrature import QuadratureError

            def wrapper(f, *args, **kwargs):
                # the kernel's span also names the module that defined it
                integrand_id = self._name_id("quadrature.integrand@%s" % (
                    getattr(f, "__module__", "") or "").split(".")[-1])

                def integrand(x):
                    counts["quadrature.integrand.nodes"] += np.size(x)
                    return call(integrand_id, f, (x,), {})
                try:
                    return call(name_id, fn, (integrand,) + args, kwargs)
                except QuadratureError:
                    counts["quadrature.integrate_adaptive.errors"] += 1
                    raise
        elif hook is None:
            def wrapper(*args, **kwargs):
                return call(name_id, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = call(name_id, fn, args, kwargs)
                hook(args, kwargs, result)
                return result
        return wrapper

    def install(self):
        replacements = {}
        for short in MODULES:
            module = importlib.import_module("cesarops." + short)
            for name, fn in _public_functions(module):
                if getattr(fn, "__module__", None) == module.__name__:
                    replacements[fn] = self._wrap("%s.%s" % (short, name), fn)
        self._undo = patch_everywhere(replacements)

    def uninstall(self):
        unpatch(self._undo)
        self._undo = []

    # ------------------------------------------------------------------
    # results

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_of, dtype=np.int32)
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def layer_metrics(self):
        """The values of :data:`LAYER_METRICS`."""
        values = Counter(self.counts)
        for name, (calls, self_s) in self.self_times().items():
            prefix = ALIASES.get(name, name.split("@")[0])
            values[prefix + ".calls"] += calls
            values[prefix + ".self_s"] += self_s
        labels = self.counts["carleson.labels"]
        values["carleson.conclusive_ratio"] = (
            self.counts["carleson.conclusive"] / labels if labels else 0.0)
        return {metric: {"value": values.get(metric,
                                             0.0 if unit == "s" else 0),
                         "unit": unit}
                for metric, unit in LAYER_METRICS}

    def layer_shares(self, total_s):
        """Self time per module, as a share of ``total_s``.

        An integrand's time counts to the module that defined it (the
        kernel is that module's code), so ``quadrature`` keeps only the
        panel bookkeeping; ``bench`` is time in no cesarops call.
        """
        shares = Counter()
        for name, (_, self_s) in self.self_times().items():
            layer = name.split("@")[1] if "@" in name else name.split(".")[0]
            shares[layer] += self_s / total_s
        return dict(shares)

    def save(self, path):
        """Write the spans to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32))
