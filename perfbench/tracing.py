"""Tracing of horobary from outside the library.

The tracer replaces public functions at every module attribute where the
library looks them up (``extension.minimize`` as well as
``barycenter.minimize``), and wraps the validating ``__post_init__`` of the
value classes.  Each wrapped call inside an operation records a span: name,
start, end and the index of its parent span.  Spans stay in memory; the
caller writes them out when the run ends.  A span's self time is its
duration minus the durations of its child spans.

Outside an operation (set-up, input generation, checks) the wrappers call
straight through and record nothing.
"""

import functools
import time
from collections import Counter

# (module, attribute, span name); every call inside an operation is a span
SPANS = (
    ("moebius", "conjugacy_footpoints", "moebius.conjugacy_footpoints"),
    # every Moebius gate (_require_moebius) runs the cross-ratio deviation
    ("moebius", "cross_ratio_deviation", "moebius.gate"),
    ("moebius", "geodesic_conjugacy", "moebius.geodesic_conjugacy"),
    ("moebius", "nearest_visual_projection", "moebius.nearest_visual_projection"),
    ("barycenter", "minimize", "barycenter.minimize"),
    ("extension", "conjugated_measure", "extension.conjugated_measure"),
    ("extension", "extension_result", "extension.extension_result"),
    ("extension", "mu_x_p", "extension.mu_x_p"),
    ("extension", "argmax_set", "extension.argmax_set"),
    ("extension", "hull_certificate", "extension.hull_certificate"),
    ("extension", "derivative_identity_residual", "extension.derivative_identity_residual"),
    ("extension", "main_inequality_audit", "extension.main_inequality_audit"),
    ("extension", "lipschitz_audit", "extension.lipschitz_audit"),
    ("extension", "inverse_consistency", "extension.inverse_consistency"),
)
# (module, attribute, counter name); too frequent for a span each
COUNTED = (("hyperboloid", "tangent_basis", "hyperboloid.tangent_basis.calls"),)
# (module, class, counter name) for constructions counted by __post_init__
BUILDS = (
    ("hyperboloid", "UnitTangent", "hyperboloid.UnitTangent.builds"),
    ("hyperboloid", "SpacePoint", "hyperboloid.SpacePoint.builds"),
)

# per-layer metric: (name, unit, how it is read off the trace)
LAYER_METRICS = (
    ("moebius.conjugacy_footpoints.calls", "count/op", ("calls", "moebius.conjugacy_footpoints")),
    ("moebius.conjugacy_footpoints.self_ms", "ms/op", ("self", "moebius.conjugacy_footpoints")),
    ("moebius.gate.calls", "count/op", ("calls", "moebius.gate")),
    ("moebius.gate.ms", "ms/op", ("total", "moebius.gate")),
    ("moebius.geodesic_conjugacy.calls", "count/op", ("calls", "moebius.geodesic_conjugacy")),
    ("measures.DiscreteMeasure.builds", "count/op", ("calls", "measures.DiscreteMeasure")),
    ("measures.DiscreteMeasure.atoms", "count/op", ("count", "measures.DiscreteMeasure.atoms")),
    ("measures.DiscreteMeasure.ms", "ms/op", ("total", "measures.DiscreteMeasure")),
    ("hyperboloid.UnitTangent.builds", "count/op", ("count", "hyperboloid.UnitTangent.builds")),
    ("hyperboloid.SpacePoint.builds", "count/op", ("count", "hyperboloid.SpacePoint.builds")),
    ("barycenter.minimize.calls", "count/op", ("calls", "barycenter.minimize")),
    ("barycenter.minimize.self_ms", "ms/op", ("self", "barycenter.minimize")),
    ("barycenter.minimize.iterations", "count/op", ("count", "barycenter.minimize.iterations")),
    ("barycenter.minimize.unconverged", "count/op", ("count", "barycenter.minimize.unconverged")),
    ("hyperboloid.tangent_basis.calls", "count/op", ("count", "hyperboloid.tangent_basis.calls")),
    ("extension.conjugated_measure.self_ms", "ms/op", ("self", "extension.conjugated_measure")),
    ("extension.extension_result.calls", "count/op", ("calls", "extension.extension_result")),
    ("extension.extension_result.self_ms", "ms/op", ("self", "extension.extension_result")),
    ("extension.mu_x_p.ms", "ms/op", ("total", "extension.mu_x_p")),
    ("extension.argmax_set.ms", "ms/op", ("total", "extension.argmax_set")),
    ("extension.hull_certificate.ms", "ms/op", ("total", "extension.hull_certificate")),
    (
        "extension.derivative_identity_residual.ms",
        "ms/op",
        ("total", "extension.derivative_identity_residual"),
    ),
    ("extension.main_inequality_audit.ms", "ms/op", ("total", "extension.main_inequality_audit")),
    ("extension.lipschitz_audit.ms", "ms/op", ("total", "extension.lipschitz_audit")),
    ("extension.inverse_consistency.ms", "ms/op", ("total", "extension.inverse_consistency")),
    (
        "moebius.nearest_visual_projection.ms",
        "ms/op",
        ("total", "moebius.nearest_visual_projection"),
    ),
)


class Tracer:
    """Spans and counters of the library calls made inside operations."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.ops = 0
        self._stack = []
        self._active = False
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def run_op(self, label, call):
        """Run one operation as a root span, recording what it calls."""
        self.ops += 1
        self._active = True
        self._open("op:" + label)
        try:
            return call()
        finally:
            self._close()
            self._active = False

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_minimize(self, args, result):
        self.counts["barycenter.minimize.iterations"] += result.iterations
        self.counts["barycenter.minimize.unconverged"] += not result.converged

    def _after_measure(self, args, _):
        self.counts["measures.DiscreteMeasure.atoms"] += len(args[0])

    # -- installation ------------------------------------------------------

    def install(self, modules):
        """Wrap the traced names in a dict of horobary modules by short name
        ("moebius", "extension", ...), at every module that holds them."""

        def replace_everywhere(original, wrapper):
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

        after = {"barycenter.minimize": self._after_minimize}
        for mod, attr, name in SPANS:
            fn = getattr(modules[mod], attr)
            replace_everywhere(fn, self._spanned(name, fn, after.get(name)))
        for mod, attr, name in COUNTED:
            fn = getattr(modules[mod], attr)
            replace_everywhere(fn, self._counted(name, fn))
        for mod, cls_name, name in BUILDS:
            cls = getattr(modules[mod], cls_name)
            self._undo.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self._counted(name, cls.__post_init__)
        cls = modules["measures"].DiscreteMeasure
        self._undo.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._spanned(
            "measures.DiscreteMeasure", cls.__post_init__, self._after_measure
        )

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def span_totals(self):
        """{name: (calls, total seconds, self seconds)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + (end - start), own + (end - start - child[i]))
        return totals

    def layer_metrics(self):
        """Every per-layer metric, per operation."""
        totals = self.span_totals()
        ops = max(self.ops, 1)
        out = {}
        for metric, unit, (kind, key) in LAYER_METRICS:
            if kind == "count":
                value = self.counts[key]
            else:
                calls, total, own = totals.get(key, (0, 0.0, 0.0))
                value = {"calls": calls, "total": 1e3 * total, "self": 1e3 * own}[kind]
            out[metric] = {"value": value / ops, "unit": unit}
        return out
