"""Span tracing around qlab's layer boundaries, installed from outside qlab.

Each traced function is replaced at every name under which a qlab module
looks it up (``from .qcore import _qpoch_inf`` binds a separate name in
``qfunctions`` and in ``qhermite``; both are wrapped), so no code under
``src/`` changes.  ``scipy.integrate.quad`` is wrapped on ``scipy.integrate``,
which is where ``qhermite`` looks it up.

A wrapper records one span per call: its name, start, end and parent (the
span open on the stack when it started).  Spans are aggregated as they
close, so memory stays bounded over millions of calls: per name the call
count, inclusive time and self time (duration minus the time its child
spans cover), and per parent -> child edge the call count and time.  A
function missing from the traced program is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time

#: (metric prefix, defining module, function name, counter fed by
#: ``result.terms_used``).  The public ``qpoch_inf`` is a thin shim over
#: ``_qpoch_inf``, so only the latter is traced to avoid nested duplicates.
SPANS = (
    ("qcore.qpoch_inf", "qlab.qcore", "_qpoch_inf", "factors"),
    ("qcore.jackson_integral", "qlab.qcore", "jackson_integral", "lattice_points"),
    ("qcore.qderiv", "qlab.qcore", "qderiv", None),
    ("qfunctions.qexp_small", "qlab.qfunctions", "qexp_small", None),
    ("qfunctions.qbessel", "qlab.qfunctions", "qbessel", None),
    ("qfunctions.qexp_gen", "qlab.qfunctions", "qexp_gen", None),
    ("qhermite.weight", "qlab.qhermite", "weight", None),
    ("qhermite.hermite_h", "qlab.qhermite", "hermite_h", None),
    ("qhermite.hermite_h_scaled", "qlab.qhermite", "hermite_h_scaled", None),
    ("qhermite.piecewise_quad", "qlab.qhermite", "_piecewise_quad", None),
    ("qoscillator.apply_ladder", "qlab.qoscillator", "apply_ladder", None),
    ("qoscillator.phi", "qlab.qoscillator", "phi", None),
    ("qoscillator.inner_product", "qlab.qoscillator", "inner_product", None),
    ("qoscillator.build_matrix", "qlab.qoscillator", "build_matrix", None),
)
QUAD = "qhermite.quad"
QUAD_COUNTER = "integrand_evals"
SUITE_NAMES = ("qcalculus", "special_functions", "hermite_identities",
               "orthogonality", "kernels", "oscillator_algebra")
REGISTERED = "cli.registered"


def _metric_sources() -> list[tuple[str, str, str, str]]:
    """(metric name, unit, Tracer series, span name) of every span metric."""
    out = []
    for prefix, _, _, counter in SPANS + ((QUAD, None, None, QUAD_COUNTER),):
        out += [(prefix + ".calls", "count", "calls", prefix),
                (prefix + ".self_s", "s", "self_time", prefix)]
        if counter:
            out.append((f"{prefix}.{counter}", "count", "counts", prefix))
    out += [(f"suites.{s}.s", "s", "total", f"suites.{s}") for s in SUITE_NAMES]
    return out


METRIC_SOURCES = _metric_sources()


def span_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric the spans yield, in a fixed order."""
    return [(name, unit) for name, unit, _, _ in METRIC_SOURCES]


class Tracer:
    """Aggregating span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names = ["<root>"]
        self.calls = [0]
        self.total = [0.0]
        self.self_time = [0.0]
        self.counts = [0]
        self.edges: dict[tuple[int, int], list] = {}
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.counts.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn, counter: bool = False):
        """fn wrapped in a span called name; counter sums result.terms_used."""
        nid = self._id(name)
        stack, calls, total = self._stack, self.calls, self.total
        self_time, counts, edges = self.self_time, self.counts, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [start, time covered by children, own id]
            frame = [clock(), 0.0, nid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[1]
                parent = 0
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                edge = edges.get((parent, nid))
                if edge is None:
                    edges[(parent, nid)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
            if counter:
                counts[nid] += result.terms_used
            return result

        return traced

    def _replace(self, owner, key, new, in_dict: bool = False) -> None:
        old = owner[key] if in_dict else getattr(owner, key)
        self._undo.append((owner, key, old, in_dict))
        if in_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def _wrap_everywhere(self, name: str, fn, counter: bool) -> None:
        wrapped = self.wrap(name, fn, counter)
        for modname, module in list(sys.modules.items()):
            if modname != "qlab" and not modname.startswith("qlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, wrapped)

    def install(self) -> None:
        import scipy.integrate

        import qlab.cli
        import qlab.suites
        for prefix, modname, attr, counter in SPANS:
            fn = getattr(sys.modules[modname], attr, None)
            if fn is not None:
                self._wrap_everywhere(prefix, fn, counter is not None)

        quad = self.wrap(QUAD, scipy.integrate.quad)
        qid = self._id(QUAD)
        counts = self.counts

        def counted_quad(func, *args, **kwargs):
            def integrand(x, *extra):
                counts[qid] += 1
                return func(x, *extra)
            return quad(integrand, *args, **kwargs)

        self._replace(scipy.integrate, "quad", counted_quad)

        suites = getattr(qlab.suites, "_SUITES", {})
        for suite, fn in list(suites.items()):
            self._replace(suites, suite, self.wrap(f"suites.{suite}", fn), in_dict=True)
        registry = getattr(qlab.cli, "REGISTRY", {})
        for func, (fn, desc) in list(registry.items()):
            self._replace(registry, func, (self.wrap(REGISTERED, fn), desc), in_dict=True)

    def uninstall(self) -> None:
        for owner, key, old, in_dict in reversed(self._undo):
            if in_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer values keyed by the names of ``span_metric_names``."""
        return {name: getattr(self, series)[self.names.index(span)]
                if span in self.names else 0
                for name, _, series, span in METRIC_SOURCES}

    def registered_s(self) -> float:
        """Inclusive time inside the CLI's registered functions."""
        return self.total[self.names.index(REGISTERED)] if REGISTERED in self.names else 0.0

    def call_tree(self) -> list[dict]:
        """Parent -> child edges with call counts and inclusive time."""
        return [{"parent": self.names[p], "span": self.names[c],
                 "calls": calls, "total_s": total}
                for (p, c), (calls, total) in sorted(self.edges.items(),
                                                     key=lambda kv: -kv[1][1])]
