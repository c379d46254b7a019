"""Outside-in layer spans for landaulab.

The program is not changed.  Campaigns reach the traced functions through
module attributes (``quad.integrate_values``, ``wv.fock_state``,
``fk.build_observable``, ...) and through methods (``WaveForm.jet``,
``Poly2.__call__``), so replacing those attributes while a round runs
records every call.  :meth:`Tracer.installed` swaps the wrappers in and
puts the original functions back afterwards.

One span is kept per wrapped call: name, start, end, parent span and the
id of the campaign call it belongs to (a span without a parent, which is
always ``cli.main``, opens a new campaign call).  Spans stay in memory
until the run writes them out.  A span's self time is its duration minus
the durations of its direct children; calls run on one thread and nest, so
the self times of one campaign call add up to the duration of its
``cli.main`` span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

__all__ = ["LAYERS", "CAMPAIGN_FUNCS", "SPAN_NAMES", "Tracer", "write_spans"]

CAMPAIGN_FUNCS = {
    "verify-algebra": "run_verify_algebra",
    "gauge-scan": "run_gauge_scan",
    "reproduce-tables": "run_reproduce_tables",
    "basis-change": "run_basis_change",
    "classical-sim": "run_classical_sim",
    "heisenberg-demo": "run_heisenberg_demo",
}

# layer (module of landaulab) -> attribute paths wrapped inside it
LAYERS = {
    "quadrature": ("integrate_values", "line_integral", "inner_product",
                   "matrix_element"),
    "waves": ("WaveForm.jet", "WaveForm.value", "fock_state", "t1_state",
              "DiffOpSpec.apply"),
    "params": ("Poly2.__call__",),
    "fockspace": ("build_observable", "gauge_variant_matrix",
                  "angular_element", "change_of_basis", "t1_fock_overlap"),
    "classical": ("integrate", "noether_charges", "analytic_trajectory"),
    "campaigns": tuple(CAMPAIGN_FUNCS.values()),
    "report": ("VerificationReport.to_json",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attrs in LAYERS.items()
                   for attr in attrs)

COUNTERS = ("quadrature.fine_nodes", "quadrature.coarse_nodes",
            "quadrature.bytes_computed", "quadrature.support_failures",
            "classical.integrate.steps")


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.names = SPAN_NAMES
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._calls = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        if self._stack:
            self.parent.append(self._stack[-1])
        else:
            self.parent.append(-1)
            self._calls += 1
        self.name.append(name_id)
        self.call.append(self._calls - 1)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        t1 = perf_counter()
        dur = t1 - self.start[idx]
        self._stack.pop()
        self.end[idx] = t1
        self.self_time[idx] = dur - self._child.pop()
        if self._child:
            self._child[-1] += dur

    def _wrap(self, name_id: int, fn, counted=None):
        call = fn if counted is None else counted(fn)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return call(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    # -- counters read from the arguments and results at the boundary -----

    def _counted_integrate_values(self, support_error):
        def counted(fn):
            sig = inspect.signature(fn)

            def call(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                fine, coarse = bound.get("fine"), bound.get("coarse")
                if fine is None or coarse is None:  # signature changed
                    return fn(*args, **kwargs)
                try:
                    return fn(*args, **kwargs)
                except support_error:
                    self.counts["quadrature.support_failures"] += 1
                    raise
                finally:
                    self.counts["quadrature.fine_nodes"] += fine.size
                    self.counts["quadrature.coarse_nodes"] += coarse.size
                    # integrand arrays plus the float64 weight vectors
                    self.counts["quadrature.bytes_computed"] += (
                        fine.nbytes + coarse.nbytes
                        + 8 * (fine.size + coarse.size))
            return call
        return counted

    def _counted_line_integral(self, support_error):
        def counted(fn):
            sig = inspect.signature(fn)

            def call(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                f = bound.arguments.get("f")
                if f is None:  # signature changed
                    return fn(*args, **kwargs)
                sizes = []

                def sampled(x):
                    sizes.append(len(x))
                    return f(x)
                bound.arguments["f"] = sampled
                try:
                    return fn(*bound.args, **bound.kwargs)
                except support_error:
                    self.counts["quadrature.support_failures"] += 1
                    raise
                finally:
                    # the first sample is the fine rule, the second its
                    # coarse companion; values are reduced as complex128
                    # with float64 weights
                    self.counts["quadrature.fine_nodes"] += sum(sizes[:1])
                    self.counts["quadrature.coarse_nodes"] += sum(sizes[1:])
                    self.counts["quadrature.bytes_computed"] += 24 * sum(sizes)
            return call
        return counted

    def _counted_integrate(self, fn):
        def call(*args, **kwargs):
            path = fn(*args, **kwargs)
            self.counts["classical.integrate.steps"] += len(path) - 1
            return path
        return call

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace every traced attribute of landaulab while the block runs.
        An attribute the program no longer has is skipped and reports no
        calls."""
        quad = importlib.import_module("landaulab.quadrature")
        special = {
            "quadrature.integrate_values":
                self._counted_integrate_values(quad.SupportOverflowError),
            "quadrature.line_integral":
                self._counted_line_integral(quad.SupportOverflowError),
            "classical.integrate": self._counted_integrate,
        }
        saved = []
        try:
            for name_id, name in enumerate(self.names):
                layer, *path = name.split(".")
                owner = importlib.import_module(f"landaulab.{layer}")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, "__dict__", {}).get(path[-1])
                if fn is None:
                    continue
                saved.append((owner, path[-1], fn))
                setattr(owner, path[-1],
                        self._wrap(name_id, fn, special.get(name)))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """Calls and summed self time per span name."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for name_id, st in zip(self.name, self.self_time):
            key = self.names[name_id]
            calls[key] += 1
            self_s[key] += st
        return {"calls": calls, "self_s": self_s}

    def call_accounts(self) -> list[tuple[float, float]]:
        """Per campaign call: (duration of its root span, sum of the self
        times of all its spans)."""
        root = [0.0] * self._calls
        total = [0.0] * self._calls
        for i, c in enumerate(self.call):
            total[c] += self.self_time[i]
            if self.parent[i] < 0:
                root[c] = self.end[i] - self.start[i]
        return list(zip(root, total))


def write_spans(path, tracers: list[Tracer]):
    """Write every span as tab-separated text, gzip-compressed: round,
    call, span, parent, name, start, end, self."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("round\tcall\tspan\tparent\tname\tstart\tend\tself\n")
        for r, tr in enumerate(tracers):
            for i in range(len(tr.start)):
                fh.write(f"{r}\t{tr.call[i]}\t{i}\t{tr.parent[i]}\t"
                         f"{tr.names[tr.name[i]]}\t{tr.start[i]!r}\t"
                         f"{tr.end[i]!r}\t{tr.self_time[i]!r}\n")
