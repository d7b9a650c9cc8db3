"""Span recorder that times labcoupling's layers from outside the library.

``SpanRecorder.install`` wraps every public function of the layer modules
(plus ``Trivialization.transition_grid``) and rebinds each wrapper under
every name that points at the original inside the ``labcoupling`` package.
Modules that imported a function by name (``bundles`` binds ``interpolate``
and ``is_inner``, ``correspondence`` binds ``f_map`` ...) therefore call the
wrapper too.  ``uninstall`` restores every binding, so untraced operations
run the library exactly as shipped.

Spans (name, start, end, parent span, operation id) stay in memory; the
caller writes them out when the run ends.  Work counters are updated at the
same boundaries from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "labcoupling"
LAYERS = ("algebra", "manifolds", "bundles", "connections", "correspondence", "algebroid", "fileio")
ROOT = "bench.op"


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_interpolate(fn, counts, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    chart, values, points = a["chart"], a["values"], a["points"]
    n_points = math.prod(points.shape[:-1])
    value_size = math.prod(values.shape[chart.dim:])
    counts["manifolds.interpolate.points"] += n_points
    # computed, not measured: every point reads 2^dim corners of value_size doubles
    counts["manifolds.interpolate.bytes_gathered"] += n_points * 2**chart.dim * value_size * 8


def _count_f_map(fn, counts, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    nodes = sum(math.prod(chart.resolution) for chart in a["c"].manifold.charts)
    counts["correspondence.rk4_node_steps"] += nodes * a["ode_steps"]


def _count_is_inner(fn, counts, args, kwargs, result):
    counts[f"algebra.is_inner.{result.verdict}"] += 1


def _count_principal_log(fn, counts, args, kwargs, result):
    if result is None:
        counts["algebra.principal_log.none"] += 1


def _count_inner_log_residuals(fn, counts, args, kwargs, result):
    ok = result[2]
    counts["algebra.inner_log_residuals.rows"] += len(ok)
    counts["algebra.inner_log_residuals.series_rows"] += int(ok.sum())


def _count_load_connection(fn, counts, args, kwargs, result):
    ref = _bound(fn, args, kwargs)["ref"]
    if isinstance(ref, (str, os.PathLike)) and os.path.isfile(ref):
        counts["fileio.bytes_read"] += os.path.getsize(ref)


COUNTERS = {
    "manifolds.interpolate": _count_interpolate,
    "correspondence.f_map": _count_f_map,
    "algebra.is_inner": _count_is_inner,
    "algebra.principal_log": _count_principal_log,
    "algebra.inner_log_residuals": _count_inner_log_residuals,
    "fileio.load_connection": _count_load_connection,
}


class SpanRecorder:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or None, op id)
        self.counts = defaultdict(int)
        self._stack: list = []
        self._op = None
        self._patches: list = []  # (owner, attribute, original)

    # --- installation -------------------------------------------------------

    def _targets(self) -> dict:
        """id(original) -> (qualified name, original) for every public layer function."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(value)] = (f"{layer}.{attr}", value)
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for key, (name, fn) in self._targets().items():
            wrappers[key] = (fn, self._wrap(name, fn))
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        triv = sys.modules[f"{PACKAGE}.bundles"].Trivialization
        method = triv.__dict__["transition_grid"]
        self._patches.append((triv, "transition_grid", method))
        triv.transition_grid = self._wrap("bundles.transition_grid", method)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), None, parent, self._op))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        calls_key = f"{name}.calls"
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts[calls_key] += 1
            if counter is not None:
                counter(fn, counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Install, open the root span of one benchmark operation (spans
        inside carry op_id), and uninstall again on the way out."""
        self.install()
        self._op = op_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)
            self._op = None
            self.uninstall()

    # --- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """Self and inclusive seconds per span name and per layer, over all
        recorded operations, plus the total root time they are shares of."""
        closed = self.spans  # every span is closed once its operation ends
        child = defaultdict(float)
        for name, start, end, parent, _ in closed:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        layer_self = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(closed):
            own = (end - start) - child[index]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if not self._inside_same(closed, parent, name):
                incl_s[name] += end - start
        return {
            "total_s": incl_s.get(ROOT, 0.0),
            "self_s": dict(self_s),
            "inclusive_s": dict(incl_s),
            "layer_self_s": dict(layer_self),
        }

    @staticmethod
    def _inside_same(spans, parent, name) -> bool:
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def write(self, path) -> None:
        """JSON lines: one span per line, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
