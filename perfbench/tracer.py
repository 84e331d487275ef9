"""Outside-in tracing of the ``sobolev`` package, installed by the benchmark.

``Tracer.install`` replaces every public function of every ``sobolev.*``
module by a wrapper that records a span, and does so at every module
binding of that function: modules import functions by name, so the
bindings are found by an identity scan over all module namespaces.  The
``values`` and ``partial`` methods of every ``fields.Field`` subclass are
wrapped as well.  No library file is changed.

A span records its layer, start, end, parent span and the workload item it
belongs to.  A call opens a span only where it crosses a layer boundary: a
call into the layer of the innermost open span (recursive ``diff_expr``,
a product field evaluating its factors) and a call of a module's helper
from inside that module's own layers run through without a span, so each
layer counts outermost calls.  Counts are computed from call arguments and
repeat exactly; the time spent computing them is recorded as a span of
layer ``trace`` so that it is kept out of every other layer's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import time

# Named sub-layers; any other public function belongs to its module's layer.
SUBLAYERS = {
    "quadrature": {"gagliardo_double_sum": "pair_sum", "lp_norm": "lp",
                   "sobolev_norm": "reduce", "gagliardo_seminorm": "reduce"},
    "funcexpr": {"eval_on_points": "eval", "eval_expr": "eval",
                 "parse_expr": "symbolic", "diff_expr": "symbolic",
                 "subst_expr": "symbolic"},
    "geometry": {"covariant_derivative": "covd",
                 "fiber_norm_values": "fiber_norm", "fiber_norm": "fiber_norm",
                 "builtin_metric": "metric"},
    "atlas": {"builtin_manifold": "setup", "build_partition_of_unity": "pou"},
}
FIELD_METHODS = ("values", "partial")


def _points(pts) -> int:
    shape = getattr(pts, "shape", None)
    return int(shape[0]) if shape else len(pts)


class _ExprCounter:
    """Tree size and structurally distinct node count of expressions.

    Nodes are numbered canonically (equal subtrees get equal numbers) and
    memoised by id; every numbered node is kept alive until ``reset`` so
    that an id is never reused while it is in the memo.
    """

    def __init__(self, expr_type):
        self.expr_type = expr_type
        self.reset()

    def reset(self):
        self.canon = {}     # structural key -> number
        self.memo = {}      # id(node) -> (number, tree size, node)
        self.roots = {}     # id(root) -> (tree size, distinct nodes)

    def _children(self, node):
        return [getattr(node, f.name) for f in dataclasses.fields(node)]

    def _number(self, root):
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in self.memo:
                stack.pop()
                continue
            parts = self._children(node)
            pending = [p for p in parts if isinstance(p, self.expr_type)
                       and id(p) not in self.memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            key = [type(node).__name__]
            size = 1
            for p in parts:
                if isinstance(p, self.expr_type):
                    num, sub, _ = self.memo[id(p)]
                    key.append(("n", num))
                    size += sub
                else:
                    key.append(p)
            num = self.canon.setdefault(tuple(key), len(self.canon))
            self.memo[id(node)] = (num, size, node)

    def count(self, root) -> tuple[int, int]:
        """(tree nodes, structurally distinct nodes) of one expression."""
        hit = self.roots.get(id(root))
        if hit is not None:
            return hit
        self._number(root)
        seen = set()
        distinct = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            distinct.add(self.memo[id(node)][0])
            stack.extend(p for p in self._children(node)
                         if isinstance(p, self.expr_type))
        out = (self.memo[id(root)][1], len(distinct))
        self.roots[id(root)] = out
        return out


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self):
        self.spans = []      # (layer, start, end, parent index, item)
        self.stack = []      # (span index, layer, module) of open spans
        self.counts = {}     # layer -> {counter: total}
        self.item = -1
        self._exprs = None
        self._installed = []

    # -- installation -------------------------------------------------------

    def install(self):
        import sobolev
        from sobolev.fields import Field
        from sobolev.funcexpr import Expr
        self._exprs = _ExprCounter(Expr)
        modules = [importlib.import_module(f"sobolev.{info.name}")
                   for info in pkgutil.iter_modules(sobolev.__path__)]

        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__
                        and obj.__module__.startswith("sobolev.")
                        and not obj.__name__.startswith("_")):
                    continue
                if id(obj) not in wrappers:
                    home = obj.__module__.rsplit(".", 1)[1]
                    sub = SUBLAYERS.get(home, {}).get(obj.__name__)
                    layer = f"{home}.{sub}" if sub else home
                    wrappers[id(obj)] = self._wrap(
                        obj, layer, home, helper=sub is None)
                self._installed.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])

        classes = {id(c): c for mod in modules for c in vars(mod).values()
                   if inspect.isclass(c) and issubclass(c, Field)}
        for cls in classes.values():
            for meth in FIELD_METHODS:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn):
                    self._installed.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(
                        fn, f"fields.{meth}", "fields", helper=False))
        return self

    def uninstall(self):
        for owner, name, obj in reversed(self._installed):
            setattr(owner, name, obj)
        self._installed.clear()

    def _wrap(self, fn, layer, module, helper):
        count = self._counter_for(fn, layer)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                _, top_layer, top_module = stack[-1]
                if top_layer == layer or (helper and top_module == module):
                    return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, layer, module))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.item)
                if count is not None:
                    count(args, kwargs, parent)

        return traced

    # -- counters -------------------------------------------------------------

    def _add(self, layer, **values):
        bucket = self.counts.setdefault(layer, {})
        for key, v in values.items():
            bucket[key] = bucket.get(key, 0) + v

    def _timed_count(self, parent, work):
        """Run a counting step as a ``trace`` span under ``parent``."""
        start = time.perf_counter()
        work()
        self.spans.append(("trace", start, time.perf_counter(), parent,
                           self.item))

    def _counter_for(self, fn, layer):
        sig = inspect.signature(fn)

        def arg(args, kwargs, name):
            return sig.bind(*args, **kwargs).arguments[name]

        if layer == "quadrature.pair_sum":
            def count(args, kwargs, parent):
                def work():
                    box = arg(args, kwargs, "box")
                    n_grid = arg(args, kwargs, "N")
                    cells = (math.prod(n_grid) if isinstance(n_grid, tuple)
                             else int(n_grid) ** box.n)
                    self._add(layer, pairs=cells * (cells - 1) // 2)
                self._timed_count(parent, work)
            return count
        one_point = fn.__name__ in ("eval_expr", "fiber_norm")

        def points(args, kwargs):
            return 1 if one_point else _points(arg(args, kwargs, "pts"))

        if layer == "funcexpr.eval":
            def count(args, kwargs, parent):
                def work():
                    tree, dag = self._exprs.count(arg(args, kwargs, "e"))
                    self._add(layer, points=points(args, kwargs),
                              tree_nodes=tree, dag_nodes=dag)
                self._timed_count(parent, work)
            return count
        if layer == "geometry.fiber_norm":
            def count(args, kwargs, parent):
                self._add(layer, points=points(args, kwargs))
            return count
        return None

    def end_item(self):
        """Forget the expressions kept alive for counting."""
        self._exprs.reset()

    # -- summary --------------------------------------------------------------

    def layers(self) -> dict:
        """Per layer: calls, inclusive seconds of outermost spans, self seconds."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            up = parent
            while up >= 0 and self.spans[up][0] != layer:
                up = self.spans[up][3]
            if up < 0:
                row["s"] += end - start
        for layer, counts in self.counts.items():
            out.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
            out[layer].update(counts)
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)
