"""Span recording around mbckit's public callables, and span arithmetic.

A span is (name, start, end, parent, request, extra): the layer it
times, perf_counter bounds, the index of the enclosing span (-1 at the
top), the request it belongs to, and one layer-specific number or None
(apsp levels, gain candidates, DP table bytes).  Spans stay in memory
until the run ends.

The tracer wraps callables from outside the package: methods are
replaced on their class, and a module-level function is replaced in
every mbckit module that bound it by name, so calls through
``from .graph import apsp`` are timed as well as calls through the
package root.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (span name, module that defines the callable, attribute path)
TARGETS = (
    ("graph.parse", "mbckit.graph", "parse_instance"),
    ("graph.parse", "mbckit.graph", "parse_graph"),
    ("graph.apsp", "mbckit.graph", "apsp"),
    ("gbc.direct", "mbckit.gbc", "gbc_direct"),
    ("gbc.oracle_init", "mbckit.gbc", "GbcOracle.__init__"),
    ("gbc.gains", "mbckit.gbc", "GbcOracle.gains"),
    ("gbc.add", "mbckit.gbc", "GbcOracle.add"),
    ("gbc.copy", "mbckit.gbc", "GbcOracle.copy"),
    ("greedy.unit", "mbckit.greedy", "greedy_unit"),
    ("greedy.ratio", "mbckit.greedy", "greedy_ratio"),
    ("greedy.modified", "mbckit.greedy", "greedy_modified"),
    ("exact.solve", "mbckit.exact", "solve_exact"),
    ("tree.prep", "mbckit.tree", "root_tree"),
    ("tree.prep", "mbckit.tree", "binarize"),
    ("tree.fill", "mbckit.tree", "DpTable.__init__"),
    ("tree.reconstruct", "mbckit.tree", "DpTable.reconstruct"),
    ("tree.solve", "mbckit.tree", "tree_solve"),
    ("tree.solve", "mbckit.tree", "tree_solve_full"),
)


def _levels(args, kwargs, result):
    return int(result.dist.max())


def _candidates(args, kwargs, result):
    return len(result)  # gains returns one score per candidate


def _table_bytes(args, kwargs, result, depth=3):
    """Bytes of every array reachable from the DpTable within a few references."""
    total, seen, todo = 0, set(), [(args[0], 0)]
    while todo:
        obj, d = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
            total += obj.nbytes
        elif d < depth:
            if isinstance(obj, (list, tuple)):
                kids = obj
            elif isinstance(obj, dict):
                kids = obj.values()
            else:
                kids = [getattr(obj, a, None) for a in getattr(type(obj), "__slots__", ())]
                kids += list(getattr(obj, "__dict__", {}).values())
            todo.extend((k, d + 1) for k in kids if not isinstance(k, (int, float, str)))
    return total


EXTRAS = {"graph.apsp": _levels, "gbc.gains": _candidates, "tree.fill": _table_bytes}


class Tracer:
    """Records spans while installed; install() and remove() patch and restore."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, None)
            if extra is not None:
                spans[idx] = spans[idx][:5] + (extra(args, kwargs, result),)
            return result

        return timed

    def install(self) -> None:
        mods = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "mbckit"]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            if outer:  # a method: patch it on its class
                self._patch(owner, attr, fn, wrapped)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, fn, wrapped)

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def request_span(self, request_id: int):
        """Time one whole request as a top-level span."""
        self.request = request_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = ("request", start, end, -1, request_id, None)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def ancestors(spans, i):
    """Names of the spans enclosing span i, innermost first."""
    out = []
    p = spans[i][3]
    while p >= 0:
        out.append(spans[p][0])
        p = spans[p][3]
    return out


# span name -> per-layer self-time metric
SELF_METRIC = {
    "graph.parse": "graph.parse.s",
    "graph.apsp": "graph.apsp.s",
    "gbc.direct": "gbc.direct.s",
    "gbc.oracle_init": "gbc.oracle_init.s",
    "gbc.gains": "gbc.gains.s",
    "gbc.add": "gbc.add.s",
    "gbc.copy": "gbc.copy.s",
    "greedy.unit": "greedy.self_s",
    "greedy.ratio": "greedy.self_s",
    "greedy.modified": "greedy.self_s",
    "exact.solve": "exact.self_s",
    "tree.prep": "tree.prep.s",
    "tree.fill": "tree.fill.s",
    "tree.reconstruct": "tree.reconstruct.s",
    "tree.solve": "tree.self_s",
    "request": "request.self_s",
}

CALL_METRIC = {
    "graph.apsp": "graph.apsp.calls",
    "gbc.direct": "gbc.direct.calls",
    "gbc.oracle_init": "gbc.oracle_init.calls",
    "gbc.gains": "gbc.gains.calls",
    "gbc.add": "gbc.add.calls",
    "gbc.copy": "gbc.copy.calls",
}


def layer_totals(spans, group_of) -> dict:
    """Per-layer self seconds and counters, summed per group of requests.

    group_of maps a span's request id to its group (a batch, say);
    returns {group: {metric: value}}.
    """
    acc: dict = defaultdict(lambda: defaultdict(float))
    for i, (sp, self_s) in enumerate(zip(spans, self_times(spans))):
        name, extra = sp[0], sp[5]
        out = acc[group_of(sp[4])]
        out[SELF_METRIC[name]] += self_s
        if name in CALL_METRIC:
            out[CALL_METRIC[name]] += 1
        if name == "graph.apsp":
            out["graph.apsp.levels"] += extra
        elif name == "gbc.gains":
            out["gbc.gains.candidates"] += extra
        elif name == "tree.fill":
            out["tree.table_mb"] = max(out["tree.table_mb"], extra / 2**20)
        elif name in ("gbc.copy", "gbc.add"):
            up = ancestors(spans, i)
            if "greedy.modified" in up:
                out["greedy.restarts" if name == "gbc.copy" else "_restart_adds"] += 1
            elif name == "gbc.add" and "exact.solve" in up:
                out["exact.branches"] += 1
    for out in acc.values():
        adds = out.pop("_restart_adds", 0.0)
        restarts = out["greedy.restarts"]
        out["greedy.adds_per_restart"] = adds / restarts if restarts else 0.0
    return {key: dict(val) for key, val in acc.items()}
