"""Spans around otlc's layer boundaries, recorded from outside the package.

`Tracer.install` rebinds public functions in the namespaces of the layer
modules that call them: `otlc.harness.typecheck`, `otlc.semantics.substitute`,
`otlc.checker.subtype` and so on.  A function is also rebound in its own
module when it does not call itself by name, so `semantics.step` (called by
`evaluate`) and `harness.gen_typed_term` (called by `run_fuzz`) get spans,
while recursive functions such as `free_vars` or `normalize` are counted
once per call from another layer rather than once per AST node.  Calls made
through a lazy `from .x import f` inside a function body are not seen; their
time stays in the caller's self time.

Spans live in flat arrays (name, parent, start, end) while the run lasts
and are written out when it ends.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter_ns

LAYERS = ("syntax", "subtyping", "checker", "semantics", "refine", "harness")

# Parsers whose text length is counted, for syntax.parse.chars_per_s.
_PARSERS = ("parse_expr", "parse_program")


def _calls_itself(fn) -> bool:
    inner = getattr(fn, "__wrapped__", fn)
    code = getattr(inner, "__code__", None)
    return code is not None and fn.__name__ in code.co_names


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps each layer name in LAYERS to its module."""
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.chars = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        by_module = {m.__name__: layer for layer, m in modules.items()}
        wrapped: dict[int, object] = {}
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                layer = by_module.get(getattr(fn, "__module__", None))
                if (layer is None or attr.startswith("_") or isinstance(fn, type)
                        or not callable(fn) or attr != getattr(fn, "__name__", None)):
                    continue
                if fn.__module__ == mod.__name__ and _calls_itself(fn):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
                self._patches.append((mod, attr, fn, wrapped[id(fn)]))

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn):
        nid = self._span_id(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        counts_chars = span_name.split(".")[-1] in _PARSERS
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            if counts_chars:
                tracer.chars += len(args[0])
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod, attr, _, traced in self._patches:
            setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    # -- summary

    def totals(self, within: str) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self time in ns, and the calls
        made inside a span named `within` (`calls_within`)."""
        n = len(self.name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        child = [0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        within_id = self._ids.get(within, -1)
        inside = [False] * n   # some ancestor, or the span itself, is `within`
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "calls_within": 0}
               for name in self.names}
        for i in range(n):
            p = parents[i]
            above = p >= 0 and inside[p]
            inside[i] = above or names[i] == within_id
            rec = out[self.names[names[i]]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["total_ns"] += dur
            rec["self_ns"] += dur - child[i]
            rec["calls_within"] += above
        return out

    def dump(self, path) -> None:
        """Write every span as `name<TAB>parent<TAB>start_ns<TAB>end_ns`,
        gzip-compressed, rows in start order; a parent is a row index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.name)):
                f.write(f"{names[self.name[i]]}\t{self.parent[i]}\t"
                        f"{self.start[i]}\t{self.end[i]}\n")
