"""Span tracer for the benchmark's traced runs.

`Tracer.install` replaces every binding of every public function (and public
method of a public class) defined in the package's layer modules with a
wrapper that records a span: name, start, end and the enclosing span.  Names
pulled in with ``from .x import y`` are bindings too, so they are wrapped
where they are looked up.  `Tracer.restore` puts the originals back.

Spans stay in memory; aggregation happens after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict

PACKAGE = "anneal_rbm"
LAYERS = ("topology", "ising", "embedding", "planted", "rng", "samplers",
          "decode", "experiments", "cli")


def _public_callables(module):
    """(span name, owner, attribute, function) for each public function of
    the module and each public method of its public classes."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{name}.{attr}", obj, attr, fn


class Tracer:
    """Records spans of wrapped calls and counts attached to them.

    ``counters`` maps a span name to ``f(args, kwargs) -> {count: value}``,
    so counts are taken at the same boundary as the span.
    """

    def __init__(self, counters=None):
        self.counters = counters or {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self._parent_of: dict[int, tuple[int, str]] = {}

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._parent_of = {}

    def _wrap(self, name, fn):
        # Locals only: the wrapper runs for every call, hundreds of
        # thousands of times per pass for the smallest helpers.
        counter = self.counters.get(name)
        counts, spans, stack, ids = self.counts, self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            if counter is not None:
                counts.update(counter(args, kwargs))
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return traced

    def install(self) -> None:
        """Wrap every binding of every public function and method."""
        pkg = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS]
        # id(function) -> (function, wrapper); holding the function keeps
        # its id from being reused while the map is in use
        wrappers = {}
        for module in modules:
            for name, owner, attr, fn in _public_callables(module):
                if inspect.isclass(owner):  # a method has one binding
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        # A module function is bound in its own module, in every module that
        # imported it by name, and in the package namespace.
        for module in [pkg, *modules]:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[span_id]
        return out

    def group_time(self, names) -> float:
        """Seconds inside spans of `names`, not counting a span nested in
        another span of the same group twice."""
        names = set(names)
        if len(self._parent_of) != len(self.spans):
            self._parent_of = {s[0]: (s[1], s[2]) for s in self.spans}
        parent_of = self._parent_of
        total = 0.0
        for span_id, parent, name, start, end in self.spans:
            if name not in names:
                continue
            while parent and parent_of[parent][1] not in names:
                parent = parent_of[parent][0]
            if not parent:
                total += end - start
        return total

    def write(self, path: str, min_s: float = 1e-3) -> None:
        """Spans of at least `min_s` seconds as JSON lines (id, parent, name,
        start, end).  A parent lasts at least as long as its child, so the
        spans kept still form a tree."""
        with open(path, "w") as f:
            for span_id, parent, name, start, end in self.spans:
                if end - start < min_s:
                    continue
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
