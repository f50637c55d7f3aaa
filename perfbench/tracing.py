"""Spans around altsep's public functions, recorded from outside altsep.

``Tracer.install`` replaces every public function of the traced modules by
a wrapper, at every ``altsep`` module that bound the function by name (a
``from .graphs import components`` binds ``components`` in the importer
too), and ``Tracer.remove`` puts the originals back.  A wrapper records
one span per call: name, start, end and the index of the enclosing span,
kept in memory and written out by ``write``.  Leaf functions called
millions of times only count their calls, so that tracing does not swamp
the work it measures; their time falls to the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("cli", "subgroups", "graphs", "factors", "covers", "permgroup", "kurosh")

# Public methods traced besides module-level functions.
TRACED_METHODS = (("subgroups", "MembershipTester", "contains"),)

# Hot leaves: calls are counted, no span is recorded.
COUNT_ONLY = frozenset({
    "permgroup.compose",
    "permgroup.inverse",
    "permgroup.is_identity",
    "permgroup.identity_perm",
    "graphs.canonical_pair",
})


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.observers = {}  # span name -> callback(result)
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def observe(self, name: str, callback):
        """Call ``callback(result)`` after each call of the named function."""
        self.observers[name] = callback

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            observer = self.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        bound = [m for n, m in sorted(sys.modules.items())
                 if m is not None and (n == "altsep" or n.startswith("altsep."))]
        for short in TRACED_MODULES:
            module = sys.modules[f"altsep.{short}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                wrapper = make(name, fn)
                for owner in bound:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapper)
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules[f"altsep.{short}"], cls_name)
            fn = cls.__dict__[method]
            self._patches.append((cls, method, fn))
            setattr(cls, method, self._span_wrapper(f"{short}.{cls_name}.{method}", fn))

    def remove(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self):
        """name -> {'calls', 's', 'self_s'}; counted leaves have calls only.

        ``s`` sums the spans that have no enclosing span of the same name,
        so a recursive call is not counted twice."""
        out = {name: {"calls": n} for name, n in self.counts.items()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self._nested_in_same(index):
                entry["s"] += end - start
        return out

    def _nested_in_same(self, index) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose direct parent is ``parent_name``."""
        return sum(
            1 for name, _s, _e, parent in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path):
        with open(path, "w") as stream:
            json.dump({"spans": self.spans, "counts": self.counts}, stream)
