"""Span tracing around a package's public functions, installed from outside.

A Tracer wraps every public function of the given modules, and the
constructor of every hand-written (non-dataclass) class, without editing
the program.  Because the package imports with ``from .x import f``, the
same function object sits in several module namespaces; ``install``
rebinds every namespace attribute that holds the original, so internal
calls such as ``radialops.avg -> product_kernel`` land inside their span.
Functions captured before installation (default arguments, closures over
the function object itself) escape; the package holds none of those.

Each call records ``Span(name, start, end, parent)``, where parent is the
index of the enclosing span.  A layer's self time is a span's duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent")


def self_times(spans) -> dict:
    """Per-name totals ``{name: (calls, self_seconds)}`` over a span list."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict = {}
    for s, c in zip(spans, child):
        calls, self_s = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, self_s + (s.end - s.start) - c)
    return out


class Tracer:
    """Collects spans and result counts; ``drain`` hands them over and resets.

    observers maps a span name to ``fn(result, counts)``, run after the span
    closes, to add counts measured where the work happens.
    """

    def __init__(self, clock=time.perf_counter, observers=None):
        self.clock = clock
        self.observers = dict(observers or {})
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
            if observer is not None:
                observer(result, self.counts)
            return result

        return traced

    def install(self, modules, namespaces):
        """Wrap the public callables defined in ``modules``.

        Span names are ``<module short name>.<attribute>``; a class's span
        covers its ``__init__``.  Every attribute of every module in
        ``namespaces`` that holds a wrapped function is rebound.
        """
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    if not dataclasses.is_dataclass(obj) and "__init__" in vars(obj):
                        self._patch(obj, "__init__", self.wrap(name, obj.__init__))
                elif inspect.isfunction(obj):
                    wrapper = self.wrap(name, obj)
                    for ns in namespaces:
                        for ns_attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, ns_attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def drain(self):
        """Return ``(spans, counts)`` recorded since the last drain."""
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts
