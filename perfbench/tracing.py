"""Span recording around calls into the library, from outside it.

A Tracer replaces module or class attributes with wrappers. A timed
wrapper records one span per call (name, start, end, parent span) in
flat arrays; a counting wrapper only counts calls, for hot leaves whose
timing would cost more than their work. close() puts every original
attribute back, so the library is untouched once the traced pass ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.calls: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Restore every wrapped attribute, latest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def span(self, owner, attr: str, name: str, size_of=None) -> None:
        """Time every call of owner.attr as a span called `name`.

        With `size_of`, also add size_of(result) to sizes[name].
        """
        nid = self._name_id(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter
        sizes = self.sizes

        def wrap(fn):
            def timed(*args, **kwargs):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
                if size_of is not None:
                    sizes[name] += size_of(result)
                return result

            return timed

        self._patch(owner, attr, wrap)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without timing them."""
        calls = self.calls

        def wrap(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        self._patch(owner, attr, wrap)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, span count).

        Self time is a span's duration minus the durations of its direct
        children, so nested spans of one name are not counted twice in
        self time (they are in inclusive time).
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            duration = self.end[i] - self.start[i]
            inclusive[k] += duration
            own[k] += duration - child[i]
            spans[k] += 1
        return {
            name: (inclusive[k], own[k], spans[k]) for k, name in enumerate(self.names)
        }
