"""In-memory span tracing for the benchmark, added from outside the package.

A `Tracer` replaces a module attribute with a wrapper that records one span
per call: name, start, end, parent span and the scene being processed. Each
name is patched in the module its caller looks it up from, so for example
`classify` calling `likelihood_maps` is seen through `compseg.models`, while
`segment_scene` calling it is seen through `compseg.orm`. Nothing under
`src/` knows about the tracer, and leaving the `with` block restores every
patched attribute, so an untraced run executes exactly the package's code.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index into Tracer.spans, -1 for a root span
    scene: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while active; patched attributes are restored on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.scene = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def patch(
        self,
        module,
        attr: str,
        name: str,
        count: Callable[[tuple, dict, object], dict] | None = None,
    ) -> None:
        """Wrap `module.attr` so every call records a span called `name`.

        `count(args, kwargs, result)` returns work counters stored on the span.
        """
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = inner(*args, **kwargs)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        self._patched.append((module, attr, inner))
        setattr(module, attr, wrapper)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span around a block; calls traced inside become children."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.scene)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, inner in reversed(self._patched):
            setattr(module, attr, inner)
        self._patched.clear()

    # -- derived figures ---------------------------------------------------

    def summary(self) -> dict[str, "LayerStats"]:
        """Per span name: calls, inclusive time, self time and summed counts.

        Self time is a span's duration minus that of its direct children;
        the benchmark is single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, LayerStats] = defaultdict(LayerStats)
        for index, span in enumerate(self.spans):
            stats = out[span.name]
            stats.calls += 1
            stats.total_s += span.end - span.start
            stats.self_s += span.end - span.start - child_time[index]
            for key, value in span.counts.items():
                stats.counts[key] = stats.counts.get(key, 0) + value
        return out

    def count_where(self, name: str, parent_name: str) -> int:
        """Calls of `name` made directly from a `parent_name` span."""
        return sum(
            1
            for span in self.spans
            if span.name == name
            and span.parent >= 0
            and self.spans[span.parent].name == parent_name
        )


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

