"""Spans, with the counts they carry, recorded from outside the program.

A span is (name, start, end, parent) on ``time.perf_counter``, with counts
of the work it did in ``attrs``; spans live in memory and are written out
once, when the run ends. ``Tracer.wrap`` replaces a module's function with a
timing wrapper by setting the module attribute, which is what ``cli`` and
the benchmark look up at call time; ``uninstall`` puts the originals back.
Nothing under ``src/`` is touched.

A layer is the module a span belongs to: the text before the first dot of
the span name. Spans the benchmark opens itself ("round", "setup") belong to
the ``bench`` layer.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = (
    "ingest", "preprocess", "sleepwake", "features", "models", "evaluation",
    "report", "devicesim", "synth", "cli", "bench",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        head = self.name.split(".", 1)[0]
        return head if head in LAYERS else "bench"


class Tracer:
    """In-memory span stack for one thread; counts ride on span attrs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str, **attrs) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    # -- wrapping module functions -------------------------------------

    def wrap(self, module, attr: str, name: Optional[str] = None,
             after: Optional[Callable] = None, span_name: Optional[Callable] = None):
        """Replace module.attr by a wrapper that records a span per call.

        after(span, args, kwargs, result) may add counts to span.attrs or
        rename the span; span_name(args, kwargs) names it from the arguments.
        """
        original = getattr(module, attr)
        base = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(span_name(args, kwargs) if span_name else base)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def wrap_generator(self, module, attr: str):
        """Wrap a generator function: the span covers producing every item.

        The wrapper hands back a list iterator, which every caller in the
        program consumes exactly as it consumed the generator.
        """
        original = getattr(module, attr)
        base = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(base)
            try:
                items = list(original(*args, **kwargs))
            finally:
                tracer.close(span)
            span.attrs["items"] = len(items)
            return iter(items)

        wrapper.__wrapped__ = original
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent].append(s)
        return out

    def self_time(self, span: Span, kids: dict[int, list[Span]]) -> float:
        return span.duration - sum(c.duration for c in kids.get(span.id, ()))

    def descendants(self, root: Span, kids: dict[int, list[Span]]) -> list[Span]:
        out, todo = [], list(kids.get(root.id, ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids.get(s.id, ()))
        return out

    def dump(self, path) -> None:
        doc = {
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs}
                for s in self.spans
            ],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, default=str)
        os.replace(tmp, path)


class _SpanContext:
    def __init__(self, tracer: Optional[Tracer], name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        if self.tracer is not None:
            self.span = self.tracer.open(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc):
        if self.span is not None:
            self.tracer.close(self.span)
        return False


def maybe_span(tracer: Optional[Tracer], name: str, **attrs) -> _SpanContext:
    """A span when tracing, nothing at all otherwise."""
    return _SpanContext(tracer, name, attrs)
