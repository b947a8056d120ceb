"""In-memory span tracer for the traced benchmark run.

Spans are recorded only from the benchmark's side: `Tracer.wrap` replaces a
module-level name (or a class attribute) with a wrapper that opens a span
around each call, and `Tracer.span` opens one around a block.  Wrapping the
name a consuming module imported (for example ``cbfforge.filters.q_from_value``)
gives nested spans without touching the package.  Spans stay in memory and
are written once, at the end of the run.

A span's layer is the cbfforge module the called function lives in; spans the
benchmark opens itself use its own layer names ("unit", "probe").
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "start", "end", "info")

    def __init__(self, sid, parent, name, layer, start, info):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


def function_layer(fn) -> str:
    """The cbfforge module a function was defined in, e.g. "hj"."""
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while `active`; wrappers cost one flag test otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._children: dict[int, list[Span]] | None = None

    @contextmanager
    def span(self, name: str, layer: str, **info):
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), parent, name, layer, time.perf_counter(), info)
        self.spans.append(rec)
        self._stack.append(rec.sid)
        self._children = None
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, info_fn=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        info_fn(args, kwargs) -> dict attaches call details (batch sizes,
        row keys) to the span; it runs only while tracing.
        """
        original = getattr(owner, attr)
        layer = function_layer(original)
        name = f"{layer}.{original.__qualname__}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            info = info_fn(args, kwargs) if info_fn is not None else {}
            with tracer.span(name, layer, **info):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ queries

    def children(self, span: Span) -> list[Span]:
        if self._children is None:
            index: dict[int, list[Span]] = {}
            for s in self.spans:
                if s.parent is not None:
                    index.setdefault(s.parent, []).append(s)
            self._children = index
        return self._children.get(span.sid, [])

    def descendants(self, span: Span):
        stack = list(self.children(span))
        while stack:
            s = stack.pop()
            yield s
            stack.extend(self.children(s))

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by direct children."""
        return span.duration - sum(c.duration for c in self.children(span))

    def layer_self_times(self, roots) -> dict[str, float]:
        """Self time per layer over the given root spans and all below them."""
        out: dict[str, float] = {}
        for root in roots:
            for s in [root, *self.descendants(root)]:
                out[s.layer] = out.get(s.layer, 0.0) + self.self_time(s)
        return out

    def write(self, path: str) -> None:
        """One JSON object per span: id, parent, name, layer, start, end and
        the JSON-serialisable part of its info."""
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
                       "start": s.start, "end": s.end}
                rec.update({k: v for k, v in s.info.items() if isinstance(v, (int, float, str))})
                fh.write(json.dumps(rec) + "\n")
