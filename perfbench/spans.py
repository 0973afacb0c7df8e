"""In-memory span recorder and the wrappers that put spans around program calls.

A span is (name, start, end, parent, run id, thread). Spans are kept in a list
while the benchmark runs and written out once at the end. Wrappers are
installed by rebinding a function in every ``priorlda`` module that holds it,
so calls the program makes internally (``fit`` calling ``sweep``) are seen
too, and they are removed again for untraced measurement.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int            # index into Tracer.spans, -1 for a root span
    run: str
    thread: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; nests them per thread.

    A span opened on a worker thread with nothing open on that thread gets
    the innermost span open on the installing thread as its parent, so work
    a thread pool does inside ``run_grid`` stays under the ``run_grid`` span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else -1
        span = Span(name, 0.0, parent, self.run, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, func, attrs=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs = attrs(result, args, kwargs)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, targets) -> None:
        """Wrap each (module, attribute, span name, attrs) target wherever a
        ``priorlda`` module binds the same function object."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "priorlda" or n.startswith("priorlda.")]
        for module, attr, name, attrs in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bindings.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()

    def in_runs(self, runs) -> list[Span]:
        runs = set(runs)
        return [s for s in self.spans if s.run in runs]

    def write(self, path: Path, meta: dict) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.run, s.thread, s.attrs]
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta,
                                    "columns": ["name", "start", "end", "parent",
                                                "run", "thread", "attrs"],
                                    "spans": rows}, default=float) + "\n",
                        encoding="utf-8")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-layer self time of ``spans``: each span's duration minus the
    length its child spans cover, children that ran at the same time on
    different threads counted once."""
    children: dict[int, list[Span]] = {}
    index = {id(s): i for i, s in enumerate(all_spans)}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    per_layer: dict[str, float] = {}
    for s in spans:
        covered = union_length([(k.start, k.end) for k in children.get(index[id(s)], [])])
        per_layer[s.layer] = per_layer.get(s.layer, 0.0) + s.duration - covered
    return per_layer
