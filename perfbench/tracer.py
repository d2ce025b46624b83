"""In-memory span recorder and the wrappers that trace the program from outside.

A span is (name, start, end, parent, run id).  Spans are kept in compact
arrays while the benchmark runs and written out once when it ends.  Self time
(a span's duration minus the part its children cover) is folded online, so
per-layer totals need no second pass over the spans.

Nothing under ``src/`` is changed: :func:`instrument` replaces public
functions and methods *at the names their callers look them up by* (module
attributes read at call time, class attributes) and restores them on exit.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Tracer:
    """Records spans and counters; folds self time per span name."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.run_id = 0
        # Stack frames: [span index, start, time covered by children].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0

    @property
    def spans(self) -> int:
        return len(self.span_name)

    def enter(self, name: str) -> None:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(parent)
        self.span_run.append(self.run_id)
        self._stack.append([index, start, 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        index, start, children = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[self.names[self.span_name[index]]] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def take(self) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """(self seconds by span, counters, top-level seconds) since the last take."""
        taken = (dict(self.self_s), dict(self.counters), self.top_s)
        self.self_s.clear()
        self.counters.clear()
        self.top_s = 0.0
        return taken

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """One JSON header line, then the span arrays (native byte order)."""
        header = dict(
            meta,
            names=self.names,
            spans=self.spans,
            arrays=[["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["run", "i"]],
        )
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_run
            ):
                column.tofile(handle)


def traced_call(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None):
    """``fn`` wrapped in a span; ``after(result, args, kwargs)`` may count."""

    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def traced_iter(tracer: Tracer, name: str, iterable: Iterable, counter: Optional[str] = None) -> Iterator:
    """Iterate ``iterable`` with one span per ``next`` (the producer's time)."""
    iterator = iter(iterable)
    while True:
        tracer.enter(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.exit()
        if counter is not None:
            tracer.counters[counter] += 1
        yield item


def counted_iter(tracer: Tracer, counter: str, iterable: Iterable) -> Iterator:
    """Count the items of ``iterable`` without timing them."""
    for item in iterable:
        tracer.counters[counter] += 1
        yield item


@contextlib.contextmanager
def instrument(patches: List[Tuple[Any, str, Callable[[Callable], Callable]]]):
    """Apply ``setattr(owner, attr, make(original))`` for each patch; undo on exit."""
    saved = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
