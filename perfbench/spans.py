"""In-memory span tracer that times calls into each layer's public API.

Spans are recorded from the benchmark's own files: :meth:`Tracer.patch`
replaces a public function or method with a wrapper that records one
span per call (name, start, end, parent span, items handled).  Only the
client thread is traced; calls made by helper threads pass straight
through.  A layer's self time is its span duration minus the part of
that interval covered by its child spans (:func:`summarize`).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)


_INHERITED = object()


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    items: int


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    items: int = 0


class Tracer:
    """Record spans around patched calls on the thread that created it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next = 1
        self._thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []
        self.enabled = True

    def wrap(self, name: str, fn: Callable,
             items: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``items(*args, **kwargs)`` gives the work the call handled (for
        example the keys in a batch); it defaults to 0.
        """
        tracer = self
        clock = self.clock
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, name, start, end,
                                  items(*args, **kwargs) if items else 0))

        return traced

    def patch(self, owner: object, attribute: str, name: str,
              items: Optional[Callable[..., int]] = None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper until
        :meth:`unpatch_all`."""
        original = getattr(owner, attribute)
        # Restore exactly what the owner itself held: an inherited method
        # is deleted again rather than pinned onto the subclass.
        raw = vars(owner).get(attribute, _INHERITED) if isinstance(
            owner, type) else original
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, self.wrap(name, original, items))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            if raw is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Calls made inside this block record no spans."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def reset(self) -> None:
        """Drop recorded spans (patches stay installed)."""
        self.spans.clear()

    def summarize(self) -> Tuple[Dict[str, SpanStats],
                                 Dict[Tuple[str, str], SpanStats]]:
        return summarize(self.spans)

    def write(self, path: str) -> None:
        """One span per line: id, parent, name, start and end in ns, items."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(f"{span.sid} {span.parent} {span.name} "
                             f"{int(span.start * 1e9)} {int(span.end * 1e9)} "
                             f"{span.items}\n")


def _covered(intervals: Iterable[Tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans: Iterable[Span]) -> Tuple[
        Dict[str, SpanStats], Dict[Tuple[str, str], SpanStats]]:
    """Per-name totals, and per (name, parent name) totals.

    A span's self time is its duration minus the union of its children's
    intervals within it, so overlapping children are not counted twice.
    """
    spans = list(spans)
    names = {span.sid: span.name for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    by_name: Dict[str, SpanStats] = defaultdict(SpanStats)
    by_parent: Dict[Tuple[str, str], SpanStats] = defaultdict(SpanStats)
    for span in spans:
        duration = span.end - span.start
        self_time = duration - _covered(children.get(span.sid, ()),
                                        span.start, span.end)
        key = (span.name, names.get(span.parent, ""))
        for stats in (by_name[span.name], by_parent[key]):
            stats.calls += 1
            stats.total += duration
            stats.self_time += self_time
            stats.items += span.items
    return dict(by_name), dict(by_parent)
