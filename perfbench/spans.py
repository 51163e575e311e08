"""In-memory span tracing around the public calls of each layer.

Nothing under ``src/`` is instrumented: a :class:`Tracer` replaces a
module attribute or a class method with a wrapper that records one span
per call (name, start, end, parent span, root span) and restores the
original on :meth:`Tracer.uninstall`.  Spans stay in memory until the
benchmark writes them out at the end of a run.  Each root span stands for
one allocation (batch) or one request (served); every span below it
shares the root's id.

A layer's *self time* is its spans' durations minus the part covered by
their direct children, so the self times of all layers add up to the
traced wall time without double counting.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "id")

    def __init__(self, name: str, start: int, parent: Optional["Span"],
                 span_id: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.id = span_id


class Tracer:
    """Records spans from wrapped calls; off until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        #: plain event counts (moves, candidates, commits, ...)
        self.counts: Counter = Counter()
        #: guards :attr:`counts` where several threads update it
        self.lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args: Any,
             span_id: Optional[str] = None, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        A span opened with no enclosing span is a root; *span_id* names
        the allocation or request it stands for.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._run(name, fn, args, kwargs, span_id)[0]

    def _run(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             span_id: Optional[str]) -> tuple:
        stack = self._stack()
        span = Span(name, _clock(), stack[-1] if stack else None, span_id)
        stack.append(span)
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = _clock()
            stack.pop()
            self.spans.append(span)

    def inside(self, name: str) -> bool:
        """True when a span called *name* is open on this thread."""
        return any(span.name == name for span in self._stack())

    # ------------------------------------------------------------- patching

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[Any, Span], None]] = None,
             id_of: Optional[Callable[..., str]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *on_result* sees each traced call's result and span; *id_of*
        maps the call's arguments to the id of the span it opens.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            span_id = id_of(*args) if id_of is not None else None
            result, span = tracer._run(name, original, args, kwargs,
                                       span_id)
            if on_result is not None:
                on_result(result, span)
            return result

        self._patch(owner, attr, original, traced)

    def count_calls(self, owner: Any, attr: str, counter: str,
                    within: str) -> None:
        """Count calls of ``owner.attr`` made while *within* is open."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.enabled and tracer.inside(within):
                tracer.counts[counter] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner: Any, attr: str, original: Any,
               replacement: Any) -> None:
        # a class attribute is restored from the class __dict__ so an
        # inherited method is deleted again rather than pinned
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, original if had_own else None))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis

    def adopt(self, records: Iterable[list], parent: Optional[Span]) -> None:
        """Graft spans exported by another process under *parent*."""
        made: List[Span] = []
        for name, start, end, parent_index, _ in records:
            up = made[parent_index] if parent_index >= 0 else parent
            span = Span(name, start, up, None)
            span.end = end
            made.append(span)
            self.spans.append(span)

    def export(self) -> List[list]:
        """Spans as ``[name, start, end, parent index, id]``, parents first.

        The id is the root span's: the allocation or request it belongs to.
        """
        ordered = sorted(self.spans, key=lambda s: (s.start, -s.end))
        index = {id(span): position for position, span in enumerate(ordered)}
        return [[s.name, s.start, s.end, index.get(id(s.parent), -1),
                 s.root.id] for s in ordered]

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        covered: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            own = span.end - span.start - covered.get(id(span), 0)
            totals[span.name] += own / 1e9
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.export():
                handle.write(json.dumps(dict(zip(
                    ("name", "start_ns", "end_ns", "parent", "id"),
                    record))) + "\n")
