"""In-memory spans recorded around calls into dctsteg's modules.

The program is not edited: during a traced round trip the module attributes
its callers look up (``blockdct.forward_dct``, ``engine.verify_adjust_block``,
...) are swapped for wrappers that record a span, and swapped back after.
Counts are recorded on the span at the same boundary.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call: name, start and end (perf_counter ns), parent span, op id."""

    name: str
    start: int
    end: int
    parent: int  # index into the tracer's spans, -1 for an op's root span
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of the calls made while its hooks are installed."""

    def __init__(self, first_op=0):
        self.spans = []
        self.ops = {}  # op id -> label
        self.next_op = first_op
        self._stack = []

    @contextmanager
    def _span(self, name):
        span = Span(name, time.perf_counter_ns(), 0,
                    self._stack[-1] if self._stack else -1, self.next_op - 1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, fn, args, kwargs, count=None):
        """Run fn(*args, **kwargs) inside a span; count(args, result) -> counts."""
        with self._span(name) as span:
            result = fn(*args, **kwargs)
        if count is not None:
            span.counts = count(args, result)
        return result

    @contextmanager
    def op(self, name, label):
        """Root span of one op; spans recorded inside it carry its op id."""
        self.ops[self.next_op] = label
        self.next_op += 1
        with self._span(name):
            yield


def _wrapper(tracer, name, fn, count):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return traced


@contextmanager
def installed(tracer, hooks):
    """Swap each hook's (owner, attribute) for a span-recording wrapper.

    hooks: iterable of (owner, attribute, span name, count function or None).
    Class and static methods are rewrapped as such. Every original is put
    back on exit, whatever happens inside.
    """
    saved = []
    try:
        for owner, attr, name, count in hooks:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrapper(tracer, name, original.__func__, count))
            else:
                wrapped = _wrapper(tracer, name, original, count)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for span, kids in zip(spans, children):
        covered = 0
        reach = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def ancestor(spans, index, name):
    """Index of the nearest enclosing span called name, or -1."""
    parent = spans[index].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent
