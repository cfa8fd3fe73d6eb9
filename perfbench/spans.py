"""In-memory span tracer that times calls into a program from outside it.

A probe swaps a module or class attribute for a wrapper that opens a span,
calls the original and closes the span, so the program's own code is not
touched: callers that look the attribute up at call time get the wrapper.
Each thread keeps its own stack of open spans, so a span opened on a worker
thread never becomes the child of a span that happens to be open on another
thread. Work handed to a thread pool keeps its causal parent through
``traced_executor``, which links each job to the span open in the thread
that submitted it.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of its interval that its children cover; children on other
threads may overlap each other, so the covered part is the length of the
union of their intervals, not the sum of their durations.
"""

from __future__ import annotations

import contextlib
import csv
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

JOB_SPAN = "pool.job"


class Span:
    """One timed call: name, interval, causal parent and thread."""

    __slots__ = ("name", "parent", "thread", "start", "end", "failed")

    def __init__(self, name, parent=None, thread=0, start=0.0, end=0.0, failed=False):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.failed = failed

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters from any number of threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost span open on the calling thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent=None) -> Span:
        """Start a span; its parent is ``parent`` or the thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent, threading.get_ident())
        stack.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = self.clock()
        span.failed = failed
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name: str, fn, args=(), kwargs=None, parent=None):
        """Run ``fn`` inside a span; a raised exception marks the span failed."""
        span = self.open(name, parent)
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            self.close(span, failed=True)
            raise
        self.close(span)
        return result

    def write_csv(self, path) -> None:
        """Write every closed span, parents by row index, once at the end."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "parent", "thread", "start_s",
                             "end_s", "self_s", "failed"])
            selfs = self_times(self.spans)
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent), "")
                writer.writerow([i, s.name, parent, s.thread, repr(s.start),
                                 repr(s.end), repr(selfs[id(s)]), int(s.failed)])


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Self time of every span, keyed by ``id(span)``.

    Duration minus the length of the union of the children's intervals,
    each clipped to the parent's interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), ()))
        out[id(s)] = s.duration - covered
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def summarize(spans) -> dict:
    """Per span name: call count, failed calls, summed self and total time."""
    selfs = self_times(spans)
    out = defaultdict(LayerTotals)
    for s in spans:
        row = out[s.name]
        row.calls += 1
        row.failed += int(s.failed)
        row.self_s += selfs[id(s)]
        row.total_s += s.duration
    return dict(out)


# -- probes ------------------------------------------------------------------


@dataclass
class Probe:
    """Replace ``owner.attr`` with a traced wrapper.

    ``name`` is a span name or a function of the call's positional
    arguments that returns one. ``observe(tracer, args, result)`` runs
    after the span closes and may add counters.
    """

    owner: object
    attr: str
    name: object
    observe: object = None


def _traced(tracer: Tracer, fn, name, observe):
    namer = name if callable(name) else None

    def traced(*args, **kwargs):
        result = tracer.call(namer(args) if namer else name, fn, args, kwargs)
        if observe is not None:
            observe(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def traced_executor(tracer: Tracer):
    """A ThreadPoolExecutor whose jobs are spans parented to the submitter.

    ``map`` goes through ``submit``, so both are covered. Each executor
    adds its worker count to ``pool.worker_slots`` and one to
    ``pool.executors``.
    """

    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.add("pool.executors")
            tracer.add("pool.worker_slots", self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            return super().submit(tracer.call, JOB_SPAN, fn, args, kwargs, parent)

    return TracedThreadPoolExecutor


@contextlib.contextmanager
def installed(tracer: Tracer, probes, replacements=()):
    """Install probes (and plain ``(owner, attr, value)`` replacements) for
    the duration of the block, restoring every original afterwards."""
    saved = []
    try:
        for probe in probes:
            original = getattr(probe.owner, probe.attr)
            saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr,
                    _traced(tracer, original, probe.name, probe.observe))
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
