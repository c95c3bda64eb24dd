"""In-memory span tracer whose wrappers patch the program from outside.

The benchmark attributes wall time to layers without touching ``src/``:
:meth:`Tracer.install` replaces named functions on classes and modules
with timing wrappers, and :meth:`Tracer.uninstall` puts the originals
back. Three wrapper kinds exist:

- ``span`` records one span per call: name, start, end, parent span and
  the time its hot-accessor children covered. Async functions get an
  async wrapper, so the span covers the awaited body, not just the
  coroutine's creation.
- ``accumulate`` adds count and time to a per-name accumulator and
  charges the time to the enclosing span as covered time. It is for
  accessors called so often that a span per call would cost more than
  the call.
- ``count`` only counts calls.

Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends.
A span's self time is its duration minus the time covered by its child
spans and accumulated children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter_ns

#: Marker for "the owner had no attribute of its own" (it was inherited).
_INHERITED = object()

#: Span record layout: [name, start_ns, end_ns, parent, covered_ns, failed].
NAME, START, END, PARENT, COVERED, FAILED = range(6)


class Tracer:
    """Spans, accumulators and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: name -> [calls, ns]
        self.accumulators: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        #: Open spans: indices into ``spans``.
        self._stack: list[int] = []
        #: (owner, attribute, original or _INHERITED) per installed patch.
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent, 0, False])
        self._stack.append(index)
        return index

    def exit(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span[END] = perf_counter_ns()
        span[FAILED] = failed
        self._stack.pop()

    def add(self, name: str, elapsed_ns: int) -> None:
        """Charge one accumulated call to ``name`` and the open span."""
        slot = self.accumulators.get(name)
        if slot is None:
            slot = self.accumulators[name] = [0, 0]
        slot[0] += 1
        slot[1] += elapsed_ns
        if self._stack:
            self.spans[self._stack[-1]][COVERED] += elapsed_ns

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                index = tracer.enter(name)
                failed = True
                try:
                    result = await fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    tracer.exit(index, failed)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer.exit(index, failed)
        return wrapper

    def _accumulate_wrapper(self, name: str, fn):
        add = self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, perf_counter_ns() - start)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall -----------------------------------------------
    def install(self, targets) -> None:
        """Patch every ``(owner, attribute, kind, name)`` target.

        ``kind`` is ``"span"``, ``"accumulate"``, ``"count"`` or a
        callable ``kind(tracer, name, fn) -> wrapper``. The wrapper calls
        whatever the owner resolves the attribute to now, so an
        inherited method is wrapped on the subclass without touching the
        base class.
        """
        builders = {"span": self._span_wrapper,
                    "accumulate": self._accumulate_wrapper,
                    "count": self._count_wrapper}
        for owner, attribute, kind, name in targets:
            own = vars(owner).get(attribute, _INHERITED)
            current = getattr(owner, attribute)
            self._patches.append((owner, attribute, own))
            if callable(kind):
                wrapper = kind(self, name, current)
            else:
                wrapper = builders[kind](name, current)
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attribute, own = self._patches.pop()
            if own is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    # -- read-out ----------------------------------------------------------
    def span_totals(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, inclusive and self ns."""
        totals: dict[str, dict] = {}
        selfs = self_times(self.spans)
        for span in self.spans:
            entry = totals.setdefault(span[NAME], {
                "calls": 0, "failed": 0, "ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["failed"] += int(span[FAILED])
            entry["ns"] += span[END] - span[START]
        for name, ns in selfs.items():
            totals[name]["self_ns"] = ns
        return totals

    def write(self, path: str) -> None:
        """Dump spans, accumulators and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "covered_ns", "failed"],
                       "spans": self.spans,
                       "accumulators": self.accumulators,
                       "counters": self.counters}, fh)


def self_times(spans: "list[list]") -> dict[str, int]:
    """Self time per span name, in ns.

    A span's self time is its duration minus the time covered by its
    direct child spans and by the accumulated calls charged to it.
    Children never overlap (calls nest on one thread), so covered time
    is a plain sum.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_ns[parent] += span[END] - span[START]
    totals: dict[str, int] = {}
    for index, span in enumerate(spans):
        own = span[END] - span[START] - child_ns[index] - span[COVERED]
        totals[span[NAME]] = totals.get(span[NAME], 0) + own
    return totals
