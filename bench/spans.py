"""Outside-in tracing of rulehier: spans and counters around layer calls.

The benchmark records spans from its own files only. An ``Installation``
replaces each probed function at the name its caller looks it up (a
module global or a class attribute) with a wrapper that opens a span,
calls the original and closes the span; ``uninstall`` puts the originals
back. A probed name that does not exist at the commit under test is
recorded as missing and skipped, so a later commit that inlines or
deletes it still runs.

Spans live in flat arrays (name id, parent id, start, end) so that
hundreds of thousands of them stay small. A span's self time is its
duration minus the durations of its direct children; the self times of a
tree add up to its root's duration.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder plus named integer counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.broken: set[str] = set()   # spans whose counter hook failed
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def reset(self) -> None:
        """Drop recorded spans and counters; interned names are kept."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()
        self._stack = [-1]

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name over every recorded span."""
        n = len(self.start)
        covered = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        out: dict[str, float] = defaultdict(float)
        for sid in range(n):
            dur = self.end[sid] - self.start[sid]
            out[self.names[self.name_id[sid]]] += dur - covered[sid]
        return dict(out)

    def durations(self) -> dict[str, float]:
        """Total (inclusive) duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for sid in range(len(self.start)):
            out[self.names[self.name_id[sid]]] += \
                self.end[sid] - self.start[sid]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.name_id)

    def write(self, path) -> None:
        """Spans as gzipped CSV: id,name,parent,start,end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,parent,start,end\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid},{self.names[self.name_id[sid]]},"
                         f"{self.parent[sid]},{self.start[sid]!r},"
                         f"{self.end[sid]!r}\n")


@dataclass(frozen=True)
class Probe:
    """One wrap point: ``owner.attr`` is timed as span ``span``.

    ``owner`` is a dotted module path, or ``module:Class`` for a class
    attribute. ``after(tracer, args, kwargs, result)`` updates counters
    once the call returns; ``generator`` marks a function returning a
    generator, which is counted (calls, items yielded) but not timed,
    because its work interleaves with its consumer's. ``before`` may
    rewrite the arguments; ``true_counter`` counts truthy results without
    the cost of a bookkeeping span, for predicates called very often.
    """

    owner: str
    attr: str
    span: str
    after: Callable | None = None
    generator: bool = False
    call_counter: str | None = None
    item_counter: str | None = None
    before: Callable | None = None
    true_counter: str | None = None


def _resolve(owner: str):
    import importlib
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _timed(tracer: Tracer, probe: Probe, fn):
    nid = tracer.intern(probe.span)
    book = tracer.intern(BOOKKEEPING)
    after, before = probe.after, probe.before
    counters, true_counter = tracer.counters, probe.true_counter

    def wrapper(*args, **kwargs):
        if before is not None:
            try:
                args, kwargs = before(tracer, args, kwargs)
            except Exception:  # as for ``after``: count nothing, run on
                tracer.broken.add(probe.span)
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if true_counter is not None and result:
            counters[true_counter] += 1
        if after is not None:
            bid = tracer.open(book)
            try:
                after(tracer, args, kwargs, result)
            except Exception:  # a changed signature must not fail the command
                tracer.broken.add(probe.span)
            finally:
                tracer.close(bid)
        return result
    return wrapper


def _counted(tracer: Tracer, probe: Probe, fn):
    counters = tracer.counters
    calls, items = probe.call_counter, probe.item_counter

    def count(gen):
        n = 0
        try:
            for item in gen:
                n += 1
                yield item
        finally:
            counters[items] += n

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counters[calls] += 1
        if not isinstance(result, GeneratorType):
            # no longer a generator: hand the result back untouched
            tracer.broken.add(probe.span)
            return result
        return count(result)
    return wrapper


class Installation:
    """The probes installed on one tracer.

    ``missing`` holds the span names of probes whose function does not
    exist; ``missing_names`` the qualified names, for the report.
    """

    def __init__(self, tracer: Tracer, probes: list[Probe]):
        self.tracer = tracer
        self.missing: set[str] = set()
        self.missing_names: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        for probe in probes:
            try:
                owner = _resolve(probe.owner)
                raw = vars(owner).get(probe.attr) if isinstance(owner, type) \
                    else getattr(owner, probe.attr)
            except (ImportError, AttributeError):
                raw = None
            if raw is None:
                self.missing.add(probe.span)
                self.missing_names.append(f"{probe.owner}.{probe.attr}")
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = (_counted if probe.generator else _timed)(
                tracer, probe, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._restore.append((owner, probe.attr, raw))
            setattr(owner, probe.attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
