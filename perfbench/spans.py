"""In-memory spans around davlab's public functions, recorded from outside.

`Tracer.install` replaces each target function in every davlab module that
binds it, because modules call each other through names bound by
`from .solver import ...`: patching the defining module alone would miss
those calls.  Each call becomes a span (id, name, start, end, parent id);
generators are timed across their iteration, not their creation, which
returns at once.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span per call; on_result(counts, args, kwargs, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self.stack.pop()
                self.spans.append((sid, name, t0, t1, parent))
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """fn returning an iterator whose next() calls are spans; counts items as .reps."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return _TimedIterator(self, name, fn(*args, **kwargs))

        return traced

    def install(self, package: str, wrappers: dict) -> None:
        """Rebind every name in the package's modules that refers to a key of
        wrappers (original function -> wrapper) to its wrapper."""
        by_id = {id(fn): (fn, w) for fn, w in wrappers.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))  # by_id keeps each original alive, so ids are unique
                if hit is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: spans, inclusive seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _ in self.spans:
            agg = out.setdefault(name, {"spans": 0, "s": 0.0, "self_s": 0.0})
            agg["spans"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time.get(sid, 0.0)
        return out

    def children_of(self, parent_name: str) -> dict[str, float]:
        """Seconds spent in each kind of direct child of spans named parent_name."""
        ids = {sid for sid, name, *_ in self.spans if name == parent_name}
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            if parent in ids:
                out[name] += end - start
        return dict(out)

    def dump(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["id", "name", "start", "end", "parent"],
            "names": names,
            "spans": [[sid, index[n], t0, t1, par] for sid, n, t0, t1, par in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _TimedIterator:
    """Times each next(); consecutive next() calls with no span between them
    (as in list(gen)) extend one span instead of opening a new one."""

    __slots__ = ("_tracer", "_name", "_it", "_sid", "_mark")

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer, self._name, self._it = tracer, name, iter(it)
        self._sid = None
        self._mark = -1

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        reopen = (
            self._sid is not None
            and tr.next_id == self._mark
            and tr.spans
            and tr.spans[-1][0] == self._sid
        )
        if reopen:
            sid, _, start, _, parent = tr.spans.pop()
        else:
            sid = tr.next_id
            tr.next_id += 1
            parent = tr.stack[-1] if tr.stack else -1
            start = None
        tr.stack.append(sid)
        t0 = tr.clock()
        try:
            item = next(self._it)
        finally:
            t1 = tr.clock()
            tr.stack.pop()
            tr.spans.append((sid, self._name, t0 if start is None else start, t1, parent))
            self._sid = sid
            self._mark = tr.next_id
        tr.counts[self._name + ".reps"] += 1
        return item
