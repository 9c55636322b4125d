"""Span tracer installed around the expertmap layers from outside the program.

``Tracer.install`` replaces a function with a timing wrapper in every
``expertmap`` module namespace that binds the same object, so a call made
through any import of it is seen.  Each call records one span (trace id,
span id, parent span id, name, start, end) in compact in-memory arrays, and
the tracer keeps per-name totals of calls, duration and self time, which is
the duration minus the time covered by wrapped children.  Spans are written
out only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.trace_id = 0                  # set by the caller: one id per stage
        self.calls: Counter = Counter()
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.counters: Counter = Counter()
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one entry per span, indexed by span id; 48 bytes a span
        self._trace = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []       # [span id, start, child time]

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self._names)
            self._names.append(name)
        sid = len(self._start)
        self._trace.append(self.trace_id)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._name.append(idx)
        self._end.append(0.0)
        start = time.perf_counter()
        self._start.append(start)
        self._stack.append([sid, start, 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        sid, start, child = self._stack.pop()
        self._end[sid] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit(name)

    def wrap(self, name: str, fn, on_result=None):
        """Timing wrapper; records the class of an exception and re-raises it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name][type(exc).__name__] += 1
                raise
            finally:
                self._exit(name)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, owner, attr: str, name: str, on_result=None,
                everywhere: bool = True) -> None:
        """Wrap ``owner.attr``; with ``everywhere``, rebind every alias of it
        in the loaded ``expertmap`` modules too."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, on_result)
        if everywhere:
            owners = [mod for key, mod in list(sys.modules.items())
                      if key == "expertmap" or key.startswith("expertmap.")]
        else:
            owners = [owner]
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name], "errors": dict(self.errors[name])}
                for name in sorted(self.calls)}

    def write_spans(self, path) -> int:
        """Gzipped CSV of every span; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("trace_id,span_id,parent_id,name,start_s,end_s\n")
            for sid in range(len(self._start)):
                fh.write(f"{self._trace[sid]},{sid},{self._parent[sid]},"
                         f"{self._names[self._name[sid]]},"
                         f"{self._start[sid]:.9f},{self._end[sid]:.9f}\n")
        return len(self._start)
