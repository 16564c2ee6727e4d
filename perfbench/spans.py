"""In-memory span tracer that wraps module attributes of the program under test.

A wrapped attribute is replaced, for the lifetime of an ``installed()`` block,
by a function that records one span per call: its name, start, end and the
span that was open when it began.  Callers that look the attribute up at call
time (``module.func(...)`` or a module-global name) go through the wrapper;
the wrapped function's arguments, result and exceptions pass through
untouched, so no RNG stream and no output changes.

An attribute that does not exist (a later refactor deleted or renamed it) is
recorded in ``absent`` and skipped: its layer then reads as zero time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []

    def add(self, module: str, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Register `module.attr` (attr may be dotted, e.g. 'Class.method') to
        be recorded as span `name`.  `on_result(counts, args, kwargs, result)`
        and `on_error(counts, exc)` update counters at the same boundary."""
        self._targets.append((module, attr, name, on_result, on_error))

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, on_result, on_error):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every registered attribute that exists; restore all on exit."""
        targets = []
        for module, attr, name, on_result, on_error in self._targets:
            found = _resolve(module, attr)
            if found is None:
                if f"{module}.{attr}" not in self.absent:
                    self.absent.append(f"{module}.{attr}")
                continue
            owner, leaf, original = found
            targets.append((owner, leaf, self._wrap(original, name, on_result, on_error)))
        with _patched(targets):
            yield self

    def totals(self) -> tuple[Counter, Counter, dict]:
        """Per span name: inclusive seconds, self seconds (inclusive minus the
        direct children's inclusive time), and every span's duration."""
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        durations: dict[str, list[float]] = {}
        for name, start, end, parent in self.spans:
            d = end - start
            inclusive[name] += d
            self_time[name] += d
            durations.setdefault(name, []).append(d)
            if parent >= 0:
                self_time[self.spans[parent][0]] -= d
        return inclusive, self_time, durations


def _resolve(module: str, attr: str):
    """(owner, leaf name, current value) of `module.attr`, or None if absent."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf, getattr(owner, leaf)
    except AttributeError:
        return None


@contextmanager
def _patched(targets):
    undo = []
    try:
        for owner, leaf, replacement in targets:
            undo.append((owner, leaf, getattr(owner, leaf)))
            setattr(owner, leaf, replacement)
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


@contextmanager
def recording(targets):
    """Pass the result of every call of each `(module, attr, callback)` target
    to `callback`.  Raises LookupError if a target is absent."""
    wrapped = []
    for module, attr, callback in targets:
        found = _resolve(module, attr)
        if found is None:
            raise LookupError(f"{module}.{attr} is absent")
        owner, leaf, original = found

        def recorded(*args, _fn=original, _cb=callback, **kwargs):
            result = _fn(*args, **kwargs)
            _cb(result)
            return result
        wrapped.append((owner, leaf, functools.wraps(original)(recorded)))
    with _patched(wrapped):
        yield
