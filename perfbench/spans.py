"""In-memory spans recorded around calls into etsbell, from outside the package.

Functions are wrapped where they are *called*: ``from .x import f`` binds a
name in the calling module, so replacing ``etsbell.x.f`` would miss those
calls.  Each span records its name, start, end, thread and parent span.
Worker threads of etsbell's pools start with an empty stack; their first span
is parented to the innermost open span of the thread that drives the workload,
which is the thread that submitted the work in every pool the package has.
"""

from __future__ import annotations

import threading
import time


class Span:
    __slots__ = ("sid", "name", "start", "end", "tid", "parent", "error", "attrs")

    def __init__(self, sid, name, start, tid, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.parent = parent
        self.error = None
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; wrappers it installs are removed by ``close``."""

    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._driver_stack: list[Span] = []
        self._driver_tid = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._driver_tid:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[Span]) -> Span:
        if stack:
            parent = stack[-1].sid
        elif self._driver_stack:
            parent = self._driver_stack[-1].sid
        else:
            parent = None
        with self._lock:
            span = Span(len(self._spans), name, 0.0, threading.get_ident(), parent)
            self._spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, result)`` annotates it."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = self._open(name, stack)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` by a traced wrapper, or note it as missing."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, attrs=attrs, **kwargs)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def drain(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def close(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.duration - covered
