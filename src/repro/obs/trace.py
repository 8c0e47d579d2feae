"""Hierarchical spans: where did the wall time go?

A :func:`span` context manager opens a named node in a trace tree,
records wall time, and nests under the innermost enclosing span.  When no
trace is being collected (the default), :func:`span` yields a shared
no-op object and records nothing — the disabled cost is one context-var
read per ``with`` block, and spans are only placed around coarse units
(reduction steps, searches, CLI commands), never inner loops.

Attributes attach structured data to a span: sizes of constructed
gadgets, search verdicts, budgets.  Set them at open time
(``span("reduce.zeta", c=3)``) or on the yielded span object
(``sp.set(atoms=17)``) once the values are known.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["FlightRecorder", "Span", "Trace", "span", "active_trace"]


class Span:
    """One node of a trace tree."""

    __slots__ = ("name", "attrs", "start", "duration", "children")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs: dict = dict(attrs or {})
        self.start: float | None = None
        self.duration: float | None = None
        self.children: list[Span] = []

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    @property
    def duration_ms(self) -> float | None:
        return None if self.duration is None else self.duration * 1000.0

    def snapshot(self) -> dict:
        """A stable plain-data view of this span and its subtree."""
        return {
            "name": self.name,
            "duration_ms": self.duration_ms,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
            "children": [child.snapshot() for child in self.children],
        }

    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant named ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, children={len(self.children)})"


class _NoopSpan:
    """Stand-in yielded when tracing is disabled; absorbs all writes."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


class Trace:
    """A forest of root spans collected within one ``observe()`` scope."""

    def __init__(self) -> None:
        self.roots: list[Span] = []

    def find(self, name: str) -> Span | None:
        for root in self.roots:
            if root.name == name:
                return root
            found = root.find(name)
            if found is not None:
                return found
        return None

    def snapshot(self) -> list[dict]:
        return [root.snapshot() for root in self.roots]


class FlightRecorder:
    """A bounded ring buffer of the most recent completed request traces.

    The serving layer records one plain-data entry per finished request
    (``{"trace_id", "request_id", "endpoint", "status", "spans": ...}``)
    and exposes the buffer at ``GET /traces``.  Bounded so a busy server
    never grows memory with traffic: once ``capacity`` entries are held,
    each record evicts the oldest.  Thread-safe.

    An entry is held as its compact JSON text (``str`` fallback for
    values JSON cannot write), one string in place of a tree of dicts,
    lists and floats per span, and decoded by :meth:`snapshot`.  An
    entry recorded with ``final=False`` is held as the dict itself: its
    span list still grows (a leader answered before its worker's spans
    arrived), so its text is not yet known.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: deque[str | dict] = deque(maxlen=capacity)
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, entry: dict, final: bool = True) -> None:
        if final:
            entry = json.dumps(entry, separators=(",", ":"), default=str)
        with self._lock:
            self._recorded += 1
            self._entries.append(entry)

    @property
    def recorded(self) -> int:
        """Entries ever recorded (evicted ones included)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Entries evicted to honor the capacity bound."""
        with self._lock:
            return self._recorded - len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> list[dict]:
        """Held entries, oldest first, each a fresh dict."""
        with self._lock:
            entries = list(self._entries)
        return [
            json.loads(entry) if isinstance(entry, str) else dict(entry)
            for entry in entries
        ]


_TRACE: ContextVar[Trace | None] = ContextVar("repro_obs_trace", default=None)
_CURRENT: ContextVar[Span | None] = ContextVar(
    "repro_obs_current_span", default=None
)


def active_trace() -> Trace | None:
    """The trace of the innermost enclosing ``observe()`` scope, if any."""
    return _TRACE.get()


@contextmanager
def span(name: str, **attrs) -> Iterator[Span | _NoopSpan]:
    """Open a named span under the current one; no-op when not tracing."""
    trace = _TRACE.get()
    if trace is None:
        yield _NOOP
        return
    node = Span(name, attrs)
    parent = _CURRENT.get()
    if parent is None:
        trace.roots.append(node)
    else:
        parent.children.append(node)
    token = _CURRENT.set(node)
    node.start = time.perf_counter()
    try:
        yield node
    finally:
        node.duration = time.perf_counter() - node.start
        _CURRENT.reset(token)


def _activate(trace: Trace):
    """Install ``trace`` for collection; returns the reset tokens."""
    return (_TRACE.set(trace), _CURRENT.set(None))


def _deactivate(tokens) -> None:
    trace_token, current_token = tokens
    _CURRENT.reset(current_token)
    _TRACE.reset(trace_token)
