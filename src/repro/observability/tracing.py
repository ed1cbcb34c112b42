"""Hierarchical tracing spans with an injected clock.

A span is a plain dict (so it pickles through pool workers and JSON-
serialises into the campaign journal unchanged)::

    {"name": "trial", "t0": 3.0, "t1": 7.0, "clock": "ticks",
     "attrs": {"digest": "a1b2c3", "charged": 0.12},
     "children": [...]}

The :class:`Tracer` is per-thread and *explicitly clocked*: the
default clock is a deterministic tick counter (monotone +1 per read),
which keeps GRN004 satisfied — this module never touches the wall clock
— and makes span trees bit-reproducible for a fixed execution.  Callers
that want real durations (``repro grid --profile``) inject a sanctioned
wall-clock source such as :func:`repro.runtime.progress.worker_now`;
the span's ``clock`` field records which domain its timestamps live in,
and well-formedness validation only compares timestamps within one
domain (a worker's tick-clocked tree nests under the executor's
wall-clocked ``execute`` span).

Tracing is disabled by default: :func:`trace_span` is a no-op until a
tracer is installed, so the hot path pays one thread-local read per
instrumentation point when observability is off.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable

#: span clock domains
CLOCK_TICKS = "ticks"
CLOCK_WALL = "wall"
#: the serving layer's simulated-seconds domain: request span trees are
#: stamped with load-simulation timestamps, so they only compare against
#: each other — never against tick- or wall-clocked campaign spans
CLOCK_SIM = "sim"


def make_span(name: str, t0: float, clock: str, attrs: dict) -> dict:
    return {
        "name": str(name),
        "t0": float(t0),
        "t1": float(t0),
        "clock": clock,
        "attrs": dict(attrs),
        "children": [],
    }


class Tracer:
    """Span collector for one thread.

    ``clock`` is any zero-argument callable returning a monotone float;
    ``None`` selects the deterministic tick counter.  Completed root
    spans accumulate on :attr:`roots` until :meth:`drain` hands them
    off (closing any spans left dangling by an exception path, so every
    drained tree is well-formed by construction).
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._ticks = 0.0
        if clock is None:
            self.clock_name = CLOCK_TICKS
            self._clock: Callable[[], float] = self._next_tick
        else:
            self.clock_name = CLOCK_WALL
            self._clock = clock
        self.roots: list[dict] = []
        self._stack: list[dict] = []

    def _next_tick(self) -> float:
        self._ticks += 1.0
        return self._ticks

    # -- span lifecycle --------------------------------------------------------
    @property
    def current(self) -> dict | None:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def open(self, name: str, **attrs) -> dict:
        span = make_span(name, self._clock(), self.clock_name, attrs)
        if self._stack:
            self._stack[-1]["children"].append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span['name']!r} is not the innermost open span"
            )
        span["t1"] = float(self._clock())
        self._stack.pop()
        if not self._stack:
            self.roots.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            # an exception can leave manually-opened children dangling;
            # close them (innermost first) so the tree stays well-formed
            while self._stack and self._stack[-1] is not span:
                self.close(self._stack[-1])
            self.close(span)

    def drain(self) -> list[dict]:
        """Close dangling spans, return the finished roots, and reset."""
        while self._stack:
            self.close(self._stack[-1])
        roots, self.roots = self.roots, []
        return roots


class _TracerSlot(threading.local):
    #: the calling thread's tracer; None = tracing disabled (all hooks
    #: no-op).  A class default, so a fresh thread reads None.
    tracer: Tracer | None = None


#: the per-thread tracer slot: each pool worker installs its own tracer
#: and ships drained spans back through the outcome dict, and each shard
#: thread of an in-thread sharded campaign traces its own cells without
#: seeing another thread's spans
_SLOT = _TracerSlot()  # repro-lint: disable=GRN102  # per-thread tracer slot


def install_tracer(tracer: Tracer) -> Tracer:
    _SLOT.tracer = tracer
    return tracer


def uninstall_tracer() -> None:
    _SLOT.tracer = None


def get_tracer() -> Tracer | None:
    return _SLOT.tracer


@contextmanager
def trace_span(name: str, **attrs):
    """Open a span on the calling thread's tracer; yields the span dict
    (or None when tracing is off, the fast path every hot loop takes)."""
    tracer = _SLOT.tracer
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span:
        yield span


def current_span() -> dict | None:
    """The innermost open span of the calling thread's tracer, if any."""
    tracer = _SLOT.tracer
    return tracer.current if tracer is not None else None


# -- validation ----------------------------------------------------------------
def validate_span_tree(span: dict, parent: dict | None = None) -> list[str]:
    """Well-formedness problems of one span tree (empty list = valid).

    Checks: every span carries the schema fields, runs forward in time
    (``t1 >= t0``), nests inside its parent's interval, and siblings
    start in monotone order — all compared only *within* one clock
    domain, because a tick-clocked worker tree legitimately nests under
    a wall-clocked scheduling span.
    """
    problems = []
    label = span.get("name", "?")
    for field in ("name", "t0", "t1", "clock", "attrs", "children"):
        if field not in span:
            problems.append(f"{label}: missing field {field!r}")
    if problems:
        return problems
    if not span["name"]:
        problems.append("span with empty name")
    if span["t1"] < span["t0"]:
        problems.append(f"{label}: t1 < t0 ({span['t1']} < {span['t0']})")
    if parent is not None and parent["clock"] == span["clock"]:
        if span["t0"] < parent["t0"] or span["t1"] > parent["t1"]:
            problems.append(
                f"{label}: escapes parent {parent['name']!r} interval"
            )
    prev = None
    for child in span["children"]:
        problems.extend(validate_span_tree(child, span))
        if (prev is not None and prev["clock"] == child.get("clock")
                and child.get("t0", 0.0) < prev["t0"]):
            problems.append(
                f"{label}: children {prev['name']!r} -> "
                f"{child.get('name')!r} start out of order"
            )
        prev = child if "t0" in child else prev
    return problems
