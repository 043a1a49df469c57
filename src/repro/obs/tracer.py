"""Job tracing: nestable spans with typed counters.

The paper's evaluation (Figures 4-5) is built from per-stage numbers —
wall time of every job stage, how many bytes each shuffle moved and how
(zero-copy pages vs. structured rows), and how hard each worker's buffer
pool worked.  The runtime components keep global counters for those
quantities; this module adds *attribution*: a :class:`Tracer` maintains a
stack of open :class:`Span`\\ s (``job -> stage -> worker task``) and any
component can report a counter into whatever span is currently active.

The tracer is deliberately simple: the simulated cluster runs in one
thread, so the active span is a plain stack.  Components hold a tracer
reference and call :meth:`Tracer.add`; with no open span the call is a
no-op, so standalone use of (say) a :class:`~repro.storage.BufferPool`
outside a job costs one dictionary miss per event.

A finished top-level span becomes a :class:`Trace` (``tracer.last_trace``,
surfaced as ``PCCluster.last_trace``) that serializes with
:meth:`Trace.to_json` — the format documented in README.md's
Observability section.  The last few completed
traces stay reachable through a small ring (``Tracer.recent_traces``,
surfaced as ``PCCluster.traces``), so back-to-back jobs do not clobber
each other's evidence.

The trace layer is *distributed* (DESIGN §14): spans carry a ``pid``
and ``time.monotonic()`` timestamps, a back-end process ships its
``task`` span home with the task's evidence, and the coordinator grafts
it into the job tree.  A span cut short by a worker death is marked
``truncated`` — it is evidence, not an error.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from contextlib import contextmanager

#: process-local span identity; unique per (pid, span_id) pair.
_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)

#: completed traces kept reachable per tracer (PCCluster.traces(n)).
TRACE_RING_SIZE = 16


class Span:
    """One timed node of a trace tree.

    ``kind`` classifies the span (``job``, ``phase``, ``stage``,
    ``task``, ``op`` for remote operators); ``name`` identifies it
    within its kind (a stage kind, a worker id); ``detail`` is free-form
    human text.  ``counters`` holds only what was reported *directly*
    into this span; :meth:`totals` rolls descendants up.

    Timestamps are ``time.monotonic()``, the one clock a back-end
    process shares with the coordinator.  ``pid`` is set on spans
    recorded in (or synthesized for) a back-end process; ``truncated``
    marks a span closed by a crash or kill rather than completion;
    ``events`` carries flight-recorder dumps attached to this span
    (each a dict with at least ``ts`` and ``kind``).
    """

    __slots__ = ("name", "kind", "detail", "start", "end", "counters",
                 "children", "span_id", "parent_id", "pid", "truncated",
                 "events", "_duration")

    def __init__(self, name, kind="span", detail=None):
        self.name = name
        self.kind = kind
        self.detail = detail
        self.start = time.monotonic()
        self.end = None
        self.counters = {}
        self.children = []
        self.span_id = next(_span_ids)
        self.parent_id = None
        self.pid = None
        self.truncated = False
        self.events = []
        # Deserialized spans pin their duration so round-tripping is a
        # fixed point: start + duration - start loses the last float bit,
        # and to_json is asserted bit-identical across a round trip.
        self._duration = None

    @property
    def duration_s(self):
        """Wall-clock seconds; live spans report time-so-far."""
        if self._duration is not None:
            return self._duration
        end = self.end if self.end is not None else time.monotonic()
        return end - self.start

    def inc(self, counter, value=1):
        """Add ``value`` to a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def totals(self):
        """This span's counters merged with all descendants' counters."""
        merged = dict(self.counters)
        for child in self.children:
            for name, value in child.totals().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def shift(self, delta_s):
        """Shift this subtree's timestamps (and event times) by a delta:
        a remote span batch arrives relative to its ``span_base``."""
        for span in self.walk():
            span.start += delta_s
            if span.end is not None:
                span.end += delta_s
            for event in span.events:
                event["ts"] = event.get("ts", 0.0) + delta_s
        return self

    def to_dict(self, t0=None):
        """JSON-ready representation (recursive).

        Timestamps serialize *relative to the root's start* (``start_s``
        offsets), so a trace is position-independent: two processes'
        monotonic bases never leak into the JSON, and a deserialized
        trace is anchored at 0.  Optional facts (``pid``, ``truncated``,
        ``parent_id``, ``events``) appear only when set, keeping the
        format stable for traces that never crossed a process boundary.
        """
        if t0 is None:
            t0 = self.start
        payload = {
            "name": self.name,
            "kind": self.kind,
            "detail": self.detail,
            "span_id": self.span_id,
            "start_s": round(self.start - t0, 9),
            "duration_s": round(self.duration_s, 9),
            "counters": dict(self.counters),
            "totals": self.totals(),
            "children": [child.to_dict(t0) for child in self.children],
        }
        if self.pid is not None:
            payload["pid"] = self.pid
        if self.truncated:
            payload["truncated"] = True
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.events:
            payload["events"] = [
                dict(event, ts=round(event.get("ts", 0.0) - t0, 9))
                for event in self.events
            ]
        return payload

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a span (and its subtree) from :meth:`to_dict` output.

        The reconstructed tree is anchored at the root's ``start = 0``
        with every descendant at its serialized relative offset; derived
        quantities (``totals``) recompute identically, so a trace
        round-trips through JSON bit-for-bit.
        """
        span = cls(payload["name"], kind=payload.get("kind", "span"),
                   detail=payload.get("detail"))
        span.start = payload.get("start_s", 0.0)
        span._duration = payload.get("duration_s", 0.0)
        span.end = span.start + span._duration
        span.counters = dict(payload.get("counters", {}))
        if "span_id" in payload:
            span.span_id = payload["span_id"]
        span.pid = payload.get("pid")
        span.truncated = bool(payload.get("truncated", False))
        span.parent_id = payload.get("parent_id")
        span.events = [dict(event) for event in payload.get("events", [])]
        span.children = [
            cls.from_dict(child) for child in payload.get("children", [])
        ]
        return span

    def __repr__(self):
        return "<Span %s:%s %.3fms>" % (
            self.kind, self.name, self.duration_s * 1e3
        )


class Trace:
    """A completed top-level span, ready for export and queries."""

    def __init__(self, root):
        self.root = root

    def spans(self, kind=None):
        """All spans (optionally of one kind), depth-first."""
        return [
            span for span in self.root.walk()
            if kind is None or span.kind == kind
        ]

    def totals(self):
        """Every counter in the trace, rolled up to one dict."""
        return self.root.totals()

    def to_dict(self):
        return self.root.to_dict()

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a trace from :meth:`to_dict` output."""
        return cls(Span.from_dict(payload))

    @classmethod
    def from_json(cls, text):
        """Parse a trace serialized with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


class _NullSpan:
    """The span handed out by a disabled tracer: accepts, records nothing."""

    __slots__ = ()
    name = kind = detail = None
    start = 0.0
    end = 0.0
    duration_s = 0.0
    counters = {}
    children = ()
    events = ()
    span_id = parent_id = pid = None
    truncated = False

    def inc(self, counter, value=1):
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Stack of open spans; the innermost one receives counters.

    ``enabled=False`` turns the tracer into a sink: :meth:`span` yields
    a shared null span, :meth:`add` no-ops (the stack stays empty), and
    no trace is ever built — the zero-overhead baseline that ``python3
    -m bench``'s ``obs.trace_overhead`` is measured against.
    """

    def __init__(self, enabled=True):
        self._stack = []
        self.enabled = enabled
        #: the :class:`Trace` of the most recently closed top-level span.
        self.last_trace = None
        #: ring of the last few completed traces, oldest first.
        self.trace_ring = deque(maxlen=TRACE_RING_SIZE)
        #: identifies the current (or most recent) top-level span's
        #: trace; propagated to back-end processes inside task specs.
        self.trace_id = None

    @property
    def active(self):
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name, kind="span", detail=None):
        """Open a child span of the current one for the with-block."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = Span(name, kind=kind, detail=detail)
        if self._stack:
            parent = self._stack[-1]
            parent.children.append(span)
            span.parent_id = parent.span_id
        else:
            self.trace_id = "t%d-%d" % (os.getpid(), next(_trace_ids))
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.monotonic()
            self._stack.pop()
            if not self._stack:
                self.last_trace = Trace(span)
                self.trace_ring.append(self.last_trace)

    def recent_traces(self, n=1):
        """The last ``n`` completed traces, most recent first."""
        ring = self.trace_ring
        if n <= 0:
            return []
        return [ring[-i] for i in range(1, min(n, len(ring)) + 1)]

    def add(self, counter, value=1):
        """Report into the active span; no-op when no span is open."""
        if self._stack:
            stack_top = self._stack[-1]
            stack_top.counters[counter] = (
                stack_top.counters.get(counter, 0) + value
            )

    def event(self, name, kind="event", detail=None, counters=None):
        """Record an instantaneous child span carrying ``counters``.

        Used for point-in-time facts that deserve their own node in the
        trace tree — a worker blacklisted, a partition redistributed —
        rather than a bare counter on whatever span happens to be open.
        Returns the recorded span.
        """
        with self.span(name, kind=kind, detail=detail) as span:
            for counter, value in (counters or {}).items():
                span.inc(counter, value)
        return span
