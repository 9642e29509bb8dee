"""Hierarchical span tracer: the core of the observability layer.

The tracer records *spans* -- named, nested intervals of wall-clock time --
into a process-local buffer.  Nesting follows the call structure through a
per-thread span stack, so a Table-3 run produces the hierarchy the
exporters render::

    run -> benchmark job -> flow pass -> DP/recovery round -> stage

Every span carries monotonic-quality timestamps (epoch-anchored start,
``perf_counter``-measured duration), the recording ``pid``/``tid``, free-form
key/value attributes (node counts, cache keys, retry attempts) and a list
of point-in-time *events* (retries, crashes, degradations).  Alongside the
spans the tracer keeps named counters.  A pipeline stage (``cuts``,
``match``, ``dp``, ...) is a span of category ``stage`` and nothing else:
the ``--profile`` report and the metrics' stage totals are both derived
from those spans (:func:`repro.obs.metrics.stage_report`).

:func:`enable_tracing` is the one switch.  It flips the module-level
``ENABLED`` flag that every hot call site reads; off is the default, and
the disabled path is a single module-attribute read (pinned by the
component micro-benchmark).

**Cross-process protocol.**  Worker processes never ship the global buffer
wholesale: the engine's pool initializer calls :func:`activate_worker` with
the parent's :func:`worker_config`, each job drains its locally buffered
spans/counters into a picklable *blob* (:func:`drain_worker_blob`) that
rides back inside the job payload, and the parent folds blobs into its own
buffer with :func:`merge_blob`.  Span ids are only unique per process;
merged spans stay distinguishable through their ``pid`` tag, which is also
how the Chrome exporter lays out one track per worker.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Fast-path switch: True while tracing is on.  Hot call sites
#: (``stage``/``span``/``count``/``event``/``annotate``) read this one
#: attribute and return immediately when it is False.
ENABLED = False

#: True in pool workers activated via :func:`activate_worker`: spans and
#: counters buffer locally and are shipped back per job instead of being
#: reported from this process.
_REMOTE = False

_RUN_ID: str | None = None

# Span storage (completed spans, in completion order) plus named counters.
_SPANS: list["SpanRecord"] = []
_COUNTERS: dict[str, float] = {}

# Worker-side drain cursor: index into _SPANS of the first span not yet
# shipped, so each job blob carries only its own spans.
_DRAINED_SPANS = 0
_DRAINED_COUNTERS: dict[str, float] = {}

_NEXT_SPAN_ID = 0
_LOCK = threading.Lock()

_STACK = threading.local()  # per-thread open-span stack


@dataclass
class SpanRecord:
    """One completed (or still open) span."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_us: int  # microseconds since the Unix epoch
    duration_us: int
    pid: int
    tid: int
    attributes: dict = field(default_factory=dict)
    events: list = field(default_factory=list)  # [(ts_us, name, attrs), ...]

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
            "events": [list(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            span_id=int(data["span_id"]),
            parent_id=data["parent_id"],
            name=str(data["name"]),
            category=str(data["category"]),
            start_us=int(data["start_us"]),
            duration_us=int(data["duration_us"]),
            pid=int(data["pid"]),
            tid=int(data["tid"]),
            attributes=dict(data.get("attributes", {})),
            events=[tuple(event) for event in data.get("events", ())],
        )


class SpanHandle:
    """Mutable view of an open span, yielded by :func:`span`.

    ``set`` records attributes discovered mid-span (node counts, acceptance
    decisions); ``add_event`` attaches a timestamped point event.  The
    disabled path yields a shared no-op handle instead, so call sites never
    branch on tracer state themselves.
    """

    __slots__ = ("_record",)

    def __init__(self, record: SpanRecord | None) -> None:
        self._record = record

    def set(self, key: str, value) -> None:
        if self._record is not None:
            self._record.attributes[key] = value

    def add_event(self, name: str, **attributes) -> None:
        if self._record is not None:
            self._record.events.append((time.time_ns() // 1000, name, attributes))


_NOOP_HANDLE = SpanHandle(None)


def _stack() -> list:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    return stack


def _reset_buffers() -> None:
    global _DRAINED_SPANS, _NEXT_SPAN_ID
    _SPANS.clear()
    _COUNTERS.clear()
    _DRAINED_COUNTERS.clear()
    _DRAINED_SPANS = 0
    _NEXT_SPAN_ID = 0
    _STACK.spans = []


# -- the switch --------------------------------------------------------------


def enable_tracing(run_id: str | None = None) -> str:
    """Turn on span recording; returns the run id tagged onto the exporters.

    Clears the previous recording unless tracing is already on.  ``run_id``
    defaults to ``$REPRO_RUN_ID`` or a fresh UUID hex string.
    """
    global ENABLED, _RUN_ID
    if not ENABLED:
        _reset_buffers()
    if run_id is None:
        run_id = os.environ.get("REPRO_RUN_ID") or uuid.uuid4().hex
    _RUN_ID = run_id
    ENABLED = True
    return run_id


def disable_tracing() -> None:
    global ENABLED
    ENABLED = False


def tracing_active() -> bool:
    return ENABLED


def run_id() -> str | None:
    """The current run id (None unless tracing was ever enabled)."""
    return _RUN_ID


# -- recording ---------------------------------------------------------------


def _open_span(name: str, category: str, attributes: dict) -> SpanRecord:
    global _NEXT_SPAN_ID
    stack = _stack()
    parent = stack[-1].span_id if stack else None
    with _LOCK:
        span_id = _NEXT_SPAN_ID
        _NEXT_SPAN_ID += 1
    record = SpanRecord(
        span_id=span_id,
        parent_id=parent,
        name=name,
        category=category,
        start_us=time.time_ns() // 1000,
        duration_us=0,
        pid=os.getpid(),
        tid=threading.get_ident() & 0x7FFFFFFF,
        attributes=attributes,
    )
    stack.append(record)
    return record


def _close_span(record: SpanRecord, started: int | None) -> None:
    """Finish ``record``; ``started=None`` keeps its zero duration."""
    if started is not None:
        record.duration_us = max(0, (time.perf_counter_ns() - started) // 1000)
    stack = _stack()
    if stack and stack[-1] is record:
        stack.pop()
    else:  # pragma: no cover - unbalanced exit (generator abandoned mid-span)
        try:
            stack.remove(record)
        except ValueError:
            pass
    with _LOCK:
        _SPANS.append(record)


@contextmanager
def span(name: str, category: str = "task", **attributes) -> Iterator[SpanHandle]:
    """Record a nested span around the enclosed work.

    Yields a :class:`SpanHandle` for mid-span attributes/events.  One
    attribute read and a no-op handle when tracing is disabled.
    """
    if not ENABLED:
        yield _NOOP_HANDLE
        return
    record = _open_span(name, category, attributes)
    started = time.perf_counter_ns()
    try:
        yield SpanHandle(record)
    finally:
        _close_span(record, started)


def stage(name: str) -> AbstractContextManager[SpanHandle]:
    """Time one pipeline stage: a :func:`span` of category ``stage``.

    Stage totals (``--profile``, the metrics' ``stage_totals_ms``) are sums
    over these spans; see :func:`repro.obs.metrics.stage_report`.
    """
    return span(name, "stage")


def count(name: str, value: float = 1) -> None:
    """Accumulate a named event counter (integers stay integral in JSON)."""
    if not ENABLED:
        return
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def annotate(**attributes) -> None:
    """Set attributes on the innermost open span of this thread (if any)."""
    if not ENABLED:
        return
    stack = _stack()
    if stack:
        stack[-1].attributes.update(attributes)


def event(name: str, **attributes) -> None:
    """Attach a point-in-time event to the innermost open span.

    With no span open the event is recorded as a zero-duration span so it
    is never silently dropped (crash/retry markers must survive even when
    they fire outside any instrumented region).
    """
    if not ENABLED:
        return
    stack = _stack()
    if stack:
        stack[-1].events.append((time.time_ns() // 1000, name, attributes))
        return
    record = _open_span(name, "event", dict(attributes))
    _close_span(record, None)


def add_span(
    name: str,
    category: str,
    duration_us: int = 0,
    start_us: int | None = None,
    **attributes,
) -> None:
    """Record a synthetic (already finished) span.

    Used by the parent to materialize work that had no traced execution:
    cache hits, in-process fallbacks of jobs whose retries were exhausted.
    """
    if not ENABLED:
        return
    record = _open_span(name, category, dict(attributes))
    if start_us is not None:
        record.start_us = start_us
    stack = _stack()
    if stack and stack[-1] is record:
        stack.pop()
    record.duration_us = max(0, int(duration_us))
    with _LOCK:
        _SPANS.append(record)


# -- snapshots ---------------------------------------------------------------


def spans() -> list[SpanRecord]:
    """The completed spans recorded (or merged) so far, in completion order."""
    with _LOCK:
        return list(_SPANS)


def counters() -> dict[str, float]:
    with _LOCK:
        return dict(_COUNTERS)


# -- cross-process protocol --------------------------------------------------


def worker_config() -> dict:
    """Picklable activation state shipped to pool workers via initargs."""
    return {"trace": ENABLED, "run_id": _RUN_ID}


def activate_worker(config: dict | None) -> None:
    """Adopt the parent's observability switches inside a pool worker.

    Clears any buffers inherited through ``fork`` (the parent's spans must
    be reported exactly once, by the parent) and flips the remote flag so
    this process buffers per job instead of exporting.
    """
    global ENABLED, _REMOTE, _RUN_ID
    _reset_buffers()
    ENABLED = _REMOTE = bool(config and config.get("trace"))
    if config:
        _RUN_ID = config.get("run_id")


def remote_active() -> bool:
    """True when this process buffers telemetry for per-job shipping."""
    return _REMOTE


def drain_worker_blob() -> dict | None:
    """Spans and counters recorded since the previous drain.

    Called at the end of each worker-side job; the blob travels back inside
    the job payload.  Returns ``None`` when there is nothing to ship (the
    disabled path).  Counters ship as deltas so a blob merge is a plain
    addition on the parent side.
    """
    global _DRAINED_SPANS
    if not ENABLED:
        return None
    with _LOCK:
        fresh = _SPANS[_DRAINED_SPANS:]
        _DRAINED_SPANS = len(_SPANS)
        counter_delta = {
            name: value - _DRAINED_COUNTERS.get(name, 0)
            for name, value in _COUNTERS.items()
            if value != _DRAINED_COUNTERS.get(name, 0)
        }
        _DRAINED_COUNTERS.update(_COUNTERS)
    return {
        "pid": os.getpid(),
        "spans": [record.as_dict() for record in fresh],
        "counters": counter_delta,
    }


def merge_blob(blob: dict | None) -> None:
    """Fold one worker blob into this process's buffers.

    Safe to call with ``None`` (disabled workers ship nothing).  Spans keep
    their worker-side ids and pid tags -- ids are only unique per process,
    and every consumer namespaces by ``(pid, span_id)``.
    """
    if not blob:
        return
    with _LOCK:
        for data in blob.get("spans", ()):
            _SPANS.append(SpanRecord.from_dict(data))
        for name, value in blob.get("counters", {}).items():
            _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def reset() -> None:
    """Full reset: tracing off, buffers cleared (test isolation)."""
    global ENABLED, _REMOTE, _RUN_ID
    ENABLED = _REMOTE = False
    _RUN_ID = None
    _reset_buffers()
