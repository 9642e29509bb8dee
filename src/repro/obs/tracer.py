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
spans the tracer keeps named counters and the legacy per-stage second
accumulators, which is what lets :mod:`repro.profiling` stay a thin shim:
``profiling.stage``/``profiling.count`` delegate here, and the disabled
path remains a single module-attribute read (pinned by the component
micro-benchmark).

Two independent switches share the machinery:

* **profile mode** (:func:`enable_profile`) -- the historical ``--profile``
  accounting: per-stage seconds/entries plus counters.
* **trace mode** (:func:`enable_tracing`) -- full span recording for the
  Chrome-trace/metrics/JSONL exporters, tagged with a run id.

Either one flips the module-level ``ENABLED`` fast-path flag; both off is
the default and costs nothing on the hot paths.

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Fast-path switch: True when either profile or trace mode is on.  Hot
#: call sites (``stage``/``span``/``count``/``event``/``annotate``) read
#: this one attribute and return immediately when it is False.
ENABLED = False

_PROFILE = False
_TRACE = False

#: True in pool workers activated via :func:`activate_worker`: spans and
#: counters buffer locally and are shipped back per job instead of being
#: reported from this process.
_REMOTE = False

_RUN_ID: str | None = None

# Span storage (completed spans, in completion order) plus the legacy
# per-stage accumulators the profiling shim reports.
_SPANS: list["SpanRecord"] = []
_COUNTERS: dict[str, float] = {}
_STAGE_SECONDS: dict[str, float] = {}
_STAGE_ENTRIES: dict[str, int] = {}

# Worker-side drain cursor: index into _SPANS of the first span not yet
# shipped, so each job blob carries only its own spans.
_DRAINED_SPANS = 0
_DRAINED_COUNTERS: dict[str, float] = {}
_DRAINED_STAGE_SECONDS: dict[str, float] = {}
_DRAINED_STAGE_ENTRIES: dict[str, int] = {}

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


def _refresh_enabled() -> None:
    global ENABLED
    ENABLED = _PROFILE or _TRACE


def _reset_buffers() -> None:
    global _DRAINED_SPANS, _NEXT_SPAN_ID
    _SPANS.clear()
    _COUNTERS.clear()
    _STAGE_SECONDS.clear()
    _STAGE_ENTRIES.clear()
    _DRAINED_COUNTERS.clear()
    _DRAINED_STAGE_SECONDS.clear()
    _DRAINED_STAGE_ENTRIES.clear()
    _DRAINED_SPANS = 0
    _NEXT_SPAN_ID = 0
    _STACK.spans = []


# -- mode switches -----------------------------------------------------------


def enable_profile(reset: bool = True) -> None:
    """Turn on per-stage accounting (the historical ``--profile`` mode).

    ``reset`` clears the previous figures -- unless trace mode is live, in
    which case the already-recorded spans (and the counters the metrics
    exporter shares) must survive a later ``--profile`` activation.
    """
    global _PROFILE
    if reset and not _TRACE:
        _reset_buffers()
    _PROFILE = True
    _refresh_enabled()


def disable_profile() -> None:
    global _PROFILE
    _PROFILE = False
    _refresh_enabled()


def profile_active() -> bool:
    return _PROFILE


def enable_tracing(run_id: str | None = None, reset: bool = True) -> str:
    """Turn on span recording; returns the run id tagged onto the exporters.

    ``run_id`` defaults to ``$REPRO_RUN_ID`` or a fresh UUID hex string.
    """
    global _TRACE, _RUN_ID
    if reset and not ENABLED:
        _reset_buffers()
    if run_id is None:
        run_id = os.environ.get("REPRO_RUN_ID") or uuid.uuid4().hex
    _RUN_ID = run_id
    _TRACE = True
    _refresh_enabled()
    return run_id


def disable_tracing() -> None:
    global _TRACE
    _TRACE = False
    _refresh_enabled()


def tracing_active() -> bool:
    return _TRACE


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
    attribute read and a no-op handle when tracing is disabled (profile
    mode alone does not record spans).
    """
    if not _TRACE:
        yield _NOOP_HANDLE
        return
    record = _open_span(name, category, attributes)
    started = time.perf_counter_ns()
    try:
        yield SpanHandle(record)
    finally:
        _close_span(record, started)


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Accumulate the wall-clock time of a pipeline stage.

    The unit behind ``repro.profiling.stage``: always feeds the per-stage
    seconds/entries accumulators, and additionally records a ``stage``
    category span when trace mode is on.  One attribute read when disabled.
    """
    if not ENABLED:
        yield
        return
    record = _open_span(name, "stage", {}) if _TRACE else None
    started = time.perf_counter_ns()
    try:
        yield
    finally:
        elapsed = time.perf_counter_ns() - started
        if record is not None:
            _close_span(record, started)
        with _LOCK:
            _STAGE_SECONDS[name] = _STAGE_SECONDS.get(name, 0.0) + elapsed / 1e9
            _STAGE_ENTRIES[name] = _STAGE_ENTRIES.get(name, 0) + 1


def count(name: str, value: float = 1) -> None:
    """Accumulate a named event counter (integers stay integral in JSON)."""
    if not ENABLED:
        return
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def annotate(**attributes) -> None:
    """Set attributes on the innermost open span of this thread (if any)."""
    if not _TRACE:
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
    if not _TRACE:
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
    if not _TRACE:
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


def profile_snapshot() -> dict:
    """The accumulated per-stage figures (stable key order).

    The exact shape :func:`repro.profiling.snapshot` has always returned;
    integral counters are emitted as ints so existing JSON consumers see
    unchanged payloads.
    """
    with _LOCK:
        return {
            "stages": {name: _STAGE_SECONDS[name] for name in sorted(_STAGE_SECONDS)},
            "entries": {name: _STAGE_ENTRIES[name] for name in sorted(_STAGE_ENTRIES)},
            "counters": {
                name: int(value) if float(value).is_integer() else value
                for name, value in sorted(_COUNTERS.items())
            },
            "total_seconds": sum(_STAGE_SECONDS.values()),
        }


# -- cross-process protocol --------------------------------------------------


def worker_config() -> dict:
    """Picklable activation state shipped to pool workers via initargs."""
    return {
        "profile": _PROFILE,
        "trace": _TRACE,
        "run_id": _RUN_ID,
    }


def activate_worker(config: dict | None) -> None:
    """Adopt the parent's observability switches inside a pool worker.

    Clears any buffers inherited through ``fork`` (the parent's spans must
    be reported exactly once, by the parent) and flips the remote flag so
    this process buffers per job instead of exporting.
    """
    global _PROFILE, _TRACE, _REMOTE, _RUN_ID
    _reset_buffers()
    if not config:
        _PROFILE = _TRACE = _REMOTE = False
        _refresh_enabled()
        return
    _PROFILE = bool(config.get("profile"))
    _TRACE = bool(config.get("trace"))
    _RUN_ID = config.get("run_id")
    _REMOTE = _PROFILE or _TRACE
    _refresh_enabled()


def remote_active() -> bool:
    """True when this process buffers telemetry for per-job shipping."""
    return _REMOTE


def drain_worker_blob() -> dict | None:
    """Spans/counters/stages accumulated since the previous drain.

    Called at the end of each worker-side job; the blob travels back inside
    the job payload.  Returns ``None`` when there is nothing to ship (the
    disabled path).  Counters and stage figures ship as deltas so a blob
    merge is a plain addition on the parent side.
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
        second_delta = {
            name: value - _DRAINED_STAGE_SECONDS.get(name, 0.0)
            for name, value in _STAGE_SECONDS.items()
            if value != _DRAINED_STAGE_SECONDS.get(name, 0.0)
        }
        _DRAINED_STAGE_SECONDS.update(_STAGE_SECONDS)
        entry_delta = {
            name: value - _DRAINED_STAGE_ENTRIES.get(name, 0)
            for name, value in _STAGE_ENTRIES.items()
            if value != _DRAINED_STAGE_ENTRIES.get(name, 0)
        }
        _DRAINED_STAGE_ENTRIES.update(_STAGE_ENTRIES)
    return {
        "pid": os.getpid(),
        "spans": [record.as_dict() for record in fresh],
        "counters": counter_delta,
        "stage_seconds": second_delta,
        "stage_entries": entry_delta,
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
        for name, value in blob.get("stage_seconds", {}).items():
            _STAGE_SECONDS[name] = _STAGE_SECONDS.get(name, 0.0) + value
        for name, value in blob.get("stage_entries", {}).items():
            _STAGE_ENTRIES[name] = _STAGE_ENTRIES.get(name, 0) + value


def reset() -> None:
    """Full reset: both modes off, buffers cleared (test isolation)."""
    global _PROFILE, _TRACE, _REMOTE, _RUN_ID
    _PROFILE = _TRACE = _REMOTE = False
    _RUN_ID = None
    _reset_buffers()
    _refresh_enabled()
