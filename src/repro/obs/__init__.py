"""Unified observability layer: hierarchical tracing, metrics, exporters.

``repro.obs`` is the telemetry substrate under every deployment-facing
surface of the engine:

* :mod:`repro.obs.tracer` -- the hierarchical span tracer (run -> job ->
  pass -> round -> stage) and named counters; includes the cross-process
  blob protocol that ships worker-side telemetry back inside job payloads.
* :mod:`repro.obs.chrome` -- Chrome trace-event JSON export (Perfetto /
  ``about:tracing``), one track per process.
* :mod:`repro.obs.metrics` -- the ``--profile`` stage report derived from
  the ``stage`` spans, log-bucketed latency histograms (p50/p90/p99) and
  the ``--metrics-out`` run report.
* :mod:`repro.obs.events` -- the structured JSONL event log, every line
  tagged with the run id.
* :mod:`repro.obs.live` -- the live stderr progress line of parallel runs.

The public surface is re-exported here; hot call sites (``span``,
``stage``, ``count``, ``annotate``, ``event``) cost one attribute read when
tracing is off.
"""

from repro.obs.chrome import chrome_payload, trace_events, write_chrome_trace
from repro.obs.events import event_lines, write_events
from repro.obs.live import LiveProgress, live_progress_enabled
from repro.obs.metrics import Histogram, build_metrics, stage_report, top_spans
from repro.obs.tracer import (
    SpanRecord,
    activate_worker,
    annotate,
    count,
    counters,
    add_span,
    disable_tracing,
    drain_worker_blob,
    enable_tracing,
    event,
    merge_blob,
    remote_active,
    reset,
    run_id,
    span,
    spans,
    stage,
    tracing_active,
    worker_config,
)

__all__ = [
    "Histogram",
    "LiveProgress",
    "SpanRecord",
    "activate_worker",
    "add_span",
    "annotate",
    "build_metrics",
    "chrome_payload",
    "count",
    "counters",
    "disable_tracing",
    "drain_worker_blob",
    "enable_tracing",
    "event",
    "event_lines",
    "live_progress_enabled",
    "merge_blob",
    "remote_active",
    "reset",
    "run_id",
    "span",
    "spans",
    "stage",
    "stage_report",
    "top_spans",
    "trace_events",
    "tracing_active",
    "worker_config",
    "write_chrome_trace",
    "write_events",
]
