"""Metrics derived from the span buffer: histograms and the run report.

:class:`Histogram` is a log-bucketed (quarter-octave, i.e. four buckets per
power of two) approximate distribution: values are binned by
``floor(4 * log2(value))``, percentiles are read off the cumulative bucket
counts with geometric interpolation inside the resolved bucket.  The
relative quantile error is bounded by the bucket width (2^(1/4) ~ 19%),
which is plenty for latency reporting, and the representation serializes to
a compact ``{bucket_floor: count}`` map whatever the value range.

:func:`stage_report` sums the ``stage`` spans of a merged trace into the
per-stage seconds and entry counts behind the runner's ``--profile``.
:func:`build_metrics` folds the same trace (spans + counters) and the
engine's robustness stats into the JSON report behind ``--metrics-out``:
per-job latency percentiles (p50/p90/p99), per-stage totals (from
:func:`stage_report`), pass latencies, cache hit rate, retry/crash/timeout
counts and the top spans by self time.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.obs.tracer import SpanRecord

#: Buckets per power of two (quarter-octave resolution).
_BUCKETS_PER_OCTAVE = 4

#: Report schema version (bump when the JSON shape changes).
METRICS_SCHEMA = 1


class Histogram:
    """Log-bucketed histogram of non-negative values."""

    __slots__ = ("counts", "zeros", "total", "sum", "max")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.zeros = 0
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    @staticmethod
    def bucket_of(value: float) -> int:
        return math.floor(_BUCKETS_PER_OCTAVE * math.log2(value))

    @staticmethod
    def bucket_bounds(bucket: int) -> tuple[float, float]:
        """The half-open value interval ``[low, high)`` of a bucket index."""
        low = 2.0 ** (bucket / _BUCKETS_PER_OCTAVE)
        high = 2.0 ** ((bucket + 1) / _BUCKETS_PER_OCTAVE)
        return low, high

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        self.total += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if value == 0:
            self.zeros += 1
            return
        bucket = self.bucket_of(value)
        self.counts[bucket] = self.counts.get(bucket, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100), geometrically interpolated.

        Exact for the zero mass; within one bucket width (~19% relative)
        elsewhere.  Returns 0.0 for an empty histogram.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.total == 0:
            return 0.0
        # The value with rank ceil(q/100 * total) in the sorted order
        # (nearest-rank definition; q=0 resolves to the first value).
        rank = max(1, math.ceil(q / 100.0 * self.total))
        if rank <= self.zeros:
            return 0.0
        remaining = rank - self.zeros
        for bucket in sorted(self.counts):
            in_bucket = self.counts[bucket]
            if remaining <= in_bucket:
                low, high = self.bucket_bounds(bucket)
                fraction = remaining / in_bucket
                # Clamp to the exact maximum: interpolation in the top
                # bucket must not report a latency nothing ever reached.
                return min(low * (high / low) ** fraction, self.max)
            remaining -= in_bucket
        return self.max  # pragma: no cover - rank always resolves above

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        """JSON form: summary statistics plus the raw bucket map."""
        return {
            "count": self.total,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "zeros": self.zeros,
            "buckets_per_octave": _BUCKETS_PER_OCTAVE,
            "buckets": {str(bucket): self.counts[bucket] for bucket in sorted(self.counts)},
        }


def _self_times_us(spans: Sequence[SpanRecord]) -> dict[tuple[int, int], int]:
    """Per-span self time: duration minus the direct children's durations."""
    self_us = {
        (record.pid, record.span_id): record.duration_us for record in spans
    }
    for record in spans:
        if record.parent_id is None:
            continue
        parent = (record.pid, record.parent_id)
        if parent in self_us:
            self_us[parent] -= record.duration_us
    return self_us


def top_spans(spans: Sequence[SpanRecord], limit: int = 5) -> list[dict]:
    """The ``limit`` spans with the largest self time, as JSON-ready rows."""
    self_us = _self_times_us(spans)
    ranked = sorted(
        spans,
        key=lambda record: (
            -max(0, self_us[(record.pid, record.span_id)]),
            record.pid,
            record.span_id,
        ),
    )
    return [
        {
            "name": record.name,
            "category": record.category,
            "pid": record.pid,
            "duration_ms": record.duration_us / 1000.0,
            "self_ms": max(0, self_us[(record.pid, record.span_id)]) / 1000.0,
            "attributes": dict(record.attributes),
        }
        for record in ranked[:limit]
    ]


def stage_report(spans: Sequence[SpanRecord], counters: dict[str, float]) -> dict:
    """The ``--profile`` report: seconds and entries per ``stage`` span name.

    Keys: ``stages`` (seconds), ``entries`` (span count), ``counters``
    (integral values as ints) and ``total_seconds``; every map is sorted.
    """
    micros: dict[str, int] = {}
    entries: dict[str, int] = {}
    for record in spans:
        if record.category == "stage":
            micros[record.name] = micros.get(record.name, 0) + record.duration_us
            entries[record.name] = entries.get(record.name, 0) + 1
    stages = {name: micros[name] / 1e6 for name in sorted(micros)}
    return {
        "stages": stages,
        "entries": {name: entries[name] for name in sorted(entries)},
        "counters": {
            name: int(value) if float(value).is_integer() else value
            for name, value in sorted(counters.items())
        },
        "total_seconds": sum(stages.values()),
    }


def build_metrics(
    spans: Sequence[SpanRecord],
    counters: dict[str, float],
    run_id: str | None = None,
    robustness: dict | None = None,
) -> dict:
    """The ``--metrics-out`` report from a merged trace.

    ``robustness`` is :meth:`ExperimentEngine.robustness_stats` when an
    engine ran (cache hit rate, failure classification);
    pure-trace consumers may omit it.
    """
    profile = stage_report(spans, counters)
    job_latency = Histogram()
    pass_latency = Histogram()
    category_counts: dict[str, int] = {}
    jobs_cached = 0
    candidate_rows = 0
    pids = set()
    for record in spans:
        pids.add(record.pid)
        category_counts[record.category] = (
            category_counts.get(record.category, 0) + 1
        )
        if record.category == "job":
            job_latency.add(record.duration_us / 1000.0)
        elif record.category == "cache":
            jobs_cached += 1
        elif record.category == "pass":
            pass_latency.add(record.duration_us / 1000.0)
        candidate_rows += int(record.attributes.get("candidate_rows", 0))
    cache = (robustness or {}).get("cache") or {}
    hits = int(cache.get("hits", counters.get("cache.hit", 0)))
    misses = int(cache.get("misses", counters.get("cache.miss", 0)))
    lookups = hits + misses
    report = {
        "schema": METRICS_SCHEMA,
        "run_id": run_id,
        "spans": {
            "total": len(spans),
            "pids": sorted(pids),
            "by_category": dict(sorted(category_counts.items())),
        },
        "jobs": {
            "executed": job_latency.total,
            "cached": jobs_cached,
            "retries": int(counters.get("jobs.retry", 0)),
            "crashes": int(counters.get("jobs.crash", 0)),
            "timeouts": int(counters.get("jobs.timeout", 0)),
            "degraded_inprocess": int(counters.get("jobs.degraded_inprocess", 0)),
            "backoff_seconds": float(counters.get("jobs.backoff_seconds", 0.0)),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        },
        "histograms": {
            "job_latency_ms": job_latency.as_dict(),
            "pass_latency_ms": pass_latency.as_dict(),
        },
        "stage_totals_ms": {
            name: seconds * 1000 for name, seconds in profile["stages"].items()
        },
        "mapper": {"candidate_rows": candidate_rows},
        "counters": profile["counters"],
        "top_spans_by_self_time": top_spans(spans),
    }
    if robustness is not None:
        report["robustness"] = robustness
    return report
