"""In-memory span recorder, self-time arithmetic and Chrome trace export.

Spans are opened by the benchmark around calls into the program's layers;
nothing inside the program is instrumented.  Each span records its name,
start, end, parent and the job it belongs to.  They stay in memory until
the traced run ends and are then written as Chrome trace-event JSON (open
it in Perfetto or ``about:tracing``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator


class Recorder:
    """Collects nested spans as plain dicts (``name``, ``start``, ``end``,
    ``parent`` index or ``None``, ``job`` label or ``None``)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str | None = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent]["job"]
        record = {"name": name, "start": time.monotonic(), "end": None,
                  "parent": parent, "job": job}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._open.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            low, high = spans[parent]["start"], spans[parent]["end"]
            start, end = max(span["start"], low), min(span["end"], high)
            if end > start:
                children[parent].append((start, end))
    return [
        (span["end"] - span["start"]) - _covered(children[index])
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def self_time_by_job(spans: list[dict]) -> dict[str, float]:
    """Per job, the summed self time of every span tagged with it."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span["job"] is not None:
            totals[span["job"]] = totals.get(span["job"], 0.0) + own
    return totals


def write_chrome_trace(path, spans: list[dict]) -> None:
    """Write spans as complete ("X") trace events, microseconds from the
    first span."""
    origin = min((span["start"] for span in spans), default=0.0)
    events = [
        {
            "name": span["name"],
            "ph": "X",
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": 0,
            "tid": 0,
            "args": {"span": index, "parent": span["parent"], "job": span["job"]},
        }
        for index, span in enumerate(spans)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
