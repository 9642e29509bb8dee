"""Tracer invariants: nesting, the switch, the stage report and the worker
protocol."""

import os
import threading

import pytest

from repro import obs
from repro.obs.tracer import SpanRecord


def _by_name(spans):
    return {record.name: record for record in spans}


def _report():
    return obs.stage_report(obs.spans(), obs.counters())


class TestSpanNesting:
    def test_parenting_follows_call_structure(self):
        obs.enable_tracing()
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
            with obs.span("sibling"):
                pass
        spans = _by_name(obs.spans())
        assert spans["inner"].parent_id == spans["middle"].span_id
        assert spans["middle"].parent_id == spans["outer"].span_id
        assert spans["sibling"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None

    def test_spans_complete_in_close_order(self):
        obs.enable_tracing()
        with obs.span("a"):
            with obs.span("b"):
                pass
        assert [record.name for record in obs.spans()] == ["b", "a"]

    def test_children_start_within_parent_interval(self):
        obs.enable_tracing()
        with obs.span("parent"):
            with obs.span("child"):
                pass
        spans = _by_name(obs.spans())
        parent, child = spans["parent"], spans["child"]
        assert parent.start_us <= child.start_us
        assert child.duration_us <= parent.duration_us

    def test_span_ids_are_unique_within_the_process(self):
        obs.enable_tracing()
        for index in range(10):
            with obs.span(f"s{index}"):
                pass
        ids = [record.span_id for record in obs.spans()]
        assert len(ids) == len(set(ids))

    def test_threads_keep_independent_stacks(self):
        obs.enable_tracing()

        def worker():
            with obs.span("thread-root"):
                with obs.span("thread-child"):
                    pass

        with obs.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = _by_name(obs.spans())
        # The other thread's root must not adopt this thread's open span.
        assert spans["thread-root"].parent_id is None
        assert spans["thread-child"].parent_id == spans["thread-root"].span_id
        assert spans["thread-root"].tid != spans["main-root"].tid

    def test_pid_and_tid_are_recorded(self):
        obs.enable_tracing()
        with obs.span("tagged"):
            pass
        record = obs.spans()[0]
        assert record.pid == os.getpid()
        assert record.tid == threading.get_ident() & 0x7FFFFFFF

    def test_attributes_events_and_annotate(self):
        obs.enable_tracing()
        with obs.span("work", category="job", static=1) as handle:
            handle.set("discovered", 2)
            handle.add_event("marker", detail="x")
            obs.annotate(late=3)
        record = obs.spans()[0]
        assert record.category == "job"
        assert record.attributes == {"static": 1, "discovered": 2, "late": 3}
        assert [name for _, name, _ in record.events] == ["marker"]

    def test_event_without_open_span_becomes_zero_duration_span(self):
        obs.enable_tracing()
        obs.event("orphan", kind="crash")
        record = obs.spans()[0]
        assert record.name == "orphan"
        assert record.category == "event"
        assert record.duration_us == 0
        assert record.attributes == {"kind": "crash"}

    def test_add_span_records_synthetic_span_under_open_parent(self):
        obs.enable_tracing()
        with obs.span("batch"):
            obs.add_span("cache-hit:x", "cache", key="abc")
        spans = _by_name(obs.spans())
        assert spans["cache-hit:x"].parent_id == spans["batch"].span_id
        assert spans["cache-hit:x"].attributes == {"key": "abc"}
        # Synthetic spans never linger on the stack: the next child of
        # "batch" must not adopt the cache hit as its parent.


class TestModes:
    def test_disabled_paths_record_nothing(self):
        with obs.span("ignored"):
            obs.annotate(x=1)
            obs.event("ignored-too")
        obs.count("ignored-counter")
        obs.add_span("ignored-synth", "cache")
        with obs.stage("ignored-stage"):
            pass
        assert obs.spans() == []
        assert obs.counters() == {}
        assert _report()["stages"] == {}

    def test_stage_records_a_stage_span(self):
        obs.enable_tracing()
        with obs.stage("cover"):
            pass
        assert [record.name for record in obs.spans()] == ["cover"]
        assert obs.spans()[0].category == "stage"
        assert _report()["entries"] == {"cover": 1}

    def test_run_id_default_and_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_ID", raising=False)
        generated = obs.enable_tracing()
        assert generated and obs.run_id() == generated
        obs.reset()
        monkeypatch.setenv("REPRO_RUN_ID", "pinned-run")
        assert obs.enable_tracing() == "pinned-run"

    def test_counters_accumulate_floats_and_ints(self):
        obs.enable_tracing()
        obs.count("jobs.retry")
        obs.count("jobs.retry")
        obs.count("jobs.backoff_seconds", 0.25)
        assert obs.counters() == {"jobs.retry": 2, "jobs.backoff_seconds": 0.25}
        report = _report()
        assert report["counters"]["jobs.retry"] == 2
        assert isinstance(report["counters"]["jobs.retry"], int)


class TestWorkerProtocol:
    def test_worker_config_round_trip(self):
        obs.enable_tracing("run-77")
        config = obs.worker_config()
        obs.reset()
        obs.activate_worker(config)
        assert obs.remote_active()
        assert obs.tracing_active()
        assert obs.run_id() == "run-77"

    def test_activate_worker_clears_inherited_buffers(self):
        obs.enable_tracing()
        with obs.span("parent-span"):
            pass
        obs.activate_worker(obs.worker_config())
        assert obs.spans() == []  # the parent reports its own spans

    def test_activate_worker_with_none_disables_everything(self):
        obs.enable_tracing()
        obs.activate_worker(None)
        assert not obs.remote_active()
        assert not obs.tracing_active()
        with obs.span("ignored"):
            pass
        assert obs.spans() == []

    def test_drain_ships_deltas_only(self):
        obs.activate_worker({"trace": True, "run_id": "r"})
        with obs.stage("match"):
            obs.count("ticks", 2)
        first = obs.drain_worker_blob()
        # Stages are spans: a blob carries nothing else.
        assert set(first) == {"pid", "spans", "counters"}
        assert [span["name"] for span in first["spans"]] == ["match"]
        assert first["counters"] == {"ticks": 2}

        with obs.stage("cover"):
            obs.count("ticks", 1)
        second = obs.drain_worker_blob()
        assert [span["name"] for span in second["spans"]] == ["cover"]
        assert second["counters"] == {"ticks": 1}

    def test_drain_disabled_returns_none(self):
        assert obs.drain_worker_blob() is None

    def test_merge_blob_folds_spans_and_counters(self):
        obs.activate_worker({"trace": True, "run_id": "r"})
        with obs.stage("match"):
            obs.count("ticks", 2)
        blob = obs.drain_worker_blob()

        obs.reset()
        obs.enable_tracing()
        with obs.stage("match"):
            obs.count("ticks", 1)
        obs.merge_blob(blob)
        assert obs.counters() == {"ticks": 3}
        assert _report()["entries"] == {"match": 2}
        assert len(obs.spans()) == 2

    def test_merge_blob_accepts_none(self):
        obs.merge_blob(None)  # disabled workers ship nothing
        assert obs.spans() == []

    def test_merge_is_order_independent(self):
        def blob(pid, names):
            return {
                "pid": pid,
                "spans": [
                    SpanRecord(
                        span_id=index,
                        parent_id=None,
                        name=name,
                        category="job",
                        start_us=1000 + index,
                        duration_us=10,
                        pid=pid,
                        tid=1,
                    ).as_dict()
                    for index, name in enumerate(names)
                ],
                "counters": {"ticks": len(names)},
            }

        blob_a = blob(111, ["a1", "a2"])
        blob_b = blob(222, ["b1"])

        obs.enable_tracing()
        obs.merge_blob(blob_a)
        obs.merge_blob(blob_b)
        forward = {(r.pid, r.span_id, r.name) for r in obs.spans()}
        forward_counters = obs.counters()

        obs.reset()
        obs.enable_tracing()
        obs.merge_blob(blob_b)
        obs.merge_blob(blob_a)
        assert {(r.pid, r.span_id, r.name) for r in obs.spans()} == forward
        assert obs.counters() == forward_counters

    def test_span_record_round_trips_through_dict(self):
        record = SpanRecord(
            span_id=7,
            parent_id=3,
            name="job:x",
            category="job",
            start_us=123456,
            duration_us=789,
            pid=42,
            tid=9,
            attributes={"nodes": 10},
            events=[(123460, "retry", {"attempt": 1})],
        )
        assert SpanRecord.from_dict(record.as_dict()) == record


class TestStageReportShape:
    def test_report_keys_are_sorted_and_ints_stay_ints(self):
        obs.enable_tracing()
        with obs.stage("zeta"):
            pass
        with obs.stage("alpha"):
            pass
        obs.count("whole", 2)
        obs.count("fraction", 0.5)
        report = _report()
        assert list(report["stages"]) == ["alpha", "zeta"]
        assert list(report["entries"]) == ["alpha", "zeta"]
        assert report["counters"] == {"fraction": 0.5, "whole": 2}
        assert isinstance(report["counters"]["whole"], int)
        assert set(report) == {"stages", "entries", "counters", "total_seconds"}

    def test_report_sums_stage_spans_only(self):
        def record(span_id, name, category, duration_us):
            return SpanRecord(
                span_id=span_id,
                parent_id=None,
                name=name,
                category=category,
                start_us=0,
                duration_us=duration_us,
                pid=1,
                tid=1,
            )

        spans = [
            record(0, "cuts", "stage", 1500),
            record(1, "cuts", "stage", 500),
            record(2, "dp", "stage", 250),
            record(3, "cuts", "task", 9000),  # not a stage: ignored
        ]
        report = obs.stage_report(spans, {})
        assert report["stages"] == {"cuts": 0.002, "dp": 0.00025}
        assert report["entries"] == {"cuts": 2, "dp": 1}
        assert report["total_seconds"] == 0.002 + 0.00025
