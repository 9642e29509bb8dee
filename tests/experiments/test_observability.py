"""End-to-end observability: cross-process traces, stage reports, CLI flags.

The tracer unit tests live in ``tests/obs``; this module pins the contract
*through the engine and runner*: worker spans come home pid-tagged, cache
hits synthesize spans in the parent, a parallel run's stage report (summed
from its ``stage`` spans) has the same per-job stage entries as a
sequential one, library and matcher builds are spanned under whatever
first needs them (never under key computation), a map batch's keys under
one ``cache-keys`` span, fault handling leaves crash/retry markers in the trace, and the CLI
exporters write valid files while leaving the artifacts byte-identical.
``--profile`` equals the metrics' stage totals of the same run and is
served from the cache like any other run.
"""

import json
import os
import random
from functools import lru_cache

import pytest

from repro import obs
from repro.analysis.activity import compute_activities
from repro.bench.generators.adders import ripple_adder_circuit
from repro.bench.registry import BenchmarkCase, register_benchmark, unregister_benchmark
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.experiments import engine as engine_module
from repro.experiments import faults
from repro.experiments.engine import CharacterizationJob, ExperimentEngine, MapJob
from repro.experiments.faults import FaultPlan
from repro.experiments.resilience import RetryPolicy, run_resilient
from repro.experiments.runner import main
from repro.synthesis import matcher as matcher_module
from repro.synthesis.mapper import technology_map, verify_mapping
from repro.synthesis.matcher import matcher_for
from tests.experiments.test_resilience import _crash_in_pool_workers

#: Small-but-parallel workload: four independent jobs on the fast adder.
FAMILIES = (
    LogicFamily.TG_STATIC,
    LogicFamily.TG_PSEUDO,
    LogicFamily.PASS_PSEUDO,
    LogicFamily.CMOS,
)

#: Retries resolve fast in tests; correctness must not depend on pacing.
FAST_POLICY = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


def _jobs():
    return [MapJob("add-16", family) for family in FAMILIES]


def _stage_report():
    return obs.stage_report(obs.spans(), obs.counters())


def _result_view(results):
    return {
        job: (r.stats, r.power, r.aig_nodes, r.aig_depth)
        for job, r in results.items()
    }


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.reset()
    yield
    obs.reset()


class TestCrossProcessTrace:
    def test_parallel_run_ships_worker_spans_home(self):
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_map_jobs(_jobs())
        spans = obs.spans()

        job_spans = [s for s in spans if s.category == "job"]
        assert len(job_spans) == len(FAMILIES)
        worker_pids = {s.pid for s in job_spans}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2  # both workers contributed

        # The parent's scheduling spans frame the merged worker tracks.
        engine_spans = {s.name for s in spans if s.category == "engine"}
        assert "run_map_jobs" in engine_spans
        assert "prepare-parallel" in engine_spans
        parent_pids = {s.pid for s in spans if s.category == "engine"}
        assert parent_pids == {os.getpid()}

    def test_worker_job_spans_parent_their_stages(self):
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_map_jobs(_jobs())
        spans = obs.spans()
        by_key = {(s.pid, s.span_id): s for s in spans}
        stage_spans = [s for s in spans if s.category == "stage"]
        assert stage_spans
        for stage in stage_spans:
            # Every stage recorded in a worker hangs under a span of the
            # same process (ids are only unique per pid).
            ancestor = stage
            while ancestor.parent_id is not None:
                ancestor = by_key[(ancestor.pid, ancestor.parent_id)]
            if stage.pid != os.getpid():
                assert ancestor.category == "job"

    def test_trace_is_deterministically_mergeable(self):
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_map_jobs(_jobs())
        keys = [(s.pid, s.span_id) for s in obs.spans()]
        assert len(keys) == len(set(keys))  # (pid, id) namespacing holds

    def test_cache_hits_synthesize_parent_spans(self, tmp_path):
        jobs = _jobs()
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        warm.run_map_jobs(jobs)

        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path)
        engine.run_map_jobs(jobs)
        spans = obs.spans()
        hits = [s for s in spans if s.category == "cache"]
        assert len(hits) == len(jobs)
        assert {s.pid for s in hits} == {os.getpid()}
        assert all(s.name.startswith("cache-hit:add-16:") for s in hits)
        assert all("key" in s.attributes for s in hits)
        assert not [s for s in spans if s.category == "job"]

    def test_tracing_does_not_change_results(self):
        jobs = _jobs()
        plain = ExperimentEngine(jobs=2, use_cache=False).run_map_jobs(jobs)
        obs.enable_tracing()
        traced = ExperimentEngine(jobs=2, use_cache=False).run_map_jobs(jobs)
        assert _result_view(traced) == _result_view(plain)

    def test_library_builds_are_spanned_under_the_caller(self, monkeypatch):
        # A fresh build_library memo stands in for a cleared one, so the
        # libraries other tests already hold stay the process's libraries.
        monkeypatch.setattr(
            engine_module,
            "build_library",
            lru_cache(maxsize=None)(build_library.__wrapped__),
        )
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=1, use_cache=False)
        for family in LogicFamily:
            engine.characterization_job_key(CharacterizationJob(family))
            engine.map_job_key(MapJob("add-16", family))
        assert not [s for s in obs.spans() if s.name == "library"]

        table2_families = (
            LogicFamily.TG_STATIC,
            LogicFamily.TG_PSEUDO,
            LogicFamily.PASS_PSEUDO,
        )
        traced = engine.run_table2(families=table2_families)
        engine.run_map_jobs([MapJob("add-16", LogicFamily.CMOS)])
        ExperimentEngine(jobs=2, use_cache=False).run_map_jobs(
            [MapJob(name, LogicFamily.PASS_STATIC) for name in ("add-16", "t481")]
        )
        spans = obs.spans()
        by_id = {(s.pid, s.span_id): s for s in spans}
        libraries = [s for s in spans if s.name == "library"]
        assert {s.category for s in libraries} == {"setup"}
        needed_by = {
            s.attributes["family"]: by_id[(s.pid, s.parent_id)].name for s in libraries
        }
        assert len(libraries) == len(needed_by) == len(LogicFamily)
        assert needed_by == {
            **{f.value: f"job:table2:{f.value}" for f in table2_families},
            LogicFamily.CMOS.value: "job:add-16:cmos-static:delay",
            LogicFamily.PASS_STATIC.value: "prepare-parallel",
        }

        obs.disable_tracing()
        assert ExperimentEngine(jobs=1, use_cache=False).run_table2(
            families=table2_families
        ) == traced

    def test_key_pass_is_spanned_and_builds_only_registered_subjects(
        self, monkeypatch
    ):
        """A jobs=1 batch computes its keys under one ``cache-keys`` span,
        which generates the registered extra and no built-in subject; the
        extra's job runs its flow on that AIG instead of generating it
        again."""
        monkeypatch.setattr(engine_module, "_OPTIMIZED_AIGS", {})
        monkeypatch.setattr(engine_module, "_ACTIVITY_REPORTS", {})

        def generate():
            with obs.span("generate-extra"):
                return ripple_adder_circuit(6, name="traced-extra")

        register_benchmark(BenchmarkCase(
            name="traced-extra", function="6-bit adder", paper_inputs=13,
            paper_outputs=7, exact=True, xor_rich=True, generator=generate,
        ))
        try:
            obs.enable_tracing()
            ExperimentEngine(jobs=1, use_cache=False).run_map_jobs(
                [MapJob(name, LogicFamily.CMOS) for name in ("add-16", "traced-extra")]
            )
        finally:
            unregister_benchmark("traced-extra")
        spans = obs.spans()
        by_id = {s.span_id: s for s in spans}
        (keys,) = [s for s in spans if s.name == "cache-keys"]
        assert keys.category == "engine"
        assert keys.attributes["built"] == 1
        assert by_id[keys.parent_id].name == "run_map_jobs"
        parents = sorted(by_id[s.parent_id].name for s in spans if s.name == "generate-extra")
        # Once, for the key: its job runs the flow on the same raw AIG.
        assert parents == ["cache-keys"]


class TestProfileMerge:
    """A parallel run's stage report keeps every worker's stage spans."""

    def _profile(self, jobs):
        obs.enable_tracing()
        try:
            ExperimentEngine(jobs=jobs, use_cache=False).run_map_jobs(_jobs())
            return _stage_report()
        finally:
            obs.disable_tracing()

    def test_parallel_profile_matches_sequential_entry_counts(self):
        sequential = self._profile(1)
        parallel = self._profile(4)
        # One entry per job for the per-job stages, both ways.  (optimize /
        # activity memoize per process, so their entry counts legitimately
        # differ between one process and four.)
        for stage in ("cuts", "match", "dp", "cover", "power"):
            assert parallel["entries"][stage] == sequential["entries"][stage], stage

    def test_parallel_profile_reports_nonzero_stage_seconds(self):
        parallel = self._profile(2)
        assert parallel["total_seconds"] > 0
        assert parallel["stages"]["match"] > 0
        assert parallel["stages"]["cover"] > 0


def test_profiled_jobs_map_to_equivalent_netlists():
    """The workload above, mapped from the engine's optimized subject the way
    a map job maps it, is equivalent to that subject on 128 seeded random
    patterns per input."""
    for family in FAMILIES:
        job = MapJob("add-16", family)
        aig = engine_module._subject_aig(job.benchmark, job.flow)
        library = build_library(family)
        mapped = technology_map(
            aig,
            library,
            matcher=matcher_for(library),
            objective=job.objective,
            max_inputs=job.max_inputs,
            cut_limit=job.cut_limit,
            activities=compute_activities(
                aig, vectors=job.power_vectors, seed=job.power_seed
            ),
            rounds=job.rounds,
            recovery=job.recovery,
        )
        rng = random.Random(f"verify:{aig.name}")
        patterns = {
            name: [rng.getrandbits(64) for _ in range(2)] for name in aig.pi_names
        }
        assert verify_mapping(mapped, aig, patterns), family


class TestMapperStages:
    """Each mapper stage name means one thing: ``dp`` is one DP solve,
    ``cover`` one cover with its timing, cost and reference counts."""

    def test_recovery_job_records_one_dp_and_one_cover_per_built_cover(
        self, monkeypatch
    ):
        from repro.synthesis import mapper

        built = []
        original = mapper._cover_rows

        def counting(*args):
            cover = original(*args)
            built.append(cover)
            return cover

        monkeypatch.setattr(mapper, "_cover_rows", counting)
        obs.enable_tracing()
        ExperimentEngine(jobs=1, use_cache=False).run_map_jobs(
            [MapJob("add-16", LogicFamily.TG_STATIC, rounds=2)]
        )
        entries = _stage_report()["entries"]
        assert len(built) >= 2  # round 0 plus at least one recovery attempt
        assert entries["cover"] == entries["dp"] == len(built)
        assert entries["match"] >= 2  # round-0 and recovery candidate tables
        assert "recover" not in entries


class TestMatcherSpan:
    """A matcher build is set-up work: it runs under a ``matcher`` span,
    not as unattributed self time of the first job that needs it."""

    def test_first_job_spans_its_matcher_build_once(self, monkeypatch):
        monkeypatch.setattr(matcher_module, "_MATCHER_CACHE", {})
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_map_jobs([MapJob("add-16", LogicFamily.TG_STATIC)])
        spans = obs.spans()
        job = next(s for s in spans if s.category == "job")
        matchers = [s for s in spans if s.name == "matcher"]
        assert len(matchers) == 1
        assert matchers[0].category == "setup"
        assert matchers[0].attributes == {"library": LogicFamily.TG_STATIC.value}
        assert matchers[0].parent_id == job.span_id

        obs.disable_tracing()
        obs.enable_tracing()  # a fresh recording for the second job
        engine.run_map_jobs([MapJob("add-16", LogicFamily.TG_STATIC, "area")])
        assert [s for s in obs.spans() if s.category == "job"]
        assert not [s for s in obs.spans() if s.name == "matcher"]


class TestFailureTelemetry:
    """Satellite bugfix: retry/crash/timeout/degradation counters flow
    through the counter API (and, when tracing, leave trace markers)."""

    @pytest.fixture
    def arm(self, tmp_path, monkeypatch):
        spool = tmp_path / "spool"
        spool.mkdir()

        def _arm(**kwargs):
            plan = FaultPlan(once_dir=str(spool), **kwargs)
            monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
            return plan

        return _arm

    @pytest.mark.chaos
    def test_worker_kill_leaves_crash_markers_and_counters(self, arm):
        arm(kill_job=0)
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=4, use_cache=False, retry_policy=FAST_POLICY)
        engine.run_map_jobs(_jobs())

        counters = obs.counters()
        assert counters["jobs.crash"] >= 1
        assert counters["jobs.retry"] >= 1
        assert counters["jobs.backoff_seconds"] > 0

        markers = [
            (name, attrs)
            for span in obs.spans()
            for _, name, attrs in span.events
        ]
        crash_markers = [m for m in markers if m[0] == "job.crash"]
        assert crash_markers
        assert all(m[1]["resolution"] == "retry" for m in crash_markers)
        assert all("attempt" in m[1] and "index" in m[1] for m in crash_markers)

    def test_exhausted_retries_count_degraded_inprocess(self):
        obs.enable_tracing()
        outcome = run_resilient(
            _crash_in_pool_workers,
            [(5, os.getpid()), (9, os.getpid())],
            jobs=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
        )
        counters = _stage_report()["counters"]
        assert outcome.results == [4, 8]
        assert counters["jobs.degraded_inprocess"] == 2
        # max_attempts=2: every job crashes twice before degrading.
        assert counters["jobs.crash"] == 4
        assert counters["jobs.retry"] == 2
        assert counters["jobs.backoff_seconds"] > 0

        markers = [
            (name, attrs)
            for span in obs.spans()
            for _, name, attrs in span.events
        ] + [
            (span.name, span.attributes)
            for span in obs.spans()
            if span.category == "event"
        ]
        resolutions = [
            attrs["resolution"] for name, attrs in markers if name == "job.crash"
        ]
        assert resolutions.count("retry") == 2
        assert resolutions.count("in-process") == 2


class TestRunnerExporters:
    def _run(self, tmp_path, *extra):
        argv = [
            "add-16",
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ]
        assert main(argv) == 0

    def test_trace_flag_writes_a_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        self._run(tmp_path, "--jobs", "2", "--trace", str(trace_path))
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert events
        pids = {e["pid"] for e in events}
        assert len(pids) >= 3  # parent + at least two workers
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "parent" in tracks
        assert any(t.startswith("worker-") for t in tracks)
        assert payload["otherData"]["run_id"]
        assert "[trace" in capsys.readouterr().out

    def test_metrics_out_reports_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_ID", "metrics-run")
        metrics_path = tmp_path / "metrics.json"
        self._run(tmp_path, "--jobs", "2", "--metrics-out", str(metrics_path))
        report = json.loads(metrics_path.read_text())
        assert report["run_id"] == "metrics-run"
        assert report["jobs"]["executed"] > 0
        assert report["histograms"]["job_latency_ms"]["count"] > 0
        assert report["robustness"]["cache"]["misses"] > 0
        assert len(report["spans"]["pids"]) >= 3

    def test_events_out_writes_run_scoped_jsonl(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        self._run(tmp_path, "--events-out", str(events_path))
        lines = [json.loads(l) for l in events_path.read_text().splitlines()]
        assert lines[0]["type"] == "run-start"
        assert lines[-1]["type"] == "run-end"
        run_ids = {line["run_id"] for line in lines}
        assert len(run_ids) == 1 and None not in run_ids

    def test_exporters_leave_artifacts_byte_identical(self, tmp_path):
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        self._run(tmp_path, "--no-cache", "--json", str(plain_dir))
        self._run(
            tmp_path,
            "--no-cache",
            "--json",
            str(traced_dir),
            "--jobs",
            "2",
            "--trace",
            str(tmp_path / "t.json"),
            "--metrics-out",
            str(tmp_path / "m.json"),
            "--events-out",
            str(tmp_path / "e.jsonl"),
        )
        plain_files = sorted(p.name for p in plain_dir.iterdir())
        assert plain_files == sorted(p.name for p in traced_dir.iterdir())
        for name in plain_files:
            assert (plain_dir / name).read_bytes() == (
                traced_dir / name
            ).read_bytes(), name

    def test_profile_works_with_parallel_jobs(self, tmp_path):
        profile_path = tmp_path / "profile.json"
        self._run(
            tmp_path, "--jobs", "2", "--profile-out", str(profile_path)
        )
        report = json.loads(profile_path.read_text())
        assert report["entries"]["match"] > 0
        assert report["stages"]["match"] > 0
        assert report["total_seconds"] > 0

    def test_profile_equals_the_metrics_stage_totals(self, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        metrics_path = tmp_path / "metrics.json"
        self._run(
            tmp_path,
            "--no-cache",
            "--jobs",
            "2",
            "--profile-out",
            str(profile_path),
            "--metrics-out",
            str(metrics_path),
        )
        stages = json.loads(profile_path.read_text())["stages"]
        totals = json.loads(metrics_path.read_text())["stage_totals_ms"]
        assert stages and set(stages) == set(totals)
        for name, seconds in stages.items():
            assert seconds * 1000 == totals[name], name
        assert "verify" not in stages
        assert "[trace" in capsys.readouterr().out  # --metrics-out wrote a file

    def test_warm_profile_is_served_from_the_cache(self, tmp_path, capsys):
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        self._run(tmp_path, "--profile-out", str(cold_path))
        self._run(tmp_path, "--profile-out", str(warm_path))
        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        assert cold["entries"]["cuts"] > 0
        assert cold["counters"]["cache.miss"] > 0
        assert warm["counters"]["cache.hit"] > 0
        assert "cache.miss" not in warm["counters"]
        assert "cuts" not in warm["entries"]
        # --profile alone writes no trace file, so it reports none.
        assert "[trace" not in capsys.readouterr().out
