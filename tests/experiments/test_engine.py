"""Tests for the parallel, cache-aware experiment engine."""

import json
import multiprocessing
import shutil

import pytest

from repro.bench.generators.adders import ripple_adder_circuit
from repro.bench.registry import (
    BenchmarkCase,
    benchmark_by_name,
    register_benchmark,
    register_blif_benchmark,
    unregister_benchmark,
)
from repro.core.families import LogicFamily
from repro.experiments import engine as engine_module
from repro.experiments.engine import (
    CACHE_SCHEMA,
    CharacterizationJob,
    ExperimentEngine,
    MapJob,
    ResultCache,
    aig_fingerprint,
    default_cache_dir,
    figure6_payload,
    source_digest,
    table2_payload,
    table3_payload,
)
from repro.experiments.figure6 import figure6_from_table3
from repro.experiments.pareto import pareto_payload
from repro.experiments.table3 import run_table3
from repro.synthesis.blif import write_blif

SUBSET = ("add-16",)
FAMILIES = (LogicFamily.TG_STATIC, LogicFamily.CMOS)


def _jobs():
    return [MapJob("add-16", family) for family in FAMILIES]


def _cache_entries(directory):
    """Committed entries of a sharded cache directory (sorted)."""
    return sorted(directory.glob("??/??/*.json"))


def _stats_view(result):
    return [(row.name, row.aig_nodes, row.aig_depth, row.results) for row in result.rows]


@pytest.fixture
def extra_benchmark():
    """A benchmark registered at run time (its source is not in the package)."""
    case = register_benchmark(BenchmarkCase(
        name="extra-add-8", function="8-bit adder", paper_inputs=17,
        paper_outputs=9, exact=True, xor_rich=True,
        generator=lambda: ripple_adder_circuit(8, name="extra-add-8"),
    ))
    yield case.name
    unregister_benchmark(case.name)


class TestFingerprints:
    def test_aig_fingerprint_is_structural(self):
        a = benchmark_by_name("add-16").build()
        b = benchmark_by_name("add-16").build()
        assert aig_fingerprint(a) == aig_fingerprint(b)
        c = benchmark_by_name("add-32").build()
        assert aig_fingerprint(a) != aig_fingerprint(c)

    def test_job_keys_separate_by_family_and_objective(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        keys = {
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC)),
            engine.map_job_key(MapJob("add-16", LogicFamily.CMOS)),
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC, objective="area")),
            engine.map_job_key(MapJob("add-32", LogicFamily.TG_STATIC)),
        }
        assert len(keys) == 4

    def test_recovered_jobs_cached_separately_and_replayed(self, tmp_path):
        jobs = [
            MapJob("add-16", LogicFamily.TG_STATIC, rounds=0),
            MapJob("add-16", LogicFamily.TG_STATIC, rounds=2),
        ]
        first = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(jobs)
        again = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(jobs)
        round0, recovered = jobs
        assert not first[round0].cached and again[round0].cached
        assert not first[recovered].cached and again[recovered].cached
        assert first[recovered].stats == again[recovered].stats
        # Recovery never worsens the delay-objective circuit.
        assert first[recovered].stats.area <= first[round0].stats.area + 1e-9
        assert (
            first[recovered].stats.normalized_delay
            <= first[round0].stats.normalized_delay + 1e-9
        )

    def test_job_keys_separate_by_flow(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        keys = {
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC, flow=flow))
            for flow in ("resyn2rs", "quick", "deep", "none")
        }
        assert len(keys) == 4

    def test_job_key_tracks_flow_definition(self, tmp_path, monkeypatch):
        # Redefining a flow (different pass pipeline under the same name)
        # must change the cache key, invalidating stale artifacts.
        from dataclasses import replace

        from repro.flow import get_flow, register_flow

        engine = ExperimentEngine(cache_dir=tmp_path)
        job = MapJob("add-16", LogicFamily.TG_STATIC, flow="quick")
        before = engine.map_job_key(job)
        original = get_flow("quick")
        try:
            register_flow(replace(original, max_rounds=2, round_passes=("rewrite",)),
                          replace=True)
            assert engine.map_job_key(job) != before
        finally:
            register_flow(original, replace=True)
        assert engine.map_job_key(job) == before


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        first = engine.run_map_jobs(_jobs())
        assert all(not result.cached for result in first.values())
        assert _cache_entries(tmp_path)

        again = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(_jobs())
        assert all(result.cached for result in again.values())
        for job in _jobs():
            assert first[job].stats == again[job].stats
            assert first[job].aig_nodes == again[job].aig_nodes

    def test_corrupted_entries_are_recomputed(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.run_map_jobs(_jobs())
        entries = _cache_entries(tmp_path)
        entries[0].write_text("{ this is not json")
        entries[1].write_text(json.dumps({"schema": CACHE_SCHEMA + 999, "key": "x", "payload": {}}))

        redo_engine = ExperimentEngine(cache_dir=tmp_path)
        redone = redo_engine.run_map_jobs(_jobs())
        assert sum(1 for result in redone.values() if not result.cached) == 2
        # The unreadable entry was quarantined, the stale-schema one was a miss.
        assert redo_engine.cache.stats.corrupt == 1
        assert len(list(redo_engine.cache.quarantine_dir().iterdir())) == 1
        # The corrupted files were replaced with valid entries.
        fresh = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(_jobs())
        assert all(result.cached for result in fresh.values())

    def test_wrong_key_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"stats": {}})
        # Rename the entry so its embedded key no longer matches the filename.
        target = cache.path_for("b" * 64)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("a" * 64).rename(target)
        assert cache.get("b" * 64) is None

    def test_disabled_cache_writes_nothing(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, use_cache=False)
        engine.run_map_jobs(_jobs())
        assert not _cache_entries(tmp_path)

    def test_cached_flow_does_not_satisfy_other_flows(self, tmp_path):
        # A cached resyn2rs result must not be served for a quick request.
        ExperimentEngine(cache_dir=tmp_path).run_map_jobs(_jobs())
        quick_jobs = [
            MapJob("add-16", family, flow="quick") for family in FAMILIES
        ]
        first_quick = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(quick_jobs)
        assert all(not result.cached for result in first_quick.values())
        second_quick = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(quick_jobs)
        assert all(result.cached for result in second_quick.values())

    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "experiments"


class TestCacheHardening:
    """The hardened ResultCache: sharding, checksums, quarantine, eviction."""

    def test_entries_live_in_two_level_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "deadbeef" * 8
        cache.put(key, {"value": 1})
        assert cache.path_for(key) == tmp_path / "de" / "ad" / f"{key}.json"
        assert cache.path_for(key).exists()
        assert cache.get(key) == {"value": 1}
        assert cache.stats.hits == 1 and cache.stats.puts == 1

    def test_concurrent_same_key_puts_keep_entry_valid(self, tmp_path):
        # Regression for the shared ".tmp" staging-file collision: many
        # writers racing on one key must never leave a truncated entry or
        # stray staging files behind.
        import threading

        cache = ResultCache(tmp_path)
        key = "ab" * 32
        observed = []

        def writer(worker):
            local = ResultCache(tmp_path)
            for i in range(25):
                local.put(key, {"worker": worker, "i": i})
                observed.append(local.get(key))

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(isinstance(payload, dict) for payload in observed)
        assert cache.stats.corrupt == 0
        assert isinstance(cache.get(key), dict)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"value": 1})
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        entry["payload"]["value"] = 2  # tamper without updating the checksum
        path.write_text(json.dumps(entry))

        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # moved aside, not left to fail forever
        assert len(list(cache.quarantine_dir().iterdir())) == 1
        # The follow-up read is a plain miss, not another corruption event.
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1

    def test_stale_schema_is_a_miss_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"value": 1})
        path = cache.path_for(key)
        path.write_text(json.dumps({"schema": CACHE_SCHEMA - 1, "key": key,
                                    "payload": {}, "checksum": "x"}))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 0 and cache.stats.misses == 1
        assert path.exists()  # left in place for the next put to overwrite

    def test_size_budget_evicts_least_recently_used(self, tmp_path):
        import os as _os

        cache = ResultCache(tmp_path)  # no budget while seeding
        keys = [f"{i:02x}" * 32 for i in range(4)]
        for stamp, key in enumerate(keys):
            cache.put(key, {"value": key})
            _os.utime(cache.path_for(key), (100.0 + stamp, 100.0 + stamp))
        entry_size = cache.path_for(keys[0]).stat().st_size
        # A freshly read entry becomes most-recent and must survive.
        assert cache.get(keys[0]) is not None

        bounded = ResultCache(tmp_path, max_bytes=3 * entry_size + 1)
        bounded.put("ff" * 32, {"value": "new"})
        assert bounded.stats.evicted == 2
        survivors = {p.name for p in _cache_entries(tmp_path)}
        assert f"{keys[0]}.json" in survivors  # refreshed by the hit above
        assert f"{keys[1]}.json" not in survivors
        assert f"{keys[2]}.json" not in survivors
        assert f"{'ff' * 32}.json" in survivors

    def test_cache_events_mirrored_to_profiler_counters(self, tmp_path):
        from repro import obs

        cache = ResultCache(tmp_path)
        obs.enable_tracing()
        try:
            cache.put("aa" * 32, {"value": 1})
            cache.get("aa" * 32)
            cache.get("bb" * 32)
            counters = obs.stage_report(obs.spans(), obs.counters())["counters"]
        finally:
            obs.reset()
        assert counters["cache.put"] == 1
        assert counters["cache.hit"] == 1
        assert counters["cache.miss"] == 1


class TestParallelExecution:
    def test_parallel_results_bit_identical_to_sequential(self):
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table3(
            benchmark_names=SUBSET
        )
        parallel = ExperimentEngine(jobs=3, use_cache=False).run_table3(
            benchmark_names=SUBSET
        )
        assert _stats_view(sequential) == _stats_view(parallel)

    def test_parallel_table2_identical_to_sequential(self):
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table2()
        parallel = ExperimentEngine(jobs=4, use_cache=False).run_table2()
        assert sequential.summaries == parallel.summaries
        assert sequential.rows == parallel.rows

    def test_engine_matches_legacy_run_table3(self):
        legacy = run_table3(benchmark_names=SUBSET)
        engine = ExperimentEngine(jobs=2, use_cache=False).run_table3(
            benchmark_names=SUBSET
        )
        assert _stats_view(legacy) == _stats_view(engine)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            ExperimentEngine(use_cache=False).run_table3(benchmark_names=("nope",))

    def test_unknown_flow_rejected_before_work(self):
        with pytest.raises(KeyError):
            ExperimentEngine(use_cache=False).run_table3(
                benchmark_names=SUBSET, flow="no-such-flow"
            )

    def test_explicit_flow_conflicts_with_optimize_first_false(self):
        # optimize_first=False must not silently discard an explicit flow.
        with pytest.raises(ValueError, match="conflicts"):
            ExperimentEngine(use_cache=False).run_table3(
                benchmark_names=SUBSET, flow="deep", optimize_first=False
            )

    def test_flows_run_end_to_end_with_distinct_results_or_stats(self):
        # Both named flows run through the engine; `none` must reflect the
        # unoptimized subject graph while resyn2rs shrinks or preserves it.
        engine = ExperimentEngine(use_cache=False)
        via_resyn = engine.run_table3(benchmark_names=SUBSET)
        via_quick = engine.run_table3(benchmark_names=SUBSET, flow="quick")
        via_none = engine.run_table3(benchmark_names=SUBSET, optimize_first=False)
        assert via_none.rows[0].aig_nodes >= via_resyn.rows[0].aig_nodes
        for result in (via_resyn, via_quick, via_none):
            for row in result.rows:
                for stats in row.results.values():
                    assert stats.gates > 0


class TestTable2Jobs:
    def test_characterization_cache_round_trip(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        first = engine.run_table2()
        assert _cache_entries(tmp_path)
        second = ExperimentEngine(cache_dir=tmp_path).run_table2()
        assert first.summaries == second.summaries
        assert first.rows == second.rows
        assert first.paper_averages == second.paper_averages

    def test_characterization_job_key_stable(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        job = CharacterizationJob(LogicFamily.CMOS)
        assert engine.characterization_job_key(job) == engine.characterization_job_key(job)
        keys = {
            engine.characterization_job_key(CharacterizationJob(family))
            for family in LogicFamily
        }
        assert len(keys) == len(LogicFamily)


class TestArtifacts:
    def test_write_artifacts_emits_valid_json(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache")
        table2 = engine.run_table2(families=(LogicFamily.TG_STATIC, LogicFamily.CMOS))
        table3 = engine.run_table3(benchmark_names=SUBSET)
        figure6 = figure6_from_table3(table3)
        written = engine.write_artifacts(
            tmp_path / "artifacts", table2=table2, table3=table3, figure6=figure6
        )
        assert {path.name for path in written} == {
            "table2.json",
            "table3.json",
            "figure6.json",
        }
        loaded = {path.name: json.loads(path.read_text()) for path in written}
        assert "add-16" in {row["name"] for row in loaded["table3.json"]["rows"]}
        assert loaded["table3.json"]["flow"] == "resyn2rs"
        assert LogicFamily.TG_STATIC.value in loaded["table2.json"]["families"]
        assert loaded["figure6.json"]["series"]["add-16"]["static"] > 1.0

    def test_table3_artifact_records_selected_flow(self, tmp_path):
        engine = ExperimentEngine(use_cache=False)
        table3 = engine.run_table3(benchmark_names=SUBSET, flow="quick")
        assert table3.flow == "quick"
        assert table3_payload(table3)["flow"] == "quick"
        none_result = engine.run_table3(benchmark_names=SUBSET, optimize_first=False)
        assert none_result.flow == "none"

    def test_payload_helpers_are_json_serializable(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        table3 = engine.run_table3(benchmark_names=SUBSET)
        for payload in (
            table3_payload(table3),
            table2_payload(engine.run_table2(families=(LogicFamily.CMOS,))),
            figure6_payload(figure6_from_table3(table3)),
        ):
            assert json.loads(json.dumps(payload)) == payload


class TestSubjectSchedule:
    """Parallel map batches are scheduled by subject, each subject built in
    the worker that claims it."""

    def test_jobs2_subject_schedule_smoke(self):
        """Fast-lane smoke: a --jobs 2 run over two benchmarks stays
        bit-identical to jobs=1 and joins its workers before returning."""
        names = ("add-16", "t481")
        before = set(multiprocessing.active_children())
        parallel = ExperimentEngine(jobs=2, use_cache=False).run_table3(
            benchmark_names=names, families=FAMILIES
        )
        assert set(multiprocessing.active_children()) <= before
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table3(
            benchmark_names=names, families=FAMILIES
        )
        assert _stats_view(sequential) == _stats_view(parallel)

    def test_jobs4_table3_payload_is_byte_identical(self):
        """jobs=4 mapping must produce a byte-identical Table-3 artifact
        payload to the jobs=1 path."""
        names = ("add-16", "t481")
        parallel = ExperimentEngine(jobs=4, use_cache=False).run_table3(
            benchmark_names=names, families=FAMILIES
        )
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table3(
            benchmark_names=names, families=FAMILIES
        )
        assert json.dumps(
            table3_payload(sequential), indent=2, sort_keys=True
        ) == json.dumps(table3_payload(parallel), indent=2, sort_keys=True)

    def test_batch_keys_generate_only_registered_subjects(
        self, monkeypatch, extra_benchmark
    ):
        """Built-in subjects are neither generated nor hashed for keys, a
        registered extra is generated and hashed once per batch, and the
        batch keys equal per-job map_job_key with and without an AIG."""
        generated, hashed = [], []
        original_build = BenchmarkCase.build
        original_print = engine_module.aig_fingerprint

        def counting_build(case):
            generated.append(case.name)
            return original_build(case)

        def counting_print(aig):
            hashed.append(aig.name)
            return original_print(aig)

        monkeypatch.setattr(BenchmarkCase, "build", counting_build)
        monkeypatch.setattr(engine_module, "aig_fingerprint", counting_print)
        names = ("add-16", "t481", extra_benchmark)
        jobs = [
            MapJob(name, family, objective=objective)
            for name in names
            for family in FAMILIES
            for objective in ("delay", "area")
        ]
        engine = ExperimentEngine(use_cache=False)
        keys, sources = engine._map_batch_keys(jobs)
        assert generated == hashed == [extra_benchmark]
        assert set(sources) == {extra_benchmark}

        assert keys == {job: engine.map_job_key(job) for job in jobs}
        assert set(generated[1:]) == set(hashed[1:]) == {extra_benchmark}
        aigs = {name: original_build(benchmark_by_name(name)) for name in names}
        del generated[:]
        assert keys == {job: engine.map_job_key(job, aigs[job.benchmark]) for job in jobs}
        assert not generated

    def test_subjects_are_claimed_largest_raw_aig_first(self, monkeypatch):
        from repro.experiments import resilience

        batches = []
        original = resilience.run_resilient

        def spy(worker, payloads, **kwargs):
            batches.append((list(payloads), kwargs["subjects"]))
            return original(worker, payloads, **kwargs)

        monkeypatch.setattr(resilience, "run_resilient", spy)
        names = ("add-16", "t481", "C1355")
        jobs = [MapJob(name, family) for name in names for family in FAMILIES]
        ExperimentEngine(jobs=2, use_cache=False).run_map_jobs(jobs)

        ((specs, subjects),) = batches
        assert [spec[0] for spec in specs] == [job.benchmark for job in jobs]
        sizes = {name: benchmark_by_name(name).build().num_ands for name in names}
        claimed = [specs[group[0]][0] for group in subjects]
        assert claimed == sorted(names, key=lambda name: -sizes[name])
        for group in subjects:
            assert len(group) == len(FAMILIES)
            assert len({specs[index][0] for index in group}) == 1


#: The built-in flows' fingerprints: their passes are package code, so no
#: source digest is folded in and warm caches keep hitting.
BUILTIN_FLOW_FINGERPRINTS = {
    "none": "none|prologue=|round=|max_rounds=0|keep_best=1|compare_input=1",
    "quick": "quick|prologue=balance|round=|max_rounds=0|keep_best=1|compare_input=1",
    "resyn2rs": (
        "resyn2rs|prologue=balance|round=rewrite,balance|max_rounds=3"
        "|keep_best=1|compare_input=1"
    ),
    "deep": (
        "deep|prologue=balance|round=rewrite,balance,rewrite3,balance"
        "|max_rounds=6|keep_best=1|compare_input=1"
    ),
    "resyn2rs-reference": (
        "resyn2rs-reference|prologue=balance_reference"
        "|round=rewrite_reference,balance_reference|max_rounds=3"
        "|keep_best=1|compare_input=1"
    ),
}


def _identity_pass(aig):
    return aig


def _identity_pass_factory():
    return lambda aig: aig


def _resynthesis_pass(aig):
    from repro.flow import run_flow

    return run_flow("resyn2rs", aig).aig


class TestProvenanceKeys:
    """Cache keys are the code digest plus the job spec: built-in subjects
    are named, run-time registered ones hashed by content, a pass defined
    outside the package by its source, and a warm run builds neither a
    library nor a benchmark."""

    def test_code_digest_change_misses_every_entry(self, tmp_path, monkeypatch):
        families = (LogicFamily.TG_STATIC, LogicFamily.CMOS)
        jobs = _jobs()

        def run():
            engine = ExperimentEngine(cache_dir=tmp_path)
            engine.run_table2(families=families)
            engine.run_map_jobs(jobs)
            return engine.cache.stats

        filled = run()
        assert filled.hits == 0 and filled.puts == len(families) + len(jobs)
        monkeypatch.setattr(engine_module, "code_digest", lambda: "0" * 64)
        changed = run()
        assert changed.hits == 0 and changed.misses == len(families) + len(jobs)
        monkeypatch.undo()
        restored = run()
        assert restored.misses == 0 and restored.hits == len(families) + len(jobs)

    def test_source_digest_sees_nested_module_edits(self, tmp_path):
        package = tmp_path / "repro"
        shutil.copytree(
            engine_module._PACKAGE_ROOT,
            package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        before = source_digest(package)
        assert before == source_digest(engine_module._PACKAGE_ROOT)
        nested = package / "synthesis" / "mapper.py"
        original = nested.read_bytes()
        middle = len(original) // 2
        edited = original[:middle] + bytes([original[middle] ^ 1]) + original[middle + 1:]
        nested.write_bytes(edited)
        assert source_digest(package) != before
        nested.write_bytes(original)
        assert source_digest(package) == before

    def test_renamed_blif_hits_and_edited_blif_misses(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_module, "_OPTIMIZED_AIGS", {})
        monkeypatch.setattr(engine_module, "_ACTIVITY_REPORTS", {})
        original = tmp_path / "circuit.blif"
        original.write_text(write_blif(ripple_adder_circuit(4, name="circuit")))
        renamed = tmp_path / "renamed.blif"
        renamed.write_bytes(original.read_bytes())
        cache = tmp_path / "cache"

        def run(name):
            return ExperimentEngine(cache_dir=cache).run_map_jobs(
                [MapJob(name, family) for family in FAMILIES]
            )

        try:
            register_blif_benchmark(original, name="blif-original")
            first = run("blif-original")
            assert not any(result.cached for result in first.values())
            register_blif_benchmark(renamed, name="blif-renamed")
            again = run("blif-renamed")
            assert all(result.cached for result in again.values())
            assert {job.family: r.stats for job, r in again.items()} == {
                job.family: r.stats for job, r in first.items()
            }
            renamed.write_text(write_blif(ripple_adder_circuit(5, name="circuit")))
            edited = run("blif-renamed")
            assert not any(result.cached for result in edited.values())
        finally:
            unregister_benchmark("blif-original")
            unregister_benchmark("blif-renamed")

    def test_warm_runs_build_nothing(self, tmp_path, monkeypatch):
        names = ("add-16",)

        def regenerate():
            engine = ExperimentEngine(cache_dir=tmp_path)
            payloads = (
                table2_payload(engine.run_table2()),
                table3_payload(engine.run_table3(benchmark_names=names)),
                pareto_payload(engine.run_pareto(benchmark_names=names)),
            )
            return payloads, engine.cache.stats

        filled, fill_stats = regenerate()
        jobs = fill_stats.hits + fill_stats.misses  # Pareto re-reads Table 3's

        def refuse(*args, **kwargs):
            raise AssertionError("a warm run built a library or a benchmark")

        monkeypatch.setattr(BenchmarkCase, "build", refuse)
        monkeypatch.setattr(engine_module, "build_library", refuse)
        warm, warm_stats = regenerate()
        assert warm_stats.misses == 0 and warm_stats.hits == jobs
        assert warm == filled

    @pytest.fixture
    def probe_key(self, monkeypatch):
        """Map key of a C1355 job under ``probe-flow``, whose one pass
        ``probe-pass`` is (re-)registered with the given implementation."""
        from repro.flow import pipeline, passes

        monkeypatch.setitem(
            pipeline._FLOW_REGISTRY,
            "probe-flow",
            pipeline.FlowSpec(name="probe-flow", prologue=("probe-pass",)),
        )
        engine = ExperimentEngine(use_cache=False)
        job = MapJob("C1355", LogicFamily.CMOS, flow="probe-flow")

        def key(implementation):
            monkeypatch.setitem(
                passes._PASS_REGISTRY,
                "probe-pass",
                passes.FunctionPass("probe-pass", implementation),
            )
            return engine.map_job_key(job)

        return key

    def test_different_body_under_the_same_name_changes_the_key(self, probe_key):
        assert probe_key(_resynthesis_pass) != probe_key(_identity_pass)

    def test_reregistering_the_same_body_keeps_the_key(self, probe_key):
        identity = probe_key(_identity_pass)
        assert probe_key(_identity_pass) == identity
        # Two function objects built from one source line hash alike.
        assert probe_key(_identity_pass_factory()) == probe_key(
            _identity_pass_factory()
        )

    def test_unreadable_pass_source_fails_at_key_time(self, probe_key):
        with pytest.raises(ValueError, match="cannot read the source"):
            probe_key(eval("lambda aig: aig"))

    def test_builtin_flow_fingerprints_are_unchanged(self):
        from repro.flow import get_flow

        for name, fingerprint in BUILTIN_FLOW_FINGERPRINTS.items():
            assert get_flow(name).fingerprint() == fingerprint


class TestSubjectLifetime:
    """Subject state has one lifetime: every derived memo hangs off the
    optimized AIG held by the engine's per-process dicts.  The parent keeps
    its subjects across batches; a pool worker drops them on a switch."""

    def test_in_process_batches_reuse_subject_state(self, monkeypatch):
        """An in-process Pareto batch after Table 3 maps the same optimized
        AIG, cut set and activity reports that Table 3 built."""
        import repro.experiments.engine as engine_module
        from repro.synthesis.cuts import cut_set_for

        monkeypatch.setattr(engine_module, "_OPTIMIZED_AIGS", {})
        monkeypatch.setattr(engine_module, "_ACTIVITY_REPORTS", {})
        engine = ExperimentEngine(jobs=1, use_cache=False)

        def subject_state():
            aig = engine_module._OPTIMIZED_AIGS[("add-16", "resyn2rs")]
            return aig, cut_set_for(aig), dict(engine_module._ACTIVITY_REPORTS)

        engine.run_table3(("add-16",))
        aig, cut_set, activities = subject_state()
        assert activities
        engine.run_pareto(("add-16",))
        again_aig, again_cut_set, again_activities = subject_state()
        assert again_aig is aig
        assert again_cut_set is cut_set
        assert again_activities.keys() == activities.keys()
        for key, report in activities.items():
            assert again_activities[key] is report

    def test_worker_holds_one_subject_after_a_switch(self, monkeypatch):
        """A pool worker keeps its subject while it stays on it, and the
        previous subject's AIG and cut set are freed once it switches."""
        import gc
        import weakref

        import repro.experiments.engine as engine_module
        from repro.experiments.engine import _run_map_job
        from repro.synthesis.cuts import cut_set_for

        # A fresh pool worker, with private memos so the parent's stay intact.
        monkeypatch.setattr(engine_module, "_WORKER_SUBJECT", ())
        monkeypatch.setattr(engine_module, "_OPTIMIZED_AIGS", {})
        monkeypatch.setattr(engine_module, "_ACTIVITY_REPORTS", {})

        _run_map_job(MapJob("t481", LogicFamily.TG_STATIC).spec())
        held = engine_module._OPTIMIZED_AIGS[("t481", "resyn2rs")]
        _run_map_job(MapJob("t481", LogicFamily.CMOS).spec())
        assert engine_module._OPTIMIZED_AIGS[("t481", "resyn2rs")] is held
        aig_ref = weakref.ref(held)
        cut_set_ref = weakref.ref(cut_set_for(held))
        del held

        _run_map_job(MapJob("add-16", LogicFamily.TG_STATIC).spec())
        gc.collect()
        assert aig_ref() is None
        assert cut_set_ref() is None
        assert list(engine_module._OPTIMIZED_AIGS) == [("add-16", "resyn2rs")]
        assert len(engine_module._ACTIVITY_REPORTS) == 1

    def test_parent_in_process_jobs_keep_every_subject(self):
        """jobs=1 (and the in-process degradation path) run in the parent,
        where _WORKER_SUBJECT is None: a subject switch never drops memos."""
        import repro.experiments.engine as engine_module
        from repro.experiments.engine import _run_map_job

        assert engine_module._WORKER_SUBJECT is None
        _run_map_job(MapJob("add-16", LogicFamily.TG_STATIC).spec())
        _run_map_job(MapJob("t481", LogicFamily.TG_STATIC).spec())
        assert ("add-16", "resyn2rs") in engine_module._OPTIMIZED_AIGS
        assert ("t481", "resyn2rs") in engine_module._OPTIMIZED_AIGS
