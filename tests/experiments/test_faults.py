"""Chaos suite: deterministic fault injection against the experiment engine.

Every scenario arms a seeded :class:`repro.experiments.faults.FaultPlan`
(installed in pool workers through ``REPRO_FAULT_PLAN``), lets the engine
absorb the failure, and asserts the *reproducibility contract*: the results
and artifacts of a faulted run are bit-identical to a fault-free ``jobs=1``
run, and already-finished jobs are never rerun.

Run with ``pytest -m chaos``.  When ``REPRO_CHAOS_REPORT`` names a file,
the failure classification of every engine-level scenario is written there
as JSON (the nightly CI lane uploads it as an artifact).
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.families import LogicFamily
from repro.experiments import faults
from repro.experiments.engine import (
    ExperimentEngine,
    MapJob,
    ResultCache,
    table3_payload,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.resilience import CRASH, TIMEOUT, RetryPolicy

pytestmark = pytest.mark.chaos

BENCHMARKS = ("add-16", "t481")
FAMILIES = (LogicFamily.TG_STATIC, LogicFamily.CMOS)

#: Retries resolve fast in tests; correctness must not depend on pacing.
FAST_POLICY = RetryPolicy(backoff_base=0.01, backoff_max=0.05)

_REPORT: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _chaos_report():
    """Serialize every scenario's failure classification for CI upload."""
    yield
    target = os.environ.get("REPRO_CHAOS_REPORT")
    if target:
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"suite": "tests/experiments/test_faults.py", "runs": _REPORT},
                indent=2,
                sort_keys=True,
            )
        )


def _classify(test_name: str, engine: ExperimentEngine) -> dict:
    record = {"test": test_name, **engine.robustness_stats()}
    _REPORT.append(record)
    return record


def _jobs4():
    return [
        MapJob(benchmark, family)
        for benchmark in BENCHMARKS
        for family in FAMILIES
    ]


def _job_tag(job: MapJob) -> str:
    return f"{job.benchmark}:{job.family.value}:{job.objective}:{job.flow}:{job.rounds}"


def _result_view(results):
    return {
        job: (r.stats, r.power, r.aig_nodes, r.aig_depth)
        for job, r in results.items()
    }


@pytest.fixture
def arm(tmp_path, monkeypatch):
    """Arm a fault plan (with a spool/ledger dir) for pool workers."""
    spool = tmp_path / "spool"
    spool.mkdir()

    def _arm(**kwargs):
        plan = FaultPlan(once_dir=str(spool), **kwargs)
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        return plan

    _arm.spool = spool
    return _arm


class TestFaultPlanUnit:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=3, kill_job=1, delay_job=2, delay_seconds=0.5,
                         once_dir=str(tmp_path))
        assert FaultPlan.from_json(plan.to_json()) == plan
        with pytest.raises(ValueError):
            FaultPlan.from_json("[1, 2]")

    def test_rng_streams_are_deterministic_and_scoped(self):
        plan = FaultPlan(seed=11)
        assert plan.rng("a").random() == FaultPlan(seed=11).rng("a").random()
        assert plan.rng("a").random() != plan.rng("b").random()

    def test_claim_once_admits_exactly_one_claimant(self, tmp_path):
        assert faults.claim_once(tmp_path, "boom")
        assert not faults.claim_once(tmp_path, "boom")
        assert faults.claim_once(tmp_path, "other")

    def test_install_from_env_ignores_malformed_plans(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "{not json")
        faults.install_from_env()
        assert faults.active_plan() is None

    def test_corrupt_file_truncate_halves_the_file(self, tmp_path):
        victim = tmp_path / "entry.json"
        victim.write_bytes(b"x" * 100)
        faults.corrupt_file(victim, mode="truncate")
        assert victim.stat().st_size == 50

    def test_corrupt_file_flip_is_deterministic(self, tmp_path):
        a = tmp_path / "entry.json"
        b = tmp_path / "same"
        b.mkdir()
        b = b / "entry.json"
        payload = json.dumps({"v": list(range(100))}).encode()
        a.write_bytes(payload)
        b.write_bytes(payload)
        faults.corrupt_file(a, seed=5, mode="flip")
        faults.corrupt_file(b, seed=5, mode="flip")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != payload
        with pytest.raises(ValueError):
            faults.corrupt_file(a, mode="melt")

    def test_execution_ledger_counts_per_tag(self, tmp_path):
        plan = FaultPlan(once_dir=str(tmp_path))
        faults.install(plan)
        try:
            faults.on_job_start("alpha")
            faults.on_job_start("alpha")
            faults.on_job_start("beta")
        finally:
            faults.install(None)
        assert faults.execution_counts(tmp_path) == {"alpha": 2, "beta": 1}


class TestWorkerKill:
    def test_injected_worker_kill_mid_batch_is_bit_identical(self, arm):
        """The headline contract: kill a worker mid-batch (jobs=4), the run
        completes, finished jobs are not rerun, and every payload matches
        the fault-free jobs=1 run."""
        jobs = _jobs4()
        baseline_engine = ExperimentEngine(jobs=1, use_cache=False)
        baseline = baseline_engine.run_map_jobs(jobs)

        arm(kill_job=0)
        engine = ExperimentEngine(
            jobs=4, use_cache=False, retry_policy=FAST_POLICY
        )
        chaotic = engine.run_map_jobs(jobs)

        assert _result_view(chaotic) == _result_view(baseline)
        assert engine.pool_rebuilds >= 1
        assert engine.degraded_jobs == 0
        assert engine.failures and all(f.kind == CRASH for f in engine.failures)
        record = _classify("worker_kill_jobs4", engine)
        assert record["failure_counts"] == {CRASH: len(engine.failures)}

        # The execution ledger proves completed jobs were never rerun: only
        # jobs charged with a failure may appear more than once.
        counts = faults.execution_counts(arm.spool)
        charged = {_job_tag(jobs[f.index]) for f in engine.failures}
        for job in jobs:
            tag = _job_tag(job)
            if tag in charged:
                assert 1 <= counts.get(tag, 0) <= 1 + len(engine.failures)
            else:
                assert counts.get(tag) == 1

    def test_kill_during_table3_artifact_is_byte_identical(self, arm, tmp_path):
        clean = ExperimentEngine(jobs=1, use_cache=False).run_table3(
            benchmark_names=BENCHMARKS, families=FAMILIES
        )
        arm(kill_job=1)
        engine = ExperimentEngine(jobs=4, use_cache=False, retry_policy=FAST_POLICY)
        chaotic = engine.run_table3(benchmark_names=BENCHMARKS, families=FAMILIES)
        assert json.dumps(table3_payload(chaotic), sort_keys=True) == json.dumps(
            table3_payload(clean), sort_keys=True
        )
        _classify("worker_kill_table3", engine)


class TestTimeoutFault:
    def test_delayed_job_times_out_retries_and_matches_baseline(self, arm):
        jobs = [MapJob("add-16", family) for family in FAMILIES]
        baseline = ExperimentEngine(jobs=1, use_cache=False).run_map_jobs(jobs)

        arm(delay_job=0, delay_seconds=30.0)
        engine = ExperimentEngine(
            jobs=2,
            use_cache=False,
            retry_policy=RetryPolicy(timeout=2.0, backoff_base=0.01),
        )
        chaotic = engine.run_map_jobs(jobs)

        assert _result_view(chaotic) == _result_view(baseline)
        assert TIMEOUT in {f.kind for f in engine.failures}
        assert engine.pool_rebuilds >= 1
        _classify("job_timeout_jobs2", engine)


class TestCacheCorruptionFault:
    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_corrupted_entry_is_quarantined_and_recomputed(self, tmp_path, mode):
        cache_dir = tmp_path / "cache"
        jobs = [MapJob("add-16", family) for family in FAMILIES]
        first_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        first = first_engine.run_map_jobs(jobs)
        victim_key = first_engine.map_job_key(jobs[0])
        victim = first_engine.cache.path_for(victim_key)
        faults.corrupt_file(victim, seed=1, mode=mode)

        redo_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        redone = redo_engine.run_map_jobs(jobs)
        assert _result_view(redone) == _result_view(first)
        assert not redone[jobs[0]].cached  # damage detected, job recomputed
        assert redone[jobs[1]].cached
        assert redo_engine.cache.stats.corrupt == 1
        assert len(list(redo_engine.cache.quarantine_dir().iterdir())) == 1

        fresh = ExperimentEngine(jobs=1, cache_dir=cache_dir).run_map_jobs(jobs)
        assert all(result.cached for result in fresh.values())
        _REPORT.append(
            {"test": f"cache_corruption_{mode}", **redo_engine.robustness_stats()}
        )


class TestConcurrentRunners:
    def test_two_runners_sharing_a_cache_produce_no_corruption(self, tmp_path):
        """Satellite acceptance: concurrent runners over one cache directory
        leave zero corrupt or duplicate entries and agree bit-for-bit."""
        cache_dir = tmp_path / "cache"
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        runners = [
            context.Process(target=_runner_process, args=(cache_dir, rank, queue))
            for rank in range(2)
        ]
        for runner in runners:
            runner.start()
        payloads = [queue.get(timeout=300) for _ in runners]
        for runner in runners:
            runner.join(timeout=30)
            assert runner.exitcode == 0

        assert payloads[0]["results"] == payloads[1]["results"]
        assert all(p["corrupt"] == 0 for p in payloads)

        entries = sorted(cache_dir.glob("??/??/*.json"))
        assert len(entries) == len(_jobs4())  # no duplicate entries per key
        assert not list(cache_dir.rglob("*.tmp"))  # no staging leftovers
        assert not ResultCache(cache_dir).quarantine_dir().exists()
        validator = ResultCache(cache_dir)
        for entry in entries:
            assert validator.get(entry.stem) is not None
        assert validator.stats.corrupt == 0
        assert validator.stats.hits == len(entries)


def _runner_process(cache_dir, rank: int, queue) -> None:
    """Child-process body: one cache-sharing runner (stress scenario)."""
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    results = engine.run_map_jobs(_jobs4())
    queue.put(
        {
            "rank": rank,
            "corrupt": engine.cache.stats.corrupt,
            "results": sorted(
                (job.benchmark, job.family.value, repr(result.stats))
                for job, result in results.items()
            ),
        }
    )
