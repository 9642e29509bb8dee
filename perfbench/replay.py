"""Traced replay of a workload through each layer's public functions.

The replay schedules the same jobs as the engine, in the engine's order at
one worker, and wraps every call into a layer in a benchmark-owned span:

* per batch: subject build and key (``engine.key``), then one cache lookup
  per job (``engine.cache_get``);
* per subject, on its first job: generator (``bench.build``) ->
  ``run_flow`` (``flow``) -> ``cut_set_for`` (``cuts``) ->
  ``compute_activities`` (``activity``);
* per job: ``LibraryMatcher.match_table`` per cell policy the job uses
  (``match``) -> ``map_rounds`` (``map``) -> ``analyze_power``
  (``power``) -> ``ResultCache.put`` (``engine.cache_put``).

Jobs served from the cache stop after the lookup.  Every replayed netlist
is checked with ``verify_mapping`` on seeded patterns, outside the spans.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.analysis.activity import ActivityReport, compute_activities
from repro.analysis.power import analyze_power
from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.core.characterize import characterize_family
from repro.core.library import build_library
from repro.experiments.engine import CharacterizationJob, ExperimentEngine, MapJob
from repro.experiments.pareto import PARETO_FAMILIES, PARETO_OBJECTIVES
from repro.experiments.table2 import TABLE2_FAMILIES
from repro.experiments.table3 import TABLE3_FAMILIES, MappingStats, PowerStats
from repro.flow import run_flow
from repro.synthesis.aig import Aig
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cost import cost_model_for, resolve_recovery
from repro.synthesis.cuts import CutSet, cut_set_for
from repro.synthesis.mapper import map_rounds, verify_mapping
from repro.synthesis.matcher import matcher_for

from spans import Recorder
from workloads import SCALE_SUBJECTS, map_key

#: Work counters the replay records at the layer boundaries.
COUNTS = (
    "flow.ands_in", "flow.ands_out", "cuts.count", "cuts.ands",
    "match.rows", "match.unique_functions", "match.index_hits",
    "map.gates", "map.recovery_rounds", "map.recovery_accepted",
)


def map_jobs(section: str, seed: int) -> list[MapJob]:
    """The section's mapping jobs, in the order the engine schedules them."""
    if section == "scale":
        return [
            MapJob(name, family, power_seed=seed, rounds=1)
            for name in SCALE_SUBJECTS
            for family in TABLE3_FAMILIES
        ]
    if section == "table3":
        return [
            MapJob(case.name, family, power_seed=seed)
            for case in BENCHMARKS
            for family in TABLE3_FAMILIES
        ]
    return [
        MapJob(case.name, family, objective=objective, power_seed=seed)
        for case in BENCHMARKS
        for family in PARETO_FAMILIES
        for objective in PARETO_OBJECTIVES
    ]


def cell_policies(job: MapJob) -> set[str]:
    """The preferred-cell policies whose match tables the job's rounds read."""
    policies = {cost_model_for(job.objective).prefer}
    if job.rounds:
        recovery = resolve_recovery(job.objective, job.recovery)
        policies.add(cost_model_for(recovery).prefer)
    return policies


@dataclass
class Subject:
    """One optimized subject with its cuts and signal statistics."""

    aig: Aig
    and_nodes: np.ndarray
    cut_set: CutSet
    activities: ActivityReport
    #: (family, policy) pairs whose match table is already resolved.
    matched: set = field(default_factory=set)


class Replay:
    """Replays workload sections into a private cache under spans."""

    def __init__(self, cache_dir: str, seed: int) -> None:
        self.seed = seed
        self.engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        self.cache = self.engine.cache
        self.recorder = Recorder()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.records: dict[str, dict] = {}
        self.verify_failures = 0

    def run(self, sections: tuple[str, ...]) -> None:
        for section in sections:
            if section == "table2":
                self.table2([CharacterizationJob(family) for family in TABLE2_FAMILIES])
            else:
                self.map_batch(section, map_jobs(section, self.seed))

    def lookups(self, job_ids: list[str], keys: list[str]) -> list[dict | None]:
        payloads = []
        for job_id, key in zip(job_ids, keys):
            with self.recorder.span("engine.cache_get", job_id):
                payloads.append(self.cache.get(key))
        return payloads

    def table2(self, jobs: list[CharacterizationJob]) -> None:
        span = self.recorder.span
        job_ids = [f"table2:{job.family.value}" for job in jobs]
        keys = []
        for job, job_id in zip(jobs, job_ids):
            with span("engine.key", job_id):
                keys.append(self.engine.characterization_job_key(job))
        payloads = self.lookups(job_ids, keys)
        records = self.records.setdefault("table2", {})
        for job, job_id, key, payload in zip(jobs, job_ids, keys, payloads):
            if payload is None:
                with span("job", job_id):
                    with span("core.characterize"):
                        rows, summary = characterize_family(build_library(job.family))
                    payload = {
                        "rows": [asdict(row) for row in rows],
                        "summary": asdict(summary),
                    }
                    with span("engine.cache_put"):
                        self.cache.put(key, payload)
            records[job.family.value] = payload

    def map_batch(self, section: str, jobs: list[MapJob]) -> None:
        span = self.recorder.span
        sources: dict[str, Aig] = {}
        for job in jobs:
            if job.benchmark not in sources:
                with span("bench.build"):
                    sources[job.benchmark] = benchmark_by_name(job.benchmark).build()
        names = [
            map_key(job.benchmark, job.family.value, job.objective, job.rounds)
            for job in jobs
        ]
        job_ids = [f"{section}:{name}" for name in names]
        keys = []
        for job, job_id in zip(jobs, job_ids):
            with span("engine.key", job_id):
                keys.append(self.engine.map_job_key(job, sources[job.benchmark]))
        payloads = self.lookups(job_ids, keys)
        subjects: dict[str, Subject] = {}
        records = self.records.setdefault(section, {})
        for job, name, job_id, key, payload in zip(jobs, names, job_ids, keys, payloads):
            if payload is None:
                with span("job", job_id):
                    subject = subjects.get(job.benchmark)
                    if subject is None:
                        subject = subjects[job.benchmark] = self.subject(job)
                    mapped, payload = self.map_job(job, subject)
                    with span("engine.cache_put"):
                        self.cache.put(key, payload)
                self.verify(mapped, subject.aig)
            records[name] = {"stats": payload["stats"], "power": payload["power"]}

    def subject(self, job: MapJob) -> Subject:
        span = self.recorder.span
        with span("subject"):
            with span("bench.build"):
                source = benchmark_by_name(job.benchmark).build()
            with span("flow"):
                aig = run_flow(job.flow, source).aig
            with span("cuts"):
                cut_set = cut_set_for(aig, job.max_inputs, job.cut_limit)
            with span("activity"):
                activities = compute_activities(
                    aig, vectors=job.power_vectors, seed=job.power_seed
                )
        and_nodes = aig_arrays(aig).and_nodes
        self.counts["flow.ands_in"] += source.num_ands
        self.counts["flow.ands_out"] += aig.num_ands
        self.counts["cuts.count"] += int((cut_set.count[and_nodes] - 1).sum())
        self.counts["cuts.ands"] += aig.num_ands
        return Subject(aig, and_nodes, cut_set, activities)

    def map_job(self, job: MapJob, subject: Subject):
        span = self.recorder.span
        library = build_library(job.family)
        matcher = matcher_for(library)
        for policy in sorted(cell_policies(job)):
            if (job.family, policy) in subject.matched:
                continue
            with span("match"):
                table = matcher.match_table(subject.cut_set, subject.and_nodes, policy)
            subject.matched.add((job.family, policy))
            self.counts["match.rows"] += table.inverse.shape[0]
            self.counts["match.unique_functions"] += table.matched.shape[0]
            self.counts["match.index_hits"] += int(table.matched.sum())
        with span("map"):
            result = map_rounds(
                subject.aig,
                library,
                matcher=matcher,
                objective=job.objective,
                rounds=job.rounds,
                recovery=job.recovery,
                max_inputs=job.max_inputs,
                cut_limit=job.cut_limit,
                activities=subject.activities,
            )
        mapped = result.final
        with span("power"):
            power = analyze_power(mapped, subject.aig, library, subject.activities)
        self.counts["map.gates"] += mapped.gate_count
        self.counts["map.recovery_rounds"] += len(result.rounds) - 1
        self.counts["map.recovery_accepted"] += sum(result.accepted[1:])
        payload = {
            "stats": asdict(MappingStats.from_mapped(mapped)),
            "power": asdict(PowerStats.from_analysis(power)),
            "aig_nodes": subject.aig.num_ands,
            "aig_depth": subject.aig.depth(),
        }
        return mapped, payload

    def verify(self, mapped, aig: Aig) -> None:
        rng = random.Random(f"perfbench:{self.seed}:{aig.name}")
        patterns = {name: [rng.getrandbits(64) for _ in range(2)] for name in aig.pi_names}
        if not verify_mapping(mapped, aig, patterns):
            self.verify_failures += 1
