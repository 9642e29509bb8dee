"""One fresh process of the benchmark.

``perfbench/run.py`` starts this script with ``PYTHONPATH`` set to the
checkout's ``src`` and a cleared ``REPRO_*`` environment.  It sets up what a
user's run sets up (imports, the five characterized libraries and their
matchers), then runs one of three modes and writes one JSON report to
``--out``:

``setup``
    Set-up only, for more set-up samples than measured runs give.
``measure``
    The workload's body through the engine's public API, timed.
``fill``
    The ``warm-all`` body at two workers, to fill the cache the measured
    ``warm-all`` runs read.
``replay``
    The traced replay of the workload (see ``replay.py``); also writes the
    Chrome trace to ``--trace-out``.
"""

import time  # noqa: I001 -- first, so the import phase is timed from here

import argparse
import json
import resource
from dataclasses import asdict

from repro.bench.generators.des import des_round_circuit
from repro.bench.generators.multiplier import array_multiplier_circuit
from repro.bench.registry import BenchmarkCase, register_benchmark
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.experiments.engine import ExperimentEngine
from repro.experiments.figure6 import figure6_from_table3
from repro.synthesis.matcher import matcher_for

from workloads import POINT_FIELDS, POOL_SLOTS, SCALE_SUBJECTS, WORKLOADS, map_key

IMPORTED = time.monotonic()


def cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def register_scale_subjects(seed: int) -> None:
    """The ``scale-k6`` subjects: a 32x32 array multiplier (9.8k ANDs) and
    an eight-round DES datapath (15k ANDs) whose S-boxes follow the seed."""
    register_benchmark(BenchmarkCase(
        name="mult-32", function="Multiplier", paper_inputs=64,
        paper_outputs=64, exact=False, xor_rich=True,
        generator=lambda: array_multiplier_circuit(width=32, name="mult-32"),
    ))
    register_benchmark(BenchmarkCase(
        name="des-8r", function="Data encryption", paper_inputs=448,
        paper_outputs=64, exact=False, xor_rich=False,
        generator=lambda: des_round_circuit(
            block_width=64, rounds=8, seed=seed, name="des-8r"
        ),
    ))


def set_up(workload: str, seed: int, spawned: float) -> dict:
    """Build and power-characterize every library and its matcher."""
    if workload == "scale-k6":
        register_scale_subjects(seed)
    for family in LogicFamily:
        for cell in build_library(family).cells:
            cell.power  # noqa: B018 -- power characterization is set-up work
    built = time.monotonic()
    for family in LogicFamily:
        matcher_for(build_library(family))
    ready = time.monotonic()
    return {
        "spawned": spawned,
        "imported": IMPORTED,
        "built": built,
        "ready": ready,
        "import_s": IMPORTED - spawned,
        "library_s": built - IMPORTED,
        "matcher_s": ready - built,
        "setup_s": ready - spawned,
    }


def run_body(workload: str, engine: ExperimentEngine, seed: int) -> dict:
    """The workload's regeneration; returns its results by section."""
    if workload == "pareto-j2":
        return {"pareto": engine.run_pareto(power_seed=seed)}
    if workload == "scale-k6":
        return {"scale": engine.run_table3(
            benchmark_names=SCALE_SUBJECTS, power_seed=seed, rounds=1
        )}
    results = {"table2": engine.run_table2()}
    results["table3"] = engine.run_table3(power_seed=seed)
    figure6_from_table3(results["table3"])
    if workload == "warm-all":
        results["pareto"] = engine.run_pareto(power_seed=seed)
    return results


def records_of(results: dict) -> dict:
    """Per-job records of the results, keyed like the expected files."""
    records: dict = {}
    for section, result in results.items():
        if section == "table2":
            records[section] = {
                family.value: {
                    "rows": [asdict(row) for row in result.rows[family]],
                    "summary": asdict(result.summaries[family]),
                }
                for family in result.rows
            }
        elif section == "pareto":
            records[section] = {
                map_key(row.name, point.family.value, point.objective, point.rounds): {
                    field: getattr(point, field) for field in POINT_FIELDS
                }
                for row in result.rows
                for point in row.points
            }
        else:
            records[section] = {
                map_key(row.name, family.value, result.objective, result.rounds): {
                    "stats": asdict(row.results[family]),
                    "power": asdict(row.power[family]),
                }
                for row in result.rows
                for family in row.results
            }
    return records


def measure(args) -> dict:
    workload = "warm-all" if args.mode == "fill" else args.workload
    jobs = POOL_SLOTS if args.mode == "fill" else WORKLOADS[workload].jobs
    setup = set_up(workload, args.seed, args.spawned)
    cpu_start = cpu_self()
    start = time.monotonic()
    engine = ExperimentEngine(jobs=jobs, cache_dir=args.cache)
    results = run_body(workload, engine, args.seed)
    end = time.monotonic()
    cpu_end = cpu_self()
    report = {
        "setup": setup,
        "wall_s": end - start,
        "records": records_of(results),
        "robustness": engine.robustness_stats(),
    }
    report["cpu_outside_body_s"] = cpu_start + (cpu_self() - cpu_end)
    return report


def replay_mode(args) -> dict:
    import replay
    from spans import write_chrome_trace

    setup = set_up(args.workload, args.seed, args.spawned)
    run = replay.Replay(args.cache, args.seed)
    run.run(WORKLOADS[args.workload].sections)
    setup_spans = [
        {"name": name, "start": start, "end": end, "parent": None, "job": None}
        for name, start, end in (
            ("setup.import", setup["spawned"], setup["imported"]),
            ("setup.library", setup["imported"], setup["built"]),
            ("setup.matcher", setup["built"], setup["ready"]),
        )
    ]
    write_chrome_trace(args.trace_out, run.recorder.spans + setup_spans)
    return {
        "setup": setup,
        "spans": run.recorder.spans,
        "counts": run.counts,
        "records": run.records,
        "verify_failures": run.verify_failures,
        "cache": run.cache.stats.as_dict(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "fill", "replay"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        report = {"setup": set_up(args.workload, args.seed, args.spawned)}
    elif args.mode == "replay":
        report = replay_mode(args)
    else:
        report = measure(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
