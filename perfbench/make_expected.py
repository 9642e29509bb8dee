"""Regenerate the committed expected results of one seed::

    PYTHONPATH=src python3 perfbench/make_expected.py SEED

Runs every job of every workload once through the engine (two workers, no
cache) and writes each job's full result to ``expected/seed-SEED.json``.
Run it once per seed in ``workloads.SEEDS``, each in its own process: the
engine memoizes subjects by name, and ``des-8r`` differs per seed.
Regenerate only for a change that is meant to alter the program's output.
"""

import json
import sys
from dataclasses import asdict

from repro.experiments.engine import ExperimentEngine

from child import register_scale_subjects
from replay import map_jobs
from workloads import expected_path, map_key


def main() -> None:
    seed = int(sys.argv[1])
    register_scale_subjects(seed)
    engine = ExperimentEngine(jobs=2, use_cache=False)
    table2 = engine.run_table2()
    sections = {"table2": [family.value for family in table2.rows]}
    jobs = {}
    for section in ("table3", "pareto", "scale"):
        keyed = {
            map_key(job.benchmark, job.family.value, job.objective, job.rounds): job
            for job in map_jobs(section, seed)
        }
        sections[section] = list(keyed)
        jobs.update(keyed)
    results = engine.run_map_jobs(list(jobs.values()))
    expected = {
        "seed": seed,
        "sections": sections,
        "table2": {
            family.value: {
                "rows": [asdict(row) for row in table2.rows[family]],
                "summary": asdict(table2.summaries[family]),
            }
            for family in table2.rows
        },
        "map": {
            key: {"stats": asdict(results[job].stats), "power": asdict(results[job].power)}
            for key, job in jobs.items()
        },
    }
    path = expected_path(seed)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
