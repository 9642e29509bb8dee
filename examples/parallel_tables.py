"""Regenerate the paper's tables through the parallel experiment engine.

Demonstrates the scaling subsystem behind ``repro.experiments``:

1. build an :class:`~repro.experiments.engine.ExperimentEngine` with worker
   processes and an on-disk result cache;
2. regenerate Table 2 and a Table-3 subset through it (the second run is
   served from the cache and is nearly free);
3. write the machine-readable JSON artifacts next to the rendered text.

Run with:  python examples/parallel_tables.py
"""

import tempfile
import time
from pathlib import Path

from repro.experiments import ExperimentEngine, render_table3
from repro.experiments.figure6 import figure6_from_table3

SUBSET = ("add-16", "add-32", "C1355")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-engine-"))
    engine = ExperimentEngine(jobs=4, cache_dir=workdir / "cache")

    start = time.perf_counter()
    table3 = engine.run_table3(benchmark_names=SUBSET)
    cold = time.perf_counter() - start
    print(render_table3(table3))

    start = time.perf_counter()
    engine.run_table3(benchmark_names=SUBSET)
    warm = time.perf_counter() - start
    print(f"\ncold run {cold:.2f} s -> warm cached run {warm:.3f} s "
          f"({cold / max(warm, 1e-9):.0f}x)")

    table2 = engine.run_table2()
    written = engine.write_artifacts(
        workdir / "artifacts",
        table2=table2,
        table3=table3,
        figure6=figure6_from_table3(table3),
    )
    print("artifacts:", ", ".join(str(path) for path in written))


if __name__ == "__main__":
    main()
