"""Experiment harness regenerating every table and figure of the paper.

* :mod:`repro.experiments.table2` -- library characterization (Table 2);
* :mod:`repro.experiments.table3` -- technology-mapping results over the 15
  benchmarks (Table 3);
* :mod:`repro.experiments.figure6` -- the per-benchmark CMOS-to-CNTFET
  absolute-delay ratios (Figure 6);
* :mod:`repro.experiments.report` -- text rendering and paper-vs-measured
  comparison helpers used by EXPERIMENTS.md and the pytest benchmarks;
* :mod:`repro.experiments.pareto` -- per-benchmark area/delay/power Pareto
  fronts across the logic families and mapping objectives;
* :mod:`repro.experiments.engine` -- the parallel, cache-aware job engine
  the table/figure experiments are scheduled through;
* :mod:`repro.experiments.resilience` -- the fault-tolerant batch executor
  behind parallel engine runs (subject-affine dispatch, per-job
  retries/timeouts, worker-slot rebuild);
* :mod:`repro.experiments.faults` -- the deterministic fault-injection
  harness (chaos suite) proving the resilience layer keeps artifacts
  bit-identical.
"""

from repro.experiments.engine import ExperimentEngine, MapJob, ResultCache
from repro.experiments.faults import FaultPlan
from repro.experiments.resilience import JobFailure, RetryPolicy
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import PowerStats, Table3Result, Table3Row, run_table3
from repro.experiments.figure6 import Figure6Result, run_figure6
from repro.experiments.pareto import ParetoResult, render_pareto, run_pareto
from repro.experiments.report import (
    render_table2,
    render_table3,
    render_figure6,
    render_comparison,
)

__all__ = [
    "ExperimentEngine",
    "FaultPlan",
    "JobFailure",
    "MapJob",
    "ResultCache",
    "RetryPolicy",
    "Table2Result",
    "run_table2",
    "PowerStats",
    "Table3Row",
    "Table3Result",
    "run_table3",
    "Figure6Result",
    "run_figure6",
    "ParetoResult",
    "run_pareto",
    "render_table2",
    "render_table3",
    "render_figure6",
    "render_comparison",
    "render_pareto",
]
