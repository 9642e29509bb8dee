"""Experiment: regenerate Table 3 (technology-mapping results).

Every Table-3 benchmark is generated, optimized with the technology-
independent flow (the ``resyn2rs`` stand-in) and mapped onto the CNTFET
transmission-gate static library, the CNTFET transmission-gate pseudo library
and the CMOS reference library.  For each mapping the experiment records the
gate count, normalized area, logic depth, normalized delay and absolute delay
(the five columns of Table 3), plus the paper's published row for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.families import LogicFamily
from repro.core.paper_data import PAPER_TABLE3, PaperBenchmark, PaperBenchmarkRow
from repro.flow import DEFAULT_FLOW
from repro.synthesis.mapper import MappedCircuit

#: The three libraries compared in Table 3.
TABLE3_FAMILIES = (
    LogicFamily.TG_STATIC,
    LogicFamily.TG_PSEUDO,
    LogicFamily.CMOS,
)


@dataclass(frozen=True)
class MappingStats:
    """The five Table-3 columns for one benchmark and one library."""

    gates: int
    area: float
    levels: int
    normalized_delay: float
    absolute_delay_ps: float

    @staticmethod
    def from_mapped(mapped: MappedCircuit) -> "MappingStats":
        return MappingStats(
            gates=mapped.gate_count,
            area=mapped.area,
            levels=mapped.levels,
            normalized_delay=mapped.normalized_delay,
            absolute_delay_ps=mapped.absolute_delay_ps,
        )


@dataclass(frozen=True)
class PowerStats:
    """The power axis of one mapping: normalized dynamic/static power.

    Computed by :mod:`repro.analysis.power` (see that module for units) and
    carried alongside :class:`MappingStats` for every (benchmark, library)
    pair; ``method``/``patterns``/``seed`` record the signal-statistics
    provenance so archived figures stay comparable.
    """

    dynamic: float
    input_dynamic: float
    static: float
    total: float
    method: str
    patterns: int
    seed: int | None

    @staticmethod
    def from_analysis(analysis) -> "PowerStats":
        return PowerStats(
            dynamic=analysis.dynamic,
            input_dynamic=analysis.input_dynamic,
            static=analysis.static,
            total=analysis.total,
            method=analysis.method,
            patterns=analysis.patterns,
            seed=analysis.seed,
        )


@dataclass(frozen=True)
class Table3Row:
    """Measured results for one benchmark across the three families."""

    name: str
    function: str
    aig_nodes: int
    aig_depth: int
    results: dict[LogicFamily, MappingStats]
    paper: PaperBenchmark | None
    #: Power axis per family (same keys as ``results``).
    power: dict[LogicFamily, PowerStats] = field(default_factory=dict)

    def improvement_vs_cmos(self, family: LogicFamily, metric: str) -> float:
        """Fractional reduction of a metric relative to the CMOS mapping."""
        ours = getattr(self.results[family], metric)
        cmos = getattr(self.results[LogicFamily.CMOS], metric)
        if cmos == 0:
            return 0.0
        return 1.0 - ours / cmos

    def speedup_vs_cmos(self, family: LogicFamily) -> float:
        """Ratio of CMOS absolute delay to the family's absolute delay (Fig. 6)."""
        ours = self.results[family].absolute_delay_ps
        cmos = self.results[LogicFamily.CMOS].absolute_delay_ps
        return cmos / ours if ours else 0.0


@dataclass
class Table3Result:
    """All measured Table-3 rows plus aggregate statistics."""

    rows: list[Table3Row] = field(default_factory=list)
    #: Name of the synthesis flow the rows were produced under (recorded in
    #: the JSON artifacts so archived flow-sweep results stay tellable apart).
    flow: str = "resyn2rs"
    #: Mapping objective the rows were produced under (recorded likewise).
    objective: str = "delay"
    #: Required-time recovery rounds of the mapper (0 = single-pass mapping;
    #: recorded in the JSON artifacts only when non-zero so round-0 archives
    #: stay byte-comparable across versions).
    rounds: int = 0
    #: Cost axis of the recovery rounds (``"auto"``/``"area"``/``"power"``).
    recovery: str = "auto"

    def average_power(self, family: LogicFamily, component: str = "total") -> float:
        values = [
            getattr(row.power[family], component)
            for row in self.rows
            if family in row.power
        ]
        return sum(values) / len(values) if values else 0.0

    def row(self, name: str) -> Table3Row:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no result for benchmark {name!r}")

    def average(self, family: LogicFamily, metric: str) -> float:
        values = [getattr(row.results[family], metric) for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def average_improvement(self, family: LogicFamily, metric: str) -> float:
        """Improvement of the per-benchmark averages, as the paper computes it."""
        ours = self.average(family, metric)
        cmos = self.average(LogicFamily.CMOS, metric)
        if cmos == 0:
            return 0.0
        return 1.0 - ours / cmos

    def average_speedup(self, family: LogicFamily) -> float:
        """Mean per-benchmark CMOS-to-family absolute-delay ratio (Fig. 6 average)."""
        values = [row.speedup_vs_cmos(family) for row in self.rows]
        return sum(values) / len(values) if values else 0.0


def _paper_row(name: str) -> PaperBenchmark | None:
    for row in PAPER_TABLE3:
        if row.name == name:
            return row
    return None


def run_table3(
    benchmark_names: tuple[str, ...] | None = None,
    families: tuple[LogicFamily, ...] = TABLE3_FAMILIES,
    objective: str = "delay",
    flow: str = DEFAULT_FLOW,
    engine=None,
) -> Table3Result:
    """Regenerate Table 3 (optionally restricted to a subset of benchmarks).

    Scheduling is delegated to the experiment engine
    (:class:`repro.experiments.engine.ExperimentEngine`); by default a
    sequential, cache-less engine is used so library callers see the same
    pure behaviour as before.  Pass a configured ``engine`` for parallel
    execution and on-disk memoization, and ``flow`` to select the
    technology-independent synthesis flow.
    """
    from repro.experiments.engine import ExperimentEngine

    if engine is None:
        engine = ExperimentEngine(jobs=1, use_cache=False)
    return engine.run_table3(
        benchmark_names=benchmark_names,
        families=families,
        objective=objective,
        flow=flow,
    )
