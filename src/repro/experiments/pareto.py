"""Experiment: per-benchmark area/delay/power Pareto fronts.

The paper's comparison is inherently multi-objective: the ambipolar families
trade area and delay against the static power of their weak pull-up loads.
This experiment makes that tradeoff explicit.  For every benchmark it maps
the optimized subject graph onto every requested logic family under every
mapping objective (``delay``, ``area`` and ``power``), collects one
``(area, absolute delay, total power)`` point per (family, objective)
combination, and extracts the non-dominated subset -- the Pareto front a
designer would actually choose from.

Scheduling goes through the experiment engine, so the points are ordinary
:class:`~repro.experiments.engine.MapJob` results: cached on disk under the
job's cache key (which covers the objective and the Monte-Carlo
activity parameters) and bit-identical between sequential and parallel runs
-- the ``pareto.json`` artifact of ``--jobs 4`` equals that of ``--jobs 1``
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.activity import DEFAULT_SEED, DEFAULT_VECTORS
from repro.core.families import LogicFamily
from repro.flow import DEFAULT_FLOW

#: Every characterized logic family participates in the front by default
#: (the three Table-3 libraries plus the two pass-transistor variants).
PARETO_FAMILIES: tuple[LogicFamily, ...] = tuple(LogicFamily)

#: The three mapping objectives swept per family.
PARETO_OBJECTIVES: tuple[str, ...] = ("delay", "area", "power")


@dataclass(frozen=True)
class ParetoPoint:
    """One (family, objective[, recovery rounds]) mapping in the
    area/delay/power space."""

    family: LogicFamily
    objective: str
    gates: int
    area: float
    levels: int
    normalized_delay: float
    absolute_delay_ps: float
    dynamic_power: float
    static_power: float
    total_power: float
    #: Required-time recovery rounds the point was mapped with (0 = the
    #: classical single-pass mapping).
    rounds: int = 0

    def metrics(self) -> tuple[float, float, float]:
        """The minimized coordinates: (area, absolute delay, total power)."""
        return (self.area, self.absolute_delay_ps, self.total_power)

    def dominates(self, other: "ParetoPoint") -> bool:
        """No-worse in every coordinate and strictly better in at least one."""
        ours, theirs = self.metrics(), other.metrics()
        return all(a <= b for a, b in zip(ours, theirs)) and any(
            a < b for a, b in zip(ours, theirs)
        )


@dataclass(frozen=True)
class ParetoRow:
    """All points and the non-dominated front for one benchmark."""

    name: str
    function: str
    aig_nodes: int
    aig_depth: int
    points: tuple[ParetoPoint, ...]
    front: tuple[ParetoPoint, ...]

    def front_families(self) -> tuple[str, ...]:
        return tuple(sorted({point.family.value for point in self.front}))


@dataclass
class ParetoResult:
    """Pareto fronts for every requested benchmark."""

    rows: list[ParetoRow] = field(default_factory=list)
    families: tuple[LogicFamily, ...] = PARETO_FAMILIES
    objectives: tuple[str, ...] = PARETO_OBJECTIVES
    flow: str = DEFAULT_FLOW
    power_vectors: int = DEFAULT_VECTORS
    power_seed: int = DEFAULT_SEED
    #: Recovery rounds of the additional recovered sweep (0 = round-0-only
    #: sweep, the historical point set).
    rounds: int = 0
    recovery: str = "auto"

    def row(self, name: str) -> ParetoRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no Pareto result for benchmark {name!r}")


def pareto_front(points: tuple[ParetoPoint, ...]) -> tuple[ParetoPoint, ...]:
    """The non-dominated subset, in the (stable) order the points came in."""
    return tuple(
        point
        for point in points
        if not any(other.dominates(point) for other in points)
    )


def run_pareto(
    benchmark_names: tuple[str, ...] | None = None,
    families: tuple[LogicFamily, ...] = PARETO_FAMILIES,
    objectives: tuple[str, ...] = PARETO_OBJECTIVES,
    flow: str = DEFAULT_FLOW,
    engine=None,
    power_vectors: int = DEFAULT_VECTORS,
    power_seed: int = DEFAULT_SEED,
    rounds: int = 0,
    recovery: str = "auto",
) -> ParetoResult:
    """Compute area/delay/power Pareto fronts for the requested benchmarks.

    One :class:`~repro.experiments.engine.MapJob` per (benchmark, family,
    objective) triple is scheduled through ``engine`` (sequential and
    cache-less by default, like :func:`repro.experiments.table3.run_table3`).
    With ``rounds > 0`` every (family, objective) pair contributes a second
    point mapped with that many required-time recovery rounds -- the
    recovered variants enter the dominance comparison alongside the round-0
    sweep, usually pushing the front toward lower area/power at equal delay.
    """
    from repro.experiments.engine import ExperimentEngine, MapJob, _resolve_cases

    if engine is None:
        engine = ExperimentEngine(jobs=1, use_cache=False)

    cases = _resolve_cases(benchmark_names)
    round_variants = (0,) if rounds == 0 else (0, rounds)

    def job_for(
        case_name: str, family: LogicFamily, objective: str, job_rounds: int
    ) -> MapJob:
        return MapJob(
            case_name,
            family,
            objective=objective,
            flow=flow,
            power_vectors=power_vectors,
            power_seed=power_seed,
            rounds=job_rounds,
            recovery=recovery,
        )

    jobs = [
        job_for(case.name, family, objective, job_rounds)
        for case in cases
        for family in families
        for objective in objectives
        for job_rounds in round_variants
    ]
    by_job = engine.run_map_jobs(jobs)

    result = ParetoResult(
        families=tuple(families),
        objectives=tuple(objectives),
        flow=flow,
        power_vectors=power_vectors,
        power_seed=power_seed,
        rounds=rounds,
        recovery=recovery,
    )
    for case in cases:
        points: list[ParetoPoint] = []
        aig_nodes = aig_depth = 0
        for family in families:
            for objective in objectives:
                for job_rounds in round_variants:
                    job_result = by_job[
                        job_for(case.name, family, objective, job_rounds)
                    ]
                    stats, power = job_result.stats, job_result.power
                    aig_nodes = job_result.aig_nodes
                    aig_depth = job_result.aig_depth
                    points.append(
                        ParetoPoint(
                            family=family,
                            objective=objective,
                            gates=stats.gates,
                            area=stats.area,
                            levels=stats.levels,
                            normalized_delay=stats.normalized_delay,
                            absolute_delay_ps=stats.absolute_delay_ps,
                            dynamic_power=power.dynamic + power.input_dynamic,
                            static_power=power.static,
                            total_power=power.total,
                            rounds=job_rounds,
                        )
                    )
        all_points = tuple(points)
        result.rows.append(
            ParetoRow(
                name=case.name,
                function=case.function,
                aig_nodes=aig_nodes,
                aig_depth=aig_depth,
                points=all_points,
                front=pareto_front(all_points),
            )
        )
    return result


def _point_payload(point: ParetoPoint) -> dict:
    payload = {
        "family": point.family.value,
        "objective": point.objective,
        "gates": point.gates,
        "area": point.area,
        "levels": point.levels,
        "normalized_delay": point.normalized_delay,
        "absolute_delay_ps": point.absolute_delay_ps,
        "dynamic_power": point.dynamic_power,
        "static_power": point.static_power,
        "total_power": point.total_power,
    }
    if point.rounds:
        payload["rounds"] = point.rounds
    return payload


def pareto_payload(result: ParetoResult) -> dict:
    """JSON-ready view of a Pareto result (the ``pareto.json`` artifact).

    Recovery metadata (the per-point ``rounds`` tag and the sweep-level
    knobs) is only emitted for recovered sweeps so round-0 artifacts stay
    byte-identical to the pre-recovery format.
    """
    payload = {
        "families": [family.value for family in result.families],
        "objectives": list(result.objectives),
        "flow": result.flow,
        "power_vectors": result.power_vectors,
        "power_seed": result.power_seed,
        "rows": [
            {
                "name": row.name,
                "function": row.function,
                "aig_nodes": row.aig_nodes,
                "aig_depth": row.aig_depth,
                "points": [_point_payload(point) for point in row.points],
                "front": [_point_payload(point) for point in row.front],
            }
            for row in result.rows
        ],
    }
    if result.rounds:
        payload["map_rounds"] = result.rounds
        payload["map_recovery"] = result.recovery
    return payload


def render_pareto(result: ParetoResult) -> str:
    """Text rendering: every benchmark's front, one point per line."""
    sweep = f"flow: {result.flow}"
    if result.rounds:
        sweep += f"; recovery: {result.rounds} round(s) of {result.recovery}"
    lines = [
        f"Pareto fronts (area / absolute delay / total power; {sweep})",
    ]
    for row in result.rows:
        lines.append(
            f"{row.name} ({row.function}): {len(row.front)} of "
            f"{len(row.points)} points on the front"
        )
        for point in row.front:
            tag = f" +r{point.rounds}" if point.rounds else ""
            lines.append(
                f"  {point.family.value:<22} {point.objective:<6}{tag} "
                f"area {point.area:9.1f}  delay {point.absolute_delay_ps:8.1f} ps  "
                f"power {point.total_power:9.2f} "
                f"(dyn {point.dynamic_power:8.2f} + stat {point.static_power:7.2f})"
            )
    return "\n".join(lines)
