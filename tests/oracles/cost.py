"""Per-candidate cost models: the parity reference of the batch hooks.

Production cost models (:mod:`repro.synthesis.cost`) price a whole
:class:`~repro.synthesis.mapper.CandidateTable` with ``price_batch`` and
compare a candidate slot across a level with ``better_batch``.  The
functions here do the same work the way the models did before that: one
:class:`MatchCandidate` object per matched cut, priced by a Python
``gate_cost`` and compared by a Python ``better``, keyed by objective name
(:data:`GATE_COST`, :data:`BETTER`).  The hooks must reproduce them exactly,
floats included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.synthesis.cost import EPSILON, MappingContext
from repro.synthesis.mapper import CandidateTable, _pin_bindings
from repro.synthesis.matcher import CellMatch


@dataclass(frozen=True)
class MatchCandidate:
    """One pre-matched cut of a node.

    ``leaves`` are the cut's leaf nodes in the order the matched cell reads
    them (support-reduced), ``table`` the reduced truth table realized by
    ``match``; ``delay``/``area`` are the matched cell's FO4 delay and area
    and ``parasitic``/``effort`` its load-delay decomposition
    (``gate delay = parasitic + effort * loads``, the timing engine's
    model).
    """

    leaves: tuple[int, ...]
    table: int
    match: CellMatch
    delay: float
    area: float
    parasitic: float
    effort: float


def candidate(table: CandidateTable, row: int) -> MatchCandidate:
    """One candidate-table row as a :class:`MatchCandidate`."""
    width = int(table.width[row])
    return MatchCandidate(
        leaves=tuple(int(leaf) for leaf in table.leaves[row, :width]),
        table=int(table.table_bits[row]),
        match=table.matches[int(table.match_index[row])],
        delay=float(table.delay[row]),
        area=float(table.area[row]),
        parasitic=float(table.parasitic[row]),
        effort=float(table.effort[row]),
    )


def pin_capacitances(match: CellMatch) -> tuple[float, ...]:
    """Per-leaf pin loads of a match, resolved pin by pin from its cell's
    power report (``MappedGate.leaf_loads``)."""
    power = match.cell.power
    return tuple(
        power.pin_capacitance(pin, negated) for pin, negated in _pin_bindings(match)
    )


def area_cost(candidate: MatchCandidate, node: int, context: MappingContext) -> float:
    """The delay and area objectives' local cost: the cell area."""
    return candidate.area


def power_cost(
    candidate: MatchCandidate, node: int, context: MappingContext
) -> float:
    """The power objective's local cost, term by term: node activity times
    the switched output capacitance, each leaf's activity times the pin
    capacitance it drives (in leaf order), plus the static current at the
    output-polarity-corrected on-probability.  Statistics are read as
    Python floats."""
    activity, probability = context.activity, context.probability
    match = candidate.match
    power_report = match.cell.power
    cost = float(activity[node]) * power_report.switched_capacitance
    leaves = candidate.leaves
    for position, capacitance in enumerate(pin_capacitances(match)):
        cost += float(activity[leaves[position]]) * capacitance
    node_probability = float(probability[node])
    probability_on = (
        1.0 - node_probability if match.match.output_negated else node_probability
    )
    cost += power_report.static_power(probability_on)
    return cost


def delay_better(
    arrival: float, flow: float, best_arrival: float, best_flow: float
) -> bool:
    """Arrival first, flow breaks ties."""
    return arrival < best_arrival - EPSILON or (
        abs(arrival - best_arrival) <= EPSILON and flow < best_flow - EPSILON
    )


def flow_better(
    arrival: float, flow: float, best_arrival: float, best_flow: float
) -> bool:
    """Flow first, arrival breaks ties."""
    return flow < best_flow - EPSILON or (
        abs(flow - best_flow) <= EPSILON and arrival < best_arrival - EPSILON
    )


#: Local gate cost per objective name.
GATE_COST = {"delay": area_cost, "area": area_cost, "power": power_cost}
#: Incumbent comparison per objective name.
BETTER = {"delay": delay_better, "area": flow_better, "power": flow_better}
