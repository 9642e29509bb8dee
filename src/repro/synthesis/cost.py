"""Mapping cost models: the objective-specific policy of the mapping DP.

The dynamic-programming core of :mod:`repro.synthesis.mapper` is objective
agnostic: for every node it evaluates each matched cut's arrival time and
cost *flow* and keeps the best candidate.  What "best" means -- the local
gate cost folded into the flow, the arrival/flow tie-break order and which
cell of a canonical class to prefer -- is owned by a :class:`CostModel`:

``DelayCost``
    Minimize arrival time, area flow as tie-break, fastest cell per class.
``AreaFlowCost``
    Minimize area flow, arrival as tie-break, smallest cell per class.
``PowerFlowCost``
    Minimize the activity-weighted switched-capacitance flow (dynamic
    switching of the cell's output/internal/pin capacitances at the node and
    leaf activities, plus the expected pseudo-family static current), arrival
    as tie-break, smallest cell per class (switched capacitance is monotone
    in the device widths, i.e. in the area).

A model's :meth:`~CostModel.gate_cost` is a pure function of the candidate
match, so the multi-round recovery driver can price the same pre-matched
candidate table under different models without re-running Boolean matching.
Comparisons keep the historical ``1e-9`` epsilons so the selected cells --
and therefore every downstream artifact -- stay bit-identical to the
pre-refactor single-pass mapper.

The built-in models additionally implement the vectorized hooks
:meth:`~CostModel.price_batch` / :meth:`~CostModel.better_batch` consumed by
the batched DP of :mod:`repro.synthesis.mapper`: one numpy expression over a
whole :class:`~repro.synthesis.mapper.CandidateTable` (or one candidate slot
across all nodes of an AIG level) instead of one Python call per candidate.
Both hooks are required to reproduce the scalar semantics *bitwise* --
elementwise IEEE-754 operations in the same order as the scalar code, no
reassociating reductions -- because the ``1e-9`` tie-breaks are not
transitive: a reordered comparison sequence can select a different (equally
"best") cell and change downstream artifacts.  Third-party models registered
without the hooks map through an adapter that calls their scalar
``gate_cost``/``better`` once per row (``repro.synthesis.mapper._RowwiseHooks``).

Models are stateless singletons looked up by objective name
(:func:`cost_model_for`); the per-mapping context (activities, resolved pin
capacitances) travels in the :class:`MappingContext` handed to every
``gate_cost`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synthesis.mapper import CandidateTable
    from repro.synthesis.matcher import CellMatch

#: Comparison tolerance of the DP tie-breaks (historical value, load-bearing
#: for bit-identical artifacts).
EPSILON = 1e-9


@dataclass(frozen=True)
class MatchCandidate:
    """One pre-matched cut of a node: the unit the DP and the recovery
    rounds price repeatedly.

    ``leaves`` are the cut's leaf nodes in the order the matched cell reads
    them (support-reduced), ``table`` the reduced truth table realized by
    ``match``; ``delay``/``area`` are the matched cell's FO4 delay and area
    and ``parasitic``/``effort`` its load-delay decomposition
    (``gate delay = parasitic + effort * loads``, the timing engine's
    model), all hoisted out of the hot loop.
    """

    leaves: tuple[int, ...]
    table: int
    match: "CellMatch"
    delay: float
    area: float
    parasitic: float
    effort: float


@dataclass
class MappingContext:
    """Per-mapping state shared between the DP rounds and the cost models.

    ``activity``/``probability`` are the per-node signal statistics (plain
    lists indexed by node id; ``None`` until a power model asks for them),
    ``pin_capacitances`` resolves a match's per-leaf pin loads through the
    mapper's per-call memo.
    """

    pin_capacitances: Callable[["CellMatch"], tuple[float, ...]]
    activity: list[float] | None = None
    probability: list[float] | None = None


@runtime_checkable
class CostModel(Protocol):
    """The mapping-objective policy: per-cut cost, tie-break, cell choice."""

    #: Objective name (``technology_map``'s ``objective=`` vocabulary).
    name: str
    #: Preferred-cell selection within a canonical class (``"delay"`` picks
    #: the fastest cell, ``"area"`` the smallest; the matcher's vocabulary).
    prefer: str

    def gate_cost(
        self, candidate: MatchCandidate, node: int, context: MappingContext
    ) -> float:
        """Local cost of instantiating the candidate at ``node``.

        The DP folds this into the cost flow as
        ``(gate_cost + sum(leaf flows)) / references``.
        """
        ...  # pragma: no cover - protocol stub

    def better(
        self, arrival: float, flow: float, best_arrival: float, best_flow: float
    ) -> bool:
        """Whether ``(arrival, flow)`` beats the incumbent ``(best_*)``."""
        ...  # pragma: no cover - protocol stub

    def price_batch(
        self, table: "CandidateTable", context: MappingContext
    ) -> np.ndarray:
        """Vectorized :meth:`gate_cost`: one float64 per candidate row.

        Must return, for every row of the table, exactly the float
        :meth:`gate_cost` would return for the equivalent
        :class:`MatchCandidate` (same operations in the same order).  The
        returned array may alias table storage and must not be mutated by
        callers.  Optional: for models that do not provide it the mapper
        calls :meth:`gate_cost` once per row instead.
        """
        ...  # pragma: no cover - protocol stub

    def better_batch(
        self,
        arrival: np.ndarray,
        flow: np.ndarray,
        best_arrival: np.ndarray,
        best_flow: np.ndarray,
    ) -> np.ndarray:
        """Elementwise :meth:`better` over candidate batches (bool array).

        Optional, paired with :meth:`price_batch`; must apply the same
        epsilon comparisons elementwise so the batched incumbent scan
        reproduces the scalar scan decision-for-decision.
        """
        ...  # pragma: no cover - protocol stub


class DelayCost:
    """Arrival-time primary cost (area flow breaks ties)."""

    name = "delay"
    prefer = "delay"

    def gate_cost(
        self, candidate: MatchCandidate, node: int, context: MappingContext
    ) -> float:
        return candidate.area

    def better(
        self, arrival: float, flow: float, best_arrival: float, best_flow: float
    ) -> bool:
        return arrival < best_arrival - EPSILON or (
            abs(arrival - best_arrival) <= EPSILON and flow < best_flow - EPSILON
        )

    def price_batch(
        self, table: "CandidateTable", context: MappingContext
    ) -> np.ndarray:
        return table.area

    def better_batch(
        self,
        arrival: np.ndarray,
        flow: np.ndarray,
        best_arrival: np.ndarray,
        best_flow: np.ndarray,
    ) -> np.ndarray:
        return (arrival < best_arrival - EPSILON) | (
            (np.abs(arrival - best_arrival) <= EPSILON)
            & (flow < best_flow - EPSILON)
        )


class AreaFlowCost:
    """Area-flow primary cost (arrival time breaks ties)."""

    name = "area"
    prefer = "area"

    def gate_cost(
        self, candidate: MatchCandidate, node: int, context: MappingContext
    ) -> float:
        return candidate.area

    def better(
        self, arrival: float, flow: float, best_arrival: float, best_flow: float
    ) -> bool:
        return flow < best_flow - EPSILON or (
            abs(flow - best_flow) <= EPSILON and arrival < best_arrival - EPSILON
        )

    def price_batch(
        self, table: "CandidateTable", context: MappingContext
    ) -> np.ndarray:
        return table.area

    def better_batch(
        self,
        arrival: np.ndarray,
        flow: np.ndarray,
        best_arrival: np.ndarray,
        best_flow: np.ndarray,
    ) -> np.ndarray:
        return (flow < best_flow - EPSILON) | (
            (np.abs(flow - best_flow) <= EPSILON)
            & (arrival < best_arrival - EPSILON)
        )


class PowerFlowCost:
    """Activity-weighted switched-capacitance flow (arrival breaks ties).

    The local cost reproduces the historical power objective term for term
    (accumulation order is load-bearing for bit-identical artifacts): the
    node activity times the cell's switched output capacitance, plus every
    leaf's activity times the pin capacitance it drives (in leaf order),
    plus the expected static current of the pseudo families under the
    output-polarity-corrected on-probability.
    """

    name = "power"
    prefer = "area"

    def gate_cost(
        self, candidate: MatchCandidate, node: int, context: MappingContext
    ) -> float:
        activity = context.activity
        probability = context.probability
        if activity is None or probability is None:
            raise ValueError(
                "the power cost model needs signal activities; pass "
                "activities= to technology_map or compute them first"
            )
        match = candidate.match
        power_report = match.cell.power
        cost = activity[node] * power_report.switched_capacitance
        leaves = candidate.leaves
        for position, capacitance in enumerate(context.pin_capacitances(match)):
            cost += activity[leaves[position]] * capacitance
        probability_on = (
            1.0 - probability[node]
            if match.match.output_negated
            else probability[node]
        )
        cost += power_report.static_power(probability_on)
        return cost

    def better(
        self, arrival: float, flow: float, best_arrival: float, best_flow: float
    ) -> bool:
        return flow < best_flow - EPSILON or (
            abs(flow - best_flow) <= EPSILON and arrival < best_arrival - EPSILON
        )

    def price_batch(
        self, table: "CandidateTable", context: MappingContext
    ) -> np.ndarray:
        if context.activity is None or context.probability is None:
            raise ValueError(
                "the power cost model needs signal activities; pass "
                "activities= to technology_map or compute them first"
            )
        activity = np.asarray(context.activity, dtype=np.float64)
        probability = np.asarray(context.probability, dtype=np.float64)
        switched, pin_caps, static_low, negated = table.power_columns(context)
        nodes = table.node
        cost = activity[nodes] * switched
        # Column-by-column accumulation in leaf order: the scalar loop's
        # addition sequence, extended by exact ``+ 0.0`` terms on the padded
        # slots (padded leaves point at node 0, padded capacitances are 0).
        leaves = table.leaves
        for position in range(pin_caps.shape[1]):
            cost = cost + activity[leaves[:, position]] * pin_caps[:, position]
        probability_on = np.where(
            negated, 1.0 - probability[nodes], probability[nodes]
        )
        return cost + static_low * probability_on

    def better_batch(
        self,
        arrival: np.ndarray,
        flow: np.ndarray,
        best_arrival: np.ndarray,
        best_flow: np.ndarray,
    ) -> np.ndarray:
        return (flow < best_flow - EPSILON) | (
            (np.abs(flow - best_flow) <= EPSILON)
            & (arrival < best_arrival - EPSILON)
        )


_COST_MODELS: dict[str, CostModel] = {}


def register_cost_model(model: CostModel, replace: bool = False) -> CostModel:
    """Add a cost model to the registry (pluggable mapping objectives)."""
    if not model.name:
        raise ValueError("a cost model must have a non-empty name")
    if not replace and model.name in _COST_MODELS:
        raise ValueError(f"cost model {model.name!r} is already registered")
    _COST_MODELS[model.name] = model
    return model


def cost_model_for(objective: str) -> CostModel:
    """Look up the cost model of a mapping objective."""
    try:
        return _COST_MODELS[objective]
    except KeyError:
        raise ValueError(
            f"objective must be one of {', '.join(sorted(_COST_MODELS))!s} "
            f"(got {objective!r})"
        ) from None


def available_objectives() -> tuple[str, ...]:
    """Names of all registered mapping objectives, sorted."""
    return tuple(sorted(_COST_MODELS))


def resolve_recovery(objective: str, recovery: str) -> str:
    """Resolve the recovery-round objective of a mapping run.

    ``"auto"`` keeps the mapping objective's own cost axis where it has one
    (``power`` recovers power) and falls back to area recovery for the
    delay objective -- the classical delay-map-then-recover-area scheme.
    The resolved name must be a registered non-delay cost model: recovering
    "delay" is meaningless (round 0 under the delay model is already
    arrival-optimal).
    """
    if recovery == "auto":
        return "power" if objective == "power" else "area"
    cost_model_for(recovery)  # reject unknown models with the usual message
    if recovery == "delay":
        raise ValueError(
            "recovery must name a cost axis to recover (area or power); "
            "delay is what the required times already protect"
        )
    return recovery


register_cost_model(DelayCost())
register_cost_model(AreaFlowCost())
register_cost_model(PowerFlowCost())
