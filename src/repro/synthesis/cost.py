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

A model is two array hooks over a whole
:class:`~repro.synthesis.mapper.CandidateTable`: :meth:`~CostModel.price_batch`
prices every candidate row once (a pure function of the pre-matched row, so
the multi-round recovery driver re-prices the same table under different
models without re-running Boolean matching), and
:meth:`~CostModel.better_batch` is the incumbent comparison the DP applies
to one candidate slot across all nodes of an AIG level.  Comparisons keep
the historical ``1e-9`` epsilons, and both hooks apply elementwise IEEE-754
operations in the order of the per-candidate reference
(``tests/oracles/cost.py``) with no reassociating reductions: the epsilon
tie-breaks are not transitive, so a reordered comparison sequence can
select a different (equally "best") cell and change downstream artifacts.
:func:`register_cost_model` rejects a model without both hooks.

Models are stateless singletons looked up by objective name
(:func:`cost_model_for`); the per-mapping signal statistics travel in the
:class:`MappingContext` handed to every ``price_batch`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synthesis.mapper import CandidateTable

#: Comparison tolerance of the DP tie-breaks (historical value, load-bearing
#: for bit-identical artifacts).
EPSILON = 1e-9


@dataclass
class MappingContext:
    """Per-mapping state the cost models price under.

    ``activity``/``probability`` are the per-node signal statistics, the
    :class:`~repro.analysis.activity.ActivityReport`'s float64 arrays
    indexed by node id (``None`` unless a power model takes part).
    """

    activity: np.ndarray | None = None
    probability: np.ndarray | None = None


@runtime_checkable
class CostModel(Protocol):
    """The mapping-objective policy: per-row cost, tie-break, cell choice."""

    #: Objective name (``technology_map``'s ``objective=`` vocabulary).
    name: str
    #: Preferred-cell selection within a canonical class (``"delay"`` picks
    #: the fastest cell, ``"area"`` the smallest; the matcher's vocabulary).
    prefer: str

    def price_batch(
        self, table: "CandidateTable", context: MappingContext
    ) -> np.ndarray:
        """Local cost of instantiating each candidate row at its node: one
        float64 per row.

        The DP folds it into the cost flow as
        ``(price + sum(leaf flows)) / references``.  The returned array may
        alias table storage and must not be mutated by callers.
        """
        ...  # pragma: no cover - protocol stub

    def better_batch(
        self,
        arrival: np.ndarray,
        flow: np.ndarray,
        best_arrival: np.ndarray,
        best_flow: np.ndarray,
    ) -> np.ndarray:
        """Elementwise whether ``(arrival, flow)`` beats the incumbent
        ``(best_*)`` (bool array), with the epsilon comparisons applied
        per element so the DP's slot scan makes one node's comparisons in
        cut-rank order."""
        ...  # pragma: no cover - protocol stub


class DelayCost:
    """Arrival-time primary cost (area flow breaks ties)."""

    name = "delay"
    prefer = "delay"

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

    def price_batch(
        self, table: "CandidateTable", context: MappingContext
    ) -> np.ndarray:
        activity, probability = context.activity, context.probability
        if activity is None or probability is None:
            raise ValueError(
                "the power cost model needs signal activities; pass "
                "activities= to technology_map or compute them first"
            )
        # Cell figures once per distinct match, gathered per row.
        reports = [match.cell.power for match in table.matches]
        gather = table.match_index
        switched = np.array([r.switched_capacitance for r in reports])[gather]
        static_low = np.array([r.static_current_low for r in reports])[gather]
        pin_caps = table.figures.pin_caps[gather]
        negated = table.figures.inverted[gather]
        nodes = table.node
        cost = activity[nodes] * switched
        # Column-by-column accumulation in leaf order: the per-candidate
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
    missing = [
        hook
        for hook in ("price_batch", "better_batch")
        if not callable(getattr(model, hook, None))
    ]
    if missing:
        raise ValueError(
            f"cost model {model.name!r} lacks {' and '.join(missing)}; the "
            "mapping DP prices and compares candidates only through them"
        )
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
