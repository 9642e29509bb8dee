"""Per-candidate mapper DP, per-gate cover and dict-walking STA: the parity
reference.

Production (:mod:`repro.synthesis.mapper`) prices and solves a
struct-of-arrays :class:`~repro.synthesis.mapper.CandidateTable` level by
level, covers the chosen rows with array passes and times the cover with the
array core of :mod:`repro.analysis.timing`.  The functions here do the same
work the way the mapper did before that: one :class:`MatchCandidate` object
per matched cut, a Python incumbent scan per node, a depth-first cover that
materializes one candidate per gate, and a timing walk over dicts in
:func:`~repro.synthesis.mapper.topological_gates` order.  Production must
reproduce them exactly, floats included.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.timing import TimingReport
from repro.core.library import GateLibrary
from repro.synthesis.aig import Aig, lit_node
from repro.synthesis.cost import (
    EPSILON,
    CostModel,
    MappingContext,
    MatchCandidate,
    cost_model_for,
)
from repro.synthesis.mapper import (
    CandidateTable,
    MappedCircuit,
    MappedGate,
    MappingError,
    _outputs_match,
    _pin_bindings,
    topological_gates,
)


def gate_delay(gate: MappedGate, loads: int) -> float:
    """Instance delay under the paper's load model (one unit per fanout)."""
    return gate.parasitic_delay + gate.effort_delay * max(loads, 1)


def pin_capacitances(match) -> tuple[float, ...]:
    """Per-leaf pin loads of a match, resolved pin by pin from its cell's
    power report (``MappedGate.leaf_loads``)."""
    power = match.cell.power
    return tuple(
        power.pin_capacitance(pin, negated) for pin, negated in _pin_bindings(match)
    )


def build_candidates(
    arrays, cut_set, matcher, prefer: str
) -> list[list[MatchCandidate]]:
    """Per-node candidate lists: every matched ranked cut of every AND node.

    Candidate order per node is slot order (the cut ranking), nodes in
    topological order -- the sequence the DP scans.
    """
    candidates: list[list[MatchCandidate]] = [[] for _ in range(arrays.num_nodes)]
    and_nodes = arrays.and_nodes
    if and_nodes.size == 0:
        return candidates
    # Ranked cuts only: the last valid slot of every node is the trivial
    # ``{node}`` cut, which participates in fanout merging but is never
    # matched on its own.
    per_node = cut_set.count[and_nodes] - 1
    total = int(per_node.sum())
    if total == 0:
        return candidates
    nodes_rep = np.repeat(and_nodes, per_node)
    starts = np.concatenate(([0], np.cumsum(per_node)[:-1]))
    slots = np.arange(total) - np.repeat(starts, per_node)

    node_list = nodes_rep.tolist()
    size_list = cut_set.size[nodes_rep, slots].tolist()
    table_list = cut_set.table[nodes_rep, slots].tolist()
    support_list = cut_set.support[nodes_rep, slots].tolist()
    leaves_rows = cut_set.leaves[nodes_rep, slots].tolist()

    match_positions = matcher.match_positions
    for index in range(total):
        found = match_positions(
            size_list[index],
            table_list[index],
            prefer=prefer,
            support_mask=support_list[index],
        )
        if found is None:
            continue
        match, positions, table = found
        row = leaves_rows[index]
        cell = match.cell
        fo4 = cell.delay.fo4_average
        parasitic = cell.delay.parasitic_output
        candidates[node_list[index]].append(
            MatchCandidate(
                leaves=tuple(row[p] for p in positions),
                table=table,
                match=match,
                delay=fo4,
                area=cell.area,
                parasitic=parasitic,
                effort=max(fo4 - parasitic, 0.0) / 4.0,
            )
        )
    return candidates


def price_candidates(
    and_node_list: list[int],
    candidates: list[list[MatchCandidate]],
    model: CostModel,
    context: MappingContext,
) -> list[list[float]]:
    """Per-candidate local gate costs under one cost model."""
    gate_cost = model.gate_cost
    prices: list[list[float]] = [[] for _ in range(len(candidates))]
    for node in and_node_list:
        prices[node] = [gate_cost(cand, node, context) for cand in candidates[node]]
    return prices


def dp_round(
    aig: Aig,
    library: GateLibrary,
    and_node_list: list[int],
    candidates: list[list[MatchCandidate]],
    prices: list[list[float]],
    model: CostModel,
    references: list[float],
    required: list[float] | None = None,
    load_aware: bool = False,
) -> tuple[dict[int, MatchCandidate], list[float], list[float]]:
    """One forward DP pass: best candidate, arrival and flow per node, one
    Python incumbent scan per node (see ``_dp_round_batched``)."""
    num_nodes = len(candidates)
    arrival_list = [0.0] * num_nodes
    flow_list = [0.0] * num_nodes
    choices: dict[int, MatchCandidate] = {}
    better = model.better
    fallback_better = cost_model_for("delay").better

    for node in and_node_list:
        best: MatchCandidate | None = None
        best_arrival = best_flow = 0.0
        fallback: MatchCandidate | None = None
        fallback_arrival = fallback_flow = 0.0
        node_required = required[node] if required is not None else None
        node_references = references[node]
        for candidate, cost in zip(candidates[node], prices[node]):
            leaves = candidate.leaves
            gate_delay_value = (
                candidate.parasitic + candidate.effort * node_references
                if load_aware
                else candidate.delay
            )
            arrival = (
                max((arrival_list[leaf] for leaf in leaves), default=0.0)
                + gate_delay_value
            )
            flow = (
                cost + sum(flow_list[leaf] for leaf in leaves)
            ) / node_references
            if node_required is not None:
                if fallback is None or fallback_better(
                    arrival, flow, fallback_arrival, fallback_flow
                ):
                    fallback = candidate
                    fallback_arrival, fallback_flow = arrival, flow
                if arrival > node_required + EPSILON:
                    continue
            if best is None or better(arrival, flow, best_arrival, best_flow):
                best = candidate
                best_arrival, best_flow = arrival, flow
        if best is None:
            if fallback is None:
                raise MappingError(
                    f"node {node} of {aig.name!r} has no matching cell in library "
                    f"{library.name!r}"
                )
            best = fallback
            best_arrival, best_flow = fallback_arrival, fallback_flow
        choices[node] = best
        arrival_list[node] = best_arrival
        flow_list[node] = best_flow
    return choices, arrival_list, flow_list


class BatchedChoices:
    """Lazy node -> :class:`MatchCandidate` view over a DP choice array."""

    def __init__(self, table: CandidateTable, choice_rows: np.ndarray) -> None:
        self._table = table
        self._rows = choice_rows
        self._memo: dict[int, MatchCandidate] = {}

    def __getitem__(self, node: int) -> MatchCandidate:
        cached = self._memo.get(node)
        if cached is None:
            row = int(self._rows[node])
            if row < 0:
                raise KeyError(node)
            cached = self._memo[node] = self._table.candidate(row)
        return cached


def cover(aig: Aig, library: GateLibrary, choices, pin_capacitances):
    """Backward covering: one gate per selected cut, then the dict STA.

    Returns the circuit together with its :class:`TimingReport`.
    """
    required: list[int] = []
    seen: set[int] = set()
    stack = [lit_node(literal) for literal in aig.po_literals]
    while stack:
        node = stack.pop()
        if node in seen or node == 0 or aig.is_pi(node):
            continue
        seen.add(node)
        required.append(node)
        for leaf in choices[node].leaves:
            stack.append(leaf)

    gates: list[MappedGate] = []
    for node in sorted(required):
        choice = choices[node]
        cell = choice.match.cell
        effort = max(cell.delay.fo4_average - cell.delay.parasitic_output, 0.0) / 4.0
        gates.append(
            MappedGate(
                output=node,
                cell_name=cell.name,
                function_id=cell.function_id,
                leaves=choice.leaves,
                table=choice.table,
                area=cell.area,
                intrinsic_delay=cell.delay.fo4_average,
                parasitic_delay=cell.delay.parasitic_output,
                effort_delay=effort,
                leaf_loads=pin_capacitances(choice.match),
                inverted=choice.match.match.output_negated,
            )
        )

    mapped = MappedCircuit.from_gates(
        gates,
        name=aig.name,
        library_name=library.name,
        tau_ps=library.tau_ps,
        primary_inputs=aig.pi_names,
        primary_outputs=aig.po_names,
        po_nodes=tuple(lit_node(literal) for literal in aig.po_literals),
    )
    report = compute_timing(mapped)
    mapped.normalized_delay = report.normalized_delay
    mapped.levels = report.levels
    mapped.worst_slack = report.worst_slack()
    return mapped, report


def cover_cost(mapped: MappedCircuit, choices, model: CostModel, context) -> float:
    """A cover's cost under ``model``, summed in gate order."""
    return sum(
        model.gate_cost(choices[gate.output], gate.output, context)
        for gate in mapped.gates
    )


def cover_references(mapped: MappedCircuit, fanout: list[int]) -> list[float]:
    """Exact per-node reference counts of a cover (structural fanout
    estimate for the nodes outside it)."""
    counts: dict[int, int] = {}
    for gate in mapped.gates:
        for leaf in gate.leaves:
            counts[leaf] = counts.get(leaf, 0) + 1
    for node in mapped.po_nodes:
        counts[node] = counts.get(node, 0) + 1
    references = [max(count, 1.0) for count in fanout]
    for node, count in counts.items():
        references[node] = float(max(count, 1))
    return references


def required_times(
    num_nodes: int, report: TimingReport, deadline: float
) -> list[float]:
    """Per-node required times of a cover, re-anchored at ``deadline``
    (``+inf`` outside the report's nets)."""
    shift = deadline - report.normalized_delay
    required = [float("inf")] * num_nodes
    for net, value in report.required.items():
        if 0 <= net < num_nodes:
            required[net] = value + shift
    return required


def compute_timing(mapped: MappedCircuit) -> TimingReport:
    """The timing report by a per-gate walk over dicts in dependency order."""
    gate_by_output = {gate.output: gate for gate in mapped.gates}
    fanout_count: dict[int, int] = {gate.output: 0 for gate in mapped.gates}
    for gate in mapped.gates:
        for leaf in gate.leaves:
            if leaf in fanout_count:
                fanout_count[leaf] += 1
    for node in mapped.po_nodes:
        if node in fanout_count:
            fanout_count[node] += 1

    order = topological_gates(mapped.gates)

    # Forward pass: arrival times and logic depth.  Leaves that are not gate
    # outputs (primary inputs, the constant node) arrive at time 0.
    arrival: dict[int, float] = {}
    depth: dict[int, int] = {}
    delays: dict[int, float] = {}
    for gate in order:
        delay = gate_delay(gate, fanout_count.get(gate.output, 1))
        delays[gate.output] = delay
        arrival[gate.output] = (
            max((arrival.get(leaf, 0.0) for leaf in gate.leaves), default=0.0) + delay
        )
        depth[gate.output] = (
            max((depth.get(leaf, 0) for leaf in gate.leaves), default=0) + 1
        )

    normalized_delay = max(
        (arrival.get(node, 0.0) for node in mapped.po_nodes), default=0.0
    )
    levels = max((depth.get(node, 0) for node in mapped.po_nodes), default=0)

    # Every referenced non-gate net (PIs, constant) appears with arrival 0 so
    # slack is reported for the whole net set.
    for gate in mapped.gates:
        for leaf in gate.leaves:
            arrival.setdefault(leaf, 0.0)
    for node in mapped.po_nodes:
        arrival.setdefault(node, 0.0)

    # Backward pass: required times against the worst PO arrival.
    required: dict[int, float] = {node: float("inf") for node in arrival}
    for node in mapped.po_nodes:
        required[node] = min(required[node], normalized_delay)
    for gate in reversed(order):
        gate_required = required[gate.output]
        budget = gate_required - delays[gate.output]
        for leaf in gate.leaves:
            if budget < required[leaf]:
                required[leaf] = budget
    # Unconstrained nets (no path to a PO survived covering) get zero slack
    # margin against their own arrival rather than an infinite required time.
    slack = {
        node: (required[node] - arrival[node])
        if required[node] != float("inf")
        else 0.0
        for node in arrival
    }
    for node, value in required.items():
        if value == float("inf"):
            required[node] = arrival[node]

    # Critical path: walk back from the worst PO, always following a leaf
    # whose arrival accounts for the gate's arrival (first such leaf wins).
    critical: list[int] = []
    start = None
    for node in mapped.po_nodes:
        if start is None or arrival.get(node, 0.0) > arrival.get(start, 0.0):
            start = node
    node = start
    while node is not None and node in gate_by_output:
        critical.append(node)
        gate = gate_by_output[node]
        target = arrival[node] - delays[node]
        next_node = None
        for leaf in gate.leaves:
            if abs(arrival.get(leaf, 0.0) - target) <= 1e-9:
                next_node = leaf
                break
        if next_node is None or next_node not in gate_by_output:
            break
        node = next_node
    critical.reverse()

    return TimingReport(
        normalized_delay=normalized_delay,
        levels=levels,
        arrival=arrival,
        required=required,
        slack=slack,
        critical_path=tuple(critical),
    )


def verify_mapping_reference(
    mapped: MappedCircuit, aig: Aig, patterns: dict[str, list[int]]
) -> bool:
    """Bit-at-a-time reference of :func:`~repro.synthesis.mapper.verify_mapping`.

    Evaluates every gate one pattern bit at a time by assembling the minterm
    index explicitly: the independent oracle of the word-parallel fast path.
    """
    reference = aig.simulate_words(patterns)
    mask = (1 << 64) - 1
    num_words = len(next(iter(patterns.values()))) if patterns else 1
    values: dict[int, list[int]] = {0: [0] * num_words}
    for name in aig.pi_names:
        node = aig.pi_literal(name) >> 1
        values[node] = [w & mask for w in patterns[name]]

    for gate in topological_gates(mapped.gates):
        leaf_words = [values[leaf] for leaf in gate.leaves]
        output_words = []
        for word_index in range(num_words):
            word = 0
            for bit in range(64):
                minterm = 0
                for position, leaf_values in enumerate(leaf_words):
                    if (leaf_values[word_index] >> bit) & 1:
                        minterm |= 1 << position
                if (gate.table >> minterm) & 1:
                    word |= 1 << bit
            output_words.append(word)
        values[gate.output] = output_words

    return _outputs_match(values, aig, reference)
