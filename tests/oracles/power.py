"""Per-gate netlist power: the parity reference of ``analyze_power``.

Production (:func:`repro.analysis.power.analyze_power`) computes the power
of a mapped circuit from its gate columns.  The function here does the same
work one :class:`~repro.synthesis.mapper.MappedGate` at a time, the way the
analysis did before: per-net sink loads in a dict (pin loads in gate-list
order, pin order within a gate, then one load per primary output), then
``+=`` loops over the gates in ascending output order and over the primary
inputs in ``aig.pi_names`` order.  Production must reproduce its totals
exactly, floats included.
"""

from __future__ import annotations

from repro.analysis.activity import ActivityReport
from repro.analysis.power import PO_LOAD, NetlistPower
from repro.core.library import GateLibrary
from repro.synthesis.aig import Aig
from repro.synthesis.mapper import MappedCircuit


def analyze_power(
    mapped: MappedCircuit,
    aig: Aig,
    library: GateLibrary,
    activities: ActivityReport,
) -> NetlistPower:
    """Total dynamic + static power of a mapped circuit, gate by gate."""
    activity = activities.activity
    probability = activities.probability

    cells = {cell.name: cell for cell in library.cells}

    # Sink loads per net: the recorded pin capacitances of every gate input,
    # plus one unit load per primary output.
    sink_load: dict[int, float] = {}
    for gate in mapped.gates:
        loads = gate.leaf_loads
        if len(loads) != len(gate.leaves):
            # Hand-built netlists may omit the pin bindings; fall back to the
            # cell's mean per-signal input capacitance.
            average = cells[gate.cell_name].power.input_capacitance_average
            loads = (average,) * len(gate.leaves)
        for leaf, cap in zip(gate.leaves, loads):
            sink_load[leaf] = sink_load.get(leaf, 0.0) + cap
    for node in mapped.po_nodes:
        sink_load[node] = sink_load.get(node, 0.0) + PO_LOAD

    gate_outputs = {gate.output for gate in mapped.gates}

    dynamic = 0.0
    static = 0.0
    for gate in sorted(mapped.gates, key=lambda g: g.output):
        report = cells[gate.cell_name].power
        net_capacitance = report.switched_capacitance + sink_load.get(
            gate.output, 0.0
        )
        dynamic += float(activity[gate.output]) * net_capacitance
        probability_on = float(probability[gate.output])
        if gate.inverted:
            probability_on = 1.0 - probability_on
        static += report.static_power(probability_on)

    # Primary-input nets switch the pins they drive (no driver capacitance).
    input_dynamic = 0.0
    for name in aig.pi_names:
        node = aig.pi_literal(name) >> 1
        if node in gate_outputs:
            continue
        load = sink_load.get(node, 0.0)
        if load:
            input_dynamic += float(activity[node]) * load

    return NetlistPower(
        name=mapped.name,
        library_name=mapped.library_name,
        method=activities.method,
        patterns=activities.patterns,
        seed=activities.seed,
        dynamic=dynamic,
        input_dynamic=input_dynamic,
        static=static,
    )
