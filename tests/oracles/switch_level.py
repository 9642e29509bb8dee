"""Per-assignment switch-level evaluators: the parity reference.

Production (:class:`repro.circuits.switch_sim.SwitchStates`) evaluates a
netlist in every input state at once with bitmasks and solves each distinct
conducting network once.  The functions here evaluate one input assignment
at a time, the way the characterization code did before that: a BFS per
connectivity question, a DFS per output value, and a fresh conducting-device
filter before every resistance solve.  The reference characterizations
compose them into :class:`SwitchLevelResult`, :class:`DelayReport` and
:class:`PowerReport` values that production must equal exactly, floats
included.  The Laplacian solve itself is shared
(:func:`repro.circuits.switch_sim.network_resistances`).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from repro.analysis.cell_power import PowerReport
from repro.circuits.delay import FANOUT, DelayReport
from repro.circuits.netlist import OUTPUT, VDD, VSS, CellNetlist
from repro.circuits.sizing import PSEUDO_LOAD_WIDTH, PSEUDO_PULL_DOWN_TARGET
from repro.circuits.switch_sim import SwitchLevelResult, network_resistances
from repro.devices.transistor import Device, DeviceRole
from repro.logic.truth_table import TruthTable

_PULL_DOWN_ROLES = (DeviceRole.PULL_DOWN,)
_PULL_UP_ROLES = (DeviceRole.PULL_UP, DeviceRole.PSEUDO_LOAD)


def _assignment(order: tuple[str, ...], minterm: int) -> dict[str, bool]:
    return {name: bool((minterm >> i) & 1) for i, name in enumerate(order)}


def connected(
    devices: Iterable[Device],
    assignment: Mapping[str, bool],
    source: str,
    target: str,
    require_strong: bool | None = None,
    rail_value: bool | None = None,
) -> bool:
    """BFS connectivity between two nodes through conducting devices.

    With ``require_strong`` set, only devices that pass ``rail_value`` at full
    swing are traversed.
    """
    adjacency: dict[str, list[str]] = {}
    for device in devices:
        if not device.conducts(assignment):
            continue
        if require_strong and rail_value is not None:
            if not device.passes_strongly(rail_value, assignment):
                continue
        adjacency.setdefault(device.node_a, []).append(device.node_b)
        adjacency.setdefault(device.node_b, []).append(device.node_a)
    if source == target:
        return True
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in adjacency.get(node, ()):
            if neighbour == target:
                return True
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return False


def output_value(netlist: CellNetlist, assignment: dict[str, bool]) -> bool | None:
    """Logic value at the output node, or ``None`` when floating/contending."""
    pd = [d for d in netlist.devices if d.role in _PULL_DOWN_ROLES]
    pu = [d for d in netlist.devices if d.role in _PULL_UP_ROLES]
    pseudo = any(d.role is DeviceRole.PSEUDO_LOAD for d in netlist.devices)

    def connected(devices: list[Device], rail: str) -> bool:
        adjacency: dict[str, list[str]] = {}
        for device in devices:
            if device.conducts(assignment):
                adjacency.setdefault(device.node_a, []).append(device.node_b)
                adjacency.setdefault(device.node_b, []).append(device.node_a)
        stack = [OUTPUT]
        seen = {OUTPUT}
        while stack:
            node = stack.pop()
            if node == rail:
                return True
            for neighbour in adjacency.get(node, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return False

    pd_on = connected(pd, VSS)
    if pseudo:
        return not pd_on
    pu_on = connected(pu, VDD)
    if pd_on == pu_on:
        return None
    return pu_on


def effective_resistances(
    devices: list[Device],
    assignment: dict[str, bool],
    rail: str,
    rail_value: bool,
    weak_factor: float,
) -> dict[str, float] | None:
    """Effective resistance from ``rail`` to every node conducting under
    ``assignment`` (``None`` when the output is not connected)."""
    conducting = [d for d in devices if d.conducts(assignment)]
    strong = [d.passes_strongly(rail_value, assignment) for d in conducting]
    return network_resistances(conducting, strong, rail, weak_factor)


def simulate_cell_reference(netlist: CellNetlist) -> SwitchLevelResult:
    """Exhaustive switch-level simulation, one assignment at a time."""
    order = netlist.input_signals
    num_vars = len(order)
    pd_devices = [d for d in netlist.devices if d.role in _PULL_DOWN_ROLES]
    pu_devices = [d for d in netlist.devices if d.role in _PULL_UP_ROLES]
    pseudo = any(d.role is DeviceRole.PSEUDO_LOAD for d in netlist.devices)

    bits = 0
    contention: list[int] = []
    floating: list[int] = []
    degraded: list[int] = []
    for minterm in range(1 << num_vars):
        assignment = _assignment(order, minterm)
        pd_on = connected(pd_devices, assignment, OUTPUT, VSS)
        pu_on = connected(pu_devices, assignment, OUTPUT, VDD)
        if pseudo:
            output = not pd_on
        elif pd_on and pu_on:
            contention.append(minterm)
            output = False
        elif not pd_on and not pu_on:
            floating.append(minterm)
            output = False
        else:
            output = pu_on
        if output:
            bits |= 1 << minterm
            if not connected(pu_devices, assignment, OUTPUT, VDD, True, True):
                degraded.append(minterm)
        elif pd_on:
            if not connected(pd_devices, assignment, OUTPUT, VSS, True, False):
                degraded.append(minterm)
    return SwitchLevelResult(
        input_order=order,
        output_table=TruthTable(num_vars, bits),
        contention_minterms=tuple(contention),
        floating_minterms=tuple(floating),
        degraded_minterms=tuple(degraded),
    )


def characterize_delay_reference(netlist: CellNetlist) -> DelayReport:
    """FO4 delay report, re-evaluating both states of every transition."""
    technology = netlist.technology
    c_unit = technology.inverter_input_capacitance
    weak = technology.weak_direction_factor
    pseudo = any(d.role is DeviceRole.PSEUDO_LOAD for d in netlist.devices)

    literal_caps = {
        literal: netlist.signal_capacitance(literal)
        for literal in netlist.input_literals()
    }
    logical_effort = {lit: cap / c_unit for lit, cap in literal_caps.items()}
    signal_cap: dict[str, float] = {}
    for literal, cap in literal_caps.items():
        signal_cap[literal.name] = max(signal_cap.get(literal.name, 0.0), cap)

    c_out = netlist.node_capacitance(OUTPUT)
    parasitic_output = c_out / c_unit
    if pseudo:
        rise_resistance = 1.0 / PSEUDO_LOAD_WIDTH
        fall_resistance = PSEUDO_PULL_DOWN_TARGET
    else:
        rise_resistance = 1.0
        fall_resistance = 1.0

    order = netlist.input_signals
    fo4_per_signal: dict[str, float] = {}
    fo4_worst = 0.0
    pd_devices = [d for d in netlist.devices if d.role in _PULL_DOWN_ROLES]
    pu_devices = [d for d in netlist.devices if d.role in _PULL_UP_ROLES]

    for signal in order:
        cap_in = signal_cap.get(signal, 0.0)
        load = FANOUT * cap_in
        transition_delays: list[float] = []
        worst_for_signal = 0.0
        for minterm in range(1 << len(order)):
            assignment = _assignment(order, minterm)
            before = output_value(netlist, assignment)
            toggled = dict(assignment)
            toggled[signal] = not toggled[signal]
            after = output_value(netlist, toggled)
            if before is None or after is None or before == after:
                continue
            rail_value = after
            rail = VDD if rail_value else VSS
            nominal_r = rise_resistance if rail_value else fall_resistance
            simple = nominal_r * (c_out + load) / c_unit
            transition_delays.append(simple)

            devices = pu_devices if rail_value else pd_devices
            resistances = effective_resistances(
                devices, toggled, rail, rail_value, weak
            )
            if resistances is None:
                elmore = simple
            else:
                r_drive = resistances[OUTPUT]
                internal = 0.0
                for node, r_node in resistances.items():
                    if node in (rail, OUTPUT, VDD, VSS):
                        continue
                    internal += r_node * netlist.node_capacitance(node)
                elmore = (internal + r_drive * (c_out + load)) / c_unit
            worst_for_signal = max(worst_for_signal, elmore, simple)
        if transition_delays:
            fo4_per_signal[signal] = sum(transition_delays) / len(transition_delays)
        else:
            fo4_per_signal[signal] = parasitic_output + FANOUT * cap_in / c_unit
        fo4_worst = max(fo4_worst, worst_for_signal or fo4_per_signal[signal])

    fo4_average = (
        sum(fo4_per_signal.values()) / len(fo4_per_signal) if fo4_per_signal else 0.0
    )
    return DelayReport(
        fo4_worst=fo4_worst,
        fo4_average=fo4_average,
        fo4_per_signal=fo4_per_signal,
        parasitic_output=parasitic_output,
        logical_effort=logical_effort,
    )


def characterize_power_reference(netlist: CellNetlist) -> PowerReport:
    """Power report, solving the pull-down network afresh per low state."""
    technology = netlist.technology
    c_unit = technology.inverter_input_capacitance
    weak = technology.weak_direction_factor
    pseudo = any(d.role is DeviceRole.PSEUDO_LOAD for d in netlist.devices)

    literal_capacitance = {
        literal: netlist.signal_capacitance(literal) / c_unit
        for literal in netlist.input_literals()
    }
    signal_capacitance: dict[str, float] = {}
    for literal, cap in literal_capacitance.items():
        signal_capacitance[literal.name] = max(
            signal_capacitance.get(literal.name, 0.0), cap
        )
    output_capacitance = netlist.node_capacitance(OUTPUT) / c_unit
    internal_capacitance = (
        sum(netlist.node_capacitance(node) for node in netlist.internal_nodes())
        / c_unit
    )

    static_current_low = 0.0
    static_current_average = 0.0
    low_state_fraction = 0.0
    if pseudo:
        load_resistance = 1.0 / PSEUDO_LOAD_WIDTH
        pd_devices = [d for d in netlist.devices if d.role in _PULL_DOWN_ROLES]
        order = netlist.input_signals
        num_states = 1 << len(order)
        low_currents: list[float] = []
        for minterm in range(num_states):
            assignment = _assignment(order, minterm)
            if output_value(netlist, assignment) is not False:
                continue
            resistances = effective_resistances(
                pd_devices, assignment, VSS, False, weak
            )
            pd_resistance = (
                resistances[OUTPUT]
                if resistances is not None
                else PSEUDO_PULL_DOWN_TARGET
            )
            low_currents.append(1.0 / (load_resistance + pd_resistance))
        if low_currents:
            static_current_low = sum(low_currents) / len(low_currents)
            static_current_average = sum(low_currents) / num_states
            low_state_fraction = len(low_currents) / num_states

    return PowerReport(
        literal_capacitance=literal_capacitance,
        signal_capacitance=signal_capacitance,
        output_capacitance=output_capacitance,
        internal_capacitance=internal_capacitance,
        switched_capacitance=output_capacitance + internal_capacitance / 2.0,
        static_current_low=static_current_low,
        static_current_average=static_current_average,
        low_state_fraction=low_state_fraction,
    )
