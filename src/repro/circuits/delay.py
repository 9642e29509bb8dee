"""Switch-level RC / logical-effort delay characterization (paper Sec. 4.3).

The paper reports, for every cell, the FO4 delay (the delay of the gate
driving four copies of itself) normalized to the technology-dependent
intrinsic delay ``tau``.  In the logical-effort formulation FO4 = p + 4*g
where ``g`` is the logical effort of the switching input (its input
capacitance over the unit inverter's) and ``p`` is the parasitic delay of the
cell output.

We reproduce that model and extend it in the two directions the paper
mentions:

* for the *pseudo* families the rising transition is driven by the weak 1/3
  load (resistance 3) rather than a unit-resistance network, so the rise term
  is scaled by the actual drive resistance;
* for the *worst-case* column the charging of internal stack nodes is added
  as an Elmore term, computed on the conducting resistor network of the worst
  transition (effective resistances solved exactly via the network Laplacian,
  :meth:`repro.circuits.switch_sim.SwitchStates.drive`).

Capacitances follow the paper's normalizations: the gate capacitance of a
device equals its width, the drain/source parasitic capacitance equals the
gate capacitance, and the polarity gate loads its controlling signal exactly
like a regular gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import OUTPUT, CellNetlist
from repro.circuits.sizing import PSEUDO_LOAD_WIDTH, PSEUDO_PULL_DOWN_TARGET
from repro.circuits.switch_sim import iter_bits
from repro.devices.transistor import Literal

#: Load presented by one fanout copy, in multiples of the switching input's
#: own capacitance (FO4 = fanout of four).
FANOUT = 4


@dataclass(frozen=True)
class DelayReport:
    """FO4 characterization of one cell."""

    fo4_worst: float
    fo4_average: float
    fo4_per_signal: dict[str, float]
    parasitic_output: float
    logical_effort: dict[Literal, float]

    def scaled_worst(self, tau_ps: float) -> float:
        """Worst-case FO4 delay in picoseconds."""
        return self.fo4_worst * tau_ps

    def scaled_average(self, tau_ps: float) -> float:
        """Average FO4 delay in picoseconds."""
        return self.fo4_average * tau_ps


def characterize_delay(netlist: CellNetlist) -> DelayReport:
    """Compute the FO4 delay report of a cell netlist."""
    technology = netlist.technology
    c_unit = technology.inverter_input_capacitance
    states = netlist.switch_states

    # Input capacitance per literal wire and per signal (max over polarities).
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

    # Nominal drive resistance per transition direction, from the sizing targets.
    if states.pseudo:
        rise_resistance = 1.0 / PSEUDO_LOAD_WIDTH
        fall_resistance = PSEUDO_PULL_DOWN_TARGET
    else:
        rise_resistance = 1.0
        fall_resistance = 1.0

    fo4_per_signal: dict[str, float] = {}
    fo4_worst = 0.0

    for position, signal in enumerate(netlist.input_signals):
        cap_in = signal_cap.get(signal, 0.0)
        load = FANOUT * cap_in
        transition_delays: list[float] = []
        worst_for_signal = 0.0
        # Every state whose driven output flips when ``signal`` toggles; the
        # transition settles in the toggled state, driven by its rail.
        for state in iter_bits(states.toggles(position)):
            toggled = state ^ (1 << position)
            rail_value = bool(states.high >> toggled & 1)
            nominal_r = rise_resistance if rail_value else fall_resistance
            simple = nominal_r * (c_out + load) / c_unit
            transition_delays.append(simple)

            drive = states.drive(toggled, rail_value)
            if drive is None:
                elmore = simple
            else:
                r_drive, internal = drive
                elmore = (internal + r_drive * (c_out + load)) / c_unit
            worst_for_signal = max(worst_for_signal, elmore, simple)
        if transition_delays:
            fo4_per_signal[signal] = sum(transition_delays) / len(transition_delays)
        else:
            # The signal never switches the output (redundant input); report
            # the plain logical-effort value.
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
