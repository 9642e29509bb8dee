"""Per-cell power characterization (switched capacitance + static current).

The paper's central tradeoff is that the pseudo families buy speed and area
by burning static power through their weak always-on pull-up loads (Sec. 3.2).
This module characterizes both power components of a cell from the same sized
:class:`~repro.circuits.netlist.CellNetlist` the delay model uses, under the
same normalizations (Sec. 4.3): the gate capacitance of a device equals its
width, drain/source parasitics equal the gate capacitance, and all
capacitances are reported in multiples of the unit inverter's input
capacitance ``c_unit`` (so a normalized dynamic power of 1 means one unit
input capacitance switched per cycle at ``Vdd``).

*Dynamic* characterization is purely capacitive:

* per input literal wire, the gate + polarity-gate capacitance that switches
  when the wire toggles (exactly :meth:`CellNetlist.signal_capacitance`);
* per output transition, the output node's drain/source parasitics plus half
  of the internal stack-node parasitics (an internal node follows the output
  on roughly half of the output transitions, the usual switched-capacitance
  approximation).

*Static* characterization only applies to the pseudo families: whenever the
pull-down network conducts, a resistive path ``VDD -> 1/3-wide load ->
pull-down network -> VSS`` carries a standing current.  For every output-low
input state we solve the conducting pull-down network exactly (the same
Laplacian machinery as the Elmore delay model) and report the mean current
over low states plus the state-averaged current, both in normalized units
(``Vdd = 1``, unit device resistance 1), so normalized static power equals
normalized static current.  Static families have complementary pull networks
and draw no standing current at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import OUTPUT, CellNetlist
from repro.circuits.sizing import PSEUDO_LOAD_WIDTH, PSEUDO_PULL_DOWN_TARGET
from repro.circuits.switch_sim import iter_bits
from repro.devices.transistor import Literal


@dataclass(frozen=True)
class PowerReport:
    """Power characterization of one cell (all capacitances in ``c_unit``)."""

    #: Capacitance switched by each input literal wire (per polarity).
    literal_capacitance: dict[Literal, float]
    #: Worst-polarity capacitance per input signal name (mirrors the delay
    #: model's per-signal view).
    signal_capacitance: dict[str, float]
    #: Drain/source parasitics on the output node (== ``parasitic_output``).
    output_capacitance: float
    #: Total drain/source parasitics on internal stack nodes.
    internal_capacitance: float
    #: Capacitance charged per output transition: output node plus half the
    #: internal nodes (see module docstring).
    switched_capacitance: float
    #: Mean standing current over the output-low input states (0 for static
    #: families); normalized so current equals power at ``Vdd = 1``.
    static_current_low: float
    #: Standing current averaged over *all* input states (equal weights).
    static_current_average: float
    #: Fraction of input states with the output low (pull-down conducting).
    low_state_fraction: float

    @property
    def is_pseudo(self) -> bool:
        return self.static_current_low > 0.0

    @property
    def input_capacitance_total(self) -> float:
        """Sum of every input literal wire's capacitance."""
        return sum(self.literal_capacitance.values())

    @property
    def input_capacitance_average(self) -> float:
        """Mean per-signal (worst-polarity) input capacitance."""
        if not self.signal_capacitance:
            return 0.0
        return sum(self.signal_capacitance.values()) / len(self.signal_capacitance)

    def pin_capacitance(self, name: str, negated: bool = False) -> float:
        """Capacitance presented by the pin wire of one polarity.

        Falls back to the worst-polarity signal capacitance when the
        requested polarity wire does not load any device in this cell (the
        mapper may still route the complemented literal through the output
        inverter of the driving gate).
        """
        cap = self.literal_capacitance.get(Literal(name, negated), 0.0)
        if cap > 0.0:
            return cap
        return self.signal_capacitance.get(name, 0.0)

    def static_power(self, probability_low: float) -> float:
        """Expected normalized static power given the output-low probability."""
        return self.static_current_low * probability_low


def characterize_power(netlist: CellNetlist) -> PowerReport:
    """Compute the power report of a cell netlist (see module docstring)."""
    c_unit = netlist.technology.inverter_input_capacitance
    states = netlist.switch_states

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
    switched_capacitance = output_capacitance + internal_capacitance / 2.0

    static_current_low = 0.0
    static_current_average = 0.0
    low_state_fraction = 0.0
    if states.pseudo:
        load_resistance = 1.0 / PSEUDO_LOAD_WIDTH
        low_currents: list[float] = []
        # The pull-down networks solved here are the ones the delay model
        # solves on falling transitions, so most come from the memo.
        for state in iter_bits(states.driven & ~states.high):
            drive = states.drive(state, False)
            pd_resistance = drive[0] if drive is not None else PSEUDO_PULL_DOWN_TARGET
            low_currents.append(1.0 / (load_resistance + pd_resistance))
        if low_currents:
            static_current_low = sum(low_currents) / len(low_currents)
            static_current_average = sum(low_currents) / states.num_states
            low_state_fraction = len(low_currents) / states.num_states

    return PowerReport(
        literal_capacitance=literal_capacitance,
        signal_capacitance=signal_capacitance,
        output_capacitance=output_capacitance,
        internal_capacitance=internal_capacitance,
        switched_capacitance=switched_capacitance,
        static_current_low=static_current_low,
        static_current_average=static_current_average,
        low_state_fraction=low_state_fraction,
    )
