"""Switch-level model of cell netlists, evaluated for every input state at once.

:class:`SwitchStates` holds a netlist's switch-level behaviour in all ``2**n``
input states as Python-int bitmasks (bit ``m`` of a mask is input state
``m``; signal ``i`` of ``input_signals`` is bit ``i`` of ``m``):

* per device, the states in which it conducts and in which it is p-type;
* per pull network, the states in which the output reaches its rail through
  conducting devices, and through conducting devices that pass the rail
  level at full swing;
* the states in which the output is driven, and its value there.

It also solves the conducting resistor network of a pull network in a given
state (:meth:`SwitchStates.drive`), once per distinct network.  The delay
model (:mod:`repro.circuits.delay`) and the power model
(:mod:`repro.analysis.cell_power`) read both; :func:`simulate_cell` verifies,
for every input state, that

* the cell output is driven to exactly one logic level (no contention between
  the pull networks and no floating output for the static families);
* the computed output function matches the intended Boolean function;
* the driven level reaches the full rail voltage, i.e. there exists a
  conducting path to the rail whose devices all pass that level strongly
  (n-type for a low level, p-type for a high level).  This is the property
  that the transmission-gate construction of Sec. 3.1 restores, and that the
  dynamic GNOR gate of Fig. 2 and the pass-transistor families lack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.circuits.netlist import OUTPUT, VDD, VSS, CellNetlist
from repro.devices.transistor import ChannelType, Device, DeviceRole, Literal
from repro.logic.truth_table import TruthTable, var_pattern

_PULL_DOWN_ROLES = (DeviceRole.PULL_DOWN,)
_PULL_UP_ROLES = (DeviceRole.PULL_UP, DeviceRole.PSEUDO_LOAD)


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask`` (input states or device
    positions), in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def network_resistances(
    conducting: Sequence[Device],
    strong: Sequence[bool],
    rail: str,
    weak_factor: float,
) -> dict[str, float] | None:
    """Effective resistance from ``rail`` to every node of a conducting network.

    ``strong[k]`` says whether ``conducting[k]`` passes the rail level at full
    swing; the conductance of a device that does not is its width divided by
    ``weak_factor``.  Builds the conductance Laplacian of the network in
    device order, grounds the rail and solves for node potentials with one
    ampere injected at each node of interest.  Returns ``None`` when the
    output is not connected to the rail.
    """
    if not conducting:
        return None
    nodes: list[str] = []
    index: dict[str, int] = {}
    for device in conducting:
        for node in (device.node_a, device.node_b):
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
    if rail not in index or OUTPUT not in index:
        return None
    n = len(nodes)
    laplacian = np.zeros((n, n))
    for device, is_strong in zip(conducting, strong):
        g = device.width if is_strong else device.width / weak_factor
        a, b = index[device.node_a], index[device.node_b]
        laplacian[a, a] += g
        laplacian[b, b] += g
        laplacian[a, b] -= g
        laplacian[b, a] -= g
    # Ground the rail node and solve for the others.
    rail_idx = index[rail]
    keep = [i for i in range(n) if i != rail_idx]
    reduced = laplacian[np.ix_(keep, keep)]
    resistances: dict[str, float] = {rail: 0.0}
    try:
        inv = np.linalg.inv(reduced)
    except np.linalg.LinAlgError:
        return None
    for pos, i in enumerate(keep):
        resistances[nodes[i]] = float(inv[pos, pos])
    if OUTPUT not in resistances or not np.isfinite(resistances[OUTPUT]):
        return None
    return resistances


def _rail_reach(edges: list[tuple[str, str, int]], rail: str, full: int) -> int:
    """States in which the output reaches ``rail`` over ``edges``.

    Each edge ``(a, b, mask)`` joins two nodes in the states of ``mask``;
    the per-state reachable sets grow along edges until nothing changes.
    """
    reach = {OUTPUT: full}
    changed = True
    while changed:
        changed = False
        for a, b, mask in edges:
            at_a = reach.get(a, 0)
            at_b = reach.get(b, 0)
            grown_a = at_a | (at_b & mask)
            grown_b = at_b | (at_a & mask)
            if grown_a != at_a:
                reach[a] = grown_a
                changed = True
            if grown_b != at_b:
                reach[b] = grown_b
                changed = True
    return reach.get(rail, 0)


class SwitchStates:
    """A netlist's switch-level behaviour in all ``2**n`` input states.

    Built once per netlist (:attr:`CellNetlist.switch_states`); see the
    module docstring for the masks.  :meth:`drive` solves each distinct
    conducting network once: the memo key is the rail, the conducting
    devices (a mask over device positions, so in device order) and which of
    them pass the rail level strongly.  That key fixes every input of
    :func:`network_resistances`, so a memoized entry is bit-identical to a
    fresh solve.
    """

    def __init__(self, netlist: CellNetlist) -> None:
        self.netlist = netlist
        order = netlist.input_signals
        num_vars = len(order)
        self.num_states = 1 << num_vars
        full = (1 << self.num_states) - 1
        self.full = full
        signal_masks = {
            name: var_pattern(i, num_vars) for i, name in enumerate(order)
        }

        def literal_mask(literal: Literal) -> int:
            mask = signal_masks[literal.name]
            return full ^ mask if literal.negated else mask

        conducts: list[int] = []
        p_type: list[int] = []
        for device in netlist.devices:
            polarity = device.polarity
            if polarity.is_fixed:
                p = full if polarity.fixed_channel is ChannelType.P else 0
            else:
                p = literal_mask(polarity.literal)
            p_type.append(p)
            if device.gate is None:  # the always-on pseudo load
                conducts.append(full)
            else:
                # n-type conducts on a high gate, p-type on a low gate.
                conducts.append(literal_mask(device.gate) ^ p)
        self.conducts = tuple(conducts)
        self.p_type = tuple(p_type)

        roles = [device.role for device in netlist.devices]
        pull_down = [j for j, role in enumerate(roles) if role in _PULL_DOWN_ROLES]
        pull_up = [j for j, role in enumerate(roles) if role in _PULL_UP_ROLES]
        self.pseudo = DeviceRole.PSEUDO_LOAD in roles

        def edges(
            positions: list[int], strong_for: bool | None = None
        ) -> list[tuple[str, str, int]]:
            # With ``strong_for`` set, a device joins its nodes only where it
            # passes that rail level strongly: p-type for 1, n-type for 0.
            result = []
            for j in positions:
                device = netlist.devices[j]
                mask = conducts[j]
                if strong_for is not None:
                    mask &= p_type[j] if strong_for else full ^ p_type[j]
                result.append((device.node_a, device.node_b, mask))
            return result

        #: States whose output reaches VSS / VDD through the pull network.
        self.pd_on = _rail_reach(edges(pull_down), VSS, full)
        self.pu_on = _rail_reach(edges(pull_up), VDD, full)
        #: ... through devices that pass the rail level at full swing.
        self.pd_strong = _rail_reach(edges(pull_down, False), VSS, full)
        self.pu_strong = _rail_reach(edges(pull_up, True), VDD, full)
        if self.pseudo:
            # The weak load always conducts; the pull-down wins when it is on.
            self.driven = full
            self.high = full ^ self.pd_on
        else:
            self.driven = self.pd_on ^ self.pu_on
            self.high = self.pu_on & ~self.pd_on
        self._pull_down = pull_down
        self._pull_up = pull_up
        self._solved: dict[tuple[bool, int, int], tuple[float, float] | None] = {}

    def toggles(self, position: int) -> int:
        """States whose driven output flips when input ``position`` toggles."""
        stride = 1 << position
        low = self.full ^ var_pattern(position, len(self.netlist.input_signals))

        def swap(mask: int) -> int:
            return ((mask >> stride) & low) | ((mask & low) << stride)

        return self.driven & swap(self.driven) & (self.high ^ swap(self.high))

    def drive(self, state: int, rail_value: bool) -> tuple[float, float] | None:
        """Resistances of the network driving ``rail_value`` in ``state``.

        Returns the effective resistance from the rail to the output and the
        sum over internal nodes of resistance times node capacitance (the
        Elmore stack term), or ``None`` when :func:`network_resistances`
        finds no solution.
        """
        conducting = 0
        strong = 0
        for j in self._pull_up if rail_value else self._pull_down:
            if self.conducts[j] >> state & 1:
                conducting |= 1 << j
                if (self.p_type[j] >> state & 1) == rail_value:
                    strong |= 1 << j
        key = (rail_value, conducting, strong)
        if key not in self._solved:
            self._solved[key] = self._solve(rail_value, conducting, strong)
        return self._solved[key]

    def _solve(
        self, rail_value: bool, conducting: int, strong: int
    ) -> tuple[float, float] | None:
        netlist = self.netlist
        rail = VDD if rail_value else VSS
        positions = list(iter_bits(conducting))
        resistances = network_resistances(
            [netlist.devices[j] for j in positions],
            [bool(strong >> j & 1) for j in positions],
            rail,
            netlist.technology.weak_direction_factor,
        )
        if resistances is None:
            return None
        internal = 0.0
        for node, r_node in resistances.items():
            if node in (rail, OUTPUT, VDD, VSS):
                continue
            internal += r_node * netlist.node_capacitance(node)
        return resistances[OUTPUT], internal


@dataclass(frozen=True)
class SwitchLevelResult:
    """Outcome of exhaustively simulating a cell netlist."""

    input_order: tuple[str, ...]
    output_table: TruthTable
    contention_minterms: tuple[int, ...]
    floating_minterms: tuple[int, ...]
    degraded_minterms: tuple[int, ...]

    @property
    def is_well_formed(self) -> bool:
        """No contention and no floating output for any assignment."""
        return not self.contention_minterms and not self.floating_minterms

    @property
    def is_full_swing(self) -> bool:
        """Every driven level reaches the rail through a strong path."""
        return not self.degraded_minterms


def simulate_cell(netlist: CellNetlist) -> SwitchLevelResult:
    """Exhaustively simulate a cell netlist at switch level."""
    order = netlist.input_signals
    if len(order) > 12:
        raise ValueError("switch-level simulation is limited to 12 cell inputs")
    states = netlist.switch_states
    full = states.full
    if states.pseudo:
        contention = floating = 0
    else:
        contention = states.pd_on & states.pu_on
        floating = full & ~(states.pd_on | states.pu_on)
    # Full-swing check on the driven level.  The ratioed low level of a
    # pseudo cell is acceptable by construction (the PD network is sized 4x
    # stronger than the load), but a low level reachable only through p-type
    # devices is stuck near |VTp| regardless of sizing -- that is the
    # degradation the transmission-gate construction removes (Sec. 3.1/3.2),
    # so it is flagged for pseudo cells as well.
    degraded = (states.high & ~states.pu_strong) | (
        ~states.high & states.pd_on & ~states.pd_strong
    )
    return SwitchLevelResult(
        input_order=order,
        output_table=TruthTable(len(order), states.high),
        contention_minterms=tuple(iter_bits(contention)),
        floating_minterms=tuple(iter_bits(floating)),
        degraded_minterms=tuple(iter_bits(degraded)),
    )


def verify_cell_function(
    netlist: CellNetlist, expected_output: TruthTable
) -> SwitchLevelResult:
    """Simulate a cell and check its output function against ``expected_output``.

    ``expected_output`` must be expressed over the netlist's sorted input
    signal order.  Raises :class:`AssertionError` on mismatch so tests can use
    it directly.
    """
    result = simulate_cell(netlist)
    if result.output_table != expected_output:
        raise AssertionError(
            f"cell {netlist.name!r} computes {result.output_table} "
            f"but {expected_output} was expected"
        )
    return result
