"""Cell netlist construction for every logic style of the paper.

A :class:`CellNetlist` is a flat list of :class:`~repro.devices.transistor.Device`
instances connected between named nodes (``VDD``, ``VSS``, the output ``Y``
and internal stack nodes).  The builders below assemble the netlist of a cell
from its pull-down switch network for each of the five logic styles evaluated
in the paper:

================================  =============================================
style                              construction
================================  =============================================
transmission-gate static           complementary PU (dual network), XOR terms as
                                   transmission gates (Sec. 3.1)
transmission-gate pseudo           PD only, XOR terms as transmission gates,
                                   1/3-wide always-on pull-up load (Sec. 3.2)
pass-transistor static             complementary PU, XOR terms as single
                                   ambipolar pass transistors (Sec. 3.2)
pass-transistor pseudo             PD only with pass transistors and the weak
                                   pull-up load (Sec. 3.2)
CMOS static                        complementary PU, XOR terms not available
================================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from repro.circuits.sizing import (
    PSEUDO_LOAD_WIDTH,
    PSEUDO_PULL_DOWN_TARGET,
    literal_device_width,
    pass_transistor_width,
    transmission_gate_width,
)
from repro.circuits.sp_network import (
    LiteralSwitch,
    Parallel,
    Series,
    SwitchNetwork,
    XorSwitch,
)
from repro.devices.models import CMOS_32NM, CNTFET_32NM, Technology
from repro.devices.transistor import (
    ChannelType,
    Device,
    DeviceRole,
    Literal,
    PolarityControl,
)
from repro.devices.transmission_gate import (
    pass_transistor_device,
    transmission_gate_devices,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.switch_sim import SwitchStates

VDD = "VDD"
VSS = "VSS"
OUTPUT = "Y"


class CellStyle(Enum):
    """The five logic styles characterized in Table 2."""

    TRANSMISSION_GATE_STATIC = "tg-static"
    TRANSMISSION_GATE_PSEUDO = "tg-pseudo"
    PASS_TRANSISTOR_STATIC = "pass-static"
    PASS_TRANSISTOR_PSEUDO = "pass-pseudo"
    CMOS_STATIC = "cmos-static"

    @property
    def is_pseudo(self) -> bool:
        return self in (
            CellStyle.TRANSMISSION_GATE_PSEUDO,
            CellStyle.PASS_TRANSISTOR_PSEUDO,
        )

    @property
    def uses_pass_transistors(self) -> bool:
        return self in (
            CellStyle.PASS_TRANSISTOR_STATIC,
            CellStyle.PASS_TRANSISTOR_PSEUDO,
        )

    @property
    def technology(self) -> Technology:
        return CMOS_32NM if self is CellStyle.CMOS_STATIC else CNTFET_32NM


@dataclass(frozen=True)
class CellNetlist:
    """A sized transistor-level netlist of one library cell."""

    name: str
    style: CellStyle
    technology: Technology
    devices: tuple[Device, ...]
    pd_network: SwitchNetwork
    pu_network: SwitchNetwork | None
    input_signals: tuple[str, ...]

    def devices_with_role(self, role: DeviceRole) -> tuple[Device, ...]:
        return tuple(device for device in self.devices if device.role is role)

    def transistor_count(self) -> int:
        return len(self.devices)

    def nodes(self) -> tuple[str, ...]:
        names: set[str] = set()
        for device in self.devices:
            names.add(device.node_a)
            names.add(device.node_b)
        return tuple(sorted(names))

    def internal_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes() if n not in (VDD, VSS, OUTPUT))

    def node_capacitance(self, node: str) -> float:
        """Total drain/source parasitic capacitance attached to a node.

        The paper assumes the drain/source capacitance of a device equals its
        gate capacitance, i.e. its width in normalized units (Sec. 4.3).
        """
        total = 0.0
        for device in self.devices:
            if device.node_a == node or device.node_b == node:
                total += device.width
        return total

    def signal_capacitance(self, literal: Literal) -> float:
        """Total gate + polarity-gate capacitance presented to one literal wire."""
        total = 0.0
        for device in self.devices:
            total += device.signal_loads().get(literal, 0.0)
        return total

    def input_literals(self) -> tuple[Literal, ...]:
        """Every distinct literal wire that loads at least one device gate."""
        literals: set[Literal] = set()
        for device in self.devices:
            literals.update(device.signal_loads())
        return tuple(sorted(literals, key=lambda lit: (lit.name, lit.negated)))

    @cached_property
    def switch_states(self) -> "SwitchStates":
        """Switch-level behaviour in every input state, built on first use
        and shared by simulation, delay and power characterization (the
        import is local because :mod:`repro.circuits.switch_sim` builds on
        this module)."""
        from repro.circuits.switch_sim import SwitchStates

        return SwitchStates(self)


class _NodeNamer:
    """Generates unique internal node names for one pull network."""

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._count = 0

    def next(self) -> str:
        self._count += 1
        return f"{self._prefix}{self._count}"


def _build_pull_network(
    network: SwitchNetwork,
    budget: float,
    top_node: str,
    bottom_node: str,
    pull_up: bool,
    style: CellStyle,
    technology: Technology,
    namer: _NodeNamer,
) -> list[Device]:
    """Recursively place sized devices for one pull network.

    ``top_node`` is the side closer to the cell output; for a series
    composition the first child is placed adjacent to the output, which
    mirrors the stack ordering drawn in Fig. 4 of the paper.
    """
    role = DeviceRole.PULL_UP if pull_up else DeviceRole.PULL_DOWN
    if isinstance(network, LiteralSwitch):
        width = literal_device_width(budget, pull_up, technology)
        literal = network.literal
        if pull_up:
            # A p-type device conducts when its gate wire is low, so the gate
            # wire is the complement of the conduction literal.
            gate = literal.complement()
            channel = ChannelType.P
        else:
            gate = literal
            channel = ChannelType.N
        return [
            Device(
                role=role,
                gate=gate,
                polarity=PolarityControl.fixed(channel),
                width=width,
                node_a=top_node,
                node_b=bottom_node,
            )
        ]
    if isinstance(network, XorSwitch):
        if not technology.ambipolar:
            raise ValueError(
                "XOR switches require ambipolar devices; not available in "
                f"technology {technology.name!r}"
            )
        if style.uses_pass_transistors:
            width = pass_transistor_width(budget)
            return [
                pass_transistor_device(
                    network.first, network.second, width, top_node, bottom_node, role
                )
            ]
        width = transmission_gate_width(budget)
        return list(
            transmission_gate_devices(
                network.first, network.second, width, top_node, bottom_node, role
            )
        )
    if isinstance(network, Series):
        share = budget / len(network.children)
        devices: list[Device] = []
        current_top = top_node
        for position, child in enumerate(network.children):
            is_last = position == len(network.children) - 1
            current_bottom = bottom_node if is_last else namer.next()
            devices.extend(
                _build_pull_network(
                    child,
                    share,
                    current_top,
                    current_bottom,
                    pull_up,
                    style,
                    technology,
                    namer,
                )
            )
            current_top = current_bottom
        return devices
    if isinstance(network, Parallel):
        devices = []
        for child in network.children:
            devices.extend(
                _build_pull_network(
                    child,
                    budget,
                    top_node,
                    bottom_node,
                    pull_up,
                    style,
                    technology,
                    namer,
                )
            )
        return devices
    raise TypeError(f"unknown network node {network!r}")  # pragma: no cover


def build_cell_netlist(
    name: str,
    pd_network: SwitchNetwork,
    style: CellStyle,
) -> CellNetlist:
    """Build and size the complete netlist of a cell from its pull-down network."""
    technology = style.technology
    devices: list[Device] = []

    pd_target = PSEUDO_PULL_DOWN_TARGET if style.is_pseudo else 1.0
    pd_namer = _NodeNamer("pd_n")
    devices.extend(
        _build_pull_network(
            pd_network,
            pd_target,
            OUTPUT,
            VSS,
            pull_up=False,
            style=style,
            technology=technology,
            namer=pd_namer,
        )
    )

    pu_network: SwitchNetwork | None
    if style.is_pseudo:
        pu_network = None
        devices.append(
            Device(
                role=DeviceRole.PSEUDO_LOAD,
                gate=None,
                polarity=PolarityControl.fixed(ChannelType.P),
                width=PSEUDO_LOAD_WIDTH,
                node_a=VDD,
                node_b=OUTPUT,
            )
        )
    else:
        pu_network = pd_network.dual()
        pu_namer = _NodeNamer("pu_n")
        devices.extend(
            _build_pull_network(
                pu_network,
                1.0,
                OUTPUT,
                VDD,
                pull_up=True,
                style=style,
                technology=technology,
                namer=pu_namer,
            )
        )

    return CellNetlist(
        name=name,
        style=style,
        technology=technology,
        devices=tuple(devices),
        pd_network=pd_network,
        pu_network=pu_network,
        input_signals=tuple(sorted(pd_network.signals())),
    )
