"""Static timing analysis of a mapped netlist (arrival/required/slack).

One array core, :func:`static_timing`, times a netlist given as gate
columns: per gate its output net, its leaf nets (a padded block plus a
width) and its ``parasitic``/``effort`` delay terms.  The core levels the
gates itself with a Kahn peel (a gate becomes ready once every gate driving
one of its leaves is done, so a combinational cycle leaves gates behind and
raises ``ValueError``), then computes, with the fanout-scaled gate-delay
model of paper Sec. 4.4 (``parasitic + effort_per_load * loads``, one load
per sink pin, each primary output counting as one load):

* the loads of every net (one ``bincount`` over the sink pins and the POs);
* arrival times and logic depth, one level at a time;
* required times against the worst PO arrival, scattered backwards with a
  running minimum per leaf;
* the slack ``required - arrival``.

Every value is produced by the same IEEE-754 operation the historical
per-gate dict walk applied, so the figures are bit-identical to it (pinned
by ``tests/synthesis/test_cover_parity.py`` against the oracle in
``tests/oracles/mapper.py``).

The mapper calls the core directly on the rows it chose and reads the
arrays (:class:`TimingArrays`).  :func:`compute_timing` is the public
report: it numbers the nets of any :class:`MappedCircuit` -- output ids need
not be topologically ordered -- runs the core and builds the per-net dicts
and the critical path of a :class:`TimingReport`.  Its worst PO arrival is
by construction the ``normalized_delay`` the mapper records on the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synthesis.mapper import MappedCircuit, MappedGate


@dataclass(frozen=True)
class TimingReport:
    """Arrival/required/slack view of one mapped circuit.

    All times are in units of the technology intrinsic delay ``tau`` (the
    mapper's normalized-delay convention).  Nets are keyed by the driving
    node id: gate outputs, plus primary-input/constant nodes at arrival 0.
    """

    #: Worst primary-output arrival time (== ``MappedCircuit.normalized_delay``).
    normalized_delay: float
    #: Logic depth on the longest PI-to-PO gate path.
    levels: int
    #: Arrival time per net.
    arrival: dict[int, float]
    #: Required time per net against the worst PO arrival as the deadline.
    required: dict[int, float]
    #: ``required - arrival`` per net; >= 0 everywhere, 0 on the critical path.
    slack: dict[int, float]
    #: Gate output ids along one critical path, input side first.
    critical_path: tuple[int, ...]

    def worst_slack(self) -> float:
        return min(self.slack.values(), default=0.0)

    def critical_gates(self, tolerance: float = 1e-9) -> tuple[int, ...]:
        """Every net with slack within ``tolerance`` of zero."""
        return tuple(
            node for node, value in sorted(self.slack.items()) if value <= tolerance
        )


@dataclass(frozen=True)
class TimingArrays:
    """The STA core's result over nets ``0 .. num_nets - 1``.

    ``nets`` marks the nets the netlist references (gate outputs, gate
    leaves and primary outputs); the per-net arrays are only meaningful
    there.  As in :class:`TimingReport`, a net with no path to a primary
    output has its arrival as required time and zero slack.
    """

    normalized_delay: float
    levels: int
    nets: np.ndarray  #: (num_nets,) bool
    loads: np.ndarray  #: (num_nets,) int64 sink pins plus PO occurrences
    arrival: np.ndarray  #: (num_nets,) float64
    required: np.ndarray  #: (num_nets,) float64
    slack: np.ndarray  #: (num_nets,) float64
    gate_delay: np.ndarray  #: (gates,) float64 instance delay per gate

    def worst_slack(self) -> float:
        slack = self.slack[self.nets]
        return float(slack.min()) if slack.size else 0.0


def gate_delay(gate: MappedGate, loads: int) -> float:
    """Instance delay under the paper's load model (one unit per fanout)."""
    return gate.parasitic_delay + gate.effort_delay * max(loads, 1)


def _peel(
    outputs: np.ndarray, leaves: np.ndarray, mask: np.ndarray, num_nets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gate indices level by level: each gate after every gate it reads.

    A Kahn peel: level ``d`` (``order[bounds[d - 1]:bounds[d]]``) holds the
    gates whose longest chain of driving gates has ``d - 1`` gates, i.e.
    exactly the gates of logic depth ``d``.
    """
    num_gates = outputs.shape[0]
    gate_of = np.full(num_nets, -1, dtype=np.int64)
    gate_of[outputs] = np.arange(num_gates, dtype=np.int64)
    leaf_gate = np.where(mask, gate_of[leaves], -1)
    consumer, position = np.nonzero(leaf_gate >= 0)
    producer = leaf_gate[consumer, position]
    pending = np.bincount(consumer, minlength=num_gates)
    # Consumers grouped by producer (CSR), so a level finds its sinks by
    # slicing instead of scanning every edge.
    sinks = consumer[np.argsort(producer, kind="stable")]
    fan = np.bincount(producer, minlength=num_gates)
    first = np.cumsum(fan) - fan

    levels: list[np.ndarray] = []
    frontier = np.flatnonzero(pending == 0)
    while frontier.size:
        levels.append(frontier)
        counts = fan[frontier]
        total = int(counts.sum())
        if not total:
            break
        offsets = np.cumsum(counts) - counts
        edges = np.repeat(first[frontier] - offsets, counts) + np.arange(total)
        hits = np.bincount(sinks[edges], minlength=num_gates)
        pending -= hits
        frontier = np.flatnonzero((hits > 0) & (pending == 0))
    order = np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)
    if order.size < num_gates:
        stuck = int(np.flatnonzero(pending > 0)[0])
        raise ValueError(
            f"mapped netlist contains a combinational cycle feeding gate "
            f"{stuck} (net {int(outputs[stuck])})"
        )
    bounds = np.cumsum([0] + [level.size for level in levels])
    return order, bounds


def static_timing(
    outputs: np.ndarray,
    leaves: np.ndarray,
    width: np.ndarray,
    parasitic: np.ndarray,
    effort: np.ndarray,
    po_nets: np.ndarray,
    num_nets: int,
) -> TimingArrays:
    """Time a netlist given as gate columns (see the module docstring).

    Gate ``g`` drives net ``outputs[g]`` from nets ``leaves[g, :width[g]]``;
    columns past the width are padding and never read.  Net ids lie in
    ``[0, num_nets)``; ``po_nets`` may repeat a net (each occurrence is one
    load) and may name nets no gate drives (arrival 0).
    """
    mask = np.arange(leaves.shape[1]) < width[:, None]
    leaf_nets = leaves[mask]
    loads = np.bincount(leaf_nets, minlength=num_nets) + np.bincount(
        po_nets, minlength=num_nets
    )
    delay = parasitic + effort * np.maximum(loads[outputs], 1)
    order, bounds = _peel(outputs, leaves, mask, num_nets)
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))

    # Gate columns in level order, so every level is a slice.  Padded pins
    # point at the extra net ``num_nets``: arrival -inf (never the latest
    # leaf), and a sink for the required-time scatter that is dropped.
    sink = np.where(mask, leaves, num_nets)[order]
    driven = outputs[order]
    level_delay = delay[order]

    arrival = np.zeros(num_nets + 1, dtype=np.float64)
    arrival[num_nets] = -np.inf
    for lo, hi in spans:
        latest = np.max(arrival[sink[lo:hi]], axis=1, initial=-np.inf)
        # A gate without leaves starts at 0, like a primary input.
        arrival[driven[lo:hi]] = (
            np.where(latest == -np.inf, 0.0, latest) + level_delay[lo:hi]
        )
    arrival = arrival[:num_nets]
    depth = np.zeros(num_nets, dtype=np.int64)
    depth[driven] = np.repeat(np.arange(1, len(spans) + 1), np.diff(bounds))
    normalized_delay = float(arrival[po_nets].max()) if po_nets.size else 0.0
    logic_depth = int(depth[po_nets].max()) if po_nets.size else 0

    nets = np.zeros(num_nets, dtype=bool)
    nets[outputs] = True
    nets[leaf_nets] = True
    nets[po_nets] = True

    required = np.full(num_nets + 1, np.inf)
    required[po_nets] = normalized_delay
    for lo, hi in reversed(spans):
        budget = required[driven[lo:hi]] - level_delay[lo:hi]
        np.minimum.at(required, sink[lo:hi], budget[:, None])
    required = required[:num_nets]
    unconstrained = required == np.inf
    slack = np.where(unconstrained, 0.0, required - arrival)
    required = np.where(unconstrained, arrival, required)
    return TimingArrays(
        normalized_delay=normalized_delay,
        levels=logic_depth,
        nets=nets,
        loads=loads,
        arrival=arrival,
        required=required,
        slack=slack,
        gate_delay=delay,
    )


def compute_timing(mapped: MappedCircuit) -> TimingReport:
    """Compute the full timing report of a mapped circuit."""
    gates = mapped.gates
    outputs = [gate.output for gate in gates]
    widths = [len(gate.leaves) for gate in gates]
    leaf_ids = [leaf for gate in gates for leaf in gate.leaves]
    net_ids, index = np.unique(
        np.array(outputs + leaf_ids + list(mapped.po_nodes), dtype=np.int64),
        return_inverse=True,
    )
    num_gates, num_pins = len(outputs), len(leaf_ids)
    width = np.array(widths, dtype=np.int64)
    leaves = np.zeros((num_gates, max(widths, default=0)), dtype=np.int64)
    leaves[np.arange(leaves.shape[1]) < width[:, None]] = index[
        num_gates : num_gates + num_pins
    ]
    timing = static_timing(
        index[:num_gates],
        leaves,
        width,
        np.array([gate.parasitic_delay for gate in gates], dtype=np.float64),
        np.array([gate.effort_delay for gate in gates], dtype=np.float64),
        index[num_gates + num_pins :],
        int(net_ids.size),
    )
    nets = net_ids.tolist()
    arrival = dict(zip(nets, timing.arrival.tolist()))

    # Critical path: walk back from the worst PO, always following a leaf
    # whose arrival accounts for the gate's arrival (first such leaf wins,
    # deterministically).
    delays = timing.gate_delay.tolist()
    gate_of = {gate.output: position for position, gate in enumerate(gates)}
    critical: list[int] = []
    start = None
    for node in mapped.po_nodes:
        if start is None or arrival[node] > arrival[start]:
            start = node
    node = start
    while node is not None and node in gate_of:
        critical.append(node)
        position = gate_of[node]
        target = arrival[node] - delays[position]
        next_node = None
        for leaf in gates[position].leaves:
            if abs(arrival[leaf] - target) <= 1e-9:
                next_node = leaf
                break
        if next_node is None or next_node not in gate_of:
            break
        node = next_node
    critical.reverse()

    return TimingReport(
        normalized_delay=timing.normalized_delay,
        levels=timing.levels,
        arrival=arrival,
        required=dict(zip(nets, timing.required.tolist())),
        slack=dict(zip(nets, timing.slack.tolist())),
        critical_path=tuple(critical),
    )
