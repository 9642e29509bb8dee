"""Total dynamic + static power of a technology-mapped circuit.

The classic switched-capacitance model: normalized dynamic power is the sum
over nets of ``activity * capacitance`` where the activity comes from the
word-parallel signal-statistics engine (:mod:`repro.analysis.activity`) and
the capacitance of a net is

* the driving cell's switched output capacitance (output node plus half the
  internal stack parasitics, :class:`~repro.analysis.cell_power.PowerReport`),
* plus the input capacitance of every sink pin the net drives (the exact pin
  polarities resolved by the matcher, carried per match as the netlist's
  pin-capacitance columns, :attr:`MatchFigures.pin_caps
  <repro.synthesis.mapper.MatchFigures.pin_caps>`; a gate without pin
  bindings charges the cell's mean input capacitance per pin),
* plus one unit input capacitance per primary-output load (the paper's
  load convention, matching the timing model).

Normalized static power is the pseudo-family standing current: for every
gate whose cell carries the weak always-on load, the characterized mean
output-low current weighted by the probability that the pull-down network
conducts (which is the probability that the cell's Table-1 function is true
under the bound pins, i.e. the mapped node's signal probability,
complemented when the matcher used the inverted output polarity).  Static
families and the CMOS reference contribute exactly zero.

Everything is a pure function of ``(mapped circuit, activity report)``,
computed from the netlist's gate columns, so power figures are
bit-identical across runs, processes and cache replays -- the property the
Pareto experiment lane relies on.  The sums keep one fixed order: the sink
loads add the pin loads in gate order (pin order within a gate), then one
load per entry of ``po_nodes``; the gate totals add one gate at a time in
ascending output order and the input total one primary input at a time in
``aig.pi_names`` order (a sequential ``cumsum``, never numpy's pairwise
``sum``).  ``tests/oracles/power.py`` holds the per-gate reference these
totals equal exactly.

Units: normalized capacitance (multiples of the unit inverter input
capacitance) switched per cycle at ``Vdd = 1`` for dynamic power, normalized
current (``Vdd`` over the unit device resistance) for static power.  The two
are reported separately and as a sum; converting to watts would additionally
require the technology's absolute ``C``, ``Vdd`` and clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.activity import (
    DEFAULT_SEED,
    DEFAULT_VECTORS,
    ActivityReport,
    compute_activities,
)
from repro.core.library import GateLibrary
from repro.synthesis.aig import Aig
from repro.synthesis.mapper import MappedCircuit

#: Capacitance presented by one primary-output load (one unit inverter input).
PO_LOAD = 1.0


@dataclass(frozen=True)
class NetlistPower:
    """Power report of one mapped circuit (see module docstring for units)."""

    name: str
    library_name: str
    #: Signal-statistics provenance (``"exact"`` / ``"monte-carlo"``, pattern
    #: count, seed) -- recorded so archived figures stay comparable.
    method: str
    patterns: int
    seed: int | None
    #: Dynamic power of the gate-driven nets.
    dynamic: float
    #: Dynamic power of the primary-input nets (sink pins they drive).
    input_dynamic: float
    #: Total standing pseudo-family current.
    static: float

    @property
    def total(self) -> float:
        return self.dynamic + self.input_dynamic + self.static


def _sequential_sum(values: np.ndarray) -> float:
    """``total = 0.0; total += value`` over ``values`` in order."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def analyze_power(
    mapped: MappedCircuit,
    aig: Aig,
    library: GateLibrary,
    activities: ActivityReport | None = None,
    vectors: int = DEFAULT_VECTORS,
    seed: int = DEFAULT_SEED,
) -> NetlistPower:
    """Compute total dynamic + static power of a mapped circuit.

    ``aig`` is the subject graph the circuit was mapped from (node ids of
    the mapped netlist refer to it); ``activities`` may be shared across the
    mapping and the analysis -- when omitted it is computed with the default
    exact/Monte-Carlo policy and the given ``vectors``/``seed``.  Cell
    figures are read from ``library`` once per distinct match.
    """
    if activities is None:
        activities = compute_activities(aig, vectors=vectors, seed=seed)
    activity = activities.activity
    probability = activities.probability
    columns = mapped.columns
    figures = columns.figures
    match = columns.match
    outputs = columns.outputs

    cells = {cell.name: cell.power for cell in library.cells}
    reports = [cells[name] for name in figures.cell_name]
    switched = np.array([r.switched_capacitance for r in reports])
    static_low = np.array([r.static_current_low for r in reports])

    # Sink loads per net: every gate pin's load, then one unit load per
    # primary output.  Gates without pin bindings (hand-built netlists) load
    # each pin with the cell's mean per-signal input capacitance.
    width = columns.width
    pins = np.arange(columns.leaves.shape[1]) < width[:, None]
    average = np.array([r.input_capacitance_average for r in reports])
    pin_caps = np.where(
        (figures.pins[match] != width)[:, None],
        average[match][:, None],
        figures.pin_caps[match],
    )
    po_nodes = np.asarray(mapped.po_nodes, dtype=np.int64)
    sink_load = np.bincount(
        np.concatenate((columns.leaves[pins], po_nodes)),
        weights=np.concatenate((pin_caps[pins], np.full(po_nodes.size, PO_LOAD))),
        minlength=activity.shape[0],
    )

    order = np.argsort(outputs, kind="stable")
    nets = outputs[order]
    matched = match[order]
    dynamic = activity[nets] * (switched[matched] + sink_load[nets])
    probability_on = np.where(
        figures.inverted[matched], 1.0 - probability[nets], probability[nets]
    )
    static = static_low[matched] * probability_on

    # Primary-input nets switch the pins they drive (no driver capacitance:
    # the input driver sits outside the circuit under analysis).
    inputs = np.array(aig.pi_nodes(), dtype=np.int64)  # in ``pi_names`` order
    driven = np.zeros(sink_load.shape[0], dtype=bool)
    driven[outputs] = True
    inputs = inputs[~driven[inputs]]
    inputs = inputs[sink_load[inputs] != 0.0]

    return NetlistPower(
        name=mapped.name,
        library_name=mapped.library_name,
        method=activities.method,
        patterns=activities.patterns,
        seed=activities.seed,
        dynamic=_sequential_sum(dynamic),
        input_dynamic=_sequential_sum(activity[inputs] * sink_load[inputs]),
        static=_sequential_sum(static),
    )
