"""Cut-based technology mapping onto a characterized gate library.

The mapper is a layered engine in the spirit of ABC's ``map`` command; each
layer has one production path over struct-of-arrays tables:

1. **Matching.**  Priority cuts are enumerated for every AND node and matched
   against the library through the NPN-canonical index
   (:class:`~repro.synthesis.matcher.LibraryMatcher`).  The matches are
   assembled once per cut set and cell policy into a :class:`CandidateTable`
   (one row per matched cut, read straight off the
   :class:`~repro.synthesis.cuts.CutSet` arrays) and priced once per cost
   model into a per-row price array, so re-pricing the same matches across
   recovery rounds costs nothing.
2. **Dynamic programming.**  A forward pass computes, for every node, the
   best arrival time and cost flow over its candidates.  The objective
   policy -- local gate cost, arrival/flow tie-break, preferred cell per
   canonical class -- is owned entirely by the
   :class:`~repro.synthesis.cost.CostModel` (``delay``/``area``/``power``);
   the DP itself is objective agnostic.  Nodes are processed one AIG level
   at a time (``aig_array`` level buckets) and the per-node candidate scan
   is a slot-indexed incumbent update across the whole level, decision for
   decision the scalar scan (see :func:`_dp_round_batched`).  A cost model
   registered without the batch hooks is wrapped in an elementwise adapter
   (:class:`_RowwiseHooks`) that calls its ``gate_cost`` and ``better`` per
   row.  Recovery re-solves are *incremental*: only nodes whose required
   time, reference count or leaf arrivals/flows actually changed since the
   previous round are re-chosen (:class:`_DpState` carries the previous
   solution).
3. **Covering.**  :func:`_cover_rows` marks the nodes the primary outputs
   need, one AIG level at a time from the top, and gathers the chosen rows
   into the netlist's gate columns (:class:`GateColumns`, ascending output
   order) with the figures of the cover's distinct matches, which the
   candidate table resolved once (:class:`MatchFigures`).  No
   :class:`MappedGate` is built: ``MappedCircuit.gates`` does that on read.
   The cover is timed by the array STA core of :mod:`repro.analysis.timing`
   (:func:`~repro.analysis.timing.static_timing`), priced by summing the
   DP's price array at its rows, and its exact reference counts come from
   the STA's load count.
4. **Required-time recovery** (``rounds > 0``).  Round 0 maps under the
   requested objective exactly as above; each recovery round then takes
   required times against the round-0 deadline over the previous cover and
   re-runs the DP under the recovery cost model (area or power flow with
   exact per-cover reference counts), accepting per node only candidates
   that meet their required time.  A round's result is kept only if the
   re-timed circuit is no slower than round 0 and no costlier than the best
   round so far, so recovery can only improve the recovered axis at equal
   worst delay.

Under ``--profile``/``--trace`` the layers are the stages ``match``
(candidate tables and prices), ``dp`` (every DP solve) and ``cover`` (every
cover with its timing, cost and reference counts).

Input and output polarities are free: every library cell carries an output
inverter providing both polarities, and the XOR transmission gates accept both
literal polarities directly (paper Secs. 3.1 and 4.3); the CMOS reference
library is mapped under exactly the same convention so that the comparison is
fair.  Circuit-level timing uses the paper's load assumption (every fanout
charges one standard input capacitance per switching event) and is
normalized to the technology intrinsic delay ``tau`` to produce the Table-3
"Norm." and "Abs." columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro import obs
from repro.core.library import GateLibrary
from repro.synthesis.aig import Aig
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cost import (
    EPSILON,
    CostModel,
    MappingContext,
    MatchCandidate,
    cost_model_for,
    resolve_recovery,
)
from repro.synthesis.cuts import DEFAULT_CUT_LIMIT, DEFAULT_MAX_INPUTS, cut_set_for
from repro.synthesis.matcher import (
    CellMatch,
    _MatcherBase,
    distinct_keys,
    matcher_for,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.activity import ActivityReport
    from repro.analysis.power import NetlistPower
    from repro.analysis.timing import TimingArrays


@dataclass(frozen=True)
class MappedGate:
    """One library-gate instance of the mapped netlist.

    ``table`` is the Boolean function of the gate output over ``leaves`` (raw
    truth-table bits, leaf 0 being the least significant input), so the mapped
    netlist can be re-simulated and formally compared against the subject AIG
    without consulting the library again.

    ``leaf_loads`` records, per leaf position, the normalized input
    capacitance of the cell pin the leaf drives (resolved from the matcher's
    pin assignment), and ``inverted`` whether the gate realizes the
    complement of the cell's Table-1 function (output-inverter polarity) --
    both are what the power analysis needs to charge nets correctly.
    """

    output: int
    cell_name: str
    function_id: str
    leaves: tuple[int, ...]
    table: int
    area: float
    intrinsic_delay: float
    parasitic_delay: float
    effort_delay: float
    leaf_loads: tuple[float, ...] = ()
    inverted: bool = False


@dataclass(frozen=True)
class MatchFigures:
    """Per-match columns: the :class:`MappedGate` fields one cell match fixes.

    ``pin_caps[m, :pins[m]]`` are match ``m``'s ``leaf_loads`` (``pins[m]``
    is 0 when the pin bindings are unknown), zero-padded; the other columns
    are the gate fields of the same name.
    """

    cell_name: tuple[str, ...]
    function_id: tuple[str, ...]
    area: np.ndarray  #: (m,) float64
    intrinsic_delay: np.ndarray  #: (m,) float64 FO4 delay
    parasitic_delay: np.ndarray  #: (m,) float64
    effort_delay: np.ndarray  #: (m,) float64 per unit load
    inverted: np.ndarray  #: (m,) bool output-inverter polarity
    pins: np.ndarray  #: (m,) int64 bound pins
    pin_caps: np.ndarray  #: (m, width) float64

    @staticmethod
    def from_rows(rows: list[tuple], width: int) -> MatchFigures:
        """Figures from per-match ``(cell_name, function_id, area,
        intrinsic_delay, parasitic_delay, effort_delay, leaf_loads,
        inverted)`` tuples, pin loads padded to ``width`` columns."""
        names, ids, *numbers, loads, inverted = zip(*rows) if rows else [()] * 8
        return MatchFigures(
            names,
            ids,
            *(np.array(column, dtype=np.float64) for column in numbers),
            np.array(inverted, dtype=bool),
            np.array([len(caps) for caps in loads], dtype=np.int64),
            np.array(
                [caps + (0.0,) * (width - len(caps)) for caps in map(tuple, loads)],
                dtype=np.float64,
            ).reshape(len(rows), width),
        )

    @staticmethod
    def resolve(matches: list[CellMatch], width: int) -> MatchFigures:
        """The figures of every match, pin loads padded to ``width``."""
        rows = []
        for match in matches:
            cell = match.cell
            fo4, parasitic = cell.delay.fo4_average, cell.delay.parasitic_output
            effort = max(fo4 - parasitic, 0.0) / 4.0
            row = (cell.name, cell.function_id, cell.area, fo4, parasitic, effort)
            rows.append(row + (_pin_capacitances(match), match.match.output_negated))
        return MatchFigures.from_rows(rows, width)

    def rows(self) -> list[tuple]:
        """The per-match tuples of :meth:`from_rows`, as Python scalars."""
        loads = zip(self.pin_caps.tolist(), self.pins.tolist())
        return list(zip(
            self.cell_name,
            self.function_id,
            *(getattr(self, entry.name).tolist() for entry in fields(self)[2:6]),
            [tuple(caps[:pins]) for caps, pins in loads],
            self.inverted.tolist(),
        ))

    def take(self, index: np.ndarray) -> MatchFigures:
        """The figures of the matches ``index`` names, in that order."""
        positions = index.tolist()
        return MatchFigures(
            tuple(self.cell_name[i] for i in positions),
            tuple(self.function_id[i] for i in positions),
            *(getattr(self, entry.name)[index] for entry in fields(self)[2:]),
        )


@dataclass(frozen=True)
class GateColumns:
    """A mapped netlist as columns: one row per gate, in netlist order.

    Gate ``g`` drives net ``outputs[g]`` from nets ``leaves[g, :width[g]]``
    (padding is node 0) with truth table ``table_bits[g]`` over them, and
    takes its other fields from match ``match[g]`` of ``figures``, whose
    pin loads have as many columns as ``leaves``.
    """

    outputs: np.ndarray  #: (gates,) int64
    leaves: np.ndarray  #: (gates, width) integer node ids
    width: np.ndarray  #: (gates,) int64
    table_bits: np.ndarray  #: (gates,) uint64
    match: np.ndarray  #: (gates,) int64 index into ``figures``
    figures: MatchFigures

    @staticmethod
    def from_gates(gates: Iterable[MappedGate]) -> GateColumns:
        """The columns of a gate list, one match per gate."""
        rows = [astuple(gate) for gate in gates]
        outputs, names, ids, leaves, bits, *numbers, loads, inverted = (
            zip(*rows) if rows else [()] * 11
        )
        width = max(map(len, leaves + loads), default=0)
        return GateColumns(
            outputs=np.array(outputs, dtype=np.int64),
            leaves=np.array(
                [row + (0,) * (width - len(row)) for row in map(tuple, leaves)],
                dtype=np.int64,
            ).reshape(len(rows), width),
            width=np.array([len(row) for row in leaves], dtype=np.int64),
            table_bits=np.array(bits, dtype=np.uint64),
            match=np.arange(len(rows), dtype=np.int64),
            figures=MatchFigures.from_rows(
                list(zip(names, ids, *numbers, loads, inverted)), width
            ),
        )

    def gates(self) -> tuple[MappedGate, ...]:
        """One :class:`MappedGate` per row, every field a Python scalar."""
        per_match = self.figures.rows()
        return tuple(
            MappedGate(output, name, function_id, tuple(row[:count]), bits, *rest)
            for output, row, count, bits, (name, function_id, *rest) in zip(
                self.outputs.tolist(),
                self.leaves.tolist(),
                self.width.tolist(),
                self.table_bits.tolist(),
                [per_match[index] for index in self.match.tolist()],
            )
        )


@dataclass
class MappedCircuit:
    """A technology-mapped circuit and its Table-3 statistics.

    The netlist is :attr:`columns`; gate count, area, timing and power are
    computed from them, and :attr:`gates` builds :class:`MappedGate` objects
    on first read only.  Hand-built netlists come from a gate list through
    :meth:`from_gates`.  Equality compares the netlist and the scalar fields
    but not ``power_report``, so two identical mappings compare equal
    whether or not they were analyzed.
    """

    name: str
    library_name: str
    tau_ps: float
    columns: GateColumns = field(repr=False, compare=False)
    primary_inputs: tuple[str, ...]
    primary_outputs: tuple[str, ...]
    po_nodes: tuple[int, ...]
    levels: int = 0
    normalized_delay: float = 0.0
    #: Worst ``required - arrival`` over all nets (0 on a timing-feasible
    #: circuit; recorded by the timing engine alongside the delay figures).
    worst_slack: float = 0.0
    #: Power report attached by :meth:`attach_power` when the circuit has
    #: been analyzed (``None`` until then).
    power_report: "NetlistPower | None" = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_gates(cls, gates: Iterable[MappedGate], **attributes) -> MappedCircuit:
        """A circuit over a gate list (:meth:`GateColumns.from_gates`)."""
        return cls(columns=GateColumns.from_gates(gates), **attributes)

    @cached_property
    def gates(self) -> tuple[MappedGate, ...]:
        return self.columns.gates()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.gates == other.gates and all(
            getattr(self, entry.name) == getattr(other, entry.name)
            for entry in fields(self)
            if entry.compare
        )

    @property
    def gate_count(self) -> int:
        return int(self.columns.outputs.shape[0])

    @property
    def area(self) -> float:
        # The builtin ``sum`` in gate order (compensated from Python 3.12 on).
        return sum(self.columns.figures.area[self.columns.match].tolist())

    @property
    def absolute_delay_ps(self) -> float:
        return self.normalized_delay * self.tau_ps

    def gate_histogram(self) -> dict[str, int]:
        """Number of instances per Table-1 function id."""
        function_ids = self.columns.figures.function_id
        return dict(Counter(function_ids[i] for i in self.columns.match.tolist()))

    def attach_power(self, report: "NetlistPower") -> None:
        """Attach a power analysis so :meth:`statistics` can report it."""
        self.power_report = report

    def statistics(self) -> dict[str, float]:
        stats = {
            "gates": self.gate_count,
            "area": self.area,
            "levels": self.levels,
            "normalized_delay": self.normalized_delay,
            "absolute_delay_ps": self.absolute_delay_ps,
            "worst_slack": self.worst_slack,
        }
        if self.power_report is not None:
            stats["dynamic_power"] = (
                self.power_report.dynamic + self.power_report.input_dynamic
            )
            stats["static_power"] = self.power_report.static
            stats["total_power"] = self.power_report.total
        return stats


@dataclass
class MappingResult:
    """Outcome of a multi-round mapping run (:func:`map_rounds`).

    ``rounds`` holds every round's circuit as built (round 0 first);
    ``accepted`` records, per round, whether the keep-best driver kept it
    (round 0 is always kept; a recovery round is kept only if it is no
    slower than round 0 and no costlier -- under the recovery cost model --
    than the best accepted round before it).
    """

    objective: str
    recovery: str | None
    rounds: list[MappedCircuit]
    accepted: list[bool]

    @property
    def final(self) -> MappedCircuit:
        """The last accepted round's circuit."""
        for mapped, kept in zip(reversed(self.rounds), reversed(self.accepted)):
            if kept:
                return mapped
        return self.rounds[0]


class MappingError(RuntimeError):
    """Raised when a node cannot be matched by any library cell."""


#: How many times one recovery round may be retried with a tightened
#: deadline before the overshooting result is recorded as rejected.
_RECOVERY_RETRIES = 3


def _pin_bindings(match: CellMatch) -> tuple[tuple[str, bool], ...]:
    """Cell pin (name, complemented) driven by each reduced leaf position.

    Follows the :class:`~repro.logic.npn.InputMatch` convention
    ``g(z) = (~)^out f(sigma(z) ^ phase)``: leaf position ``j`` drives
    base-cell input ``permutation[j]``, and the phase is applied in the
    *base function's* input space, so the leaf is complemented when phase
    bit ``permutation[j]`` is set (pinned by the mapper pin-binding test
    against the cell truth tables).
    """
    transform = match.match
    names = match.cell.input_names
    return tuple(
        (
            names[transform.permutation[j]],
            bool((transform.phase >> transform.permutation[j]) & 1),
        )
        for j in range(len(transform.permutation))
    )


def _pin_capacitances(match: CellMatch) -> tuple[float, ...]:
    """Normalized input capacitance of the cell pin each reduced leaf
    position drives (:func:`_pin_bindings`)."""
    power_report = match.cell.power
    return tuple(
        power_report.pin_capacitance(pin, negated)
        for pin, negated in _pin_bindings(match)
    )


# -- candidate table ------------------------------------------------------------


@dataclass(frozen=True)
class CandidateTable:
    """Struct-of-arrays candidate table: one row per matched ranked cut.

    Rows are grouped contiguously per node in ascending node id (which is
    also topological order for an :class:`Aig`), each node's rows in cut
    slot order -- the order the DP's incumbent scan visits them in.
    ``leaves`` rows are the support-reduced cut leaves in cell input order,
    padded with node 0 (whose arrival and flow are exactly ``0.0``, so
    padded slots are no-ops in the max/sum kernels).  ``matches`` holds the
    distinct :class:`~repro.synthesis.matcher.CellMatch` objects and
    ``figures`` their :class:`MatchFigures`, resolved once per table for
    pricing and covering alike; ``match_index`` maps rows onto both.
    ``level_rows``/``level_local``
    mirror ``level_nodes`` (the AIG's level buckets): the row indices of a
    level's nodes and, per row, the position of its node within the bucket.
    """

    num_nodes: int
    max_inputs: int
    and_nodes: np.ndarray  #: int64 AND node ids (topological order)
    node: np.ndarray  #: (rows,) int64 owning node per row
    start: np.ndarray  #: (num_nodes,) int64 first row of each node
    count: np.ndarray  #: (num_nodes,) int64 rows per node
    leaves: np.ndarray  #: (rows, max_inputs) int32, padded with node 0
    width: np.ndarray  #: (rows,) int64 number of real leaves
    table_bits: np.ndarray  #: (rows,) uint64 reduced truth table
    match_index: np.ndarray  #: (rows,) int64 index into ``matches``
    delay: np.ndarray  #: (rows,) float64 cell FO4 delay
    area: np.ndarray  #: (rows,) float64 cell area
    parasitic: np.ndarray  #: (rows,) float64 parasitic delay
    effort: np.ndarray  #: (rows,) float64 effort delay (per unit load)
    matches: list[CellMatch]
    figures: MatchFigures
    level_nodes: tuple[np.ndarray, ...]
    level_rows: tuple[np.ndarray, ...]
    level_local: tuple[np.ndarray, ...]

    @property
    def num_rows(self) -> int:
        return int(self.node.shape[0])

    def candidate(self, row: int) -> MatchCandidate:
        """Materialize one row as a :class:`MatchCandidate`: the argument of
        a cost model's scalar :meth:`~repro.synthesis.cost.CostModel.gate_cost`
        (see :class:`_RowwiseHooks`)."""
        width = int(self.width[row])
        return MatchCandidate(
            leaves=tuple(int(leaf) for leaf in self.leaves[row, :width]),
            table=int(self.table_bits[row]),
            match=self.matches[int(self.match_index[row])],
            delay=float(self.delay[row]),
            area=float(self.area[row]),
            parasitic=float(self.parasitic[row]),
            effort=float(self.effort[row]),
        )


def _level_row_groups(
    level_nodes: tuple[np.ndarray, ...], start: np.ndarray, count: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Row indices (and within-bucket node positions) per AIG level."""
    level_rows: list[np.ndarray] = []
    level_local: list[np.ndarray] = []
    for nodes in level_nodes:
        counts = count[nodes]
        total = int(counts.sum())
        local = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rows = np.repeat(start[nodes] - offsets, counts) + np.arange(
            total, dtype=np.int64
        )
        level_rows.append(rows)
        level_local.append(local)
    return tuple(level_rows), tuple(level_local)


def _empty_candidate_table(arrays, max_inputs: int) -> CandidateTable:
    zero_rows = np.zeros(0, dtype=np.int64)
    return CandidateTable(
        num_nodes=arrays.num_nodes,
        max_inputs=max_inputs,
        and_nodes=arrays.and_nodes,
        node=zero_rows,
        start=np.zeros(arrays.num_nodes, dtype=np.int64),
        count=np.zeros(arrays.num_nodes, dtype=np.int64),
        leaves=np.zeros((0, max_inputs), dtype=np.int32),
        width=zero_rows,
        table_bits=np.zeros(0, dtype=np.uint64),
        match_index=zero_rows,
        delay=np.zeros(0, dtype=np.float64),
        area=np.zeros(0, dtype=np.float64),
        parasitic=np.zeros(0, dtype=np.float64),
        effort=np.zeros(0, dtype=np.float64),
        matches=[],
        figures=MatchFigures.resolve([], max_inputs),
        level_nodes=arrays.level_groups,
        level_rows=tuple(zero_rows for _ in arrays.level_groups),
        level_local=tuple(zero_rows for _ in arrays.level_groups),
    )


def _build_candidate_table(
    arrays, cut_set, matcher: _MatcherBase, prefer: str
) -> CandidateTable:
    """Vectorized candidate-table construction (batched Boolean matching).

    The valid ``(node, slot)`` pairs of the ranked cuts are flattened with
    one ``repeat``/``arange`` pass (the last valid slot of every node is the
    trivial ``{node}`` cut, which is never matched on its own) and the
    matcher is consulted once per *distinct* ``(size, table)`` function.
    With a matcher exposing the columnar batch API
    (:meth:`LibraryMatcher.match_table`) the whole match resolution is a
    handful of vector passes -- signature filter, batched canonicalization
    of the surviving functions, one ``searchsorted`` per arity, vectorized
    transform composition -- and the candidate columns are gathered
    straight out of the :class:`~repro.synthesis.matcher.MatchTable`.
    Matchers without that API (e.g.
    :class:`~repro.synthesis.matcher.ExhaustiveLibraryMatcher`) fall back to
    the per-distinct-function ``match_positions`` loop over the same
    :func:`~repro.synthesis.cut_kernels.distinct_keys` dedup.  The cell
    columns are the matches' :class:`MatchFigures`, gathered per row.  Rows
    are ordered nodes ascending, slot order within a node, and no
    :class:`MatchCandidate` objects are created.
    """
    and_nodes = arrays.and_nodes
    max_inputs = cut_set.max_inputs
    if and_nodes.size == 0:
        return _empty_candidate_table(arrays, max_inputs)
    per_node = cut_set.count[and_nodes] - 1
    total = int(per_node.sum())
    if total == 0:
        return _empty_candidate_table(arrays, max_inputs)
    nodes_rep = np.repeat(and_nodes, per_node)
    starts = np.concatenate(([0], np.cumsum(per_node)[:-1]))
    slots = np.arange(total) - np.repeat(starts, per_node)
    cut_leaves = cut_set.leaves[nodes_rep, slots]

    if hasattr(matcher, "match_table"):
        match_table = matcher.match_table(cut_set, and_nodes, prefer)
        inverse = match_table.inverse
        matched = match_table.matched
        widths = match_table.width
        reduced = match_table.reduced
        match_ids = match_table.match_index
        matches = match_table.matches
        positions = match_table.positions
        if positions.shape[1] < max_inputs:
            padded = np.zeros((positions.shape[0], max_inputs), dtype=np.int64)
            padded[:, : positions.shape[1]] = positions
            positions = padded
        elif positions.shape[1] > max_inputs:
            positions = positions[:, :max_inputs]
    else:
        sizes = cut_set.size[nodes_rep, slots]
        tables = cut_set.table[nodes_rep, slots]
        supports = cut_set.support[nodes_rep, slots]
        first_index, inverse = distinct_keys(sizes, tables)

        num_distinct = first_index.shape[0]
        matched = np.zeros(num_distinct, dtype=bool)
        positions = np.zeros((num_distinct, max_inputs), dtype=np.int64)
        widths = np.zeros(num_distinct, dtype=np.int64)
        reduced = np.zeros(num_distinct, dtype=np.uint64)
        match_ids = np.zeros(num_distinct, dtype=np.int64)
        matches = []

        match_positions = matcher.match_positions
        size_list = sizes[first_index].tolist()
        table_list = tables[first_index].tolist()
        support_list = supports[first_index].tolist()
        for index in range(num_distinct):
            found = match_positions(
                size_list[index],
                table_list[index],
                prefer=prefer,
                support_mask=support_list[index],
            )
            if found is None:
                continue
            match, match_pos, match_table_bits = found
            matched[index] = True
            widths[index] = len(match_pos)
            positions[index, : len(match_pos)] = match_pos
            reduced[index] = match_table_bits
            match_ids[index] = len(matches)
            matches.append(match)

    kept = np.nonzero(matched[inverse])[0]
    ref = inverse[kept]
    match_rows = match_ids[ref]
    figures = MatchFigures.resolve(matches, max_inputs)
    node_rows = nodes_rep[kept]
    width_rows = widths[ref]
    leaf_rows = np.take_along_axis(cut_leaves[kept], positions[ref], axis=1)
    leaf_rows = np.where(
        np.arange(max_inputs)[None, :] < width_rows[:, None], leaf_rows, 0
    ).astype(np.int32)

    count = np.bincount(node_rows, minlength=arrays.num_nodes).astype(np.int64)
    start = np.concatenate(([0], np.cumsum(count)[:-1]))
    level_rows, level_local = _level_row_groups(arrays.level_groups, start, count)
    return CandidateTable(
        num_nodes=arrays.num_nodes,
        max_inputs=max_inputs,
        and_nodes=and_nodes,
        node=node_rows,
        start=start,
        count=count,
        leaves=leaf_rows,
        width=width_rows,
        table_bits=reduced[ref],
        match_index=match_rows,
        delay=figures.intrinsic_delay[match_rows],
        area=figures.area[match_rows],
        parasitic=figures.parasitic_delay[match_rows],
        effort=figures.effort_delay[match_rows],
        matches=matches,
        figures=figures,
        level_nodes=arrays.level_groups,
        level_rows=level_rows,
        level_local=level_local,
    )


def _candidate_table_for(
    arrays, cut_set, matcher: _MatcherBase, prefer: str
) -> CandidateTable:
    """The (memoized) candidate table of a cut set under one matcher/policy.

    The memo lives on the :class:`CutSet` (which is itself memoized per AIG
    structure) keyed by matcher identity and preferred-cell policy, so the
    repeated mappings of one subject -- the three objectives of a Pareto
    sweep, the rounds of a recovery run, re-maps after the cut memo warmed
    -- pay for matching and table construction once.  The matcher is
    stored in the entry to keep the identity key valid.
    """
    memo = cut_set.__dict__.get("_match_tables")
    if memo is None:
        memo = {}
        object.__setattr__(cut_set, "_match_tables", memo)
    key = ("candidates", id(matcher), prefer)
    entry = memo.get(key)
    if entry is None or entry[0] is not matcher:
        memo[key] = entry = (
            matcher,
            _build_candidate_table(arrays, cut_set, matcher, prefer),
        )
    return entry[1]


def _concat_candidate_tables(
    base: CandidateTable, extra: CandidateTable
) -> tuple[CandidateTable, np.ndarray, np.ndarray]:
    """Merge two tables per node: ``base`` rows first, then ``extra`` rows.

    Each node's candidate sequence is its ``base`` rows followed by its
    ``extra`` rows.  Also returns the destination row indices of both
    inputs so per-row companions (the price arrays) can be permuted instead
    of re-priced.
    """
    count = base.count + extra.count
    start = np.concatenate(([0], np.cumsum(count)[:-1]))
    base_local = np.arange(base.num_rows, dtype=np.int64) - base.start[base.node]
    extra_local = np.arange(extra.num_rows, dtype=np.int64) - extra.start[extra.node]
    dest_base = start[base.node] + base_local
    dest_extra = start[extra.node] + base.count[extra.node] + extra_local

    total = base.num_rows + extra.num_rows

    def merge(field_base: np.ndarray, field_extra: np.ndarray) -> np.ndarray:
        merged = np.empty(
            (total,) + field_base.shape[1:], dtype=field_base.dtype
        )
        merged[dest_base] = field_base
        merged[dest_extra] = field_extra
        return merged

    match_index = merge(
        base.match_index, extra.match_index + len(base.matches)
    )
    merged_matches = base.matches + extra.matches
    level_rows, level_local = _level_row_groups(base.level_nodes, start, count)
    merged = CandidateTable(
        num_nodes=base.num_nodes,
        max_inputs=base.max_inputs,
        and_nodes=base.and_nodes,
        node=merge(base.node, extra.node),
        start=start,
        count=count,
        leaves=merge(base.leaves, extra.leaves),
        width=merge(base.width, extra.width),
        table_bits=merge(base.table_bits, extra.table_bits),
        match_index=match_index,
        delay=merge(base.delay, extra.delay),
        area=merge(base.area, extra.area),
        parasitic=merge(base.parasitic, extra.parasitic),
        effort=merge(base.effort, extra.effort),
        matches=merged_matches,
        figures=MatchFigures.resolve(merged_matches, base.max_inputs),
        level_nodes=base.level_nodes,
        level_rows=level_rows,
        level_local=level_local,
    )
    return merged, dest_base, dest_extra


@dataclass
class _DpState:
    """A batched DP solution plus the inputs it was solved under.

    Carries everything the incremental re-solve needs: identity of the
    candidate table / price array / model / arrival model, the per-node
    inputs (references, required times) and the full per-row and per-node
    outputs.  :func:`_dp_round_batched` mutates the state in place on an
    incremental call -- any previous solve of the same configuration is a
    valid diff base, accepted or not, because the DP is a pure function of
    its inputs.
    """

    table: CandidateTable
    prices: np.ndarray
    model_name: str
    load_aware: bool
    references: np.ndarray
    required: np.ndarray | None
    row_arrival: np.ndarray
    row_flow: np.ndarray
    arrival: np.ndarray
    flow: np.ndarray
    choice: np.ndarray


def _supports_batch(model: CostModel) -> bool:
    """Whether a cost model implements the vectorized DP hooks."""
    return callable(getattr(model, "price_batch", None)) and callable(
        getattr(model, "better_batch", None)
    )


class _RowwiseHooks:
    """Batch hooks for a cost model that defines only the scalar ones.

    ``price_batch`` calls the model's ``gate_cost`` on every candidate row
    and ``better_batch`` calls its ``better`` on every element, so the DP's
    incumbent scan makes exactly the comparisons the model defines, one row
    at a time.  Third-party models registered without the vectorized hooks
    map through this adapter.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.name = model.name
        self.prefer = model.prefer

    def price_batch(self, table: CandidateTable, context: MappingContext) -> np.ndarray:
        gate_cost = self.model.gate_cost
        return np.array(
            [
                gate_cost(table.candidate(row), node, context)
                for row, node in enumerate(table.node.tolist())
            ],
            dtype=np.float64,
        )

    def better_batch(
        self,
        arrival: np.ndarray,
        flow: np.ndarray,
        best_arrival: np.ndarray,
        best_flow: np.ndarray,
    ) -> np.ndarray:
        better = self.model.better
        return np.array(
            [
                better(*values)
                for values in zip(
                    arrival.tolist(),
                    flow.tolist(),
                    best_arrival.tolist(),
                    best_flow.tolist(),
                )
            ],
            dtype=bool,
        )


def _with_batch_hooks(model: CostModel) -> CostModel:
    """The model itself if it has the vectorized hooks, else its adapter."""
    return model if _supports_batch(model) else _RowwiseHooks(model)


_DELAY_TIEBREAK = cost_model_for("delay")


def _dp_round_batched(
    aig: Aig,
    library: GateLibrary,
    table: CandidateTable,
    prices: np.ndarray,
    model: CostModel,
    references: np.ndarray,
    required: np.ndarray | None = None,
    load_aware: bool = False,
    state: _DpState | None = None,
) -> _DpState:
    """One forward DP pass: best candidate row, arrival and flow per node.

    Without ``required`` this is the classical single-pass mapping under
    ``model`` with FO4 cell delays (round 0).  With ``required`` only
    candidates meeting their node's deadline compete under ``model``; if
    none does, the arrival-optimal candidate is chosen instead so arrivals
    degrade as little as possible.  ``load_aware`` switches the arrival
    model to the timing engine's ``parasitic + effort * loads`` using the
    per-node reference estimate as the load -- the recovery rounds use it
    so the DP's deadlines line up with the re-timed circuit.

    Nodes are processed one AIG level at a time (every ranked-cut leaf lives
    on a strictly lower level than its node, so a level's inputs are final
    when it is reached).  Per level the per-node candidate loop becomes a
    scan over candidate *slots*: slot ``s`` of every node in the level is
    evaluated with one elementwise incumbent update.  Because the epsilon
    tie-breaks are not transitive, a plain argmin could pick a different
    (equally "best") candidate than a per-node incumbent scan; iterating
    slots in cut-rank order reproduces the per-node comparison sequence
    exactly (pinned against the scalar oracle DP), so the selected rows --
    and all downstream artifacts -- are bit-identical.

    When ``state`` holds a previous solve of the same configuration (same
    table, prices, model, arrival model, constraint shape), the pass is
    *incremental*: a node is re-chosen only if its reference count or
    required time changed, or the arrival/flow of any of its candidate
    leaves did.  Unchanged nodes provably reproduce their stored outputs
    (the per-node solve is a pure function of exactly those inputs), so the
    incremental result equals a full re-solve bit for bit.
    """
    num_nodes = table.num_nodes
    if table.and_nodes.size:
        missing = table.and_nodes[table.count[table.and_nodes] == 0]
        if missing.size:
            raise MappingError(
                f"node {int(missing[0])} of {aig.name!r} has no matching cell "
                f"in library {library.name!r}"
            )
    full = (
        state is None
        or state.table is not table
        or state.prices is not prices
        or state.model_name != model.name
        or state.load_aware != load_aware
        or (state.required is None) != (required is None)
    )
    if full:
        state = _DpState(
            table=table,
            prices=prices,
            model_name=model.name,
            load_aware=load_aware,
            references=references,
            required=required,
            row_arrival=np.zeros(table.num_rows, dtype=np.float64),
            row_flow=np.zeros(table.num_rows, dtype=np.float64),
            arrival=np.zeros(num_nodes, dtype=np.float64),
            flow=np.zeros(num_nodes, dtype=np.float64),
            choice=np.full(num_nodes, -1, dtype=np.int64),
        )
        node_dirty = out_changed = None
    else:
        node_dirty = references != state.references
        if required is not None:
            # inf != inf is False, so unconstrained nodes stay clean.
            node_dirty |= required != state.required
        out_changed = np.zeros(num_nodes, dtype=bool)
        state.references = references
        state.required = required

    arrival, flow, choice = state.arrival, state.flow, state.choice
    row_arrival, row_flow = state.row_arrival, state.row_flow
    better = model.better_batch
    fallback_better = _DELAY_TIEBREAK.better_batch

    for level_index, nodes in enumerate(table.level_nodes):
        rows = table.level_rows[level_index]
        if not full:
            dirty = node_dirty[nodes]
            if rows.size:
                leaf_changed = out_changed[table.leaves[rows]].any(axis=1)
                if leaf_changed.any():
                    dirty = dirty | (
                        np.bincount(
                            table.level_local[level_index],
                            weights=leaf_changed,
                            minlength=nodes.size,
                        )
                        > 0
                    )
            if not dirty.any():
                continue
            if not dirty.all():
                nodes = nodes[dirty]
                rows = rows[dirty[table.level_local[level_index]]]
        if rows.size == 0:
            continue

        # Per-row arrival and flow, in the scalar expression order: padded
        # leaves are node 0 (arrival/flow exactly 0.0), so the row-max and
        # the column-accumulated flow sum are unaffected bitwise.
        leaf_ids = table.leaves[rows]
        gate_delay = (
            table.parasitic[rows] + table.effort[rows] * references[table.node[rows]]
            if load_aware
            else table.delay[rows]
        )
        row_arrival[rows] = arrival[leaf_ids].max(axis=1) + gate_delay
        leaf_flows = flow[leaf_ids]
        acc = np.zeros(rows.size, dtype=np.float64)
        for position in range(table.max_inputs):
            acc = acc + leaf_flows[:, position]
        row_flow[rows] = (prices[rows] + acc) / references[table.node[rows]]

        # Slot-ordered incumbent scan across the level (see docstring).
        starts = table.start[nodes]
        counts = table.count[nodes]
        width = nodes.size
        best_arrival = np.zeros(width, dtype=np.float64)
        best_flow = np.zeros(width, dtype=np.float64)
        best_row = np.full(width, -1, dtype=np.int64)
        has_best = np.zeros(width, dtype=bool)
        if required is not None:
            node_required = required[nodes]
            fb_arrival = np.zeros(width, dtype=np.float64)
            fb_flow = np.zeros(width, dtype=np.float64)
            fb_row = np.full(width, -1, dtype=np.int64)
            has_fb = np.zeros(width, dtype=bool)
        for slot in range(int(counts.max())):
            valid = slot < counts
            slot_rows = np.where(valid, starts + slot, 0)
            slot_arrival = row_arrival[slot_rows]
            slot_flow = row_flow[slot_rows]
            if required is not None:
                take_fb = valid & (
                    ~has_fb
                    | fallback_better(slot_arrival, slot_flow, fb_arrival, fb_flow)
                )
                fb_arrival = np.where(take_fb, slot_arrival, fb_arrival)
                fb_flow = np.where(take_fb, slot_flow, fb_flow)
                fb_row = np.where(take_fb, slot_rows, fb_row)
                has_fb |= take_fb
                valid = valid & (slot_arrival <= node_required + EPSILON)
            take = valid & (
                ~has_best | better(slot_arrival, slot_flow, best_arrival, best_flow)
            )
            best_arrival = np.where(take, slot_arrival, best_arrival)
            best_flow = np.where(take, slot_flow, best_flow)
            best_row = np.where(take, slot_rows, best_row)
            has_best |= take
        if required is not None and not has_best.all():
            use_fb = ~has_best
            best_arrival = np.where(use_fb, fb_arrival, best_arrival)
            best_flow = np.where(use_fb, fb_flow, best_flow)
            best_row = np.where(use_fb, fb_row, best_row)

        if not full:
            out_changed[nodes] = (arrival[nodes] != best_arrival) | (
                flow[nodes] != best_flow
            )
        arrival[nodes] = best_arrival
        flow[nodes] = best_flow
        choice[nodes] = best_row
    return state


@dataclass(frozen=True)
class _Cover:
    """One cover of the DP's chosen rows, with what the recovery loop reads.

    ``timing`` is the STA core's view over the AIG's node ids, ``cost`` the
    sum of the pricing array at the cover's rows (in ascending output order)
    and ``references`` the exact per-node reference counts of the cover:
    one per gate pin reading the node plus one per primary output it
    drives, the structural fanout estimate elsewhere.
    """

    mapped: MappedCircuit
    timing: TimingArrays
    cost: float
    references: np.ndarray


def _cover_rows(
    aig: Aig,
    library: GateLibrary,
    arrays,
    table: CandidateTable,
    choice: np.ndarray,
    prices: np.ndarray,
) -> _Cover:
    """Cover the rows the DP chose (``choice[node]``, ``-1`` if none).

    Nodes the primary outputs need are marked one AIG level at a time from
    the top (a chosen cut's leaves sit on strictly lower levels), and the
    live AND nodes' rows become the gate columns of the netlist, in
    ascending output order, with the figures of the cover's distinct
    matches taken from the table.  The netlist is then timed by the STA
    core (:func:`~repro.analysis.timing.static_timing`), whose load count
    also gives the cover's reference counts, and priced as ``sum`` of
    ``prices`` at its rows.
    """
    # Local import: the analysis package layers above synthesis.
    from repro.analysis.timing import static_timing

    po_nodes = arrays.po_literals >> 1
    live = np.zeros(table.num_nodes, dtype=bool)
    live[po_nodes] = True
    for nodes in reversed(table.level_nodes):
        nodes = nodes[live[nodes]]
        if not nodes.size:
            continue
        rows = choice[nodes]
        if rows.min() < 0:
            node = int(nodes[rows < 0][0])
            raise MappingError(
                f"node {node} of {aig.name!r} has no chosen match in library "
                f"{library.name!r}"
            )
        # Padded leaf slots are node 0, the constant, which is never a gate.
        live[table.leaves[rows]] = True
    outputs = table.and_nodes[live[table.and_nodes]]
    rows = choice[outputs]
    distinct, local = np.unique(table.match_index[rows], return_inverse=True)
    columns = GateColumns(
        outputs=outputs,
        leaves=table.leaves[rows],
        width=table.width[rows],
        table_bits=table.table_bits[rows],
        match=local,
        figures=table.figures.take(distinct),
    )

    # The table's delay columns hold the matched cells' own figures, the
    # ones the gates carry.
    timing = static_timing(
        outputs,
        columns.leaves,
        columns.width,
        table.parasitic[rows],
        table.effort[rows],
        po_nodes,
        table.num_nodes,
    )
    mapped = MappedCircuit(
        name=aig.name,
        library_name=library.name,
        tau_ps=library.tau_ps,
        primary_inputs=aig.pi_names,
        primary_outputs=aig.po_names,
        po_nodes=tuple(po_nodes.tolist()),
        levels=timing.levels,
        normalized_delay=timing.normalized_delay,
        worst_slack=timing.worst_slack(),
        columns=columns,
    )
    references = np.where(
        timing.loads > 0, timing.loads, np.maximum(arrays.fanout, 1)
    ).astype(np.float64)
    return _Cover(mapped, timing, sum(prices[rows].tolist()), references)


def _required_times(timing: TimingArrays, deadline: float) -> np.ndarray:
    """Per-node required times of a cover, re-anchored at ``deadline``.

    The STA's required times are computed against the cover's own worst
    arrival; shifting them onto the requested deadline hands every net its
    recoverable slack (a deadline *below* the worst arrival tightens every
    net -- the recovery loop uses that to compensate load-estimate
    drift).  Nodes outside the cover are unconstrained (``+inf``): their
    arrival only matters through covered sinks, which enforce their own
    deadlines against actual leaf arrivals.
    """
    shift = deadline - timing.normalized_delay
    return np.where(timing.nets, timing.required + shift, np.inf)


def map_rounds(
    aig: Aig,
    library: GateLibrary,
    matcher: _MatcherBase | None = None,
    objective: str = "delay",
    rounds: int = 0,
    recovery: str = "auto",
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
    activities: "ActivityReport | None" = None,
    incremental: bool = True,
) -> MappingResult:
    """Map an AIG with ``rounds`` required-time recovery rounds.

    Round 0 maps under ``objective``'s cost model (bit-identical to the
    historical single-pass ``technology_map``); each subsequent round
    recomputes required times against the round-0 deadline over the best
    cover so far and re-chooses matches under the ``recovery`` cost model
    (``"auto"``: area recovery for the delay/area objectives, power recovery
    for the power objective) wherever slack allows.  Rounds that fail to
    improve -- slower than round 0, or costlier than the incumbent under
    the recovery model -- are recorded but not accepted, so
    :attr:`MappingResult.final` never regresses either axis.

    ``incremental=False`` forces every recovery re-solve to run the DP from
    scratch instead of diffing against the previous round's
    :class:`_DpState`; the results are identical (pinned by the equivalence
    property tests), the flag exists for oracle comparisons.
    """
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    model = _with_batch_hooks(cost_model_for(objective))
    recovery_model: CostModel | None = None
    if rounds > 0:
        recovery_model = _with_batch_hooks(
            cost_model_for(resolve_recovery(objective, recovery))
        )
    if matcher is None:
        matcher = matcher_for(library)

    context = MappingContext(pin_capacitances=_pin_capacitances)
    needs_activities = model.name == "power" or (
        recovery_model is not None and recovery_model.name == "power"
    )
    if needs_activities:
        if activities is None:
            # Local import: the analysis package layers above synthesis.
            from repro.analysis.activity import compute_activities

            activities = compute_activities(aig)
        context.activity = activities.activity.tolist()
        context.probability = activities.probability.tolist()

    with obs.stage("cuts"):
        cut_set = cut_set_for(aig, max_inputs=max_inputs, cut_limit=cut_limit)
        arrays = aig_arrays(aig)

    # Candidate tables are keyed by the preferred-cell policy (delay-optimal
    # vs area-optimal cell per canonical class) and shared between models;
    # prices are keyed by (model, policy).  Both are built at most once per
    # call, each build under its own ``match`` stage.
    candidate_tables: dict[str, CandidateTable] = {}
    price_tables: dict[tuple[str, str], np.ndarray] = {}

    def tables_for(which: CostModel, prefer: str | None = None):
        with obs.stage("match"):
            prefer = which.prefer if prefer is None else prefer
            table = candidate_tables.get(prefer)
            if table is None:
                table = candidate_tables[prefer] = _candidate_table_for(
                    arrays, cut_set, matcher, prefer
                )
                obs.count("mapper.candidate_rows", table.num_rows)
                obs.annotate(candidate_rows=table.num_rows)
            prices = price_tables.get((which.name, prefer))
            if prices is None:
                prices = price_tables[(which.name, prefer)] = which.price_batch(
                    table, context
                )
            return table, prices

    def cover(table: CandidateTable, choice: np.ndarray, prices: np.ndarray) -> _Cover:
        with obs.stage("cover"):
            return _cover_rows(aig, library, arrays, table, choice, prices)

    with obs.span(
        "map-round", category="round", round=0, objective=model.name
    ) as round_span:
        table, prices = tables_for(model)
        # A cover is priced under the model whose keep-best check reads the
        # cost: the recovery model once recovery runs.
        cost_prices = prices
        if recovery_model is not None:
            recovery_table, recovery_prices = tables_for(recovery_model)
            _, cost_prices = tables_for(recovery_model, model.prefer)
            if recovery_model.prefer != model.prefer:
                # Widen the recovery DP's choice set with the round-0
                # policy's candidates (e.g. the delay-preferred cell of every
                # canonical class): timing-critical nodes can then keep the
                # fast cells round 0 used instead of degrading to the
                # cheapest cell of the class.
                recovery_table, dest_base, dest_extra = _concat_candidate_tables(
                    recovery_table, table
                )
                merged_prices = np.empty(recovery_table.num_rows, dtype=np.float64)
                merged_prices[dest_base] = recovery_prices
                merged_prices[dest_extra] = cost_prices
                recovery_prices = merged_prices
        with obs.stage("dp"):
            dp_state = _dp_round_batched(
                aig,
                library,
                table,
                prices,
                model,
                np.maximum(arrays.fanout, 1).astype(np.float64),
            )
        best = cover(table, dp_state.choice, cost_prices)
        round_span.set("gates", best.mapped.gate_count)
        round_span.set("delay", best.mapped.normalized_delay)

    result = MappingResult(
        objective=model.name,
        recovery=recovery_model.name if recovery_model is not None else None,
        rounds=[best.mapped],
        accepted=[True],
    )
    if rounds == 0 or not best.mapped.gate_count:
        return result

    # Recovery: the DP re-chooses matches under the recovery cost model,
    # constrained per node by the previous cover's required times anchored
    # at the round-0 worst delay, with the previous cover's reference
    # counts as both the flow normalization and the arrival-model load
    # estimate.  A keep-best check over the re-timed circuit makes the
    # no-worse-delay / no-worse-cost guarantee unconditional.
    baseline_delay = best.mapped.normalized_delay

    # The DP estimates each candidate's load from the previous cover; when
    # the re-timed circuit overshoots the deadline because the new cover's
    # fanouts drifted from that estimate, the round is retried with the
    # deadline tightened by the observed overshoot (the margin persists
    # across rounds -- drift learned once stays compensated).
    margin = 0.0

    for round_index in range(rounds):
        with obs.span(
            "map-round",
            category="round",
            round=round_index + 1,
            objective=recovery_model.name,
        ) as round_span:
            attempts = _RECOVERY_RETRIES
            while True:
                with obs.stage("dp"):
                    # Incremental re-solve: between rounds (and deadline
                    # retries) only the required/reference inputs move, so
                    # the DP diffs against the previous solution and
                    # re-chooses the affected cone only.
                    dp_state = _dp_round_batched(
                        aig,
                        library,
                        recovery_table,
                        recovery_prices,
                        recovery_model,
                        best.references,
                        required=_required_times(
                            best.timing, baseline_delay - margin
                        ),
                        load_aware=True,
                        state=dp_state if incremental else None,
                    )
                candidate = cover(recovery_table, dp_state.choice, recovery_prices)
                overshoot = candidate.mapped.normalized_delay - baseline_delay
                if overshoot > EPSILON and attempts > 0:
                    attempts -= 1
                    margin += overshoot
                    continue
                break
            accepted = overshoot <= EPSILON and candidate.cost <= best.cost + EPSILON
            round_span.set("accepted", accepted)
            round_span.set("overshoot", overshoot)
            round_span.set("retries", _RECOVERY_RETRIES - attempts)
            result.rounds.append(candidate.mapped)
            result.accepted.append(accepted)
            if not accepted:
                # Recovery is deterministic: re-running from the same
                # accepted cover would reproduce the same rejected round.
                break
            improved = candidate.cost < best.cost - EPSILON or (
                candidate.mapped.area < best.mapped.area - EPSILON
            )
            best = candidate
            if not improved:
                break  # fixpoint: further rounds cannot find new slack
    return result


def technology_map(
    aig: Aig,
    library: GateLibrary,
    matcher: _MatcherBase | None = None,
    objective: str = "delay",
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
    activities: "ActivityReport | None" = None,
    rounds: int = 0,
    recovery: str = "auto",
) -> MappedCircuit:
    """Map an AIG onto a gate library.

    ``objective`` names the registered :class:`~repro.synthesis.cost.CostModel`
    driving the dynamic-programming pass: ``"delay"`` minimizes arrival time
    with area flow as tie-break, ``"area"`` minimizes area flow with arrival
    time as tie-break, and ``"power"`` minimizes the activity-weighted
    switched-capacitance flow with arrival time as tie-break.

    ``rounds`` adds required-time recovery rounds on top of the round-0
    mapping (see :func:`map_rounds`): the returned circuit then has area (or
    power, per ``recovery``) no worse than round 0 at unchanged worst delay.
    With the default ``rounds=0`` the result is bit-identical to the
    historical single-pass mapper.

    ``activities`` supplies the per-node signal statistics for power mapping
    (see :mod:`repro.analysis.activity`); when omitted they are computed
    with the default exact/Monte-Carlo policy.  The argument is ignored
    unless the power cost model participates.
    """
    return map_rounds(
        aig,
        library,
        matcher=matcher,
        objective=objective,
        rounds=rounds,
        recovery=recovery,
        max_inputs=max_inputs,
        cut_limit=cut_limit,
        activities=activities,
    ).final


def topological_gates(gates: Iterable[MappedGate]) -> list[MappedGate]:
    """The gates in true dependency order (every gate after all its leaves).

    Mapped netlists produced by :func:`technology_map` happen to carry
    ascending, topologically ordered output ids, but nothing in the
    :class:`MappedCircuit` contract guarantees that (ids could be shuffled by
    a cleanup/rewrite of the subject graph), so every consumer that
    propagates values or times through the netlist must walk this order
    rather than ``sorted(..., key=lambda g: g.output)``.  Deterministic:
    roots are visited in ascending output id and each gate's unfinished
    leaves depth-first in reverse tuple order (LIFO stack).
    """
    by_output = {gate.output: gate for gate in gates}
    order: list[MappedGate] = []
    finished: set[int] = set()
    in_progress: set[int] = set()
    for root in sorted(by_output):
        if root in finished:
            continue
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in finished:
                continue
            if expanded:
                in_progress.discard(node)
                finished.add(node)
                order.append(by_output[node])
                continue
            if node in in_progress:
                raise ValueError(
                    f"mapped netlist contains a combinational cycle through "
                    f"net {node}"
                )
            in_progress.add(node)
            stack.append((node, True))
            for leaf in by_output[node].leaves:
                if leaf in by_output and leaf not in finished:
                    stack.append((leaf, False))
    return order


def _eval_table_word(table: int, arity: int, leaf_bits: list[int], mask: int) -> int:
    """Evaluate a truth table on one packed 64-bit word per leaf.

    Shannon cofactor expansion over the highest leaf: the output word is
    ``(w & f1) | (~w & f0)`` where ``f0``/``f1`` are the cofactor words, so a
    ``k``-input gate costs O(2**k) word operations for all 64 patterns at
    once instead of 64 * 2**k single-bit probes.
    """
    if table == 0:
        return 0
    if arity == 0:
        return mask if table & 1 else 0
    cofactor_bits = 1 << (arity - 1)
    low = table & ((1 << cofactor_bits) - 1)
    high = table >> cofactor_bits
    if low == high:
        return _eval_table_word(low, arity - 1, leaf_bits, mask)
    word = leaf_bits[arity - 1]
    return (word & _eval_table_word(high, arity - 1, leaf_bits, mask)) | (
        ~word & mask & _eval_table_word(low, arity - 1, leaf_bits, mask)
    )


def _resimulate_words(
    mapped: MappedCircuit, aig: Aig, patterns: dict[str, list[int]]
) -> dict[int, list[int]]:
    """Packed node values of the mapped netlist on the given patterns."""
    mask = (1 << 64) - 1
    num_words = len(next(iter(patterns.values()))) if patterns else 1
    values: dict[int, list[int]] = {0: [0] * num_words}
    for name in aig.pi_names:
        node = aig.pi_literal(name) >> 1
        values[node] = [w & mask for w in patterns[name]]

    for gate in topological_gates(mapped.gates):
        leaf_words = [values[leaf] for leaf in gate.leaves]
        arity = len(leaf_words)
        values[gate.output] = [
            _eval_table_word(
                gate.table, arity, [words[i] for words in leaf_words], mask
            )
            for i in range(num_words)
        ]
    return values


def _outputs_match(
    values: dict[int, list[int]],
    aig: Aig,
    reference: dict[str, list[int]],
) -> bool:
    mask = (1 << 64) - 1
    for name, literal in zip(aig.po_names, aig.po_literals):
        words = values.get(literal >> 1)
        if words is None:
            return False
        if literal & 1:
            words = [(~w) & mask for w in words]
        if words != reference[name]:
            return False
    return True


def verify_mapping(mapped: MappedCircuit, aig: Aig, patterns: dict[str, list[int]]) -> bool:
    """Check that the mapped netlist computes the same functions as the AIG.

    The mapped netlist is re-simulated gate by gate using the per-gate truth
    tables recorded during covering, and the primary outputs are compared
    against a packed simulation of the subject AIG on the same patterns.
    Gate evaluation is word-parallel (see :func:`_eval_table_word`); the
    equivalence regression tests cross-check it against the bit-at-a-time
    reference in ``tests/oracles/mapper.py``.
    """
    reference = aig.simulate_words(patterns)
    values = _resimulate_words(mapped, aig, patterns)
    return _outputs_match(values, aig, reference)
