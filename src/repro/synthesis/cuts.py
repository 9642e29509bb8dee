"""K-feasible priority-cut enumeration with cut functions.

A *cut* of an AIG node is a set of nodes (the leaves) such that every path
from a primary input to the node passes through a leaf.  Cut-based technology
mapping enumerates, for every node, a small set of K-feasible cuts (at most
``cut_limit`` cuts with at most ``max_inputs`` leaves each), computes the
Boolean function of the node in terms of the cut leaves, and matches that
function against the library.

Two implementations share one contract:

* :func:`enumerate_cuts_arrays` -- the **vectorized kernel path**.  Per-node
  candidate cuts live in numpy arrays (:class:`CutSet`): leaf tuples are
  merged with batched sorts, truth tables are expanded and AND-ed as uint64
  words across all candidate cuts of a whole AIG level at once
  (:mod:`repro.synthesis.cut_kernels`), and leaf-set deduplication is a
  single signature sort instead of a per-pair dict.  Every K<=6 cut function
  fits one 64-bit word, which is what makes the batching exact.
* :func:`enumerate_cuts_reference` -- the original pure-Python enumeration,
  retained as the oracle; the property tests assert cut-for-cut agreement.

:func:`enumerate_cuts` keeps the historical dict-of-:class:`Cut` interface on
top of the vectorized path (and memoizes the underlying :class:`CutSet` on
the AIG, so e.g. the three library-mapping jobs of one benchmark enumerate
once).  Cut functions are raw integer truth tables (at most ``2**6`` bits);
the matcher converts them to :class:`~repro.logic.truth_table.TruthTable`
keys on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.synthesis.aig import Aig, lit_is_complemented, lit_node
from repro.synthesis.aig_array import AigArrays, aig_arrays
from repro.synthesis.cut_kernels import (
    FULL_BY_SIZE,
    batch_support,
    expand_tables,
    project_table_batch,
)

#: Default mapping parameters, chosen to cover the six-input cells (F42..F45)
#: of the library while keeping enumeration tractable.
DEFAULT_MAX_INPUTS = 6
DEFAULT_CUT_LIMIT = 8

_FULL_MASK = {n: (1 << (1 << n)) - 1 for n in range(0, 7)}

#: Padding value for unused leaf slots in the array representation; larger
#: than any node id so batched sorts push padding to the right.
LEAF_SENTINEL = np.int32(2**31 - 1)

# Truth-table columns of the projection functions x0..x5 over 6 variables,
# restricted on demand to fewer variables by masking.
_VAR_COLUMNS_6 = []
for _i in range(6):
    _block = 1 << _i
    _chunk = ((1 << _block) - 1) << _block
    _period = _block * 2
    _bits = 0
    for _start in range(0, 64, _period):
        _bits |= _chunk << _start
    _VAR_COLUMNS_6.append(_bits)


@dataclass(frozen=True)
class Cut:
    """One cut: sorted leaf nodes and the node function over those leaves.

    ``support`` is the bitmask of leaf positions the function actually
    depends on, precomputed at enumeration time so that downstream matching
    never has to rederive it (``-1`` means "not computed yet"; use
    :meth:`support_mask`).
    """

    leaves: tuple[int, ...]
    table: int
    support: int = field(default=-1, compare=False)

    @property
    def size(self) -> int:
        return len(self.leaves)

    def support_mask(self) -> int:
        """Bitmask of leaf positions in the true support of the cut function."""
        if self.support >= 0:
            return self.support
        return table_support(self.table, len(self.leaves))


@lru_cache(maxsize=None)
def _cofactor_mask(num_vars: int, position: int) -> int:
    """Bits of the negative cofactor of variable ``position`` (periodic mask)."""
    block = 1 << position
    chunk = (1 << block) - 1
    mask = 0
    for start in range(0, 1 << num_vars, block * 2):
        mask |= chunk << start
    return mask


@lru_cache(maxsize=1 << 16)
def table_support(table: int, num_vars: int) -> int:
    """Bitmask of the variables a raw truth table actually depends on."""
    mask = 0
    for position in range(num_vars):
        low = _cofactor_mask(num_vars, position)
        if (table & low) != ((table >> (1 << position)) & low):
            mask |= 1 << position
    return mask


@lru_cache(maxsize=1 << 16)
def project_table(table: int, num_vars: int, support_mask: int) -> int:
    """Project a truth table onto the variables named by ``support_mask``.

    Variables outside the mask are removed by keeping their negative
    cofactor (they must be don't-cares for the projection to preserve the
    function).  Removal proceeds from the highest position down so lower
    positions stay valid while the table shrinks.
    """
    for position in range(num_vars - 1, -1, -1):
        if (support_mask >> position) & 1:
            continue
        block = 1 << position
        chunk_mask = (1 << block) - 1
        rebuilt, shift, rest = 0, 0, table
        while rest:
            rebuilt |= (rest & chunk_mask) << shift
            rest >>= block * 2
            shift += block
        table = rebuilt
    return table


@lru_cache(maxsize=1 << 16)
def _expand_at_positions(table: int, insert_positions: tuple[int, ...]) -> int:
    """Insert don't-care variables at the given (ascending) positions.

    Each insertion at position ``p`` splits the table into ``2**p``-bit
    chunks and duplicates every chunk, which is equivalent to the classical
    per-minterm re-indexing but runs in O(chunks) big-int operations.
    """
    for position in insert_positions:
        block = 1 << position
        chunk_mask = (1 << block) - 1
        rebuilt, shift, rest = 0, 0, table
        while rest:
            chunk = rest & chunk_mask
            rebuilt |= (chunk | (chunk << block)) << shift
            rest >>= block
            shift += block * 2
        table = rebuilt
    return table


@lru_cache(maxsize=1 << 16)
def _expand_table(table: int, leaves: tuple[int, ...], merged: tuple[int, ...]) -> int:
    """Re-express ``table`` (over ``leaves``) over the superset ``merged``."""
    if leaves == merged:
        return table
    inserts = []
    leaf_index = 0
    for position, leaf in enumerate(merged):
        if leaf_index < len(leaves) and leaves[leaf_index] == leaf:
            leaf_index += 1
        else:
            inserts.append(position)
    return _expand_at_positions(table, tuple(inserts))


def _merge_leaves(a: tuple[int, ...], b: tuple[int, ...], limit: int) -> tuple[int, ...] | None:
    """Sorted union of two leaf sets, or ``None`` if it exceeds ``limit``."""
    merged = sorted(set(a) | set(b))
    if len(merged) > limit:
        return None
    return tuple(merged)


def _validate_parameters(max_inputs: int, cut_limit: int) -> None:
    if max_inputs < 2 or max_inputs > 6:
        raise ValueError("max_inputs must be between 2 and 6")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")


# -- array representation -----------------------------------------------------


@dataclass(frozen=True)
class CutSet:
    """Struct-of-arrays priority-cut storage for one AIG.

    Every node owns up to ``cut_limit + 1`` slots (ranked cuts followed by
    the trivial ``{node}`` cut).  ``leaves`` rows are ascending node ids
    padded with :data:`LEAF_SENTINEL`; ``table`` holds the cut function as a
    64-bit word over ``size`` variables; ``support`` is the true-support
    bitmask of that function.
    """

    max_inputs: int
    cut_limit: int
    count: np.ndarray  #: (nodes,) int64 -- valid slots per node (incl. trivial)
    leaves: np.ndarray  #: (nodes, slots, K) int32
    size: np.ndarray  #: (nodes, slots) int8
    table: np.ndarray  #: (nodes, slots) uint64
    support: np.ndarray  #: (nodes, slots) uint8

    def as_python(self) -> tuple[list, list, list, list, list]:
        """The cut arrays as nested Python lists (memoized).

        Scalar-heavy consumers -- the mapping DP and the rewrite pass -- read
        one element at a time, where plain list indexing is several times
        cheaper than numpy scalar access; ``tolist`` converts the whole block
        in one C pass.  Returns ``(count, size, leaves, table, support)``.
        """
        cached = self.__dict__.get("_python_view")
        if cached is None:
            cached = (
                self.count.tolist(),
                self.size.tolist(),
                self.leaves.tolist(),
                self.table.tolist(),
                self.support.tolist(),
            )
            object.__setattr__(self, "_python_view", cached)
        return cached

    def projected_tables(self) -> np.ndarray:
        """Support-projected cut tables as a ``(nodes, slots)`` uint64 column.

        Every valid slot's table is projected onto its true support
        (:func:`repro.synthesis.cut_kernels.project_table_batch`) in one
        batched pass -- full-support cuts project to themselves -- and the
        column is memoized on the cut set, so the batched matching pipeline
        of every (matcher, policy) pair reads the same array.  Invalid slots
        hold zero.
        """
        cached = self.__dict__.get("_projected")
        if cached is None:
            cached = np.zeros(self.table.shape, dtype=np.uint64)
            valid = (
                np.arange(self.table.shape[1], dtype=np.int64)[None, :]
                < self.count[:, None]
            )
            rows = np.nonzero(valid)
            cached[rows] = project_table_batch(self.table[rows], self.support[rows])
            cached.flags.writeable = False
            object.__setattr__(self, "_projected", cached)
        return cached

    def cuts_of(self, node: int) -> list[Cut]:
        """The node's cuts as :class:`Cut` objects (ranked, trivial last)."""
        cuts = []
        for slot in range(int(self.count[node])):
            width = int(self.size[node, slot])
            cuts.append(
                Cut(
                    tuple(int(leaf) for leaf in self.leaves[node, slot, :width]),
                    int(self.table[node, slot]),
                    int(self.support[node, slot]),
                )
            )
        return cuts

    def to_dict(self, arrays: AigArrays) -> dict[int, list[Cut]]:
        """The historical ``enumerate_cuts`` view (same node order)."""
        result: dict[int, list[Cut]] = {0: self.cuts_of(0)}
        for pi in arrays.pi_nodes.tolist():
            result[pi] = self.cuts_of(pi)
        for node in arrays.and_nodes.tolist():
            result[node] = self.cuts_of(node)
        return result


#: Below this many candidate cut pairs per level (nodes per level times the
#: squared per-node cut count), per-operation dispatch overhead beats the
#: batching win and the scalar path is used instead (deep, narrow graphs such
#: as ripple-carry chains at small K).  Measured crossover on this container
#: is ~190 at the rewrite pass's K=4 / cut_limit=4 shape: C6288 (497
#: pairs/level) enumerates 1.8x faster batched while add-64 (111) and C1355
#: (181) stay faster scalar.
VECTOR_PAIRS_THRESHOLD = 192


def enumerate_cuts_arrays(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> CutSet:
    """Enumerate priority cuts for every node into a :class:`CutSet`.

    Dispatches on batch width: wide graphs run the batched uint64 kernels
    (:func:`enumerate_cuts_vectorized`), deep narrow graphs -- where numpy
    dispatch overhead exceeds the batching win -- fall back to the scalar
    reference loop and pack its result.  Both produce identical cuts.
    """
    _validate_parameters(max_inputs, cut_limit)
    arrays = aig_arrays(aig)
    groups = len(arrays.level_groups)
    pairs_per_level = (
        arrays.num_ands / groups * (cut_limit + 1) ** 2 if groups else 0.0
    )
    if pairs_per_level < VECTOR_PAIRS_THRESHOLD:
        return enumerate_cuts_scalar(aig, max_inputs=max_inputs, cut_limit=cut_limit)
    return enumerate_cuts_vectorized(aig, max_inputs=max_inputs, cut_limit=cut_limit)


def _cut_set_from_dict(
    cuts: dict[int, list[Cut]], arrays: AigArrays, max_inputs: int, cut_limit: int
) -> CutSet:
    """Pack a dict-of-:class:`Cut` enumeration into the array representation."""
    num_nodes = arrays.num_nodes
    slots = cut_limit + 1
    count = np.zeros(num_nodes, dtype=np.int64)
    leaves = np.full((num_nodes, slots, max_inputs), LEAF_SENTINEL, dtype=np.int32)
    size = np.zeros((num_nodes, slots), dtype=np.int8)
    table = np.zeros((num_nodes, slots), dtype=np.uint64)
    support = np.zeros((num_nodes, slots), dtype=np.uint8)
    for node, node_cuts in cuts.items():
        count[node] = len(node_cuts)
        for slot, cut in enumerate(node_cuts):
            width = len(cut.leaves)
            leaves[node, slot, :width] = cut.leaves
            size[node, slot] = width
            table[node, slot] = cut.table
            support[node, slot] = cut.support_mask()
    return CutSet(
        max_inputs=max_inputs,
        cut_limit=cut_limit,
        count=count,
        leaves=leaves,
        size=size,
        table=table,
        support=support,
    )


def enumerate_cuts_scalar(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> CutSet:
    """Tuned scalar enumeration straight into the array representation.

    The narrow-graph arm of :func:`enumerate_cuts_arrays`: the same
    algorithm as :func:`enumerate_cuts_reference` -- fanin-major pair order,
    first-wins leaf-set dedup, stable ``(size, single-fanout leaves)``
    ranking -- but with the per-pair overhead stripped (plain tuple/dict
    state instead of :class:`Cut` objects, table expansion skipped for
    aligned leaf sets, duplicate leaf sets skipped before any table work)
    and the result scattered into the :class:`CutSet` arrays in one bulk
    numpy pass instead of per-slot assignments.  Produces bit-identical
    cuts; the property tests compare all three enumerators cut for cut.
    """
    _validate_parameters(max_inputs, cut_limit)
    arrays = aig_arrays(aig)
    num_nodes = arrays.num_nodes
    fanin0 = arrays.fanin0.tolist()
    fanin1 = arrays.fanin1.tolist()
    fanout = arrays.fanout.tolist()
    single = [count == 1 for count in fanout]

    trivial_table = 0b10
    # Per-cut state: (leaves tuple, leaf set, single-fanout count, table).
    # The set and the ranking count are computed once per kept cut instead
    # of once per fanin pair.
    cuts: list[list[tuple[tuple[int, ...], set[int], int, int]] | None] = (
        [None] * num_nodes
    )
    cuts[0] = [((0,), {0}, int(single[0]), trivial_table)]
    for pi in arrays.pi_nodes.tolist():
        cuts[pi] = [((pi,), {pi}, int(single[pi]), trivial_table)]

    owners: list[int] = []
    slots_of: list[int] = []
    sizes_flat: list[int] = []
    tables_flat: list[int] = []
    supports_flat: list[int] = []
    rows: list[tuple[int, ...]] = []
    counts = [0] * num_nodes

    pad = (int(LEAF_SENTINEL),) * max_inputs
    expand = _expand_table
    support_of = table_support
    full_mask = _FULL_MASK

    for node in arrays.and_nodes.tolist():
        f0 = fanin0[node]
        f1 = fanin1[node]
        comp0 = f0 & 1
        comp1 = f1 & 1
        list0 = cuts[f0 >> 1]
        list1 = cuts[f1 >> 1]
        # First-wins dedup on the leaf set only; tables are computed after
        # ranking, for the kept cuts alone (the ranking key never looks at
        # the table, and the first pair producing a leaf set is recorded, so
        # the kept tables are exactly the ones the eager loop would keep).
        # Keys are materialized at insertion as plain tuples -- sorting them
        # natively with the insertion index as tiebreaker reproduces the
        # stable (size, single-fanout leaves) ranking without a key lambda.
        seen: set[tuple[int, ...]] = set()
        keyed: list[tuple] = []
        for leaves0, set0, singles0, table0 in list0:
            for leaves1, set1, singles1, table1 in list1:
                if set1 <= set0:
                    merged = leaves0
                    merged_set = set0
                    singles = singles0
                elif set0 <= set1:
                    merged = leaves1
                    merged_set = set1
                    singles = singles1
                else:
                    merged_set = set0 | set1
                    if len(merged_set) > max_inputs:
                        continue
                    merged = tuple(sorted(merged_set))
                    singles = sum(map(single.__getitem__, merged))
                if merged in seen:
                    continue  # identical leaf sets produce the same function
                seen.add(merged)
                keyed.append(
                    (
                        len(merged),
                        singles,
                        len(keyed),
                        merged,
                        merged_set,
                        (leaves0, table0, leaves1, table1),
                    )
                )

        keyed.sort()
        node_cuts = []
        for _, singles, _, merged, merged_set, pair in keyed[:cut_limit]:
            leaves0, table0, leaves1, table1 = pair
            full = full_mask[len(merged)]
            t0 = table0 if leaves0 == merged else expand(table0, leaves0, merged)
            t1 = table1 if leaves1 == merged else expand(table1, leaves1, merged)
            if comp0:
                t0 = ~t0 & full
            if comp1:
                t1 = ~t1 & full
            node_cuts.append((merged, merged_set, singles, t0 & t1))
        node_cuts.append(((node,), {node}, int(single[node]), trivial_table))
        cuts[node] = node_cuts
        counts[node] = len(node_cuts)
        for slot, (leaves_t, _set, _singles, table) in enumerate(node_cuts):
            width = len(leaves_t)
            owners.append(node)
            slots_of.append(slot)
            sizes_flat.append(width)
            tables_flat.append(table)
            supports_flat.append(
                1 if width == 1 else support_of(table, width)
            )
            rows.append(leaves_t + pad[width:])

    slots = cut_limit + 1
    count = np.zeros(num_nodes, dtype=np.int64)
    leaves = np.full((num_nodes, slots, max_inputs), LEAF_SENTINEL, dtype=np.int32)
    size = np.zeros((num_nodes, slots), dtype=np.int8)
    table = np.zeros((num_nodes, slots), dtype=np.uint64)
    support = np.zeros((num_nodes, slots), dtype=np.uint8)

    initial = np.concatenate(([0], arrays.pi_nodes)).astype(np.int64)
    leaves[initial, 0, 0] = initial
    size[initial, 0] = 1
    table[initial, 0] = trivial_table
    support[initial, 0] = 1
    count[initial] = 1

    if owners:
        owner_index = np.asarray(owners, dtype=np.int64)
        slot_index = np.asarray(slots_of, dtype=np.int64)
        leaves[owner_index, slot_index] = np.asarray(rows, dtype=np.int32)
        size[owner_index, slot_index] = np.asarray(sizes_flat, dtype=np.int8)
        table[owner_index, slot_index] = np.asarray(tables_flat, dtype=np.uint64)
        support[owner_index, slot_index] = np.asarray(supports_flat, dtype=np.uint8)
        count[1:] = np.maximum(count[1:], np.bincount(owner_index, minlength=num_nodes)[1:])

    return CutSet(
        max_inputs=max_inputs,
        cut_limit=cut_limit,
        count=count,
        leaves=leaves,
        size=size,
        table=table,
        support=support,
    )


def enumerate_cuts_vectorized(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> CutSet:
    """Enumerate priority cuts for every node with the batched uint64 kernels.

    Bit-identical to :func:`enumerate_cuts_reference` (same cuts, same order,
    same tables): candidate pairs are generated in the same fanin-major
    order, deduplicated first-wins by leaf signature and stably ranked by
    ``(size, single-fanout leaves, first occurrence)``.
    """
    _validate_parameters(max_inputs, cut_limit)
    arrays = aig_arrays(aig)
    num_nodes = arrays.num_nodes
    slots = cut_limit + 1
    leaf_width = max_inputs

    count = np.zeros(num_nodes, dtype=np.int64)
    leaves = np.full((num_nodes, slots, leaf_width), LEAF_SENTINEL, dtype=np.int32)
    size = np.zeros((num_nodes, slots), dtype=np.int8)
    table = np.zeros((num_nodes, slots), dtype=np.uint64)
    support = np.zeros((num_nodes, slots), dtype=np.uint8)

    # Constant node and primary inputs carry only their trivial cut.
    initial = np.concatenate(([0], arrays.pi_nodes)).astype(np.int64)
    leaves[initial, 0, 0] = initial
    size[initial, 0] = 1
    table[initial, 0] = 2  # identity function of the single leaf
    support[initial, 0] = 1
    count[initial] = 1

    for group in arrays.level_groups:
        _enumerate_level(
            group, arrays, max_inputs, cut_limit, count, leaves, size, table, support
        )

    return CutSet(
        max_inputs=max_inputs,
        cut_limit=cut_limit,
        count=count,
        leaves=leaves,
        size=size,
        table=table,
        support=support,
    )


def _enumerate_level(
    nodes: np.ndarray,
    arrays: AigArrays,
    max_inputs: int,
    cut_limit: int,
    count: np.ndarray,
    leaves: np.ndarray,
    size: np.ndarray,
    table: np.ndarray,
    support: np.ndarray,
) -> None:
    """Compute the cut slots of every AND node of one level in one batch."""
    width = max_inputs
    fanin0 = arrays.fanin0[nodes]
    fanin1 = arrays.fanin1[nodes]
    node0 = fanin0 >> 1
    node1 = fanin1 >> 1
    comp0 = (fanin0 & 1).astype(bool)
    comp1 = (fanin1 & 1).astype(bool)
    cuts0 = count[node0]
    cuts1 = count[node1]

    # Candidate pairs in fanin-major order: pair p of a node is
    # (cut i0 = p // cuts1, cut i1 = p % cuts1), matching the reference's
    # nested loop, so "first occurrence" means the same thing on both paths.
    pairs_per_node = cuts0 * cuts1
    total = int(pairs_per_node.sum())
    if total == 0:
        return
    local = np.repeat(np.arange(nodes.shape[0]), pairs_per_node)
    starts = np.concatenate(([0], np.cumsum(pairs_per_node)[:-1]))
    within = np.arange(total) - np.repeat(starts, pairs_per_node)
    cuts1_rep = cuts1[local]
    index0 = within // cuts1_rep
    index1 = within - index0 * cuts1_rep

    source0 = node0[local]
    source1 = node1[local]
    leaves0 = leaves[source0, index0]
    leaves1 = leaves[source1, index1]

    # Sorted union of the two (already sorted, sentinel-padded) leaf rows:
    # sort, blank out duplicates, re-sort, keep the first K columns.
    merged_wide = np.concatenate([leaves0, leaves1], axis=1)
    merged_wide.sort(axis=1)
    duplicate = np.zeros(merged_wide.shape, dtype=bool)
    duplicate[:, 1:] = merged_wide[:, 1:] == merged_wide[:, :-1]
    merged_wide = np.where(duplicate, LEAF_SENTINEL, merged_wide)
    merged_wide.sort(axis=1)
    merged_size = (merged_wide != LEAF_SENTINEL).sum(axis=1)

    feasible = np.nonzero(merged_size <= width)[0]
    if feasible.size == 0:
        _finalize_level(nodes, np.zeros(nodes.shape[0], np.int64), count, leaves, size, table, support)
        return
    merged = np.ascontiguousarray(merged_wide[feasible, :width])
    merged_size = merged_size[feasible]
    local = local[feasible]

    # Signature dedup (first occurrence wins) across the whole level: one
    # stable unique over (node, leaf row) replaces the per-pair dict -- and
    # runs *before* any table work, so functions are only computed for the
    # distinct leaf sets (identical leaf sets always produce the same
    # function, exactly as on the reference path).
    signature = np.empty((feasible.size, width + 1), dtype=np.int32)
    signature[:, 0] = local
    signature[:, 1:] = merged
    _, first_index = np.unique(signature, axis=0, return_index=True)

    candidate_local = local[first_index]
    candidate_leaves = merged[first_index]
    candidate_size = merged_size[first_index]
    pair = feasible[first_index]
    pair_source0 = source0[pair]
    pair_source1 = source1[pair]
    pair_index0 = index0[pair]
    pair_index1 = index1[pair]
    leaves0 = leaves0[pair]
    leaves1 = leaves1[pair]

    # Position of every fanin-cut leaf inside the merged row, then the mask
    # of merged positions each sub-table occupies.
    size0 = size[pair_source0, pair_index0].astype(np.int64)
    size1 = size[pair_source1, pair_index1].astype(np.int64)
    positions0 = (candidate_leaves[:, None, :] < leaves0[:, :, None]).sum(axis=2)
    positions1 = (candidate_leaves[:, None, :] < leaves1[:, :, None]).sum(axis=2)
    columns = np.arange(width)[None, :]
    submask0 = np.where(columns < size0[:, None], 1 << positions0, 0).sum(axis=1)
    submask1 = np.where(columns < size1[:, None], 1 << positions1, 0).sum(axis=1)

    # Expand both fanin tables over the merged variables in one stacked pass,
    # complement as the edges dictate, AND, and clip to the table width.
    stacked = expand_tables(
        np.concatenate([table[pair_source0, pair_index0], table[pair_source1, pair_index1]]),
        np.concatenate([submask0, submask1]),
    )
    half = first_index.size
    full = FULL_BY_SIZE[candidate_size]
    zero = np.uint64(0)
    table0 = stacked[:half] ^ np.where(comp0[candidate_local], full, zero)
    table1 = stacked[half:] ^ np.where(comp1[candidate_local], full, zero)
    candidate_table = table0 & table1 & full

    # Ranking: stable by (size, number of single-fanout leaves, insertion
    # order), grouped per node -- the vectorized form of the reference's
    # stable sort over the insertion-ordered candidate dict.
    is_leaf = candidate_leaves != LEAF_SENTINEL
    fanout = arrays.fanout[np.where(is_leaf, candidate_leaves, 0)]
    weak = ((fanout == 1) & is_leaf).sum(axis=1)
    order = np.lexsort((first_index, weak, candidate_size, candidate_local))

    ranked_local = candidate_local[order]
    group_start = np.ones(ranked_local.shape[0], dtype=bool)
    group_start[1:] = ranked_local[1:] != ranked_local[:-1]
    start_positions = np.where(group_start, np.arange(ranked_local.shape[0]), 0)
    rank = np.arange(ranked_local.shape[0]) - np.maximum.accumulate(start_positions)
    keep = rank < cut_limit

    selected = order[keep]
    destination = nodes[candidate_local[selected]]
    slot = rank[keep]
    kept_tables = candidate_table[selected]
    kept_sizes = candidate_size[selected]
    leaves[destination, slot] = candidate_leaves[selected]
    size[destination, slot] = kept_sizes
    table[destination, slot] = kept_tables
    support[destination, slot] = batch_support(kept_tables, kept_sizes)

    per_node = np.bincount(candidate_local[selected], minlength=nodes.shape[0])
    _finalize_level(nodes, per_node, count, leaves, size, table, support)


def _finalize_level(
    nodes: np.ndarray,
    kept_per_node: np.ndarray,
    count: np.ndarray,
    leaves: np.ndarray,
    size: np.ndarray,
    table: np.ndarray,
    support: np.ndarray,
) -> None:
    """Append every node's trivial cut after its ranked cuts and set counts."""
    trivial_slot = kept_per_node
    leaves[nodes, trivial_slot, 0] = nodes
    size[nodes, trivial_slot] = 1
    table[nodes, trivial_slot] = 2
    support[nodes, trivial_slot] = 1
    count[nodes] = kept_per_node + 1


def cut_set_for(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> CutSet:
    """The (memoized) :class:`CutSet` of an AIG.

    The memo lives on the AIG instance keyed by its structural counts plus
    the enumeration parameters, so consumers sharing one subject graph --
    e.g. the three library jobs of a Table-3 benchmark, or the mapper after
    the rewrite pass already enumerated -- pay for enumeration once.  The
    memo is garbage-collected with the AIG.
    """
    _validate_parameters(max_inputs, cut_limit)
    structure = (aig.num_nodes, aig.num_pos)
    memo_structure, memo = aig.__dict__.get("_cut_sets", (None, None))
    if memo_structure != structure:
        memo = {}
        aig.__dict__["_cut_sets"] = (structure, memo)
    key = (max_inputs, cut_limit)
    cached = memo.get(key)
    if cached is None:
        cached = enumerate_cuts_arrays(aig, max_inputs=max_inputs, cut_limit=cut_limit)
        memo[key] = cached
    return cached


def enumerate_cuts(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> dict[int, list[Cut]]:
    """Enumerate priority cuts (with functions) for every node of the AIG.

    Returns a dictionary mapping node index to its cut list; the first cut of
    every AND node is always available (the cut formed by its two fanins), and
    the trivial cut ``{node}`` is included for use as a leaf of larger cuts
    but never matched on its own.  Runs on the vectorized kernel path; see
    :func:`enumerate_cuts_reference` for the retained pure-Python oracle.
    """
    cut_set = cut_set_for(aig, max_inputs=max_inputs, cut_limit=cut_limit)
    return cut_set.to_dict(aig_arrays(aig))


def enumerate_cuts_reference(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> dict[int, list[Cut]]:
    """Pure-Python reference enumeration (the pre-vectorization algorithm).

    Kept as the independent oracle for :func:`enumerate_cuts_arrays`; the
    hypothesis property tests assert cut-for-cut agreement between the two.
    """
    _validate_parameters(max_inputs, cut_limit)

    cuts: dict[int, list[Cut]] = {}
    # Constant node and primary inputs only have their trivial cut.
    cuts[0] = [Cut((0,), 0b10, 0b1)]  # unused in practice
    for pi in aig.pi_nodes():
        cuts[pi] = [Cut((pi,), 0b10, 0b1)]

    fanout = aig.fanout_counts()

    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        node0, node1 = lit_node(f0), lit_node(f1)
        comp0, comp1 = lit_is_complemented(f0), lit_is_complemented(f1)
        candidates: dict[tuple[int, ...], int] = {}

        for cut0 in cuts[node0]:
            for cut1 in cuts[node1]:
                merged = _merge_leaves(cut0.leaves, cut1.leaves, max_inputs)
                if merged is None:
                    continue
                full = _FULL_MASK[len(merged)]
                t0 = _expand_table(cut0.table, cut0.leaves, merged)
                t1 = _expand_table(cut1.table, cut1.leaves, merged)
                if comp0:
                    t0 = ~t0 & full
                if comp1:
                    t1 = ~t1 & full
                table = t0 & t1
                existing = candidates.get(merged)
                if existing is None:
                    candidates[merged] = table
                # Identical leaf sets always produce the same function, so no
                # merge policy is needed beyond first-wins.

        ranked = sorted(
            candidates.items(),
            key=lambda item: (len(item[0]), sum(fanout[l] == 1 for l in item[0])),
        )
        node_cuts = [
            Cut(leaves, table, table_support(table, len(leaves)))
            for leaves, table in ranked[:cut_limit]
        ]
        # The trivial cut participates in fanout cut merging.
        node_cuts.append(Cut((node,), 0b10, 0b1))
        cuts[node] = node_cuts

    return cuts
