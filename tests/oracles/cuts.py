"""Pure-Python cut enumeration: the parity reference of the level kernel.

Production (:func:`repro.synthesis.cuts.enumerate_cuts_arrays`) enumerates
one AIG level per batch on numpy arrays.  The functions here do the same work
one node and one fanin-cut pair at a time, with big-int truth tables: merge
the two leaf sets, re-express both fanin tables over the merged leaves,
complement and AND them, keep the first table per leaf set, and stably rank
by ``(size, single-fanout leaves)``.  Production must reproduce them cut for
cut: same leaves, same order, same tables, same supports.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.synthesis.aig import Aig, lit_is_complemented, lit_node
from repro.synthesis.aig_array import AigArrays
from repro.synthesis.cuts import (
    DEFAULT_CUT_LIMIT,
    DEFAULT_MAX_INPUTS,
    LEAF_SENTINEL,
    Cut,
    CutSet,
    _validate_parameters,
    table_support,
)

_FULL_MASK = {n: (1 << (1 << n)) - 1 for n in range(0, 7)}


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


def enumerate_cuts_reference(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> dict[int, list[Cut]]:
    """Pure-Python priority-cut enumeration (the pre-vectorization algorithm)."""
    _validate_parameters(max_inputs, cut_limit, aig.num_nodes)

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

