"""K-feasible priority-cut enumeration with cut functions.

A *cut* of an AIG node is a set of nodes (the leaves) such that every path
from a primary input to the node passes through a leaf.  Cut-based technology
mapping enumerates, for every node, a small set of K-feasible cuts (at most
``cut_limit`` cuts with at most ``max_inputs`` leaves each), computes the
Boolean function of the node in terms of the cut leaves, and matches that
function against the library.

:func:`enumerate_cuts_arrays` is the one enumerator.  Per-node cuts live in
numpy arrays (:class:`CutSet`) and every AIG level is one batch: the leaf
rows of each candidate pair are merged with each leaf tagged by the fanin
cut it came from, duplicate leaf sets are dropped by sorting packed integer
keys, and truth tables are expanded and AND-ed as uint64 words
(:mod:`repro.synthesis.cut_kernels`).  Every K<=6 cut function fits one
64-bit word, which is what makes the batching exact.  The pure-Python
enumeration it replaced is the parity oracle in ``tests/oracles/cuts.py``.

:func:`enumerate_cuts` keeps the historical dict-of-:class:`Cut` interface on
top of it (and memoizes the underlying :class:`CutSet` on the AIG, so e.g.
the three library-mapping jobs of one benchmark enumerate once).  Cut
functions are raw integer truth tables (at most ``2**6`` bits); the matcher
converts them to :class:`~repro.logic.truth_table.TruthTable` keys on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.synthesis.aig import Aig
from repro.synthesis.aig_array import AigArrays, aig_arrays
from repro.synthesis.cut_kernels import (
    FULL_BY_SIZE,
    POPCOUNT64,
    batch_support,
    expand_tables,
)

#: Default mapping parameters, chosen to cover the six-input cells (F42..F45)
#: of the library while keeping enumeration tractable.
DEFAULT_MAX_INPUTS = 6
DEFAULT_CUT_LIMIT = 8

#: Padding value for unused leaf slots in the array representation; larger
#: than any node id so batched sorts push padding to the right.
LEAF_SENTINEL = np.int32(2**31 - 1)

#: Largest AIG the enumerator accepts: a leaf merge entry is 32 bits wide
#: and holds the node id above two origin-tag bits, so ids stay below
#: ``2**29``.
MAX_NODES = 1 << 29

#: Origin tags of the leaf merge entries per cut width: the low two bits of
#: an entry say which fanin cut the leaf came from (1: fanin 0, 2: fanin 1;
#: a leaf of both cuts is folded into one entry tagged 3).
_ORIGIN = {
    width: np.array([1] * width + [2] * width, dtype=np.uint32)
    for width in range(2, 7)
}

#: Merge entries at or above this value are padding: ``LEAF_SENTINEL``
#: shifted past the tag bits wraps to the top of the unsigned 32-bit range,
#: above every tagged node id.
_TAGGED_PADDING = np.uint32(0xFFFFFFFC)


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


def _validate_parameters(max_inputs: int, cut_limit: int, num_nodes: int) -> None:
    if max_inputs < 2 or max_inputs > 6:
        raise ValueError("max_inputs must be between 2 and 6")
    if cut_limit < 1:
        raise ValueError("cut_limit must be at least 1")
    if num_nodes > MAX_NODES:
        raise ValueError(f"cut enumeration supports at most {MAX_NODES} nodes")


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


def enumerate_cuts_arrays(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> CutSet:
    """Enumerate priority cuts for every node into a :class:`CutSet`.

    Each AIG level is one batch (:func:`_enumerate_level`).  Candidate pairs
    are generated in fanin-major order, deduplicated first-wins by leaf set
    and stably ranked by ``(size, single-fanout leaves, first occurrence)``,
    so cuts, their order, tables and supports are exactly those of the
    pure-Python oracle (``tests/oracles/cuts.py``).
    """
    _validate_parameters(max_inputs, cut_limit, aig.num_nodes)
    arrays = aig_arrays(aig)
    num_nodes = arrays.num_nodes
    slots = cut_limit + 1
    cuts = CutSet(
        max_inputs=max_inputs,
        cut_limit=cut_limit,
        count=np.zeros(num_nodes, dtype=np.int64),
        leaves=np.full((num_nodes, slots, max_inputs), LEAF_SENTINEL, dtype=np.int32),
        size=np.zeros((num_nodes, slots), dtype=np.int8),
        table=np.zeros((num_nodes, slots), dtype=np.uint64),
        support=np.zeros((num_nodes, slots), dtype=np.uint8),
    )
    # Constant node and primary inputs carry only their trivial cut.
    initial = np.concatenate(([0], arrays.pi_nodes)).astype(np.int64)
    _finalize_level(initial, np.zeros(initial.shape[0], dtype=np.int64), cuts)

    # Per-node inputs of every level batch: the two fanin node ids; an XOR
    # mask per fanin edge (an inverted edge complements its table with all
    # 64 ones, which the final AND clips to the table width); and the
    # single-fanout flag, plus a False entry that padding reads.
    fanins = np.stack((arrays.fanin0, arrays.fanin1), axis=1)
    fanin_nodes = fanins >> 1
    flips = (fanins & 1).astype(np.uint64) * FULL_BY_SIZE[6]
    single = np.append(arrays.fanout == 1, False)
    for group in arrays.level_groups:
        _enumerate_level(group, fanin_nodes, flips, single, cuts)
    return cuts


@lru_cache(maxsize=256)
def _key_weights(num_fields: int, bits: int) -> np.ndarray:
    """``(num_fields, words)`` uint64 matrix packing ``bits``-bit fields.

    Field ``j`` lands in word ``j // per_word``, most significant first, so
    a row's words compare like its field sequence.
    """
    per_word = 64 // bits
    weights = np.zeros((num_fields, -(-num_fields // per_word)), dtype=np.uint64)
    for field in range(num_fields):
        shift = bits * (per_word - 1 - field % per_word)
        weights[field, field // per_word] = 1 << shift
    weights.flags.writeable = False
    return weights


def _first_occurrences(
    local: np.ndarray, leaf_rows: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Index of the first occurrence of every distinct ``(local, leaf row)``.

    The integer form of ``np.unique(signature, axis=0, return_index=True)[1]``
    over the signature rows ``[local, *leaf_row]``: the same indices in the
    same order.  ``local`` and the leaf ids are below ``num_nodes``; a leaf
    row is ascending, padded with any value from ``2**b - 1`` up, where
    ``b = num_nodes.bit_length()``.

    Every field is coded in ``b`` bits, padding as ``2**b - 1`` (above every
    id), and a row's fields are packed into as few uint64 words as hold
    them (:func:`_key_weights`), so the words order rows as the signatures
    do.  A stable ``lexsort`` of the words puts each run of equal rows in
    index order, and the first entry of a run is its first occurrence.
    """
    bits = num_nodes.bit_length()
    fields = np.empty((leaf_rows.shape[0], leaf_rows.shape[1] + 1), dtype=np.uint64)
    fields[:, 0] = local
    fields[:, 1:] = np.minimum(leaf_rows, (1 << bits) - 1)
    # The fields occupy disjoint bits, so the product sums are exact.
    words = fields @ _key_weights(fields.shape[1], bits)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    # A sorted row repeats its predecessor when every word is equal; the
    # rest start runs.  ``repeat`` views ``first`` past its first entry.
    first = np.ones(order.shape[0], dtype=bool)
    repeat = first[1:]
    for word in ranked.T:
        repeat &= word[1:] == word[:-1]
    np.logical_not(repeat, out=repeat)
    return order[first]


def _enumerate_level(
    nodes: np.ndarray,
    fanin_nodes: np.ndarray,
    flips: np.ndarray,
    single: np.ndarray,
    cuts: CutSet,
) -> None:
    """Compute the cut slots of every AND node of one level in one batch."""
    width = cuts.max_inputs
    slots = cuts.cut_limit + 1
    num_nodes = cuts.count.shape[0]
    fanin_nodes = fanin_nodes[nodes]

    # Candidate pairs in fanin-major order: (node, cut i0, cut i1) in
    # lexicographic order, matching the oracle's nested loop, so "first
    # occurrence" means the same thing on both paths.  ``flat`` holds each
    # pair's two fanin cuts as rows of the flattened (node, slot) arrays.
    counts = cuts.count[fanin_nodes]
    grid = np.arange(slots)
    local, index0, index1 = np.nonzero(
        (grid[:, None] < counts[:, 0, None, None]) & (grid < counts[:, 1, None, None])
    )
    flat = fanin_nodes[local] * slots
    flat[:, 0] += index0
    flat[:, 1] += index1

    # Sorted union of the two (sorted, sentinel-padded) leaf rows.  Every
    # entry carries its origin in the two low bits; read unsigned, the
    # shifted padding sorts last.  A leaf of both cuts sorts into two
    # adjacent entries: the first takes both tags, the second turns into
    # padding, and a second sort closes the gap.  A pair is K-feasible when
    # entry K of its row is padding.
    rows = (
        cuts.leaves.reshape(-1, width)[flat].reshape(-1, 2 * width).view(np.uint32)
    )
    rows <<= np.uint32(2)
    rows |= _ORIGIN[width]
    rows.sort(axis=1)
    ids = rows >> np.uint32(2)
    shared = (ids[:, 1:] == ids[:, :-1]).view(np.uint8)
    rows[:, :-1] |= shared << np.uint8(1)
    rows[:, 1:] |= shared * _TAGGED_PADDING
    rows.sort(axis=1)
    feasible = np.flatnonzero(rows[:, width] >= _TAGGED_PADDING)
    merged = rows[feasible, :width]

    # Leaf-set dedup (first occurrence wins) across the whole level, then
    # back to pair order.  Identical leaf sets always produce the same
    # function, so no table work is spent on duplicates.
    is_first = np.zeros(feasible.shape[0], dtype=bool)
    is_first[_first_occurrences(local[feasible], merged >> np.uint32(2), num_nodes)] = True
    first = np.flatnonzero(is_first)
    pair = feasible[first]
    candidate_local = local[pair]
    # Padding entries become ``num_nodes << 2``: tag bits clear, id num_nodes.
    candidate_rows = np.minimum(merged[first], np.uint32(num_nodes << 2))
    candidate_ids = candidate_rows >> np.uint32(2)

    # Ranking: stable by (size, number of single-fanout leaves, first
    # occurrence) within each node -- the vectorized form of the oracle's
    # stable sort over its insertion-ordered candidate dict.  Both counts
    # are popcounts of per-row bit planes packed eight entries to a byte.
    planes = np.zeros((first.shape[0], 2, 8), dtype=np.uint8)
    planes[:, 0, :width] = candidate_ids < num_nodes
    planes[:, 1, :width] = single[candidate_ids]
    counted = POPCOUNT64[np.packbits(planes, bitorder="little").reshape(-1, 2)]
    candidate_size = counted[:, 0]
    order = np.argsort(
        (candidate_local << 6) | (candidate_size << 3) | counted[:, 1], kind="stable"
    )
    per_node = np.bincount(candidate_local, minlength=nodes.shape[0])
    rank = np.arange(order.shape[0]) - (np.cumsum(per_node) - per_node)[
        candidate_local[order]
    ]
    keep = rank < cuts.cut_limit
    selected = order[keep]
    slot = rank[keep]
    destination = nodes[candidate_local[selected]]
    kept_sizes = candidate_size[selected]

    # Tables of the kept cuts only: each fanin table's expansion submask is
    # the set of merged positions its leaves occupy, read off the origin
    # tags.  Expand both in one stacked pass, complement as the edges
    # dictate, AND, and clip to the table width.
    tags = candidate_rows[selected].astype(np.uint8)
    origins = np.zeros((selected.shape[0], 2, 8), dtype=np.uint8)
    origins[:, 0, :width] = tags & np.uint8(1)
    origins[:, 1, :width] = tags & np.uint8(2)
    expanded = expand_tables(
        cuts.table.reshape(-1)[flat[pair[selected]]].reshape(-1),
        np.packbits(origins, bitorder="little"),
    ).reshape(-1, 2)
    expanded ^= flips[destination]
    kept_tables = expanded[:, 0] & expanded[:, 1] & FULL_BY_SIZE[kept_sizes]

    kept_ids = candidate_ids[selected]
    kept = destination * slots + slot
    cuts.leaves.reshape(-1, width)[kept] = np.where(
        kept_ids < num_nodes, kept_ids, LEAF_SENTINEL
    )
    cuts.size.reshape(-1)[kept] = kept_sizes
    cuts.table.reshape(-1)[kept] = kept_tables
    cuts.support.reshape(-1)[kept] = batch_support(kept_tables, kept_sizes)
    _finalize_level(nodes, np.minimum(per_node, cuts.cut_limit), cuts)


def _finalize_level(nodes: np.ndarray, kept_per_node: np.ndarray, cuts: CutSet) -> None:
    """Append every node's trivial cut after its ranked cuts and set counts."""
    trivial_slot = kept_per_node
    cuts.leaves[nodes, trivial_slot, 0] = nodes
    cuts.size[nodes, trivial_slot] = 1
    cuts.table[nodes, trivial_slot] = 2  # identity function of the single leaf
    cuts.support[nodes, trivial_slot] = 1
    cuts.count[nodes] = kept_per_node + 1


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
    _validate_parameters(max_inputs, cut_limit, aig.num_nodes)
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
    but never matched on its own.
    """
    cut_set = cut_set_for(aig, max_inputs=max_inputs, cut_limit=cut_limit)
    return cut_set.to_dict(aig_arrays(aig))
