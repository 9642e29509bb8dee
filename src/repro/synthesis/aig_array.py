"""Array-backed (struct-of-arrays) view of an :class:`~repro.synthesis.aig.Aig`.

The :class:`Aig` keeps its graph in flat Python lists, which suit
incremental construction with structural hashing, but the hot read-only
consumers -- cut enumeration, the mapping DP, packed simulation -- work on
whole columns of the finished graph.  For them this module converts the
lists once into a handful of numpy arrays:

* ``fanin0`` / ``fanin1``  -- fanin *literals* per node (``-1`` for the
  constant node and primary inputs), so complement bits travel with the edge;
* ``level``                -- AND-level of every node;
* ``fanout``               -- reference counts (AND fanins plus primary
  outputs), the tie-break signal of the cut ranking;
* ``and_nodes``            -- AND node ids in topological (creation) order;
* ``level_groups``         -- the same AND nodes bucketed by level, the unit
  of batching for the vectorized kernels (nodes of one level never depend on
  each other, so a whole level can be processed with one array operation).

The view is immutable and cached on the source ``Aig`` instance keyed by its
node/output counts (the ``Aig`` API is append-only, so those counts change
whenever the structure does); repeated consumers -- e.g. the three library
mapping jobs of one benchmark -- share a single flattening.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.synthesis.aig import Aig


@dataclass(frozen=True)
class AigArrays:
    """Immutable struct-of-arrays snapshot of an AIG (see module docstring)."""

    num_nodes: int
    fanin0: np.ndarray  #: int64 fanin-0 literal per node (-1 for PI/const)
    fanin1: np.ndarray  #: int64 fanin-1 literal per node (-1 for PI/const)
    level: np.ndarray  #: int64 AND-level per node
    fanout: np.ndarray  #: int64 reference count per node (fanins + POs)
    is_and: np.ndarray  #: bool mask of AND nodes
    and_nodes: np.ndarray  #: int64 AND node ids in topological order
    pi_nodes: np.ndarray  #: int64 primary-input node ids
    po_literals: np.ndarray  #: int64 primary-output literals
    level_groups: tuple[np.ndarray, ...] = field(repr=False)
    """AND node ids bucketed by level (ascending level, ids ascending within)."""

    @property
    def num_ands(self) -> int:
        return int(self.and_nodes.shape[0])

    def fanout_dict(self) -> dict[int, int]:
        """The counts as a plain dict (compatible with ``Aig.fanout_counts``)."""
        return {node: int(count) for node, count in enumerate(self.fanout)}


def _build_arrays(aig: Aig) -> AigArrays:
    num_nodes = aig.num_nodes
    # The Aig's own lists are the columns (the conversion lives next to the
    # Aig class).
    fanin0 = np.array(aig._fanin0, dtype=np.int64)
    fanin1 = np.array(aig._fanin1, dtype=np.int64)
    level = np.array(aig._level, dtype=np.int64)
    po_literals = np.array(aig._po_literals, dtype=np.int64)
    pi_nodes = np.array(aig._pi_nodes, dtype=np.int64)
    is_and = fanin0 >= 0
    and_nodes = np.nonzero(is_and)[0].astype(np.int64)

    refs = np.concatenate(
        [fanin0[and_nodes] >> 1, fanin1[and_nodes] >> 1, po_literals >> 1]
    )
    fanout = np.bincount(refs, minlength=num_nodes).astype(np.int64, copy=False)

    groups: list[np.ndarray] = []
    if and_nodes.size:
        and_levels = level[and_nodes]
        order = np.argsort(and_levels, kind="stable")  # ids stay ascending per level
        sorted_nodes = and_nodes[order]
        sorted_levels = and_levels[order]
        boundaries = np.nonzero(np.diff(sorted_levels))[0] + 1
        groups = list(np.split(sorted_nodes, boundaries))

    return AigArrays(
        num_nodes=num_nodes,
        fanin0=fanin0,
        fanin1=fanin1,
        level=level,
        fanout=fanout,
        is_and=is_and,
        and_nodes=and_nodes,
        pi_nodes=pi_nodes,
        po_literals=po_literals,
        level_groups=tuple(groups),
    )


def aig_arrays(aig: Aig) -> AigArrays:
    """The (cached) array view of an AIG.

    The cache key is ``(num_nodes, num_pos)``: the ``Aig`` API only ever
    appends nodes and outputs, so an unchanged pair means an unchanged
    structure and the cached snapshot can be reused; a changed pair rebuilds.
    """
    key = (aig.num_nodes, aig.num_pos)
    cached = aig.__dict__.get("_array_view")
    if cached is not None and cached[0] == key:
        return cached[1]
    arrays = _build_arrays(aig)
    aig.__dict__["_array_view"] = (key, arrays)
    return arrays


def simulate_packed(arrays: AigArrays, pi_words: np.ndarray) -> np.ndarray:
    """Packed ``(num_nodes, words)`` uint64 values of every node on the
    ``(num_pis, words)`` input words, one batch per AND level: each fanin's
    rows are gathered, XORed with the edge's mask (all ones where it is
    complemented, as in the cut kernel) and ANDed in place."""
    values = np.zeros((arrays.num_nodes, pi_words.shape[1]), dtype=np.uint64)
    values[arrays.pi_nodes] = pi_words
    nodes0, nodes1 = arrays.fanin0 >> 1, arrays.fanin1 >> 1
    flips0 = (-(arrays.fanin0 & 1)).astype(np.uint64)[:, None]
    flips1 = (-(arrays.fanin1 & 1)).astype(np.uint64)[:, None]
    for group in arrays.level_groups:
        words = values[nodes0[group]]
        words ^= flips0[group]
        other = values[nodes1[group]]
        other ^= flips1[group]
        words &= other
        values[group] = words
    return values
