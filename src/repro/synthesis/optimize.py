"""Technology-independent AIG optimization (the ``resyn2rs`` stand-in).

The paper synthesizes every benchmark with ABC's ``resyn2rs`` script before
technology mapping.  That script interleaves balancing, rewriting, refactoring
and resubstitution.  We provide a compact equivalent built from three passes:

* :func:`balance` -- collapses multi-input AND trees and rebuilds them as
  depth-balanced binary trees (ABC's ``balance``);
* :func:`rewrite` -- cut-based local rewriting: for every node a small cut is
  extracted, its function computed, and the cone replaced by a cheaper
  implementation synthesised from the function's irredundant sum of products
  via a simple factoring heuristic (covers ABC's ``rewrite``/``refactor``
  behaviour for the cone sizes that matter here);
* :func:`optimize` -- the driver that interleaves the two until the node count
  stops improving, mirroring the iterative structure of ``resyn2rs``.

Because every transformation rebuilds the graph through the structurally
hashing constructors, common subexpressions are shared automatically, which
is where most of the practical reduction comes from.

Both passes have one implementation, array-backed like the mapper DP and
the cut enumerator: they read the graph through
:class:`~repro.synthesis.aig_array.AigArrays` and the
:class:`~repro.synthesis.cuts.CutSet` struct-of-arrays, select candidate
cuts with one numpy scan, fetch each cut function's compiled cover
schedule from the memo of :mod:`repro.synthesis.rewrite_lib`, and emit
gates straight into the flat lists of a new :class:`Aig`, which they sweep
with :meth:`Aig.cleanup`.
They run on every graph, however small.

The per-node algorithms they replaced are the parity oracles in
``tests/oracles/optimize.py``.  The passes are pinned **node-for-node
identical** to them: same candidate order, same gate-emission sequence
(including the synthesis of losing candidates, whose structural-hash side
effects feed later cost decisions), same structural hashing order, same
levels.  ``tests/synthesis/test_optimize_vectorized.py`` pins the parity per
node and per choice.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.synthesis.aig import Aig, AigLiteral, CONST1
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cut_kernels import distinct_keys
from repro.synthesis.cuts import enumerate_cuts_arrays
from repro.synthesis.rewrite_lib import cover_schedule


def _replay(
    graph: Aig,
    leaves: list[AigLiteral],
    ops: tuple[tuple[int, int], ...],
    result: int,
) -> AigLiteral:
    """Run a :func:`~repro.synthesis.rewrite_lib.compile_ops` schedule into ``graph``.

    Semantically one :meth:`Aig.strash_and` call per op (the reference
    executor in ``tests/oracles/optimize.py``) with the gate constructor
    inlined into the op loop -- the rewrite pass replays thousands of
    schedules per graph and the function frame per gate is its hottest
    remaining overhead.
    """
    fanin0 = graph._fanin0
    fanin1 = graph._fanin1
    level = graph._level
    strash = graph._strash
    strash_get = strash.get
    temps: list[AigLiteral] = []
    append_temp = temps.append
    for code_a, code_b in ops:
        if code_a >= 2:
            a = (temps if code_a & 2 else leaves)[(code_a >> 2) - 1] ^ (code_a & 1)
        else:
            a = code_a
        if code_b >= 2:
            b = (temps if code_b & 2 else leaves)[(code_b >> 2) - 1] ^ (code_b & 1)
        else:
            b = code_b
        if a < 2 or b < 2:
            if a == 0 or b == 0:
                append_temp(0)
            else:
                append_temp(b if a == 1 else a)
            continue
        if a == b:
            append_temp(a)
            continue
        if a ^ 1 == b:
            append_temp(0)
            continue
        if a > b:
            a, b = b, a
        key = (a << 32) | b
        node = strash_get(key)
        if node is not None:
            append_temp(node << 1)
            continue
        level0 = level[a >> 1]
        level1 = level[b >> 1]
        node = len(fanin0)
        fanin0.append(a)
        fanin1.append(b)
        level.append((level0 if level0 >= level1 else level1) + 1)
        strash[key] = node
        append_temp(node << 1)
    if result >= 2:
        return (temps if result & 2 else leaves)[(result >> 2) - 1] ^ (result & 1)
    return result


def _finish(aig: Aig, new: Aig, mapping: list[AigLiteral]) -> Aig:
    """Give ``new`` the outputs of ``aig`` under ``mapping`` and sweep it."""
    for name, literal in zip(aig.po_names, aig.po_literals):
        new.add_po(name, mapping[literal >> 1] ^ (literal & 1))
    return new.cleanup()


# -- balance -----------------------------------------------------------------


def balance(aig: Aig, trace: list | None = None) -> Aig:
    """Depth-balance the AND trees of an AIG.

    For every node the maximal single-fanout AND tree rooted at it is
    collapsed into its leaf literals and rebuilt as a balanced binary tree,
    pairing the shallowest literals first (same heuristic as ABC's
    ``balance``).  The collapse runs bottom-up over ``AigArrays`` so shared
    subtrees contribute their leaf lists once, and the rebuild schedules
    literals through a ``heapq`` keyed on ``(level, insertion index)`` --
    exactly the order of the reference pass's sorted-list scheduling.
    ``trace``, when given, receives the per-node choice stream
    ``(node, rebuilt_literal)`` for the parity tests.
    """
    arrays = aig_arrays(aig)
    fanin0 = arrays.fanin0.tolist()
    fanin1 = arrays.fanin1.tolist()
    fanout = arrays.fanout.tolist()
    and_nodes = arrays.and_nodes.tolist()

    new, mapping = aig.copy_inputs()

    # Maximal-AND-tree leaves, bottom-up: a fanin edge is absorbed when it is
    # uncomplemented, feeds from an AND node and that node has fanout 1 (the
    # reference's collect_and_leaves recursion, shared instead of re-walked).
    leaves: list[list[int] | None] = [None] * arrays.num_nodes
    for node in and_nodes:
        f0 = fanin0[node]
        f1 = fanin1[node]
        source0 = f0 >> 1
        source1 = f1 >> 1
        part0 = (
            leaves[source0]
            if (f0 & 1) == 0 and fanout[source0] == 1 and leaves[source0] is not None
            else [f0]
        )
        part1 = (
            leaves[source1]
            if (f1 & 1) == 0 and fanout[source1] == 1 and leaves[source1] is not None
            else [f1]
        )
        leaves[node] = part0 + part1

    level = new._level
    and_gate = new.strash_and
    heappush = heapq.heappush
    heappop = heapq.heappop
    for node in and_nodes:
        node_leaves = leaves[node]
        if len(node_leaves) == 2:
            # Dominant case (nothing collapsed): one gate, no heap.  The
            # heap would pop these two in some order and and_gate
            # canonicalizes its arguments, so the emitted gate is identical.
            f0, f1 = node_leaves
            result = and_gate(
                mapping[f0 >> 1] ^ (f0 & 1), mapping[f1 >> 1] ^ (f1 & 1)
            )
        else:
            heap = []
            for order, leaf in enumerate(node_leaves):
                literal = mapping[leaf >> 1] ^ (leaf & 1)
                heap.append((level[literal >> 1], order, literal))
            heapq.heapify(heap)
            sequence = len(heap)
            while len(heap) > 1:
                _, _, a = heappop(heap)
                _, _, b = heappop(heap)
                combined = and_gate(a, b)
                heappush(heap, (level[combined >> 1], sequence, combined))
                sequence += 1
            result = heap[0][2] if heap else CONST1
        mapping[node] = result
        if trace is not None:
            trace.append((node, result))
    return _finish(aig, new, mapping)


# -- rewrite -----------------------------------------------------------------


def rewrite(aig: Aig, max_inputs: int = 4, trace: list | None = None) -> Aig:
    """Cut-based rewriting.

    For every AND node the candidate cuts are taken straight from the
    :class:`~repro.synthesis.cuts.CutSet` arrays -- one numpy scan selects
    the valid (node, slot) pairs and their size/table/leaf columns -- and
    each distinct cut function's cover schedule is read from the
    process-wide memo :func:`~repro.synthesis.rewrite_lib.cover_schedule`
    (one ISOP compile per function for the life of the process).  Every
    candidate schedule is then replayed into the new graph (:func:`_replay`);
    the cheapest result (strictly fewer added gates, first minimum wins) is
    kept per node, losing candidates included in the emission stream exactly
    as the reference pass does -- their structural-hash side effects feed the
    costs of later nodes, so replaying them is part of the pinned contract.
    ``trace`` receives the per-node choice stream ``(node, winning slot,
    cost)`` for the parity tests.
    The cuts are not memoized on ``aig``, which keep-best often returns as
    the flow's result.
    """
    cut_set = enumerate_cuts_arrays(aig, max_inputs=max_inputs, cut_limit=4)
    arrays = aig_arrays(aig)
    and_nodes = arrays.and_nodes

    # Candidate scan: valid slots per node (inside the count, at least two
    # leaves -- single-leaf cuts are the trivial ones the reference skips),
    # in node-major slot-ascending order to match the reference loop.
    counts = cut_set.count[and_nodes]
    sizes = cut_set.size[and_nodes]
    slot_index = np.arange(sizes.shape[1], dtype=counts.dtype)
    valid = (slot_index[None, :] < counts[:, None]) & (sizes >= 2)
    local_node, slot_of = np.nonzero(valid)
    candidate_nodes = and_nodes[local_node]
    candidate_sizes = sizes[local_node, slot_of]
    candidate_tables = cut_set.table[candidate_nodes, slot_of]
    candidate_leaves = cut_set.leaves[candidate_nodes, slot_of]

    # One schedule lookup per distinct (size, table).
    first, inverse = distinct_keys(candidate_sizes, candidate_tables)
    unique_ops = [
        cover_schedule(table, num_vars)
        for num_vars, table in zip(
            candidate_sizes[first].tolist(), candidate_tables[first].tolist()
        )
    ]
    ops_of = [unique_ops[index] for index in inverse.tolist()]

    per_node = valid.sum(axis=1).tolist()
    slots = slot_of.tolist()
    size_list = candidate_sizes.tolist()
    leaf_rows = candidate_leaves.tolist()
    fanin0 = arrays.fanin0.tolist()
    fanin1 = arrays.fanin1.tolist()

    new, mapping = aig.copy_inputs()
    and_gate = new.strash_and
    node_fanins = new._fanin0
    cursor = 0
    for local, node in enumerate(and_nodes.tolist()):
        best_literal = -1
        best_cost = -1
        best_slot = -1
        for _ in range(per_node[local]):
            num_vars = size_list[cursor]
            row = leaf_rows[cursor]
            leaves = []
            available = True
            for position in range(num_vars):
                literal = mapping[row[position]]
                if literal < 0:
                    available = False
                    break
                leaves.append(literal)
            if available:
                ops, result = ops_of[cursor]
                before = len(node_fanins)
                literal = _replay(new, leaves, ops, result)
                cost = len(node_fanins) - before
                if best_cost < 0 or cost < best_cost:
                    best_cost = cost
                    best_literal = literal
                    best_slot = slots[cursor]
            cursor += 1
        if best_literal < 0:
            f0 = fanin0[node]
            f1 = fanin1[node]
            best_literal = and_gate(
                mapping[f0 >> 1] ^ (f0 & 1), mapping[f1 >> 1] ^ (f1 & 1)
            )
        mapping[node] = best_literal
        if trace is not None:
            trace.append((node, best_slot, best_cost))
    return _finish(aig, new, mapping)


def optimize(aig: Aig, max_rounds: int = 3) -> Aig:
    """The ``resyn2rs`` stand-in: interleave balancing and rewriting to a fixpoint.

    Since the pass-based flow framework landed this is a thin wrapper over
    the registered ``resyn2rs`` flow (balance prologue, up to ``max_rounds``
    rounds of rewrite + balance, best intermediate result kept); see
    :mod:`repro.flow`.  The returned AIG is never larger or deeper than the
    input even when a rewriting round locally increases the node count.
    """
    from dataclasses import replace

    from repro.flow import get_flow

    flow = get_flow("resyn2rs")
    if max_rounds != flow.max_rounds:
        flow = replace(flow, max_rounds=max_rounds)
    return flow.run(aig).aig
