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
gates into a flat :class:`_GraphBuilder` instead of a pointer-chasing
:class:`Aig`.
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

from repro.synthesis.aig import Aig, AigLiteral, CONST0, CONST1, _Node
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cut_kernels import distinct_keys
from repro.synthesis.cuts import cut_set_for
from repro.synthesis.rewrite_lib import cover_schedule


class _GraphBuilder:
    """Append-only AND-graph accumulator on flat lists.

    Replays :meth:`Aig.and_gate` exactly -- the same local simplifications,
    canonical fanin order, structural hashing and level computation -- while
    skipping its per-call validation, attribute chasing and ``_Node``
    allocation; :meth:`finish` bulk-materializes the accumulated nodes into
    a real, fully equivalent :class:`Aig` (strash table included).  The
    vectorized passes emit a whole pass worth of gates through one builder.
    """

    __slots__ = ("fanin0", "fanin1", "level", "strash", "_pi_names")

    def __init__(self, pi_names: tuple[str, ...]) -> None:
        count = 1 + len(pi_names)
        self.fanin0 = [-1] * count
        self.fanin1 = [-1] * count
        self.level = [0] * count
        self.strash: dict[int, int] = {}
        self._pi_names = pi_names

    def pi_literal(self, index: int) -> AigLiteral:
        """Literal of the ``index``-th primary input (they precede all ANDs)."""
        return (1 + index) << 1

    def and_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        if a < 2 or b < 2:
            if a == 0 or b == 0:
                return 0
            return b if a == 1 else a
        if a == b:
            return a
        if a ^ 1 == b:
            return 0
        if a > b:
            a, b = b, a
        key = (a << 32) | b
        node = self.strash.get(key)
        if node is not None:
            return node << 1
        level = self.level
        level0 = level[a >> 1]
        level1 = level[b >> 1]
        fanin0 = self.fanin0
        node = len(fanin0)
        fanin0.append(a)
        self.fanin1.append(b)
        level.append((level0 if level0 >= level1 else level1) + 1)
        self.strash[key] = node
        return node << 1

    @property
    def num_nodes(self) -> int:
        return len(self.fanin0)

    def replay(
        self,
        leaves: list[AigLiteral],
        ops: tuple[tuple[int, int], ...],
        result: int,
    ) -> AigLiteral:
        """Run a :func:`~repro.synthesis.rewrite_lib.compile_ops` schedule.

        Semantically one :meth:`and_gate` call per op (the reference
        executor in ``tests/oracles/optimize.py``) with the gate constructor
        inlined into the op loop -- the rewrite pass replays thousands of
        schedules per graph and the two function frames per gate are its
        hottest remaining overhead.
        """
        fanin0 = self.fanin0
        fanin1 = self.fanin1
        level = self.level
        strash = self.strash
        strash_get = strash.get
        temps: list[AigLiteral] = []
        append_temp = temps.append
        for code_a, code_b in ops:
            if code_a >= 2:
                a = (
                    temps[(code_a >> 2) - 1]
                    if code_a & 2
                    else leaves[(code_a >> 2) - 1]
                ) ^ (code_a & 1)
            else:
                a = code_a
            if code_b >= 2:
                b = (
                    temps[(code_b >> 2) - 1]
                    if code_b & 2
                    else leaves[(code_b >> 2) - 1]
                ) ^ (code_b & 1)
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
            return (
                temps[(result >> 2) - 1] if result & 2 else leaves[(result >> 2) - 1]
            ) ^ (result & 1)
        return result

    def finish(self, name: str) -> Aig:
        """Materialize the accumulated graph as a real :class:`Aig`."""
        aig = Aig(name)
        for pi_name in self._pi_names:
            aig.add_pi(pi_name)
        nodes = aig._nodes
        strash = aig._strash
        fanin0 = self.fanin0
        fanin1 = self.fanin1
        level = self.level
        for index in range(len(nodes), len(fanin0)):
            a = fanin0[index]
            b = fanin1[index]
            nodes.append(_Node(a, b, level[index]))
            strash[(a, b)] = index
        return aig

    def finish_cleaned(
        self,
        name: str,
        po_names: tuple[str, ...],
        po_literals: list[AigLiteral],
    ) -> Aig:
        """Materialize only the logic reachable from ``po_literals``.

        Fuses :meth:`finish` with :meth:`Aig.cleanup`: liveness is one
        descending sweep (fanins always precede their node), and the live
        nodes are appended in their original order with an order-preserving
        id remap.  Because the builder never emits constant or duplicated
        fanins and the remap is strictly increasing, canonical fanin order
        and levels are untouched -- the result is node-for-node the AIG that
        ``finish(name)`` + ``add_po`` + ``cleanup()`` would produce, without
        materializing the dead nodes or re-deriving the array view.
        """
        fanin0 = self.fanin0
        fanin1 = self.fanin1
        level = self.level
        count = len(fanin0)
        first_and = 1 + len(self._pi_names)
        live = bytearray(count)
        for literal in po_literals:
            live[literal >> 1] = 1
        for node in range(count - 1, first_and - 1, -1):
            if live[node]:
                live[fanin0[node] >> 1] = 1
                live[fanin1[node] >> 1] = 1

        aig = Aig(name)
        mapping = list(range(0, 2 * first_and, 2))
        for pi_name in self._pi_names:
            aig.add_pi(pi_name)
        nodes = aig._nodes
        strash = aig._strash
        for node in range(first_and, count):
            if not live[node]:
                mapping.append(-1)
                continue
            a = fanin0[node]
            b = fanin1[node]
            new_a = mapping[a >> 1] ^ (a & 1)
            new_b = mapping[b >> 1] ^ (b & 1)
            new_id = len(nodes)
            nodes.append(_Node(new_a, new_b, level[node]))
            strash[(new_a, new_b)] = new_id
            mapping.append(new_id << 1)
        for po_name, literal in zip(po_names, po_literals):
            aig.add_po(po_name, mapping[literal >> 1] ^ (literal & 1))
        return aig


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

    builder = _GraphBuilder(aig.pi_names)
    mapping = [-1] * arrays.num_nodes
    mapping[0] = CONST0
    for index, node in enumerate(arrays.pi_nodes.tolist()):
        mapping[node] = builder.pi_literal(index)

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

    level = builder.level
    and_gate = builder.and_gate
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

    po_literals = [
        mapping[literal >> 1] ^ (literal & 1) for literal in aig.po_literals
    ]
    return builder.finish_cleaned(aig.name, aig.po_names, po_literals)


# -- rewrite -----------------------------------------------------------------


def rewrite(aig: Aig, max_inputs: int = 4, trace: list | None = None) -> Aig:
    """Cut-based rewriting.

    For every AND node the candidate cuts are taken straight from the
    :class:`~repro.synthesis.cuts.CutSet` arrays -- one numpy scan selects
    the valid (node, slot) pairs and their size/table/leaf columns -- and
    each distinct cut function's cover schedule is read from the
    process-wide memo :func:`~repro.synthesis.rewrite_lib.cover_schedule`
    (one ISOP compile per function for the life of the process).  Every
    candidate schedule is then replayed into a flat :class:`_GraphBuilder`;
    the cheapest result (strictly fewer added gates, first minimum wins) is
    kept per node, losing candidates included in the emission stream exactly
    as the reference pass does -- their structural-hash side effects feed the
    costs of later nodes, so replaying them is part of the pinned contract.
    ``trace`` receives the per-node choice stream ``(node, winning slot,
    cost)`` for the parity tests.
    """
    cut_set = cut_set_for(aig, max_inputs=max_inputs, cut_limit=4)
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

    builder = _GraphBuilder(aig.pi_names)
    mapping = [-1] * arrays.num_nodes
    mapping[0] = CONST0
    for index, node in enumerate(arrays.pi_nodes.tolist()):
        mapping[node] = builder.pi_literal(index)

    and_gate = builder.and_gate
    replay = builder.replay
    node_fanins = builder.fanin0
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
                literal = replay(leaves, ops, result)
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

    po_literals = [
        mapping[literal >> 1] ^ (literal & 1) for literal in aig.po_literals
    ]
    return builder.finish_cleaned(aig.name, aig.po_names, po_literals)


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
