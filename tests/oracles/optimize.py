"""Per-node balancing and cut rewriting: the parity reference of the passes.

Production (:func:`repro.synthesis.optimize.balance` and
:func:`~repro.synthesis.optimize.rewrite`) reads the graph through its array
view and the :class:`~repro.synthesis.cuts.CutSet` arrays and emits gates
through :meth:`Aig.strash_and` and an inlined op loop.  The functions here do
the same work the way the passes did before that: a recursive tree collapse
per node through :meth:`Aig.and_gate`, and, per cut, an irredundant sum of
products synthesized through :meth:`Aig.and_many`/:meth:`Aig.or_many`.  Production must reproduce
them node for node: the same choice stream (``trace``), the same gate
emission order, the same structural hashing and the same levels.
:func:`replay_ops` is the one-call-per-gate executor of the op schedules
the production pass replays through its inlined op loop.

:data:`RESYN2RS_REFERENCE` is ``resyn2rs`` built from these passes.  It is
never registered: run it inside :func:`oracle_passes`, which registers the
two reference passes for the duration of a block only.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from repro.flow import FlowSpec, FunctionPass, register_pass
from repro.flow.passes import _PASS_REGISTRY
from repro.synthesis.aig import (
    Aig,
    AigLiteral,
    CONST0,
    CONST1,
    lit_complement,
    lit_is_complemented,
    lit_node,
)
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import cut_set_for
from repro.synthesis.rewrite_lib import _isop


def balance_reference(aig: Aig, trace: list | None = None) -> Aig:
    """Reference depth-balancing (the pre-vectorization per-node algorithm).

    The only change from its original form is the scheduling container: the
    ``ordered.pop(0)`` / ``insert`` list (O(n^2) on wide collapsed trees) is
    a ``heapq`` keyed on ``(level, insertion index)``.  The heap pops in
    exactly the old order -- the list was kept sorted by level with stable
    insertion after ties, which is precisely the (level, sequence) total
    order -- so the produced tree is identical gate for gate.
    """
    fanout = aig_arrays(aig).fanout.tolist()
    new = Aig(aig.name)
    mapping: dict[int, AigLiteral] = {0: CONST0}
    for name, node in zip(aig.pi_names, aig.pi_nodes()):
        mapping[node] = new.add_pi(name)

    def translate(literal: AigLiteral) -> AigLiteral:
        return mapping[lit_node(literal)] ^ (literal & 1)

    def collect_and_leaves(literal: AigLiteral, root: bool) -> list[AigLiteral]:
        """Leaves of the maximal AND tree rooted at ``literal``."""
        node = lit_node(literal)
        if (
            lit_is_complemented(literal)
            or not aig.is_and(node)
            or (not root and fanout[node] > 1)
        ):
            return [literal]
        f0, f1 = aig.fanins(node)
        return collect_and_leaves(f0, False) + collect_and_leaves(f1, False)

    def rebuild(node: int) -> AigLiteral:
        if node in mapping:
            return mapping[node]
        leaves = collect_and_leaves(node << 1, True)
        translated = []
        for leaf in leaves:
            leaf_node = lit_node(leaf)
            if leaf_node not in mapping:
                rebuild(leaf_node)
            translated.append(translate(leaf))
        # Pair shallow literals first so the deepest signal sees the fewest
        # levels; ties resolve by insertion order (combined gates last).
        heap = [
            (new.literal_level(literal), order, literal)
            for order, literal in enumerate(translated)
        ]
        heapq.heapify(heap)
        sequence = len(heap)
        while len(heap) > 1:
            _, _, a = heapq.heappop(heap)
            _, _, b = heapq.heappop(heap)
            combined = new.and_gate(a, b)
            heapq.heappush(heap, (new.literal_level(combined), sequence, combined))
            sequence += 1
        result = heap[0][2] if heap else CONST1
        mapping[node] = result
        if trace is not None:
            trace.append((node, result))
        return result

    for node in aig.and_nodes():
        rebuild(node)
    for name, literal in zip(aig.po_names, aig.po_literals):
        node = lit_node(literal)
        if node not in mapping:
            rebuild(node)
        new.add_po(name, translate(literal))
    return new.cleanup()


def _synthesize_sop(
    aig: Aig, leaves: list[AigLiteral], cubes: tuple[tuple[int, int], ...], num_vars: int
) -> AigLiteral:
    """Build an AND-OR implementation of a cube cover."""
    terms: list[AigLiteral] = []
    for care, value in cubes:
        factors: list[AigLiteral] = []
        for var in range(num_vars):
            if not (care >> var) & 1:
                continue
            literal = leaves[var]
            if not (value >> var) & 1:
                literal = lit_complement(literal)
            factors.append(literal)
        terms.append(aig.and_many(factors) if factors else CONST1)
    return aig.or_many(terms) if terms else CONST0


def rewrite_reference(
    aig: Aig, max_inputs: int = 4, trace: list | None = None
) -> Aig:
    """Reference cut-based rewriting (the pre-vectorization algorithm).

    For every AND node every non-trivial cut is tried: the node function over
    the cut leaves gets an AND-OR implementation of its irredundant cover (or
    of the complement, whichever has fewer cubes), built into the new AIG.
    The cheapest result (strictly fewer added gates, first minimum wins) is
    kept; losing candidates stay in the graph, where structural hashing may
    share them with later nodes.
    """
    cut_set = cut_set_for(aig, max_inputs=max_inputs, cut_limit=4)
    cut_count = cut_set.count.tolist()
    cut_size = cut_set.size.tolist()
    cut_leaves = cut_set.leaves.tolist()
    cut_table = cut_set.table.tolist()
    new = Aig(aig.name)
    mapping: dict[int, AigLiteral] = {0: CONST0}
    for name, node in zip(aig.pi_names, aig.pi_nodes()):
        mapping[node] = new.add_pi(name)

    def translate(literal: AigLiteral) -> AigLiteral:
        return mapping[lit_node(literal)] ^ (literal & 1)

    for node in aig.and_nodes():
        best_literal: AigLiteral | None = None
        best_cost: int | None = None
        best_slot = -1
        node_sizes = cut_size[node]
        node_leaves = cut_leaves[node]
        node_tables = cut_table[node]
        for slot in range(cut_count[node]):
            num_vars = node_sizes[slot]
            if num_vars == 1:
                continue
            cut_leaf_ids = node_leaves[slot][:num_vars]
            if any(leaf not in mapping for leaf in cut_leaf_ids):
                continue
            leaves = [mapping[leaf] for leaf in cut_leaf_ids]
            table = node_tables[slot]
            size_before = new.num_ands
            positive = _isop(table, num_vars)
            negative = _isop(~table & ((1 << (1 << num_vars)) - 1), num_vars)
            if len(negative) < len(positive):
                literal = lit_complement(
                    _synthesize_sop(new, leaves, negative, num_vars)
                )
            else:
                literal = _synthesize_sop(new, leaves, positive, num_vars)
            cost = new.num_ands - size_before
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_literal = literal
                best_slot = slot
        if best_literal is None:
            f0, f1 = aig.fanins(node)
            best_literal = new.and_gate(translate(f0), translate(f1))
        mapping[node] = best_literal
        if trace is not None:
            trace.append((node, best_slot, -1 if best_cost is None else best_cost))

    for name, literal in zip(aig.po_names, aig.po_literals):
        new.add_po(name, translate(literal))
    return new.cleanup()


def replay_ops(
    and_gate: Callable[[AigLiteral, AigLiteral], AigLiteral],
    leaves: Sequence[AigLiteral],
    ops: tuple[tuple[int, int], ...],
    result: int,
) -> AigLiteral:
    """Reference executor of a :func:`~repro.synthesis.rewrite_lib.compile_ops`
    schedule: the gates of :func:`~repro.synthesis.rewrite_lib.replay_cover`,
    one ``and_gate`` call per op (``optimize._replay`` inlines the call)."""
    temps: list[AigLiteral] = []
    append = temps.append
    for a, b in ops:
        if a >= 2:
            value_a = (temps[(a >> 2) - 1] if a & 2 else leaves[(a >> 2) - 1]) ^ (a & 1)
        else:
            value_a = a
        if b >= 2:
            value_b = (temps[(b >> 2) - 1] if b & 2 else leaves[(b >> 2) - 1]) ^ (b & 1)
        else:
            value_b = b
        append(and_gate(value_a, value_b))
    if result >= 2:
        return (
            temps[(result >> 2) - 1] if result & 2 else leaves[(result >> 2) - 1]
        ) ^ (result & 1)
    return result


_ORACLE_PASSES = (
    FunctionPass(
        "balance_reference",
        balance_reference,
        "reference depth-balancing oracle (identical output to `balance`)",
    ),
    FunctionPass(
        "rewrite_reference",
        rewrite_reference,
        "reference cut-rewriting oracle (identical output to `rewrite`)",
    ),
)

#: ``resyn2rs`` built from the reference passes: the flow-level oracle.
RESYN2RS_REFERENCE = FlowSpec(
    name="resyn2rs-reference",
    description="resyn2rs built from the reference passes (parity oracle)",
    prologue=("balance_reference",),
    round_passes=("rewrite_reference", "balance_reference"),
    max_rounds=3,
)


@contextmanager
def oracle_passes() -> Iterator[None]:
    """Register the reference passes for the duration of the block.

    :data:`RESYN2RS_REFERENCE` resolves its passes by name; outside this
    block neither name is registered, so the registry a process sees does
    not depend on whether a test module was imported.
    """
    for pass_ in _ORACLE_PASSES:
        register_pass(pass_)
    try:
        yield
    finally:
        for pass_ in _ORACLE_PASSES:
            _PASS_REGISTRY.pop(pass_.name, None)
