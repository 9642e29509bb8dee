"""Node-by-node AIG cleanup: the parity reference of ``Aig.cleanup``.

Production (:meth:`repro.synthesis.aig.Aig.cleanup`) marks the live nodes
with one descending sweep over the graph's fanin lists and copies them under
an id remap without re-deriving anything.  The function here does the same
work the way ``cleanup`` did before that: a depth-first reachability walk
from the outputs, then every live AND node rebuilt in creation order through
:meth:`Aig.and_gate`, so structural hashing and the local simplifications
apply as they would to freshly built logic.  Production must reproduce it
node for node.
"""

from __future__ import annotations

from repro.synthesis.aig import CONST0, Aig, AigLiteral, lit_node


def cleanup_rebuild(aig: Aig) -> Aig:
    """Copy ``aig`` keeping only the logic reachable from its outputs."""
    reachable: set[int] = set()
    stack = [lit_node(literal) for literal in aig.po_literals]
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            stack.append(lit_node(f0))
            stack.append(lit_node(f1))
    new = Aig(aig.name)
    mapping: dict[int, AigLiteral] = {0: CONST0}
    for name, node in zip(aig.pi_names, aig.pi_nodes()):
        mapping[node] = new.add_pi(name)
    for node in aig.and_nodes():
        if node not in reachable:
            continue
        f0, f1 = aig.fanins(node)
        new_f0 = mapping[lit_node(f0)] ^ (f0 & 1)
        new_f1 = mapping[lit_node(f1)] ^ (f1 & 1)
        mapping[node] = new.and_gate(new_f0, new_f1)
    for name, literal in zip(aig.po_names, aig.po_literals):
        new.add_po(name, mapping[lit_node(literal)] ^ (literal & 1))
    return new
