"""And-Inverter Graph with structural hashing.

The AIG is the subject-graph representation used by the optimizer and the
technology mapper, mirroring the role it plays inside ABC.  Nodes are
two-input AND gates; edges carry an optional complementation.  A *literal*
encodes a node id and a complement bit as ``2 * node + complement``; node 0 is
the constant false, so literal 0 is constant-0 and literal 1 is constant-1.

Construction applies structural hashing and the usual one-level
simplifications (idempotence, annihilation, complement cancellation), so an
AIG built twice from the same structure shares nodes automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

AigLiteral = int

CONST0: AigLiteral = 0
CONST1: AigLiteral = 1


def lit_complement(literal: AigLiteral) -> AigLiteral:
    """Complement a literal."""
    return literal ^ 1


def lit_node(literal: AigLiteral) -> int:
    """Node index of a literal."""
    return literal >> 1


def lit_is_complemented(literal: AigLiteral) -> bool:
    return bool(literal & 1)


def make_literal(node: int, complemented: bool = False) -> AigLiteral:
    return (node << 1) | int(complemented)


@dataclass(slots=True)
class _Node:
    """One AIG node.  Primary inputs have ``fanin0 == fanin1 == -1``."""

    fanin0: AigLiteral
    fanin1: AigLiteral
    level: int


class Aig:
    """A structurally hashed And-Inverter Graph."""

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Node 0 is the constant-false node.
        self._nodes: list[_Node] = [_Node(-1, -1, 0)]
        self._pi_names: list[str] = []
        self._pi_nodes: list[int] = []
        self._po_names: list[str] = []
        self._po_literals: list[AigLiteral] = []
        self._strash: dict[tuple[AigLiteral, AigLiteral], int] = {}

    # -- construction -------------------------------------------------------

    def add_pi(self, name: str) -> AigLiteral:
        """Add a primary input and return its (positive) literal."""
        if name in self._pi_names:
            raise ValueError(f"duplicate primary input name {name!r}")
        node = len(self._nodes)
        self._nodes.append(_Node(-1, -1, 0))
        self._pi_names.append(name)
        self._pi_nodes.append(node)
        return make_literal(node)

    def add_po(self, name: str, literal: AigLiteral) -> None:
        """Register a primary output driven by ``literal``."""
        if literal < 0 or lit_node(literal) >= len(self._nodes):
            raise ValueError(f"literal {literal} does not exist")
        self._po_names.append(name)
        self._po_literals.append(literal)

    def and_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        """AND of two literals with structural hashing and local simplification."""
        nodes = self._nodes
        known = len(nodes)
        if a < 0 or (a >> 1) >= known or b < 0 or (b >> 1) >= known:
            bad = a if (a < 0 or (a >> 1) >= known) else b
            raise ValueError(f"literal {bad} does not exist")
        # Local simplifications.
        if a == CONST0 or b == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        if a ^ 1 == b:
            return CONST0
        # Canonical order for hashing.
        if a > b:
            a, b = b, a
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return existing << 1
        level0 = nodes[a >> 1].level
        level1 = nodes[b >> 1].level
        nodes.append(_Node(a, b, (level0 if level0 >= level1 else level1) + 1))
        self._strash[key] = known
        return known << 1

    def not_gate(self, a: AigLiteral) -> AigLiteral:
        return lit_complement(a)

    def or_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return lit_complement(self.and_gate(lit_complement(a), lit_complement(b)))

    def nand_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return lit_complement(self.and_gate(a, b))

    def nor_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return self.and_gate(lit_complement(a), lit_complement(b))

    def xor_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return self.or_gate(
            self.and_gate(a, lit_complement(b)), self.and_gate(lit_complement(a), b)
        )

    def xnor_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return lit_complement(self.xor_gate(a, b))

    def mux_gate(self, select: AigLiteral, when_true: AigLiteral, when_false: AigLiteral) -> AigLiteral:
        return self.or_gate(
            self.and_gate(select, when_true),
            self.and_gate(lit_complement(select), when_false),
        )

    def and_many(self, literals: Sequence[AigLiteral]) -> AigLiteral:
        """Balanced AND of an arbitrary number of literals."""
        items = list(literals)
        if not items:
            return CONST1
        while len(items) > 1:
            items = [
                self.and_gate(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
                for i in range(0, len(items), 2)
            ]
        return items[0]

    def or_many(self, literals: Sequence[AigLiteral]) -> AigLiteral:
        return lit_complement(self.and_many([lit_complement(l) for l in literals]))

    def xor_many(self, literals: Sequence[AigLiteral]) -> AigLiteral:
        result = CONST0
        for literal in literals:
            result = self.xor_gate(result, literal)
        return result

    # -- inspection -----------------------------------------------------------

    @property
    def pi_names(self) -> tuple[str, ...]:
        return tuple(self._pi_names)

    @property
    def po_names(self) -> tuple[str, ...]:
        return tuple(self._po_names)

    @property
    def po_literals(self) -> tuple[AigLiteral, ...]:
        return tuple(self._po_literals)

    @property
    def num_pis(self) -> int:
        return len(self._pi_nodes)

    @property
    def num_pos(self) -> int:
        return len(self._po_literals)

    @property
    def num_nodes(self) -> int:
        """Total node count including the constant and the primary inputs."""
        return len(self._nodes)

    @property
    def num_ands(self) -> int:
        return len(self._nodes) - 1 - len(self._pi_nodes)

    def pi_literal(self, name: str) -> AigLiteral:
        try:
            index = self._pi_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown primary input {name!r}") from exc
        return make_literal(self._pi_nodes[index])

    def is_pi(self, node: int) -> bool:
        return node in set(self._pi_nodes) if False else self._nodes[node].fanin0 == -1 and node != 0

    def is_and(self, node: int) -> bool:
        return self._nodes[node].fanin0 >= 0

    def fanins(self, node: int) -> tuple[AigLiteral, AigLiteral]:
        data = self._nodes[node]
        if data.fanin0 < 0:
            raise ValueError(f"node {node} is not an AND node")
        return data.fanin0, data.fanin1

    def level(self, node: int) -> int:
        return self._nodes[node].level

    def literal_level(self, literal: AigLiteral) -> int:
        """Level of the node a literal refers to."""
        return self._nodes[lit_node(literal)].level

    def depth(self) -> int:
        """Number of AND levels on the longest PI-to-PO path."""
        if not self._po_literals:
            return 0
        return max(self._nodes[lit_node(l)].level for l in self._po_literals)

    def and_nodes(self) -> Iterable[int]:
        """AND node indices in topological (creation) order."""
        for node in range(1, len(self._nodes)):
            if self.is_and(node):
                yield node

    def pi_nodes(self) -> tuple[int, ...]:
        return tuple(self._pi_nodes)

    # -- simulation ------------------------------------------------------------

    def simulate_words(self, pi_words: dict[str, list[int]]) -> dict[str, list[int]]:
        """64-bit packed simulation; returns one word list per primary output.

        Runs on the array-backed view (:mod:`repro.synthesis.aig_array`): all
        nodes of one AND-level are evaluated with a single batched uint64
        gather/AND, so simulation cost is dominated by the number of levels
        rather than the number of nodes.
        """
        import numpy as np

        from repro.synthesis.aig_array import aig_arrays

        if set(pi_words) != set(self._pi_names):
            missing = set(self._pi_names) - set(pi_words)
            extra = set(pi_words) - set(self._pi_names)
            raise ValueError(f"pattern mismatch (missing {missing}, extra {extra})")
        num_words = len(next(iter(pi_words.values()))) if pi_words else 1
        mask = (1 << 64) - 1
        arrays = aig_arrays(self)
        values = np.zeros((len(self._nodes), num_words), dtype=np.uint64)
        for name, node in zip(self._pi_names, self._pi_nodes):
            words = pi_words[name]
            if len(words) != num_words:
                raise ValueError("all inputs must provide the same number of words")
            values[node] = np.fromiter(
                (w & mask for w in words), dtype=np.uint64, count=num_words
            )

        for group in arrays.level_groups:
            fanin0 = arrays.fanin0[group]
            fanin1 = arrays.fanin1[group]
            words0 = values[fanin0 >> 1]
            words1 = values[fanin1 >> 1]
            complement0 = ((fanin0 & 1) == 1)[:, None]
            complement1 = ((fanin1 & 1) == 1)[:, None]
            values[group] = np.where(complement0, ~words0, words0) & np.where(
                complement1, ~words1, words1
            )

        result: dict[str, list[int]] = {}
        for name, literal in zip(self._po_names, self._po_literals):
            row = values[lit_node(literal)]
            if lit_is_complemented(literal):
                row = ~row
            result[name] = [int(word) for word in row]
        return result

    def evaluate(self, assignment: dict[str, bool]) -> dict[str, bool]:
        """Single-pattern evaluation (convenience wrapper over word simulation)."""
        words = {name: [1 if assignment[name] else 0] for name in self._pi_names}
        result = self.simulate_words(words)
        return {name: bool(values[0] & 1) for name, values in result.items()}

    # -- restructuring -----------------------------------------------------------

    def cleanup(self) -> "Aig":
        """Return a copy containing only the logic reachable from the outputs.

        Runs on the array-backed view: reachability is a batched backward
        sweep over the level groups and the surviving nodes are compacted
        directly (old node order, canonical fanin order and levels are all
        preserved).  No node has a constant or duplicated fanin -- neither
        :meth:`and_gate` nor the passes' graph builder emits one -- so no
        simplification could fire on a rebuild, and the result is node for
        node the rebuild through :meth:`and_gate` that
        ``tests/oracles/aig.py`` keeps as the oracle.
        """
        import numpy as np

        from repro.synthesis.aig_array import aig_arrays

        arrays = aig_arrays(self)
        and_nodes = arrays.and_nodes
        reachable = np.zeros(arrays.num_nodes, dtype=bool)
        if arrays.po_literals.size:
            reachable[arrays.po_literals >> 1] = True
        for group in reversed(arrays.level_groups):
            live = group[reachable[group]]
            if live.size == 0:
                continue
            reachable[arrays.fanin0[live] >> 1] = True
            reachable[arrays.fanin1[live] >> 1] = True

        new = Aig(self.name)
        mapping = np.zeros(arrays.num_nodes, dtype=np.int64)
        for name, node in zip(self._pi_names, self._pi_nodes):
            mapping[node] = new.add_pi(name)
        live_ands = and_nodes[reachable[and_nodes]]
        base = len(new._nodes)
        mapping[live_ands] = np.arange(base, base + live_ands.size) << 1
        fanin0 = arrays.fanin0[live_ands]
        fanin1 = arrays.fanin1[live_ands]
        new_f0 = mapping[fanin0 >> 1] ^ (fanin0 & 1)
        new_f1 = mapping[fanin1 >> 1] ^ (fanin1 & 1)
        lo = np.minimum(new_f0, new_f1)
        hi = np.maximum(new_f0, new_f1)
        nodes = new._nodes
        strash = new._strash
        for node_id, (low, high, level) in enumerate(
            zip(lo.tolist(), hi.tolist(), arrays.level[live_ands].tolist()),
            start=base,
        ):
            nodes.append(_Node(low, high, level))
            strash[(low, high)] = node_id
        mapping_list = mapping.tolist()
        for name, literal in zip(self._po_names, self._po_literals):
            new.add_po(name, mapping_list[literal >> 1] ^ (literal & 1))
        return new

    def fanout_counts(self) -> dict[int, int]:
        """Number of references to every node (from AND fanins and POs)."""
        counts: dict[int, int] = {node: 0 for node in range(len(self._nodes))}
        for node in self.and_nodes():
            f0, f1 = self.fanins(node)
            counts[lit_node(f0)] += 1
            counts[lit_node(f1)] += 1
        for literal in self._po_literals:
            counts[lit_node(literal)] += 1
        return counts

    def statistics(self) -> dict[str, int]:
        return {
            "pis": self.num_pis,
            "pos": self.num_pos,
            "ands": self.num_ands,
            "depth": self.depth(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.statistics()
        return (
            f"Aig({self.name!r}, pis={stats['pis']}, pos={stats['pos']}, "
            f"ands={stats['ands']}, depth={stats['depth']})"
        )
