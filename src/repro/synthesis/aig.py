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

from itertools import compress
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


class Aig:
    """A structurally hashed And-Inverter Graph.

    The graph lives in three flat lists indexed by node id: the two fanin
    literals (``-1`` for the constant node 0 and the primary inputs, whose
    ids interleave with the AND ids in creation order) and the level.  An
    AND node stores its fanins in canonical order (``fanin0 < fanin1``) and
    the structural-hash table maps ``(fanin0 << 32) | fanin1`` to its id.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Node 0 is the constant-false node.
        self._fanin0: list[AigLiteral] = [-1]
        self._fanin1: list[AigLiteral] = [-1]
        self._level: list[int] = [0]
        self._pi_names: list[str] = []
        self._pi_nodes: list[int] = []
        self._po_names: list[str] = []
        self._po_literals: list[AigLiteral] = []
        self._strash: dict[int, int] = {}

    # -- construction -------------------------------------------------------

    def add_pi(self, name: str) -> AigLiteral:
        """Add a primary input and return its (positive) literal."""
        if name in self._pi_names:
            raise ValueError(f"duplicate primary input name {name!r}")
        node = len(self._fanin0)
        self._fanin0.append(-1)
        self._fanin1.append(-1)
        self._level.append(0)
        self._pi_names.append(name)
        self._pi_nodes.append(node)
        return make_literal(node)

    def add_po(self, name: str, literal: AigLiteral) -> None:
        """Register a primary output driven by ``literal``."""
        if literal < 0 or lit_node(literal) >= len(self._fanin0):
            raise ValueError(f"literal {literal} does not exist")
        self._po_names.append(name)
        self._po_literals.append(literal)

    def and_gate(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        """AND of two literals with structural hashing and local simplification."""
        known = len(self._fanin0)
        if a < 0 or (a >> 1) >= known or b < 0 or (b >> 1) >= known:
            bad = a if (a < 0 or (a >> 1) >= known) else b
            raise ValueError(f"literal {bad} does not exist")
        return self.strash_and(a, b)

    def strash_and(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        """:meth:`and_gate` without the existence check: the one gate
        constructor, which the resynthesis passes call directly."""
        if a < 2 or b < 2:
            if a == 0 or b == 0:
                return CONST0
            return b if a == 1 else a
        if a == b:
            return a
        if a ^ 1 == b:
            return CONST0
        if a > b:
            a, b = b, a
        key = (a << 32) | b
        node = self._strash.get(key)
        if node is not None:
            return node << 1
        level = self._level
        level0 = level[a >> 1]
        level1 = level[b >> 1]
        fanin0 = self._fanin0
        node = len(fanin0)
        fanin0.append(a)
        self._fanin1.append(b)
        level.append((level0 if level0 >= level1 else level1) + 1)
        self._strash[key] = node
        return node << 1

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
        return len(self._fanin0)

    @property
    def num_ands(self) -> int:
        return len(self._fanin0) - 1 - len(self._pi_nodes)

    def pi_literal(self, name: str) -> AigLiteral:
        try:
            index = self._pi_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown primary input {name!r}") from exc
        return make_literal(self._pi_nodes[index])

    def is_pi(self, node: int) -> bool:
        return node != 0 and self._fanin0[node] == -1

    def is_and(self, node: int) -> bool:
        return self._fanin0[node] >= 0

    def fanins(self, node: int) -> tuple[AigLiteral, AigLiteral]:
        fanin0 = self._fanin0[node]
        if fanin0 < 0:
            raise ValueError(f"node {node} is not an AND node")
        return fanin0, self._fanin1[node]

    def level(self, node: int) -> int:
        return self._level[node]

    def literal_level(self, literal: AigLiteral) -> int:
        """Level of the node a literal refers to."""
        return self._level[lit_node(literal)]

    def depth(self) -> int:
        """Number of AND levels on the longest PI-to-PO path."""
        if not self._po_literals:
            return 0
        return max(self._level[lit_node(l)] for l in self._po_literals)

    def and_nodes(self) -> Iterable[int]:
        """AND node indices in topological (creation) order."""
        fanin0 = self._fanin0
        for node in range(1, len(fanin0)):
            if fanin0[node] >= 0:
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
        values = np.zeros((len(self._fanin0), num_words), dtype=np.uint64)
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

    def copy_inputs(self) -> tuple["Aig", list[AigLiteral]]:
        """A graph with this one's name and inputs but no gate, and the map.

        The inputs keep their order and take the ids ``1 .. num_pis``; the
        map gives every node here its literal there (``-1`` for the AND
        nodes, left to the caller).
        """
        new = Aig(self.name)
        count = 1 + len(self._pi_names)
        new._fanin0, new._fanin1, new._level = [-1] * count, [-1] * count, [0] * count
        new._pi_names = list(self._pi_names)
        new._pi_nodes = list(range(1, count))
        mapping = [-1] * len(self._fanin0)
        mapping[0] = CONST0
        for index, node in enumerate(self._pi_nodes, start=1):
            mapping[node] = index << 1
        return new, mapping

    def cleanup(self) -> "Aig":
        """Return a copy containing only the logic reachable from the outputs.

        Liveness is one descending sweep (fanins precede their node).  The
        copy then takes every primary input, in order, followed by the live
        AND nodes in creation order.  The remap keeps every input and is
        injective, so no node gains a constant or duplicated fanin, no two
        nodes meet in the structural hash and levels carry over; a node's
        fanins swap only where an input created after its other fanin, an
        AND node, now comes first.  The result is node for node the rebuild
        through :meth:`and_gate` that ``tests/oracles/aig.py`` keeps as the
        oracle.
        """
        fanin0 = self._fanin0
        fanin1 = self._fanin1
        level = self._level
        count = len(fanin0)
        live = bytearray(count)
        for literal in self._po_literals:
            live[literal >> 1] = 1
        for node in range(count - 1, 0, -1):
            if live[node] and fanin0[node] >= 0:
                live[fanin0[node] >> 1] = 1
                live[fanin1[node] >> 1] = 1

        new, mapping = self.copy_inputs()
        new_fanin0, new_fanin1, new_level = new._fanin0, new._fanin1, new._level
        strash = new._strash
        for node in compress(range(count), live):
            a = fanin0[node]
            if a < 0:
                continue
            b = fanin1[node]
            a = mapping[a >> 1] ^ (a & 1)
            b = mapping[b >> 1] ^ (b & 1)
            if a > b:
                a, b = b, a
            new_id = len(new_fanin0)
            new_fanin0.append(a)
            new_fanin1.append(b)
            new_level.append(level[node])
            strash[(a << 32) | b] = new_id
            mapping[node] = new_id << 1
        new._po_names = list(self._po_names)
        new._po_literals = [
            mapping[literal >> 1] ^ (literal & 1) for literal in self._po_literals
        ]
        return new

    def fanout_counts(self) -> dict[int, int]:
        """Number of references to every node (from AND fanins and POs)."""
        counts: dict[int, int] = {node: 0 for node in range(len(self._fanin0))}
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
