"""Reference NPN enumerations: the parity oracles of ``repro.logic.npn``.

Production (:func:`repro.logic.npn.npn_canonical`) takes the minimum over a
function's whole NPN orbit with one vectorized numpy search.
:func:`npn_canonical_exhaustive` walks the same ``2 * n! * 2**n``
candidates one :class:`~repro.logic.truth_table.TruthTable` at a time, and
production must return the same canonical table.
:func:`enumerate_permutation_phase` and
:func:`all_input_permutation_phase_tables` enumerate every table reachable
by permuting and complementing a function's inputs (and optionally its
output), with the witnessing :class:`~repro.logic.npn.InputMatch`;
:func:`p_canonical` is the canonical form under input permutation only.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from repro.logic.npn import InputMatch
from repro.logic.truth_table import TruthTable


def enumerate_permutation_phase(
    table: TruthTable, include_output_negation: bool = False
) -> Iterator[tuple[TruthTable, InputMatch]]:
    """Yield every (table, match) pair reachable by permuting/complementing inputs.

    The ``match`` describes how to wire the *original* function's inputs so
    that it realizes the yielded table; this is exactly the information the
    technology mapper needs to instantiate a library cell for a matched cut.
    """
    n = table.num_vars
    seen_phase_tables: dict[int, TruthTable] = {}
    for phase in range(1 << n):
        seen_phase_tables[phase] = table.apply_phase(phase)
    for perm in permutations(range(n)):
        for phase, phased in seen_phase_tables.items():
            permuted = phased.permute_inputs(perm)
            match = InputMatch(tuple(perm), phase, False)
            yield permuted, match
            if include_output_negation:
                yield ~permuted, InputMatch(tuple(perm), phase, True)


def all_input_permutation_phase_tables(
    table: TruthTable, include_output_negation: bool = False
) -> dict[int, InputMatch]:
    """Map every reachable table's bit pattern to one witnessing match.

    When several permutation/phase combinations produce the same table, the
    first one found is kept (they are functionally interchangeable).
    """
    result: dict[int, InputMatch] = {}
    for reachable, match in enumerate_permutation_phase(
        table, include_output_negation=include_output_negation
    ):
        result.setdefault(reachable.bits, match)
    return result


def p_canonical(table: TruthTable) -> TruthTable:
    """Canonical representative under input permutation only."""
    best = table.bits
    for perm in permutations(range(table.num_vars)):
        candidate = table.permute_inputs(perm).bits
        if candidate < best:
            best = candidate
    return TruthTable(table.num_vars, best)


def npn_canonical_exhaustive(table: TruthTable) -> TruthTable:
    """Brute-force reference for :func:`~repro.logic.npn.npn_canonical`.

    Exhaustive search over ``2 * n! * 2**n`` candidates.
    """
    n = table.num_vars
    if n > 6:
        raise ValueError("npn_canonical is limited to 6 inputs")
    best: int | None = None
    for output_negated in (False, True):
        base = ~table if output_negated else table
        for phase in range(1 << n):
            phased = base.apply_phase(phase)
            for perm in permutations(range(n)):
                candidate = phased.permute_inputs(perm).bits
                if best is None or candidate < best:
                    best = candidate
    assert best is not None
    return TruthTable(n, best)
