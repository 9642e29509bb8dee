"""Brute-force NPN canonicalization: the parity reference of ``npn_canonical``.

Production (:func:`repro.logic.npn.npn_canonical`) takes the minimum over a
function's whole NPN orbit with one vectorized numpy search.  The function
here walks the same ``2 * n! * 2**n`` candidates one
:class:`~repro.logic.truth_table.TruthTable` at a time.  Production must
return the same canonical table.
"""

from __future__ import annotations

from itertools import permutations

from repro.logic.truth_table import TruthTable


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
