"""Scalar Boolean matching: the parity reference of the batched matcher.

Production (:meth:`repro.synthesis.matcher.LibraryMatcher.match_table` and
:meth:`~repro.synthesis.matcher.LibraryMatcher.match_positions_batch`)
resolves whole columns of cut functions against the NPN-canonical index at
once.  The functions here resolve one function per call, the way matching
worked before that: project the table onto its true support, canonicalize it
with :func:`~repro.logic.npn.canonicalize_bits`, look the class up and
compose the pin transform (:func:`match`, :func:`match_positions`,
:func:`match_reduced`).  They accept a :class:`LibraryMatcher` -- reading
its ``_by_area``/``_by_delay`` index -- or an
:class:`ExhaustiveLibraryMatcher`, the original matcher that pre-expands
every permutation/phase variant of every cell and matches by one dictionary
lookup on the raw table.  Production must reproduce the scalar results
exactly: the same cell object and the tuple-equal :class:`InputMatch`.

Results are memoized per matcher (:func:`cache_clear` drops them), so the
per-candidate oracle mapper stays as fast as the memoized methods were.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import permutations

import numpy as np

from repro.core.library import GateLibrary
from repro.logic.npn import (
    InputMatch,
    canonicalize_bits,
    compose_matches,
    invert_match,
)
from repro.synthesis.cuts import table_support
from repro.synthesis.matcher import CellMatch, _area_order, _delay_order

_ALL_POSITIONS = tuple(tuple(range(n)) for n in range(8))


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


class ExhaustiveLibraryMatcher:
    """Pre-computed permutation/phase match tables for one library.

    The original (reference) matcher: every reachable truth table of every
    cell is materialized in a dictionary keyed by ``(arity, raw bits)``, so
    matching is a single lookup but construction enumerates up to
    ``2 * n! * 2**n`` variants per cell.
    """

    def __init__(self, library: GateLibrary, allow_output_negation: bool = True) -> None:
        self.library = library
        self.allow_output_negation = allow_output_negation
        self._by_area: dict[tuple[int, int], CellMatch] = {}
        self._by_delay: dict[tuple[int, int], CellMatch] = {}
        self._build(allow_output_negation)

    def _build(self, allow_output_negation: bool) -> None:
        for cell in self.library.cells:
            tables = _fast_permutation_phase_tables(
                cell.function.bits, cell.arity, allow_output_negation
            )
            for bits, match in tables.items():
                key = (cell.arity, bits)
                candidate = CellMatch(cell, match)
                best_area = self._by_area.get(key)
                if best_area is None or _area_order(candidate) < _area_order(best_area):
                    self._by_area[key] = candidate
                best_delay = self._by_delay.get(key)
                if best_delay is None or _delay_order(candidate) < _delay_order(
                    best_delay
                ):
                    self._by_delay[key] = candidate

    def __len__(self) -> int:
        """Number of stored index entries (one per reachable raw table)."""
        return len(self._by_area)


def _fast_permutation_phase_tables(
    bits: int, num_vars: int, include_output_negation: bool
) -> dict[int, InputMatch]:
    """Vectorized equivalent of :func:`tests.oracles.npn.all_input_permutation_phase_tables`.

    Enumerates every table reachable by permuting and complementing inputs
    (and optionally complementing the output) using numpy gathers, which keeps
    matcher construction fast even for the six-input cells (46k variants
    each).  The returned matches carry the same semantics as the reference
    implementation (verified by the matcher unit tests).
    """
    size = 1 << num_vars
    column = np.fromiter(((bits >> i) & 1 for i in range(size)), dtype=np.uint8, count=size)
    indices = np.arange(size, dtype=np.int64)
    phases = np.arange(size, dtype=np.int64)
    result: dict[int, InputMatch] = {}

    for perm in permutations(range(num_vars)):
        sigma = np.zeros(size, dtype=np.int64)
        for new_position, old_position in enumerate(perm):
            sigma |= ((indices >> new_position) & 1) << old_position
        gathered = column[np.bitwise_xor.outer(phases, sigma)]
        packed = np.packbits(gathered, axis=1, bitorder="little")
        for phase in range(size):
            table_bits = int.from_bytes(packed[phase].tobytes(), "little")
            result.setdefault(table_bits, InputMatch(tuple(perm), phase, False))
            if include_output_negation:
                negated = table_bits ^ ((1 << size) - 1)
                result.setdefault(negated, InputMatch(tuple(perm), phase, True))
    return result


#: Per-matcher memos: ``{"match": {...}, "positions": {...}}``.
_MEMOS: "weakref.WeakKeyDictionary[object, dict[str, dict]]" = (
    weakref.WeakKeyDictionary()
)


def _memo(matcher, kind: str) -> dict:
    memos = _MEMOS.get(matcher)
    if memos is None:
        memos = _MEMOS[matcher] = {"match": {}, "positions": {}}
    return memos[kind]


def cache_clear(matcher) -> None:
    """Drop a matcher's scalar match memos (cold-start hook)."""
    _MEMOS.pop(matcher, None)


def match(
    matcher, num_leaves: int, table_bits: int, prefer: str = "delay"
) -> CellMatch | None:
    """The best cell realizing a full-support cut function, or ``None``.

    On an :class:`ExhaustiveLibraryMatcher` this is one lookup of the raw
    table.  On a :class:`~repro.synthesis.matcher.LibraryMatcher` the
    function is canonicalized to its class with transform ``t_cut`` and the
    pin assignment is ``compose_matches(t_cell, invert_match(t_cut))``, i.e.
    cell -> canonical -> cut.
    """
    memo = _memo(matcher, "match")
    memo_key = (num_leaves, table_bits, prefer)
    try:
        return memo[memo_key]
    except KeyError:
        pass
    table = matcher._by_delay if prefer == "delay" else matcher._by_area
    if isinstance(matcher, ExhaustiveLibraryMatcher):
        result = table.get((num_leaves, table_bits))
    else:
        canon_bits, perm, phase, negated = canonicalize_bits(
            table_bits, num_leaves, matcher.allow_output_negation
        )
        entry = table.get((num_leaves, canon_bits))
        result = None
        if entry is not None:
            t_cut = InputMatch(perm, phase, negated)
            result = CellMatch(
                entry.cell, compose_matches(entry.match, invert_match(t_cut))
            )
    memo[memo_key] = result
    return result


def match_positions(
    matcher,
    num_leaves: int,
    table_bits: int,
    prefer: str = "delay",
    support_mask: int | None = None,
) -> tuple[CellMatch, tuple[int, ...], int] | None:
    """Match a cut function after projecting it onto its true support.

    Returns the match, the leaf *positions* (indices into the cut's leaf
    tuple) the matched table reads, and the reduced table bits -- or
    ``None`` when the function is constant or no cell matches.  The result
    depends only on ``(num_leaves, table_bits, prefer)``, so it is memoized
    per matcher.
    """
    memo = _memo(matcher, "positions")
    memo_key = (num_leaves, table_bits, prefer)
    try:
        return memo[memo_key]
    except KeyError:
        pass
    if support_mask is None:
        support_mask = table_support(table_bits, num_leaves)
    result: tuple[CellMatch, tuple[int, ...], int] | None = None
    if support_mask == 0:
        pass
    elif support_mask == (1 << num_leaves) - 1:
        found = match(matcher, num_leaves, table_bits, prefer)
        if found is not None:
            result = (found, _ALL_POSITIONS[num_leaves], table_bits)
    else:
        reduced_bits = project_table(table_bits, num_leaves, support_mask)
        support = tuple(p for p in range(num_leaves) if (support_mask >> p) & 1)
        found = match(matcher, len(support), reduced_bits, prefer)
        if found is not None:
            result = (found, support, reduced_bits)
    memo[memo_key] = result
    return result


def match_reduced(
    matcher,
    leaves: tuple[int, ...],
    table_bits: int,
    prefer: str = "delay",
    support_mask: int | None = None,
) -> tuple[CellMatch, tuple[int, ...], int] | None:
    """Match a cut after projecting its function onto its true support.

    Returns the match, the reduced leaf tuple (in the order seen by the
    matched table) and the reduced table bits, or ``None`` when no cell
    matches.  Thin wrapper over :func:`match_positions`.
    """
    found = match_positions(
        matcher, len(leaves), table_bits, prefer=prefer, support_mask=support_mask
    )
    if found is None:
        return None
    cell_match, positions, reduced_bits = found
    return cell_match, tuple(leaves[p] for p in positions), reduced_bits
