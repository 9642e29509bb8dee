"""Boolean matching of cut functions against a gate library.

:class:`LibraryMatcher` is the **NPN-canonical index** of one library.
Every library cell is canonicalized once
(:func:`repro.logic.npn.canonicalize_bits`) and the index stores a single
entry per ``(arity, canonical class)``: the best cell of the class by area
and by delay, with the cell's canonicalizing transform.  Matching is
batched over columns of cut functions:

* :meth:`LibraryMatcher.match_table` resolves every distinct function of a
  :class:`~repro.synthesis.cuts.CutSet` (its :class:`CutFunctionTable`) --
  the path the mapper takes;
* :meth:`LibraryMatcher.match_positions_batch` resolves raw ``(size,
  table)`` arrays the same way.

Each function is projected onto its true support, filtered by an exact NPN
signature, canonicalized only when a class of its arity carries that
signature, looked up with ``np.searchsorted`` and given the pin assignment
``compose_matches(t_cell, invert_match(t_cut))`` (cell -> canonical -> cut),
composed column-wise.  The scalar one-function-at-a-time matcher and the
exhaustive permutation/phase tables it replaced are the parity oracles in
``tests/oracles/matcher.py``.

Ties between equally good cells resolve by a stable ``(cost, cell name)``
order, so the selected cell -- and therefore every downstream artifact -- is
bit-identical across runs and hash seeds.

The input/output phase freedom models the paper's statement that the mapping
tool is aware of the extra gates obtained by swapping the signal polarities at
the transmission gates, and the fact that every cell carries an output
inverter providing both output polarities (Sec. 3.1 and 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.cell import LibraryCell
from repro.core.library import GateLibrary
from repro.logic.npn import (
    InputMatch,
    canonicalize_bits,
    canonicalize_bits_batch_columns,
)
from repro.synthesis.cut_kernels import (
    distinct_keys,
    npn_signature_batch,
    project_table_batch,
    support_positions,
    table_support_batch,
)


@dataclass(frozen=True)
class CellMatch:
    """A library cell together with the pin assignment realizing a cut function."""

    cell: LibraryCell
    match: InputMatch

    @property
    def area(self) -> float:
        return self.cell.area

    @property
    def delay(self) -> float:
        return self.cell.delay.fo4_average


def _area_order(candidate: CellMatch) -> tuple[float, float, str]:
    """Stable total order for area-optimal selection (ties -> cell name)."""
    return (candidate.area, candidate.delay, candidate.cell.name)


def _delay_order(candidate: CellMatch) -> tuple[float, float, str]:
    """Stable total order for delay-optimal selection (ties -> cell name)."""
    return (candidate.delay, candidate.area, candidate.cell.name)


@dataclass(frozen=True)
class CutFunctionTable:
    """Distinct ranked-cut functions of a :class:`~repro.synthesis.cuts.CutSet`.

    The library-independent half of the batched matching pipeline: the
    flattened ranked cuts (nodes ascending, slot order per node, trivial cut
    excluded -- the same flattening the mapper uses) deduplicated to their
    distinct ``(size, table)`` functions, each with its support positions,
    support-projected table and exact NPN signature
    (:func:`~repro.synthesis.cut_kernels.npn_signature_batch` of the reduced
    function).  ``inverse`` maps every flattened row back onto its distinct
    id.  Nothing here depends on a library or on the output-negation flag:
    each matcher canonicalizes only the rows whose signature its index
    holds.  Shared by every (matcher, policy) pair of a mapping call and
    memoized on the cut set.
    """

    inverse: np.ndarray  #: (rows,) int64 flattened ranked cut -> distinct id
    sizes: np.ndarray  #: (d,) int64 cut arity
    tables: np.ndarray  #: (d,) uint64 raw cut function
    support: np.ndarray  #: (d,) uint8 true-support mask
    width: np.ndarray  #: (d,) int64 reduced arity (popcount of support)
    positions: np.ndarray  #: (d, 6) int64 support positions, zero-padded
    reduced: np.ndarray  #: (d,) uint64 support-projected table
    signature: np.ndarray  #: (d,) int64 NPN signature of the reduced table

    @property
    def num_distinct(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def num_rows(self) -> int:
        return int(self.inverse.shape[0])


@dataclass(frozen=True)
class MatchTable:
    """Columnar match results over the distinct functions of a cut set.

    One row per distinct ``(size, table)`` cut function (aligned with the
    :class:`CutFunctionTable` that produced it); ``inverse`` scatters the
    rows back onto the flattened ranked cuts.  ``matches`` holds one
    materialized :class:`CellMatch` per *matched* row (in row order) and
    ``match_index`` maps rows onto it (``-1`` when unmatched).  The cell
    figures of the matches are resolved once per candidate table by the
    mapper (:class:`~repro.synthesis.mapper.MatchFigures`).
    """

    inverse: np.ndarray  #: (rows,) int64 flattened ranked cut -> row
    matched: np.ndarray  #: (d,) bool
    positions: np.ndarray  #: (d, 6) int64 support positions, zero-padded
    width: np.ndarray  #: (d,) int64 reduced arity
    reduced: np.ndarray  #: (d,) uint64 support-projected table
    match_index: np.ndarray  #: (d,) int64 index into ``matches`` (-1 unmatched)
    matches: list[CellMatch]


def _flatten_ranked_cuts(cut_set, and_nodes) -> tuple[np.ndarray, np.ndarray]:
    """The valid ``(node, slot)`` pairs of the ranked (non-trivial) cuts,
    flattened exactly as the mapper's candidate-table build flattens them."""
    per_node = cut_set.count[and_nodes] - 1
    total = int(per_node.sum())
    nodes_rep = np.repeat(and_nodes, per_node)
    starts = np.concatenate(([0], np.cumsum(per_node)[:-1]))
    slots = np.arange(total) - np.repeat(starts, per_node)
    return nodes_rep, slots


def build_function_table(
    sizes: np.ndarray,
    tables: np.ndarray,
    supports: np.ndarray,
    inverse: np.ndarray,
) -> CutFunctionTable:
    """Assemble a :class:`CutFunctionTable` from distinct-function columns.

    Projects every table onto its support mask
    (:func:`~repro.synthesis.cut_kernels.project_table_batch`) and signs the
    projected function at its reduced arity.  No function is canonicalized
    here: :meth:`LibraryMatcher.match_table` canonicalizes, per matcher,
    only the rows whose signature can match.
    """
    positions, width = support_positions(supports)
    reduced = project_table_batch(tables, supports)
    return CutFunctionTable(
        inverse=inverse.astype(np.int64),
        sizes=sizes.astype(np.int64),
        tables=tables.astype(np.uint64),
        support=supports.astype(np.uint8),
        width=width,
        positions=positions,
        reduced=reduced,
        signature=npn_signature_batch(reduced, width),
    )


def cut_function_table(cut_set, and_nodes) -> CutFunctionTable:
    """The (memoized) distinct-function table of a cut set.

    Deduplicates the ranked cut functions by ``(size, table)``
    (:func:`distinct_keys`), then projects and signs only the distinct rows
    (:func:`build_function_table`).  Memoized on the cut set -- every
    library/policy pair of a mapping call shares one table.
    """
    cached = cut_set.__dict__.get("_function_table")
    if cached is not None:
        return cached
    nodes_rep, slots = _flatten_ranked_cuts(cut_set, and_nodes)
    first, inverse = distinct_keys(
        cut_set.size[nodes_rep, slots], cut_set.table[nodes_rep, slots]
    )
    nodes_rep, slots = nodes_rep[first], slots[first]
    table = build_function_table(
        cut_set.size[nodes_rep, slots],
        cut_set.table[nodes_rep, slots],
        cut_set.support[nodes_rep, slots],
        inverse,
    )
    object.__setattr__(cut_set, "_function_table", table)
    return table


class LibraryMatcher:
    """NPN-canonical match index for one library.

    The index stores, per ``(arity, canonical table)``, the best cell of the
    class by area and by delay together with the cell's canonicalizing
    transform ``t_cell`` (``apply_match(cell.function, t_cell) ==
    canonical``).  At match time the cut function is canonicalized to the
    same form with transform ``t_cut`` and the returned pin assignment is
    ``compose_matches(t_cell, invert_match(t_cut))``, i.e. cell -> canonical
    -> cut.  ``_by_area``/``_by_delay`` hold the index as dictionaries; the
    batched resolution reads their sorted columnar form
    (:meth:`_batch_index`).
    """

    def __init__(self, library: GateLibrary, allow_output_negation: bool = True) -> None:
        self.library = library
        self.allow_output_negation = allow_output_negation
        self._by_area: dict[tuple[int, int], CellMatch] = {}
        self._by_delay: dict[tuple[int, int], CellMatch] = {}
        self._build(allow_output_negation)

    def _build(self, allow_output_negation: bool) -> None:
        for cell in self.library.cells:
            canon_bits, perm, phase, negated = canonicalize_bits(
                cell.function.bits, cell.arity, allow_output_negation
            )
            key = (cell.arity, canon_bits)
            candidate = CellMatch(cell, InputMatch(perm, phase, negated))
            best_area = self._by_area.get(key)
            if best_area is None or _area_order(candidate) < _area_order(best_area):
                self._by_area[key] = candidate
            best_delay = self._by_delay.get(key)
            if best_delay is None or _delay_order(candidate) < _delay_order(best_delay):
                self._by_delay[key] = candidate

    def __len__(self) -> int:
        """Number of stored index entries (one per matched canonical class)."""
        return len(self._by_area)

    def _batch_index(self) -> dict[str, dict[int, "_ArityIndex"]]:
        """The per-policy, per-arity sorted canonical-key index (built once).

        For every stored canonical class the index keeps the class key, the
        best cell's canonicalizing transform as columns and its cost model
        (FO4 delay, area, parasitic, effort) -- everything the batched match
        resolution needs without touching cell objects per cut.
        """
        index = self.__dict__.get("_batch_index_cache")
        if index is None:
            index = {
                "delay": _build_arity_index(self._by_delay),
                "area": _build_arity_index(self._by_area),
            }
            self.__dict__["_batch_index_cache"] = index
        return index

    def _resolve_function_table(
        self, functions: CutFunctionTable, prefer: str
    ) -> tuple[MatchTable, int]:
        """Resolve every distinct cut function against the canonical index.

        Per reduced arity, only the rows whose NPN signature one of the
        index's classes carries are canonicalized
        (:func:`~repro.logic.npn.canonicalize_bits_batch_columns`); any other
        row provably matches no class.  One ``np.searchsorted`` then finds
        each canonicalized row's class, and the returned pin assignments
        are the vectorized equivalent of ``compose_matches(entry.match,
        invert_match(t_cut))``.  :class:`CellMatch` objects are materialized
        only for matched rows, in row order.  Returns the table and the
        number of rows canonicalized.
        """
        per_arity = self._batch_index()[prefer if prefer == "delay" else "area"]
        count = functions.num_distinct
        matched = np.zeros(count, dtype=bool)
        entry_rows = np.zeros(count, dtype=np.int64)
        comp_perm = np.zeros((count, 6), dtype=np.int64)
        comp_phase = np.zeros(count, dtype=np.int64)
        comp_neg = np.zeros(count, dtype=bool)
        canonicalized = 0

        for arity, arity_index in per_arity.items():
            group = np.nonzero(functions.width == arity)[0]
            _, known = _sorted_lookup(
                arity_index.signatures, functions.signature[group]
            )
            group = group[known]
            if group.size == 0:
                continue
            canonicalized += int(group.size)
            keys, cut_perm, cut_phase, cut_negated = canonicalize_bits_batch_columns(
                functions.reduced[group], arity, self.allow_output_negation
            )
            slot, hit = _sorted_lookup(arity_index.keys, keys)
            if not hit.any():
                continue
            rows = group[hit]
            entries = slot[hit]
            matched[rows] = True
            entry_rows[rows] = entries

            # compose_matches(entry.match, invert_match(t_cut)), vectorized:
            # invert the cut transform (inverse perm by argsort, phase bits
            # gathered through the perm), then chain entry's perm/phase.
            cut_perm = cut_perm[hit].astype(np.int64)
            cut_phase = cut_phase[hit].astype(np.int64)
            entry_perm = arity_index.perm[entries, :arity].astype(np.int64)
            entry_phase = arity_index.phase[entries].astype(np.int64)
            inv_perm = np.argsort(cut_perm, axis=1)
            inv_phase_bits = (cut_phase[:, None] >> cut_perm) & 1
            comp_perm[rows, :arity] = np.take_along_axis(
                entry_perm, inv_perm, axis=1
            )
            comp_phase[rows] = entry_phase ^ (inv_phase_bits << entry_perm).sum(
                axis=1
            )
            comp_neg[rows] = arity_index.negated[entries] ^ cut_negated[hit]

        matched_rows = np.nonzero(matched)[0]
        match_index = np.full(count, -1, dtype=np.int64)
        match_index[matched_rows] = np.arange(matched_rows.shape[0])
        matches: list[CellMatch] = []
        perm_list = comp_perm[matched_rows].tolist()
        phase_list = comp_phase[matched_rows].tolist()
        neg_list = comp_neg[matched_rows].tolist()
        width_list = functions.width[matched_rows].tolist()
        for local, row in enumerate(matched_rows.tolist()):
            width = width_list[local]
            cell = per_arity[width].cells[int(entry_rows[row])]
            transform = InputMatch(
                tuple(perm_list[local][:width]),
                phase_list[local],
                bool(neg_list[local]),
            )
            matches.append(CellMatch(cell, transform))
        table = MatchTable(
            inverse=functions.inverse,
            matched=matched,
            positions=functions.positions,
            width=functions.width,
            reduced=functions.reduced,
            match_index=match_index,
            matches=matches,
        )
        return table, canonicalized

    def match_positions_batch(
        self,
        sizes: np.ndarray,
        tables: np.ndarray,
        prefer: str = "delay",
        support_masks: np.ndarray | None = None,
    ) -> MatchTable:
        """Match raw ``(size, table)`` arrays, each on its true support.

        Computes supports, projected tables and signatures with the batch
        kernels and resolves the canonical index in one vectorized pass.
        Row ``i`` of the returned :class:`MatchTable` corresponds to input
        row ``i`` (``inverse`` is the identity): whether it matched, the
        cell match, the leaf positions the matched table reads and the
        reduced table bits.  A constant function matches nothing.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        tables = np.asarray(tables, dtype=np.uint64)
        if support_masks is None:
            support_masks = table_support_batch(tables, sizes)
        else:
            support_masks = np.asarray(support_masks, dtype=np.uint8)
        inverse = np.arange(sizes.shape[0], dtype=np.int64)
        functions = build_function_table(sizes, tables, support_masks, inverse)
        return self._resolve_function_table(functions, prefer)[0]

    def match_table(self, cut_set, and_nodes, prefer: str = "delay") -> MatchTable:
        """The (memoized) :class:`MatchTable` of a cut set under one policy.

        Builds (or reuses) the cut set's :func:`cut_function_table` and
        resolves it against this matcher's canonical index, canonicalizing
        only the functions whose signature the index holds.  Memoized on
        the cut set next to the candidate tables, so repeated mapping rounds
        and co-resident policies never re-resolve.  Counts
        ``match.batch_rows``, ``match.unique_functions``,
        ``match.canonicalized`` and ``match.index_hits`` under a
        ``match-batch`` span carrying the same figures.
        """
        memo = cut_set.__dict__.get("_match_tables")
        if memo is None:
            memo = {}
            object.__setattr__(cut_set, "_match_tables", memo)
        key = ("match", id(self), prefer)
        cached = memo.get(key)
        if cached is not None:
            return cached
        with obs.span(
            "match-batch", category="synthesis",
            library=self.library.name, prefer=prefer,
        ) as span:
            functions = cut_function_table(cut_set, and_nodes)
            table, canonicalized = self._resolve_function_table(functions, prefer)
            hits = int(table.matched.sum())
            obs.count("match.batch_rows", functions.num_rows)
            obs.count("match.unique_functions", functions.num_distinct)
            obs.count("match.canonicalized", canonicalized)
            obs.count("match.index_hits", hits)
            span.set("rows", functions.num_rows)
            span.set("unique_functions", functions.num_distinct)
            span.set("canonicalized", canonicalized)
            span.set("index_hits", hits)
        memo[key] = table
        return table


@dataclass(frozen=True)
class _ArityIndex:
    """One arity's slice of the batched canonical index (sorted by key)."""

    keys: np.ndarray  #: (m,) uint64 canonical bits, ascending
    signatures: np.ndarray  #: (m,) int64 NPN signatures of the classes, ascending
    perm: np.ndarray  #: (m, 6) int8 cell canonicalizing permutation
    phase: np.ndarray  #: (m,) int16 cell canonicalizing phase
    negated: np.ndarray  #: (m,) bool cell canonicalizing output negation
    cells: list[LibraryCell]


def _sorted_lookup(
    sorted_keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slot of every value in an ascending key array, and whether the key
    there equals it."""
    slot = np.searchsorted(sorted_keys, values)
    slot = np.minimum(slot, sorted_keys.shape[0] - 1)
    return slot, sorted_keys[slot] == values


def _build_arity_index(
    table: dict[tuple[int, int], CellMatch]
) -> dict[int, _ArityIndex]:
    """Columnar per-arity index over one best-cell dictionary."""
    by_arity: dict[int, list[tuple[int, CellMatch]]] = {}
    for (arity, canon_bits), entry in table.items():
        by_arity.setdefault(arity, []).append((canon_bits, entry))
    index: dict[int, _ArityIndex] = {}
    for arity, entries in by_arity.items():
        entries.sort(key=lambda item: item[0])
        count = len(entries)
        keys = np.array([canon for canon, _ in entries], dtype=np.uint64)
        perm = np.zeros((count, 6), dtype=np.int8)
        phase = np.zeros(count, dtype=np.int16)
        negated = np.zeros(count, dtype=bool)
        cells: list[LibraryCell] = []
        for row, (_canon, entry) in enumerate(entries):
            perm[row, :arity] = entry.match.permutation
            phase[row] = entry.match.phase
            negated[row] = entry.match.output_negated
            cells.append(entry.cell)
        index[arity] = _ArityIndex(
            keys=keys,
            signatures=np.sort(npn_signature_batch(keys, np.full(count, arity))),
            perm=perm, phase=phase, negated=negated,
            cells=cells,
        )
    return index


_MATCHER_CACHE: dict[tuple[str, bool], LibraryMatcher] = {}


def matcher_for(
    library: GateLibrary, allow_output_negation: bool = True
) -> LibraryMatcher:
    """Build (and cache) the matcher of a library.

    One matcher per (library, flags) is reused across all benchmarks of an
    experiment run.  A build runs under a ``matcher`` span (category
    ``setup``): a run's first map job otherwise hides it outside every span.
    """
    key = (library.name, allow_output_negation)
    cached = _MATCHER_CACHE.get(key)
    if cached is None or cached.library is not library:
        with obs.span("matcher", category="setup", library=library.name):
            cached = LibraryMatcher(
                library, allow_output_negation=allow_output_negation
            )
        _MATCHER_CACHE[key] = cached
    return cached
