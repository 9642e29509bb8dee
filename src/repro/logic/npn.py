"""NPN canonicalization and the algebra of input/output transforms.

Technology mapping matches the Boolean function computed by a cut of the
subject graph against the functions implemented by library cells.  The paper
notes (Sec. 3.1) that the mapping tool is aware of the additional gates
obtained by swapping signal polarities at the transmission gates; we model
that freedom by matching modulo input permutation and input/output
complementation (NPN equivalence).

Two services are provided:

* :func:`npn_canonicalize` computes the canonical representative of a
  function's NPN (or NP) class *together with the witnessing transform*, so
  two functions can be matched by canonicalizing each side and composing the
  transforms (:func:`compose_matches`, :func:`invert_match`).  The search is
  exact (minimum over the full orbit) but vectorized with numpy.  It has two
  production entry points: the memoized scalar :func:`canonicalize_bits`,
  which builds the matcher's library index, and the columnar
  :func:`canonicalize_bits_batch_columns`, which canonicalizes the cut
  functions of a mapping job.
* :func:`npn_canonical` returns only the canonical table, used to group
  functions into equivalence classes in tests and analyses.

The reference enumerations (every table reachable by permuting and
complementing inputs, the permutation-only canonical form) and the
brute-force search over the whole orbit are the parity oracles in
``tests/oracles/npn.py``.

A transform is an :class:`InputMatch` ``t`` applied as ``apply_match(f, t) =
[~] f.apply_phase(t.phase).permute_inputs(t.permutation)``: evaluated at
``z``, that is ``g(z) = (~)^out f(sigma(z) ^ phase)`` where ``sigma`` places
input ``j`` of ``g`` at position ``t.permutation[j]`` of ``f``.  Transforms
form a group under :func:`compose_matches` with inverses given by
:func:`invert_match`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from repro.logic.truth_table import TruthTable


class InputMatch(NamedTuple):
    """Describes how a target function maps onto a base library function.

    ``permutation[j]`` is the base-function input that the target's input ``j``
    drives; ``phase`` is applied in the *base function's* input space (see
    :func:`apply_match`: ``g(z) = (~)^out f(sigma(z) ^ phase)``), so target
    input ``j`` is complemented before entering the base function exactly when
    phase bit ``permutation[j]`` is set; ``output_negated`` records whether
    the base function's output must be complemented.
    """

    permutation: tuple[int, ...]
    phase: int
    output_negated: bool


def npn_canonical(table: TruthTable) -> TruthTable:
    """Canonical representative under input negation, permutation and output negation.

    Delegates to the vectorized exact canonicalizer
    (:func:`canonicalize_bits`); intended for functions with at most 6
    inputs (library cells and mapping cuts).
    """
    n = table.num_vars
    if n > 6:
        raise ValueError("npn_canonical is limited to 6 inputs")
    bits, _perm, _phase, _neg = canonicalize_bits(table.bits, n, True)
    return TruthTable(n, bits)


def npn_equivalent(a: TruthTable, b: TruthTable) -> bool:
    """True when two functions are NPN-equivalent."""
    if a.num_vars != b.num_vars:
        return False
    return npn_canonical(a) == npn_canonical(b)


# -- transform algebra -------------------------------------------------------


def apply_match(table: TruthTable, match: InputMatch) -> TruthTable:
    """Apply a transform: phase the inputs, permute them, maybe negate the output.

    This is the single definition of what an :class:`InputMatch` *means*;
    the canonical matcher relies on it, and the reference enumeration of
    ``tests/oracles/npn.py`` yields pairs satisfying ``apply_match(base,
    match) == reachable``.
    """
    result = table.apply_phase(match.phase).permute_inputs(match.permutation)
    return ~result if match.output_negated else result


def invert_match(match: InputMatch) -> InputMatch:
    """The transform undoing ``match``: ``apply_match(apply_match(f, m), invert_match(m)) == f``."""
    n = len(match.permutation)
    inverse_perm = [0] * n
    for new_position, old_position in enumerate(match.permutation):
        inverse_perm[old_position] = new_position
    phase = 0
    for j in range(n):
        if (match.phase >> match.permutation[j]) & 1:
            phase |= 1 << j
    return InputMatch(tuple(inverse_perm), phase, match.output_negated)


def compose_matches(first: InputMatch, second: InputMatch) -> InputMatch:
    """The transform applying ``first`` then ``second``.

    ``apply_match(f, compose_matches(a, b)) == apply_match(apply_match(f, a), b)``.
    """
    n = len(first.permutation)
    if len(second.permutation) != n:
        raise ValueError("cannot compose transforms of different arities")
    permutation = tuple(first.permutation[second.permutation[j]] for j in range(n))
    # first's sigma applied to second's phase: bit j lands at first.permutation[j].
    phase = first.phase
    for j in range(n):
        if (second.phase >> j) & 1:
            phase ^= 1 << first.permutation[j]
    return InputMatch(
        permutation, phase, first.output_negated != second.output_negated
    )


# -- fast exact canonicalization ---------------------------------------------

# Per-arity candidate machinery: the list of input permutations and the index
# matrix IDX of shape (n! * 2**n, 2**n) with IDX[p * 2**n + phase, z] =
# sigma_p(z) ^ phase, so that gathering a function's output column through a
# row yields the column of the transformed function for that (perm, phase).
_CANDIDATE_CACHE: dict[int, tuple[list[tuple[int, ...]], "np.ndarray"]] = {}


def _candidate_matrix(num_vars: int) -> tuple[list[tuple[int, ...]], "np.ndarray"]:
    cached = _CANDIDATE_CACHE.get(num_vars)
    if cached is not None:
        return cached
    perms = list(permutations(range(num_vars)))
    size = 1 << num_vars
    assignments = np.arange(size, dtype=np.int64)
    sigma = np.zeros((len(perms), size), dtype=np.uint8)
    for row, perm in enumerate(perms):
        placed = np.zeros(size, dtype=np.int64)
        for j, target in enumerate(perm):
            placed |= ((assignments >> j) & 1) << target
        sigma[row] = placed
    phases = np.arange(size, dtype=np.uint8)
    index = (sigma[:, None, :] ^ phases[None, :, None]).reshape(-1, size)
    _CANDIDATE_CACHE[num_vars] = (perms, index)
    return perms, index


def _min_variant(bits: int, num_vars: int) -> tuple[int, tuple[int, ...], int]:
    """Minimum table over all input permutations/phases, with its witness."""
    size = 1 << num_vars
    perms, index = _candidate_matrix(num_vars)
    column = np.unpackbits(
        np.frombuffer(bits.to_bytes(8, "little"), dtype=np.uint8), bitorder="little"
    )[:size]
    candidates = column[index]
    packed = np.packbits(candidates, axis=1, bitorder="little")
    if packed.shape[1] < 8:
        packed = np.pad(packed, ((0, 0), (0, 8 - packed.shape[1])))
    values = np.ascontiguousarray(packed).reshape(-1).view(np.dtype("<u8"))
    row = int(values.argmin())
    perm_index, phase = divmod(row, size)
    return int(values[row]), perms[perm_index], phase


#: Memory budget (bytes) for one chunk of the batched orbit scan.  At arity 6
#: the candidate block is ``n! * 2**n * 2**n`` = ~2.9 MB per table, so the
#: default budget scans ~20 six-input tables per chunk while whole batches of
#: small-arity tables fit in one pass.
_BATCH_SCAN_BYTES = 1 << 26


def _min_variant_batch(
    values: "np.ndarray", num_vars: int
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Batched :func:`_min_variant`: minimum variant of every table at once.

    Returns ``(best, perm_index, phase)`` arrays with
    ``best[i] == _min_variant(values[i], num_vars)[0]`` (and the same witness:
    both take the *first* row attaining the minimum, so the chosen
    permutation/phase is identical to the scalar scan).  The candidate block
    is processed in chunks bounded by :data:`_BATCH_SCAN_BYTES`.
    """
    size = 1 << num_vars
    _perms, index = _candidate_matrix(num_vars)
    count = values.shape[0]
    best = np.empty(count, dtype=np.uint64)
    rows = np.empty(count, dtype=np.int64)
    chunk = max(1, _BATCH_SCAN_BYTES // (index.size or 1))
    for start in range(0, count, chunk):
        block = np.ascontiguousarray(values[start : start + chunk], dtype="<u8")
        columns = np.unpackbits(
            block.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )[:, :size]
        candidates = columns[:, index]
        packed = np.packbits(candidates, axis=2, bitorder="little")
        if packed.shape[2] < 8:
            packed = np.pad(packed, ((0, 0), (0, 0), (0, 8 - packed.shape[2])))
        words = (
            np.ascontiguousarray(packed)
            .reshape(block.shape[0], -1)
            .view(np.dtype("<u8"))
        )
        argrow = words.argmin(axis=1)
        best[start : start + chunk] = words[np.arange(block.shape[0]), argrow]
        rows[start : start + chunk] = argrow
    perm_index, phase = np.divmod(rows, size)
    return best, perm_index, phase


@lru_cache(maxsize=1 << 16)
def canonicalize_bits(
    bits: int, num_vars: int, include_output_negation: bool = True
) -> tuple[int, tuple[int, ...], int, bool]:
    """Exact canonical form of a raw truth table, with the witnessing transform.

    Returns ``(canonical_bits, permutation, phase, output_negated)`` such
    that applying ``InputMatch(permutation, phase, output_negated)`` to the
    input table yields the canonical table (the minimum integer over the
    whole NPN orbit, or the NP orbit when ``include_output_negation`` is
    false).  Memoized: mapping runs canonicalize the same cut functions over
    and over, so repeated calls are dictionary hits.
    """
    if num_vars > 6:
        raise ValueError("canonicalize_bits is limited to 6 inputs")
    full = (1 << (1 << num_vars)) - 1
    bits &= full
    best, perm, phase = _min_variant(bits, num_vars)
    output_negated = False
    if include_output_negation:
        negated_best, negated_perm, negated_phase = _min_variant(
            bits ^ full, num_vars
        )
        if negated_best < best:
            best, perm, phase = negated_best, negated_perm, negated_phase
            output_negated = True
    return best, perm, phase, output_negated


#: Per-``(num_vars, include_output_negation)`` memo of the columnar batch
#: canonicalizer: raw bits -> ``(canonical, permutation, phase, negated)``
#: exactly as :func:`canonicalize_bits` returns them.  Kept separate from the
#: scalar ``lru_cache`` (which cannot be populated externally); it lives for
#: the whole process and is bounded by :data:`_COLUMN_MEMO_LIMIT`.
_COLUMN_MEMO: dict[tuple[int, bool], dict[int, tuple[int, tuple[int, ...], int, bool]]] = {}
_COLUMN_MEMO_LIMIT = 1 << 16


def clear_canonicalizer_memo() -> None:
    """Drop the batch canonicalizer's cross-call memo (cold-start hook for
    benchmarks)."""
    _COLUMN_MEMO.clear()


def canonicalize_bits_batch_columns(
    bits: "Sequence[int] | np.ndarray",
    num_vars: int,
    include_output_negation: bool = True,
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """Columnar batch canonicalization: canonical bits *and* transform columns.

    Returns ``(canonical, permutation, phase, negated)`` arrays over the
    input order -- ``canonical`` uint64, ``permutation`` int8 of shape
    ``(len(bits), num_vars)``, ``phase`` int16, ``negated`` bool -- with row
    ``i`` element-for-element equal to ``canonicalize_bits(bits[i], num_vars,
    include_output_negation)`` (pinned by the npn property tests).  The batch
    is deduplicated with one ``np.unique`` pass, unseen tables run through
    the chunked vectorized orbit scan (:func:`_min_variant_batch`, both
    polarities when output negation is allowed) and results are memoized in
    :data:`_COLUMN_MEMO` so repeated batches -- the same cut functions across
    benchmarks and libraries -- are dictionary hits.
    """
    if num_vars > 6:
        raise ValueError("canonicalize_bits_batch_columns is limited to 6 inputs")
    array = np.asarray(bits, dtype=np.uint64)
    count = array.shape[0]
    canonical = np.zeros(count, dtype=np.uint64)
    permutation = np.zeros((count, num_vars), dtype=np.int8)
    phase = np.zeros(count, dtype=np.int16)
    negated = np.zeros(count, dtype=bool)
    if count == 0:
        return canonical, permutation, phase, negated

    full = (1 << (1 << num_vars)) - 1
    unique, inverse = np.unique(array & np.uint64(full), return_inverse=True)
    memo = _COLUMN_MEMO.setdefault((num_vars, include_output_negation), {})
    unique_values = unique.tolist()
    missing = [
        position
        for position, value in enumerate(unique_values)
        if value not in memo
    ]
    if missing:
        if len(memo) + len(missing) > _COLUMN_MEMO_LIMIT:
            # The clear drops this batch's memoized tables too: recompute them.
            memo.clear()
            missing = list(range(len(unique_values)))
        todo = unique[missing]
        perms, _index = _candidate_matrix(num_vars)
        best, perm_index, best_phase = _min_variant_batch(todo, num_vars)
        flip = np.zeros(len(missing), dtype=bool)
        if include_output_negation:
            neg_best, neg_perm_index, neg_phase = _min_variant_batch(
                todo ^ np.uint64(full), num_vars
            )
            flip = neg_best < best
            best = np.where(flip, neg_best, best)
            perm_index = np.where(flip, neg_perm_index, perm_index)
            best_phase = np.where(flip, neg_phase, best_phase)
        for row, position in enumerate(missing):
            memo[unique_values[position]] = (
                int(best[row]),
                perms[int(perm_index[row])],
                int(best_phase[row]),
                bool(flip[row]),
            )

    unique_canon = np.empty(unique.shape[0], dtype=np.uint64)
    unique_perm = np.empty((unique.shape[0], num_vars), dtype=np.int8)
    unique_phase = np.empty(unique.shape[0], dtype=np.int16)
    unique_neg = np.empty(unique.shape[0], dtype=bool)
    for position, value in enumerate(unique_values):
        canon_bits, perm, phase_bits, neg = memo[value]
        unique_canon[position] = canon_bits
        unique_perm[position] = perm
        unique_phase[position] = phase_bits
        unique_neg[position] = neg

    inverse = inverse.reshape(-1)
    return (
        unique_canon[inverse],
        unique_perm[inverse],
        unique_phase[inverse],
        unique_neg[inverse],
    )


def npn_canonicalize(
    table: TruthTable, include_output_negation: bool = True
) -> tuple[TruthTable, InputMatch]:
    """Canonical representative plus the transform reaching it.

    ``apply_match(table, transform) == canonical`` always holds for the
    returned pair; the canonical table is invariant over the whole
    equivalence class (NPN, or NP when output negation is excluded).
    """
    bits, perm, phase, output_negated = canonicalize_bits(
        table.bits, table.num_vars, include_output_negation
    )
    return TruthTable(table.num_vars, bits), InputMatch(perm, phase, output_negated)
