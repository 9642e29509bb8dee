"""Batched uint64 truth-table kernels for the vectorized cut pipeline.

Every K<=6 cut function fits in one 64-bit word, so whole batches of cut
tables -- all candidate cuts of a level of the AIG at once -- can be
manipulated with a handful of numpy bitwise operations instead of per-cut
big-int loops.  This module provides the three primitives the enumerator
needs:

* :func:`insert_dontcare` / :func:`expand_tables` -- re-express a table over
  a superset of its variables by inserting don't-care variables (the batched
  equivalent of the cut oracle's ``_expand_at_positions`` in
  ``tests/oracles/cuts.py``);
* :func:`batch_support` -- true-support masks of a table batch (the batched
  equivalent of ``repro.synthesis.cuts.table_support``);
* :data:`FULL_BY_SIZE` -- the all-ones mask per variable count, for batched
  output complementation.

The matching pipeline adds :func:`npn_signature_batch`, an exact
NPN-invariant key per table (onset and cofactor popcounts) that lets a
matcher skip the orbit scan of functions no library class can match; its
scalar reference and invariance properties live in
``tests/synthesis/test_matcher_batch.py``.  Its word popcount,
:func:`popcount64`, is the one the switching-activity analysis uses too.
:func:`distinct_keys` dedups ``(size, table)`` pairs for the matcher's
function table and the rewrite pass's cover programs alike.

Don't-care insertion at position ``p`` duplicates every ``2**p``-bit chunk of
the table.  The chunks are first *spread* to double spacing with a butterfly
network of shift-and-mask steps (chunk ``i`` moves by ``i * 2**p`` bits,
decomposed over the binary digits of ``i``), then OR-ed with a copy shifted by
one chunk -- O(log) vector operations per insertion, with the masks
precomputed once per position.

All kernels are pure and exactly bit-compatible with their scalar
references (``table_support`` in :mod:`repro.synthesis.cuts`,
``project_table`` in ``tests/oracles/matcher.py``, ``_expand_at_positions``
in ``tests/oracles/cuts.py``); the hypothesis property tests in
``tests/synthesis/test_cut_properties.py`` and
``tests/synthesis/test_matcher_batch.py`` pin that equivalence.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

_LITTLE_ENDIAN = sys.byteorder == "little"

_U64 = np.uint64
_FULL64 = 0xFFFFFFFFFFFFFFFF

#: All-ones table mask per variable count: ``FULL_BY_SIZE[n]`` has ``2**n``
#: low bits set (the whole word for n == 6).
FULL_BY_SIZE = np.array(
    [(1 << (1 << n)) - 1 if n < 6 else _FULL64 for n in range(7)], dtype=np.uint64
)

#: 64-bit periodic negative-cofactor masks: ``VAR_PERIOD_MASKS[j]`` selects
#: the minterms with variable ``j`` equal to 0, replicated across the word.
VAR_PERIOD_MASKS = np.zeros(6, dtype=np.uint64)
for _j in range(6):
    _block = 1 << _j
    _chunk = (1 << _block) - 1
    _bits = 0
    for _start in range(0, 64, _block * 2):
        _bits |= _chunk << _start
    VAR_PERIOD_MASKS[_j] = np.uint64(_bits)
del _j, _block, _chunk, _bits, _start


@lru_cache(maxsize=None)
def _spread_steps(position: int) -> tuple[tuple[np.uint64, np.uint64, np.uint64], ...]:
    """Butterfly (shift, mask, inverse-mask) steps spreading ``2**position``-bit
    chunks of a <=32-bit table to double spacing inside a 64-bit word."""
    block = 1 << position
    n_chunks = max(32 // block, 1)
    offsets = [index * block for index in range(n_chunks)]
    steps = []
    for k in range((n_chunks - 1).bit_length() - 1, -1, -1):
        shift = (1 << k) * block
        mask = 0
        for index in range(n_chunks):
            if (index >> k) & 1:
                mask |= ((1 << block) - 1) << offsets[index]
        for index in range(n_chunks):
            if (index >> k) & 1:
                offsets[index] += shift
        steps.append((_U64(shift), _U64(mask), _U64(mask ^ _FULL64)))
    return tuple(steps)


def insert_dontcare(tables: np.ndarray, position: int) -> np.ndarray:
    """Insert a don't-care variable at ``position`` into every table.

    ``tables`` must hold functions of at least ``position`` and at most 5
    variables (so the result still fits the word).  Equivalent to one step of
    the cut oracle's ``_expand_at_positions`` applied across the whole batch.
    """
    t = tables
    for shift, mask, inverse in _spread_steps(position):
        t = (t & inverse) | ((t & mask) << shift)
    return t | (t << _U64(1 << position))


def _build_expand_index() -> np.ndarray:
    """``_EXPAND_INDEX[submask, m]`` = the source-table bit feeding expanded
    minterm ``m``: the bits of ``m`` at the positions named by ``submask``,
    compressed together (a precomputed parallel-bit-extract)."""
    index = np.zeros((64, 64), dtype=np.uint64)
    for submask in range(64):
        for minterm in range(64):
            source, out = 0, 0
            for position in range(6):
                if (submask >> position) & 1:
                    if (minterm >> position) & 1:
                        source |= 1 << out
                    out += 1
            index[submask, minterm] = source
    return index


_EXPAND_INDEX = _build_expand_index()
_MINTERM_WEIGHTS = _U64(1) << np.arange(64, dtype=np.uint64)

#: ``_EXPAND_LUT[submask, chunk, byte]`` = the expanded-word bits contributed
#: by source-table byte ``chunk`` holding value ``byte`` (built lazily; ~1 MB).
_EXPAND_LUT: np.ndarray | None = None


def _build_expand_lut() -> np.ndarray:
    lut = np.zeros((64, 8, 256), dtype=np.uint64)
    byte_values = np.arange(256, dtype=np.uint64)[:, None]
    for submask in range(64):
        index = _EXPAND_INDEX[submask]
        source_chunk = (index >> _U64(3)).astype(np.int64)
        source_bit = index & _U64(7)
        for chunk in range(8):
            minterms = np.nonzero(source_chunk == chunk)[0]
            if minterms.size == 0:
                continue
            bits = (byte_values >> source_bit[minterms][None, :]) & _U64(1)
            lut[submask, chunk] = (bits * _MINTERM_WEIGHTS[minterms][None, :]).sum(
                axis=1, dtype=np.uint64
            )
    return lut


def expand_tables(tables: np.ndarray, submasks: np.ndarray) -> np.ndarray:
    """Re-express each table over the superset of variables named by its mask.

    ``submasks[i]`` has bit ``p`` set when target position ``p`` carries one
    of table ``i``'s current variables (in ascending order); the remaining
    target positions become don't-cares.  Implemented as eight byte-sliced
    lookups through :data:`_EXPAND_LUT` OR-ed together -- a fixed handful of
    vector operations per batch with no per-position branching, and high
    all-zero source bytes are skipped entirely.

    Bits of the result above ``2**target_size`` are unspecified; callers mask
    with :data:`FULL_BY_SIZE` (the cut oracle's ``_expand_at_positions``
    leaves them zero instead).
    """
    global _EXPAND_LUT
    if tables.size == 0:
        return tables.astype(np.uint64)
    if _EXPAND_LUT is None:
        _EXPAND_LUT = _build_expand_lut()
    t = np.ascontiguousarray(tables, dtype=np.uint64)
    source_bytes = t[:, None].view(np.uint8)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        source_bytes = source_bytes[:, ::-1]
    populated = (int(t.max()).bit_length() + 7) // 8
    out = _EXPAND_LUT[submasks, 0, source_bytes[:, 0]]
    for chunk in range(1, populated):
        out = out | _EXPAND_LUT[submasks, chunk, source_bytes[:, chunk]]
    return out


_VAR_SHIFTS = _U64(1) << np.arange(6, dtype=np.uint64)
_VAR_POSITIONS = np.arange(6)


def batch_support(tables: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """True-support bitmask of every table (over ``sizes[i]`` variables).

    Variable ``p`` is in the support when the table differs from itself
    shifted by ``2**p`` on the variable's negative-cofactor minterms; all
    six positions are tested at once and the flags packed into one byte
    per table.
    """
    t = np.asarray(tables, dtype=np.uint64)[:, None]
    depends = np.zeros((t.shape[0], 8), dtype=bool)
    np.not_equal((t ^ (t >> _VAR_SHIFTS)) & VAR_PERIOD_MASKS, 0, out=depends[:, :6])
    depends[:, :6] &= _VAR_POSITIONS < np.asarray(sizes)[:, None]
    return np.packbits(depends, bitorder="little")


#: Batched equivalent of ``repro.synthesis.cuts.table_support`` -- the name
#: the matching pipeline uses; identical to :func:`batch_support`.
table_support_batch = batch_support


def _build_compress_index() -> np.ndarray:
    """``_COMPRESS_INDEX[mask, m]`` = the source-table minterm feeding
    projected minterm ``m``: the low ``popcount(mask)`` bits of ``m``
    deposited at the positions named by ``mask`` (a precomputed
    parallel-bit-deposit, the inverse of :data:`_EXPAND_INDEX`)."""
    index = np.zeros((64, 64), dtype=np.uint64)
    for mask in range(64):
        for minterm in range(64):
            source, consumed = 0, 0
            for position in range(6):
                if (mask >> position) & 1:
                    if (minterm >> consumed) & 1:
                        source |= 1 << position
                    consumed += 1
            index[mask, minterm] = source
    return index


_COMPRESS_INDEX = _build_compress_index()
#: Set-bit count of every 6-bit mask.
POPCOUNT64 = np.array([bin(value).count("1") for value in range(64)], dtype=np.int64)

#: ``_MASK_POSITIONS[mask, j]`` = the ``j``-th set bit position of ``mask``
#: (ascending), zero-padded -- the leaf positions a support mask selects.
_MASK_POSITIONS = np.zeros((64, 6), dtype=np.int64)
for _mask in range(64):
    _positions = [p for p in range(6) if (_mask >> p) & 1]
    _MASK_POSITIONS[_mask, : len(_positions)] = _positions
del _mask, _positions


def support_positions(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-mask ``(positions, widths)``: the set bit positions (ascending,
    zero-padded to 6 columns) and the popcount of every support mask."""
    masks = masks.astype(np.int64)
    return _MASK_POSITIONS[masks], POPCOUNT64[masks]


def project_table_batch(tables: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Project every table onto the variables named by its support mask.

    Batched equivalent of the scalar ``project_table`` oracle (variables
    outside the mask are removed keeping the negative cofactor, i.e. the
    minterms with those variables at 0): projected minterm ``m`` reads source
    bit :data:`_COMPRESS_INDEX` ``[mask, m]``.  A full mask is the identity
    gather.  Bits at and above ``2**popcount(mask)`` are forced to zero,
    matching the scalar rebuild loop.
    """
    if tables.size == 0:
        return tables.astype(np.uint64)
    tables = tables.astype(np.uint64)
    mask_rows = masks.astype(np.int64)
    out = np.empty(tables.shape[0], dtype=np.uint64)
    minterms = np.arange(64, dtype=np.int64)[None, :]
    # ~1.5 KB of temporaries per row; chunking bounds the working set.
    chunk = 1 << 14
    for start in range(0, tables.shape[0], chunk):
        t = tables[start : start + chunk]
        m = mask_rows[start : start + chunk]
        source = _COMPRESS_INDEX[m]
        bits = (t[:, None] >> source) & _U64(1)
        valid = minterms < (np.int64(1) << POPCOUNT64[m][:, None])
        contributions = np.where(valid, bits * _MINTERM_WEIGHTS[None, :], _U64(0))
        out[start : start + chunk] = contributions.sum(axis=1, dtype=np.uint64)
    return out


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    # Fallback for numpy < 2.0: count set bits byte by byte.
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes).reshape(*words.shape, 64).sum(axis=-1)


def distinct_keys(
    sizes: np.ndarray, tables: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First occurrence and inverse of every distinct ``(size, table)`` pair.

    One stable ``np.lexsort`` (size major) plus run starts: the distinct
    pairs come out in ascending ``(size, table)`` order, ``first[i]`` is the
    earliest row holding pair ``i`` and ``inverse`` maps every row onto its
    pair -- exactly ``np.unique(keys, axis=0, return_index=True,
    return_inverse=True)`` without the structured-dtype sort.
    """
    order = np.lexsort((tables, sizes))
    sorted_sizes = sizes[order]
    sorted_tables = tables[order]
    starts = np.ones(order.shape[0], dtype=bool)
    starts[1:] = (sorted_sizes[1:] != sorted_sizes[:-1]) | (
        sorted_tables[1:] != sorted_tables[:-1]
    )
    inverse = np.empty(order.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def npn_signature_batch(tables: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Exact NPN-invariant signature of every table (over ``sizes[i]`` variables).

    The key of a function packs its onset count (top field) and, sorted
    ascending, the per-variable ``min(negative-cofactor count,
    positive-cofactor count)``, 6 bits per value; the signature is the
    smaller of the keys of ``f`` and ``~f``.  Input negation swaps one
    variable's two counts, permutation reorders the multiset and the final
    min absorbs output negation, so NPN-equivalent tables share a signature:
    two tables with different signatures are never NPN- (or NP-) equivalent.
    Positions at and above ``sizes[i]`` contribute zeros.  Bits above
    ``2**sizes[i]`` are ignored.  The counts are :func:`popcount64` of
    masked words.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    full = FULL_BY_SIZE[sizes]
    t = np.asarray(tables, dtype=np.uint64) & full
    onset = popcount64(t).astype(np.int64)
    in_range = _VAR_POSITIONS < sizes[:, None]
    cofactor = popcount64(t[:, None] & VAR_PERIOD_MASKS).astype(np.int64)
    negative = np.where(in_range, cofactor, 0)
    positive = np.where(in_range, onset[:, None] - negative, 0)
    # ~f has 2**n - onset minterms and 2**(n-1) - c in a cofactor f counts c.
    half = np.where(in_range, (np.int64(1) << sizes)[:, None] >> 1, 0)
    keys = []
    for count, values in (
        (onset, np.minimum(negative, positive)),
        ((np.int64(1) << sizes) - onset, half - np.maximum(negative, positive)),
    ):
        values = np.sort(values, axis=1)
        key = count
        for column in range(6):
            key = (key << 6) | values[:, column]
        keys.append(key)
    return np.minimum(keys[0], keys[1])
