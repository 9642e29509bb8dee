"""Compiled SOP cover schedules: the gate streams of the rewrite pass.

The rewrite pass re-synthesizes every cut function as an AND-OR network of
its irredundant cover (:func:`_isop`).  Three observations make that cheap:

* **Minterm-mask ISOP.**  The expand-greedy cover only ever asks "which
  minterms does this cube contain" and "is this cube inside the on-set".
  Both are bitwise intersections of per-variable cofactor masks
  (:data:`repro.synthesis.cut_kernels.VAR_PERIOD_MASKS`), so the former
  Python loops over ``2**n`` minterms collapse to ``O(n)`` mask ANDs.
* **Cover programs.**  The gate sequence `_synthesize_sop` emits for a cover
  is a pure function of the truth table: polarity choice, cube order and the
  ascending-variable factor order are all fixed.  :func:`compile_cover`
  captures that sequence as a :class:`CoverProgram` -- ``(negate, ((var,
  invert), ...) per cube)`` -- and :func:`replay_cover` re-emits it through
  any ``and_gate``-shaped constructor, gate for gate identical to the
  original synthesis.
* **Op schedules.**  :func:`compile_ops` flattens a program into a linear
  gate schedule, and :func:`cover_schedule` memoizes the schedule of each
  distinct ``(arity, table)`` for the whole process, so a cut function is
  compiled once however many cuts and passes compute it.

The memo is keyed by the raw table, not by NPN class.  The greedy ISOP does
not commute with NPN transforms (the lowest-set-minterm seed and the
ascending variable-drop order are not equivariant), so a class template
replayed under a transform would be functionally equivalent to a member's
own cover but structurally different, and the rewrite pass is pinned gate
for gate to each function's own cover.  Its keys are the rewrite pass's cut
functions, of at most four inputs in every registered flow.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from repro.synthesis.aig import AigLiteral, CONST0, CONST1
from repro.synthesis.cut_kernels import VAR_PERIOD_MASKS

__all__ = [
    "CoverProgram",
    "compile_cover",
    "compile_ops",
    "cover_schedule",
    "replay_cover",
    "_isop",
    "_cube_minterms",
    "_cube_inside",
]

#: A linear gate schedule ``(ops, result)``: see :func:`compile_ops`.
Schedule = tuple[tuple[tuple[int, int], ...], int]


@lru_cache(maxsize=None)
def _minterm_masks(num_vars: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``(full, zero_masks, one_masks)`` for ``num_vars``-input tables.

    ``zero_masks[j]`` selects the minterms with variable ``j`` equal to 0
    (``one_masks[j]`` the complement), restricted to the table width --
    the scalar big-int view of :data:`VAR_PERIOD_MASKS`.
    """
    full = (1 << (1 << num_vars)) - 1
    zero_masks = tuple(int(VAR_PERIOD_MASKS[j]) & full for j in range(num_vars))
    one_masks = tuple(full & ~mask for mask in zero_masks)
    return full, zero_masks, one_masks


def _cube_minterms(num_vars: int, care: int, value: int) -> int:
    """Bitmask of the minterms contained in the cube ``(care, value)``.

    Intersection of the per-variable cofactor masks of the cared variables
    (``O(num_vars)`` mask ANDs); a ``value`` bit outside ``care`` makes the
    cube empty, matching the old per-minterm comparison.
    """
    full, zero_masks, one_masks = _minterm_masks(num_vars)
    if value & ~care:
        return 0
    bits = full
    for var in range(num_vars):
        if (care >> var) & 1:
            bits &= one_masks[var] if (value >> var) & 1 else zero_masks[var]
    return bits


def _cube_inside(table: int, num_vars: int, care: int, value: int) -> bool:
    """True when every minterm of the cube lies inside the on-set ``table``."""
    return not (_cube_minterms(num_vars, care, value & care) & ~table)


def _isop(table: int, num_vars: int) -> tuple[tuple[int, int], ...]:
    """Irredundant sum of products of a truth table (cube tuple).

    Each cube is a pair ``(care_mask, value_mask)``: variable *i* appears
    positively when bit *i* is set in both masks, negatively when set in
    ``care_mask`` only.  Uses a simple expand-greedy cover; optimality is not
    required, only irredundancy.  Not memoized: the rewrite pass reaches it
    only through :func:`cover_schedule`, once per polarity of each distinct
    function for the life of the process.
    """
    size = 1 << num_vars
    full = (1 << size) - 1
    table &= full
    remaining = table
    cubes: list[tuple[int, int]] = []
    while remaining:
        minterm = (remaining & -remaining).bit_length() - 1
        care = (1 << num_vars) - 1
        value = minterm
        # Try to drop every variable from the cube while staying inside the on-set.
        for var in range(num_vars):
            trial_care = care & ~(1 << var)
            if _cube_inside(table, num_vars, trial_care, value):
                care = trial_care
        value &= care
        cubes.append((care, value))
        remaining &= ~_cube_minterms(num_vars, care, value)
    # Irredundancy post-pass: drop any cube whose minterms are already covered
    # by the union of the other kept cubes (greedy expansion can overlap).
    coverage = [_cube_minterms(num_vars, care, value) for care, value in cubes]
    kept = list(range(len(cubes)))
    for index in range(len(cubes)):
        others = 0
        for j in kept:
            if j != index:
                others |= coverage[j]
        if index in kept and not (coverage[index] & ~others):
            kept.remove(index)
    return tuple(cubes[i] for i in kept)


class CoverProgram(NamedTuple):
    """The exact gate-emission recipe of one cut function.

    ``cubes[c]`` lists the factors of cube ``c`` as ``(leaf_index, invert)``
    pairs in ascending leaf order; ``negate`` records that the complement
    cover was chosen (strictly fewer cubes) and the final output must be
    complemented -- precisely the decisions the scalar rewrite pass makes
    from ``_isop`` of both polarities.
    """

    negate: bool
    cubes: tuple[tuple[tuple[int, int], ...], ...]


def compile_cover(table: int, num_vars: int) -> CoverProgram:
    """Compile the cover program of ``table`` (polarity choice included)."""
    full = (1 << (1 << num_vars)) - 1
    table &= full
    positive = _isop(table, num_vars)
    negative = _isop(table ^ full, num_vars)
    negate = len(negative) < len(positive)
    cubes = negative if negate else positive
    compiled = []
    for care, value in cubes:
        factors = []
        for var in range(num_vars):
            if (care >> var) & 1:
                factors.append((var, ((value >> var) & 1) ^ 1))
        compiled.append(tuple(factors))
    return CoverProgram(negate, tuple(compiled))


def replay_cover(
    and_gate: Callable[[AigLiteral, AigLiteral], AigLiteral],
    leaves: Sequence[AigLiteral],
    program: CoverProgram,
) -> AigLiteral:
    """Emit a compiled cover through ``and_gate``; returns the root literal.

    Reproduces ``_synthesize_sop`` gate for gate: the same balanced-halving
    pairing for the factors of each cube and for the (complemented) terms of
    the OR, in the same order, with the same constant conventions.
    ``and_gate`` is anything with :meth:`Aig.and_gate` semantics, such as
    :meth:`Aig.strash_and`.
    """
    negate, cubes = program
    terms: list[AigLiteral] = []
    for cube in cubes:
        items = [leaves[var] ^ invert for var, invert in cube]
        if not items:
            terms.append(CONST1)
            continue
        while len(items) > 1:
            items = [
                and_gate(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
                for i in range(0, len(items), 2)
            ]
        terms.append(items[0])
    if terms:
        items = [term ^ 1 for term in terms]
        while len(items) > 1:
            items = [
                and_gate(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
                for i in range(0, len(items), 2)
            ]
        result = items[0] ^ 1
    else:
        result = CONST0
    return result ^ 1 if negate else result


def compile_ops(program: CoverProgram) -> Schedule:
    """Flatten a cover program into a linear gate schedule ``(ops, result)``.

    Each op is an operand pair feeding one ``and_gate`` call; operands are
    coded integers -- ``0``/``1`` for the constants, else bit 0 = complement,
    bit 1 = temp (a previous op's result) vs leaf, bits 2+ = index + 1 --
    so the hot replay loop of the vectorized rewrite pass is a single flat
    scan with no per-cube list churn.  Compiled by running
    :func:`replay_cover` symbolically (operand codes survive ``^ 1``
    unchanged in meaning), so the schedule is the reference gate stream by
    construction.
    """
    ops: list[tuple[int, int]] = []

    def record(a: int, b: int) -> int:
        ops.append((a, b))
        return (len(ops) << 2) | 2

    leaf_codes = [((index + 1) << 2) for index in range(64)]
    result = replay_cover(record, leaf_codes, program)
    return tuple(ops), result


@lru_cache(maxsize=1 << 16)
def cover_schedule(table: int, num_vars: int) -> Schedule:
    """``compile_ops(compile_cover(table, num_vars))``, memoized per process.

    The rewrite pass reads every distinct cut function's schedule from this
    memo: each ``(num_vars, table)`` is compiled once, and later calls return
    the same schedule object.
    """
    return compile_ops(compile_cover(table, num_vars))
