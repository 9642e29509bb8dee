"""NPN-class rewrite library: compiled SOP cover programs for cut functions.

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
  captures that sequence once per distinct ``(arity, table)`` as a
  :class:`CoverProgram` -- ``(negate, ((var, invert), ...) per cube)`` --
  and :func:`replay_cover` re-emits it through any ``and_gate``-shaped
  constructor, gate for gate identical to the original synthesis.
* **NPN classes.**  Distinct cut functions collapse ~150x under NPN
  equivalence (PR 2's matcher measurement), so the :class:`RewriteLibrary`
  organizes programs by canonical class: each member's table is
  canonicalized through the vectorized exact canonicalizer of
  :mod:`repro.logic.npn` (batched over the distinct tables of a pass via
  :func:`repro.logic.npn.canonicalize_bits_batch`), the *canonical template*
  is compiled once per class, and :meth:`RewriteLibrary.instantiate` can
  replay a template under the composed transform for any member.

One caveat keeps both representations around: the greedy ISOP does **not**
commute with NPN transforms (the lowest-set-minterm seed and the ascending
variable-drop order are not equivariant), so a template replayed under a
transform is functionally equivalent but structurally different from the
member's own cover.  The byte-identity contract of the rewrite pass
therefore replays exact member programs -- the class structure still pays
for itself through template reuse for canonical members, compression
statistics, and the template-instantiation API (property-tested for
functional equivalence in ``tests/synthesis/test_optimize_vectorized.py``).

The library and the ISOP memo live for the whole process: both are keyed by
the rewrite pass's cut functions, of at most four inputs in every registered
flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from repro.logic.npn import (
    InputMatch,
    canonicalize_bits,
    canonicalize_bits_batch,
    invert_match,
)
from repro.synthesis.aig import AigLiteral, CONST0, CONST1
from repro.synthesis.cut_kernels import VAR_PERIOD_MASKS

__all__ = [
    "CoverProgram",
    "NpnTemplate",
    "RewriteLibrary",
    "REWRITE_LIBRARY",
    "compile_cover",
    "compile_ops",
    "replay_cover",
    "replay_ops",
    "_isop",
    "_cube_minterms",
    "_cube_inside",
]


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


@lru_cache(maxsize=1 << 16)
def _isop(table: int, num_vars: int) -> tuple[tuple[int, int], ...]:
    """Irredundant sum of products of a truth table (cube tuple).

    Each cube is a pair ``(care_mask, value_mask)``: variable *i* appears
    positively when bit *i* is set in both masks, negatively when set in
    ``care_mask`` only.  Uses a simple expand-greedy cover; optimality is not
    required, only irredundancy.  Memoized: the rewrite pass asks for the
    cover of both polarities of every cut function, and distinct K<=4
    functions are few across a whole flow.
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

    @property
    def num_cubes(self) -> int:
        return len(self.cubes)


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
    ``and_gate`` is anything with :meth:`Aig.and_gate` semantics -- the real
    graph or the flat ``_GraphBuilder`` of the vectorized passes.
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


@lru_cache(maxsize=1 << 14)
def compile_ops(
    program: CoverProgram,
) -> tuple[tuple[tuple[int, int], ...], int]:
    """Flatten a cover program into a linear gate schedule ``(ops, result)``.

    Each op is an operand pair feeding one ``and_gate`` call; operands are
    coded integers -- ``0``/``1`` for the constants, else bit 0 = complement,
    bit 1 = temp (a previous op's result) vs leaf, bits 2+ = index + 1 --
    so the hot replay loop of the vectorized rewrite pass is a single flat
    scan with no per-cube list churn.  Compiled by running
    :func:`replay_cover` symbolically (operand codes survive ``^ 1``
    unchanged in meaning), so the schedule is the reference gate stream by
    construction.  Memoized on the (hashable) program.
    """
    ops: list[tuple[int, int]] = []

    def record(a: int, b: int) -> int:
        ops.append((a, b))
        return (len(ops) << 2) | 2

    leaf_codes = [((index + 1) << 2) for index in range(64)]
    result = replay_cover(record, leaf_codes, program)
    return tuple(ops), result


def replay_ops(
    and_gate: Callable[[AigLiteral, AigLiteral], AigLiteral],
    leaves: Sequence[AigLiteral],
    ops: tuple[tuple[int, int], ...],
    result: int,
) -> AigLiteral:
    """Execute a :func:`compile_ops` schedule; same gates as :func:`replay_cover`."""
    temps: list[AigLiteral] = []
    append = temps.append
    for a, b in ops:
        if a >= 2:
            value_a = (temps[(a >> 2) - 1] if a & 2 else leaves[(a >> 2) - 1]) ^ (a & 1)
        else:
            value_a = a
        if b >= 2:
            value_b = (temps[(b >> 2) - 1] if b & 2 else leaves[(b >> 2) - 1]) ^ (b & 1)
        else:
            value_b = b
        append(and_gate(value_a, value_b))
    if result >= 2:
        return (
            temps[(result >> 2) - 1] if result & 2 else leaves[(result >> 2) - 1]
        ) ^ (result & 1)
    return result


@dataclass(frozen=True)
class NpnTemplate:
    """One NPN class: its canonical table and the compiled canonical cover."""

    num_vars: int
    table: int
    program: CoverProgram


class RewriteLibrary:
    """Per-process memo of cover programs, organized by NPN class.

    ``program`` / ``programs_batch`` return the *exact* member program the
    pinned rewrite pass replays (compiled once per distinct ``(arity,
    table)``, shared with the class template when the member is its own
    canonical form); ``instantiate`` replays the class template under the
    member's composed transform instead -- functionally equivalent, one
    compile per *class* (see the module docstring for why the pinned pass
    cannot use it).  Lives for the whole process, like the ISOP memo.
    """

    __slots__ = ("_programs", "_templates", "_class_of")

    def __init__(self) -> None:
        self._programs: dict[tuple[int, int], CoverProgram] = {}
        self._templates: dict[tuple[int, int], NpnTemplate] = {}
        self._class_of: dict[tuple[int, int], tuple[tuple[int, int], InputMatch]] = {}

    # -- registration ----------------------------------------------------

    def _register(
        self, num_vars: int, table: int, canonical: int, match: InputMatch
    ) -> CoverProgram:
        template_key = (num_vars, canonical)
        template = self._templates.get(template_key)
        if template is None:
            template = NpnTemplate(num_vars, canonical, compile_cover(canonical, num_vars))
            self._templates[template_key] = template
        if table == canonical:
            program = template.program  # canonical member: reuse, no recompile
        else:
            program = compile_cover(table, num_vars)
        key = (num_vars, table)
        self._programs[key] = program
        self._class_of[key] = (template_key, match)
        return program

    def program(self, table: int, num_vars: int) -> CoverProgram:
        """The exact cover program of one table (memoized, class-registered)."""
        full = (1 << (1 << num_vars)) - 1
        key = (num_vars, table & full)
        program = self._programs.get(key)
        if program is not None:
            return program
        canonical, perm, phase, negated = canonicalize_bits(key[1], num_vars, True)
        return self._register(num_vars, key[1], canonical, InputMatch(perm, phase, negated))

    def programs_batch(
        self, sizes: Sequence[int], tables: Sequence[int]
    ) -> list[CoverProgram]:
        """Programs for parallel ``(size, table)`` arrays, batch-canonicalized.

        The distinct uncached tables of each arity go through
        :func:`canonicalize_bits_batch` in one call -- this is how the
        vectorized rewrite pass registers a whole pass worth of cut
        functions up front.
        """
        programs: list[CoverProgram | None] = [None] * len(tables)
        missing: dict[int, list[tuple[int, int]]] = {}
        cached = self._programs
        for index, (num_vars, table) in enumerate(zip(sizes, tables)):
            table &= (1 << (1 << num_vars)) - 1
            program = cached.get((num_vars, table))
            if program is not None:
                programs[index] = program
            else:
                missing.setdefault(num_vars, []).append((index, table))
        for num_vars, entries in missing.items():
            canonicalized = canonicalize_bits_batch(
                [table for _, table in entries], num_vars
            )
            for (index, table), (canonical, perm, phase, negated) in zip(
                entries, canonicalized
            ):
                programs[index] = self._register(
                    num_vars, table, canonical, InputMatch(perm, phase, negated)
                )
        return programs  # type: ignore[return-value]

    # -- template instantiation ------------------------------------------

    def template_for(self, table: int, num_vars: int) -> tuple[NpnTemplate, InputMatch]:
        """The member's class template and its member-to-canonical transform."""
        self.program(table, num_vars)
        key = (num_vars, table & ((1 << (1 << num_vars)) - 1))
        template_key, match = self._class_of[key]
        return self._templates[template_key], match

    def instantiate(
        self, aig, leaves: Sequence[AigLiteral], table: int, num_vars: int
    ) -> AigLiteral:
        """Build ``table`` over ``leaves`` by replaying the class template.

        The template leaves are rewired through the inverse of the stored
        member-to-canonical transform (input ``j`` of the member drives
        canonical position ``perm[j]``, phased in canonical input space) and
        the output complemented per the transform.  Functionally equivalent
        to replaying the member program, generally *not* structurally equal
        (greedy ISOP is not NPN-equivariant).
        """
        template, match = self.template_for(table, num_vars)
        perm, phase, negated = invert_match(match)
        remapped: list[AigLiteral] = [CONST0] * num_vars
        for j in range(num_vars):
            position = perm[j]
            remapped[position] = leaves[j] ^ ((phase >> position) & 1)
        literal = replay_cover(aig.and_gate, remapped, template.program)
        return literal ^ 1 if negated else literal

    # -- statistics ------------------------------------------------------

    @property
    def class_count(self) -> int:
        """Distinct NPN classes registered (templates compiled)."""
        return len(self._templates)

    @property
    def member_count(self) -> int:
        """Distinct (arity, table) members registered."""
        return len(self._programs)

    def cache_clear(self) -> None:
        """Forget every program (cold-start hook for tests and benchmarks)."""
        self._programs.clear()
        self._templates.clear()
        self._class_of.clear()


#: The process-wide library shared by every rewrite invocation.
REWRITE_LIBRARY = RewriteLibrary()
