"""Unit tests for permutation/phase enumeration and NPN canonicalization."""

import random

import pytest

from repro.logic import TruthTable, npn, npn_canonical
from repro.logic.npn import (
    InputMatch,
    apply_match,
    canonicalize_bits,
    canonicalize_bits_batch_columns,
    compose_matches,
    invert_match,
    npn_canonicalize,
    npn_equivalent,
)
from tests.oracles.npn import (
    all_input_permutation_phase_tables,
    enumerate_permutation_phase,
    npn_canonical_exhaustive,
    p_canonical,
)


def _tt(func, n):
    return TruthTable.from_function(func, n)


class TestEnumeration:
    def test_and2_reaches_all_four_phase_variants(self):
        and2 = _tt(lambda a, b: a and b, 2)
        tables = all_input_permutation_phase_tables(and2)
        reachable = {TruthTable(2, bits).output_column()[0:4] and bits for bits in tables}
        # AND with optional input complementation covers AND, A&!B, !A&B, NOR
        expected = {
            _tt(lambda a, b: a and b, 2).bits,
            _tt(lambda a, b: a and not b, 2).bits,
            _tt(lambda a, b: (not a) and b, 2).bits,
            _tt(lambda a, b: (not a) and (not b), 2).bits,
        }
        assert expected <= set(tables)
        assert reachable is not None

    def test_xor_is_phase_invariant_up_to_output(self):
        xor2 = _tt(lambda a, b: a != b, 2)
        tables = all_input_permutation_phase_tables(xor2)
        # XOR and XNOR are the only reachable functions without output negation
        assert set(tables) == {xor2.bits, (~xor2).bits}

    def test_output_negation_included_when_requested(self):
        and2 = _tt(lambda a, b: a and b, 2)
        without = all_input_permutation_phase_tables(and2, include_output_negation=False)
        with_out = all_input_permutation_phase_tables(and2, include_output_negation=True)
        nand2 = (~and2).bits
        assert nand2 not in without
        assert nand2 in with_out
        assert with_out[nand2].output_negated is True

    def test_match_metadata_reconstructs_table(self):
        base = _tt(lambda a, b, c: (a != b) and c, 3)
        for reachable_bits, match in all_input_permutation_phase_tables(base).items():
            assert isinstance(match, InputMatch)
            rebuilt = base.apply_phase(match.phase).permute_inputs(match.permutation)
            if match.output_negated:
                rebuilt = ~rebuilt
            assert rebuilt.bits == reachable_bits

    def test_enumeration_size_upper_bound(self):
        or2 = _tt(lambda a, b: a or b, 2)
        items = list(enumerate_permutation_phase(or2))
        assert len(items) == 2 * 4  # 2 permutations x 4 phases


class TestCanonical:
    def test_p_canonical_symmetric_function_is_fixed_point(self):
        and2 = _tt(lambda a, b: a and b, 2)
        assert p_canonical(and2) == and2

    def test_npn_groups_and_or(self):
        and2 = _tt(lambda a, b: a and b, 2)
        or2 = _tt(lambda a, b: a or b, 2)
        nand2 = ~and2
        assert npn_canonical(and2) == npn_canonical(or2) == npn_canonical(nand2)

    def test_npn_separates_and_from_xor(self):
        and2 = _tt(lambda a, b: a and b, 2)
        xor2 = _tt(lambda a, b: a != b, 2)
        assert npn_canonical(and2) != npn_canonical(xor2)

    def test_npn_equivalent_predicate(self):
        aoi = _tt(lambda a, b, c: not ((a and b) or c), 3)
        oai_shuffled = _tt(lambda a, b, c: not ((b or c) and a), 3)
        assert npn_equivalent(aoi, ~aoi)
        assert not npn_equivalent(aoi, _tt(lambda a, b, c: a != b != c, 3))
        assert npn_equivalent(oai_shuffled, oai_shuffled)

    def test_npn_rejects_large_functions(self):
        with pytest.raises(ValueError):
            npn_canonical(TruthTable.constant(False, 7))

    def test_npn_different_arity_not_equivalent(self):
        assert not npn_equivalent(TruthTable.constant(True, 2), TruthTable.constant(True, 3))


def _random_match(rng, n, allow_output_negation=True):
    return InputMatch(
        tuple(rng.sample(range(n), n)),
        rng.getrandbits(n),
        allow_output_negation and rng.random() < 0.5,
    )


class TestTransformAlgebra:
    def test_apply_match_agrees_with_enumeration(self):
        base = _tt(lambda a, b, c: (a != b) and c, 3)
        for reachable, match in enumerate_permutation_phase(
            base, include_output_negation=True
        ):
            assert apply_match(base, match) == reachable

    def test_invert_round_trips(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 5)
            table = TruthTable(n, rng.getrandbits(1 << n))
            match = _random_match(rng, n)
            transformed = apply_match(table, match)
            assert apply_match(transformed, invert_match(match)) == table

    def test_compose_is_sequential_application(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(1, 5)
            table = TruthTable(n, rng.getrandbits(1 << n))
            first = _random_match(rng, n)
            second = _random_match(rng, n)
            assert apply_match(table, compose_matches(first, second)) == apply_match(
                apply_match(table, first), second
            )

    def test_compose_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose_matches(InputMatch((0, 1), 0, False), InputMatch((0,), 0, False))


class TestFastCanonicalizer:
    def test_matches_exhaustive_reference(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(0, 4)
            table = TruthTable(n, rng.getrandbits(1 << n) if n else rng.getrandbits(1))
            assert npn_canonical(table) == npn_canonical_exhaustive(table)

    def test_transform_witnesses_the_canonical_form(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(1, 6)
            table = TruthTable(n, rng.getrandbits(1 << n))
            canonical, transform = npn_canonicalize(table)
            assert apply_match(table, transform) == canonical
            # ...and the transform round-trips back to the original table.
            assert apply_match(canonical, invert_match(transform)) == table

    def test_canonical_form_is_orbit_invariant(self):
        rng = random.Random(15)
        for _ in range(60):
            n = rng.randint(1, 5)
            table = TruthTable(n, rng.getrandbits(1 << n))
            canonical, _ = npn_canonicalize(table)
            variant = apply_match(table, _random_match(rng, n))
            assert npn_canonicalize(variant)[0] == canonical

    def test_np_mode_excludes_output_negation(self):
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randint(1, 4)
            table = TruthTable(n, rng.getrandbits(1 << n))
            canonical, transform = npn_canonicalize(table, include_output_negation=False)
            assert not transform.output_negated
            assert apply_match(table, transform) == canonical
            variant = apply_match(
                table, _random_match(rng, n, allow_output_negation=False)
            )
            assert (
                npn_canonicalize(variant, include_output_negation=False)[0] == canonical
            )

    def test_raw_bits_entry_point_masks_input(self):
        bits, perm, phase, negated = canonicalize_bits(0b1000, 2, True)
        assert bits == canonicalize_bits(0b1000 | (1 << 10), 2, True)[0]
        assert sorted(perm) == [0, 1]

    def test_rejects_more_than_six_inputs(self):
        with pytest.raises(ValueError):
            canonicalize_bits(0, 7, True)
        with pytest.raises(ValueError):
            npn_canonical(TruthTable.constant(False, 7))

    def test_batch_memo_overflow_keeps_every_row(self, monkeypatch):
        """A batch that overflows the column memo mixes memoized and new
        tables; the clear must not lose the memoized ones."""
        monkeypatch.setattr(npn, "_COLUMN_MEMO", {})
        monkeypatch.setattr(npn, "_COLUMN_MEMO_LIMIT", 4)
        for batch in ([1, 2], [1, 2, 3, 4], [1, 2, 3, 4, 5]):
            canonical, permutation, phase, negated = canonicalize_bits_batch_columns(
                batch, 2
            )
            for row, bits in enumerate(batch):
                assert (
                    int(canonical[row]),
                    tuple(int(v) for v in permutation[row]),
                    int(phase[row]),
                    bool(negated[row]),
                ) == canonicalize_bits(bits, 2, True)
