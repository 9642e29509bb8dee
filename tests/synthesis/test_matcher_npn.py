"""Equivalence of the NPN-canonical matcher with the exhaustive reference.

The canonical index must be a drop-in replacement for the pre-expanded
permutation/phase tables of ``tests/oracles/matcher.py``: the same cuts
match, the same cells win (stable tie-break), the composed pin assignments
realize the cut functions, and the Table-3 statistics of every mapping are
bit-identical at every cut width.  The production side is the batched
``LibraryMatcher.match_positions_batch`` and ``technology_map``; the
exhaustive side is the scalar oracle lookup and the per-candidate oracle
mapper of ``tests/oracles/mapper.py``.
"""

import random

import pytest

from repro.bench.registry import benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.logic.npn import InputMatch, apply_match
from repro.synthesis.mapper import technology_map
from repro.synthesis.matcher import LibraryMatcher
from tests.oracles import mapper as mapper_oracle
from tests.oracles.matcher import (
    ExhaustiveLibraryMatcher,
    match_positions,
    match_reduced,
)

SUBSET = ("add-16", "C1355", "t481")


@pytest.fixture(scope="module")
def tg_static_library():
    return build_library(LogicFamily.TG_STATIC)


@pytest.fixture(scope="module")
def cmos_library():
    return build_library(LogicFamily.CMOS)


@pytest.fixture(scope="module")
def npn_matcher(tg_static_library):
    return LibraryMatcher(tg_static_library)


@pytest.fixture(scope="module")
def exhaustive_matchers(tg_static_library, cmos_library):
    """One exhaustive oracle matcher per library, built once per module."""
    return {
        library.name: ExhaustiveLibraryMatcher(library)
        for library in (tg_static_library, cmos_library)
    }


@pytest.fixture(scope="module")
def exhaustive_matcher(exhaustive_matchers, tg_static_library):
    return exhaustive_matchers[tg_static_library.name]


class TestIndexShape:
    def test_canonical_index_is_at_least_10x_smaller(
        self, npn_matcher, exhaustive_matcher
    ):
        assert len(npn_matcher) * 10 <= len(exhaustive_matcher)

    def test_one_entry_per_class_at_most_one_per_cell(
        self, npn_matcher, tg_static_library
    ):
        assert 0 < len(npn_matcher) <= len(tg_static_library)


def _assert_same_matches(npn, exhaustive, probes, prefer="delay"):
    """Every ``(num_vars, bits)`` probe resolves alike: the batched index
    against the scalar lookup in the exhaustive tables, both on the true
    support.  Returns the number of probes that matched."""
    result = npn.match_positions_batch(
        [num_vars for num_vars, _ in probes], [bits for _, bits in probes], prefer
    )
    matched = 0
    for row, (num_vars, bits) in enumerate(probes):
        reference = match_positions(exhaustive, num_vars, bits, prefer)
        assert bool(result.matched[row]) == (reference is not None), (
            num_vars, bits, prefer,
        )
        if reference is None:
            continue
        ours = result.matches[int(result.match_index[row])]
        cell_match, positions, reduced = reference
        width = len(positions)
        assert ours.cell.name == cell_match.cell.name
        assert tuple(result.positions[row, :width].tolist()) == positions
        assert int(result.reduced[row]) == reduced
        assert apply_match(ours.cell.function, ours.match).bits == reduced
        matched += 1
    return matched


class TestMatchEquivalence:
    def test_random_tables_match_identically(self, npn_matcher, exhaustive_matcher):
        rng = random.Random(23)
        probes = []
        for _ in range(1500):
            num_vars = rng.randint(2, 4)
            probes.append((num_vars, rng.getrandbits(1 << num_vars)))
        for prefer in ("delay", "area"):
            assert _assert_same_matches(
                npn_matcher, exhaustive_matcher, probes, prefer
            )

    def test_cell_function_variants_match_identically(
        self, npn_matcher, exhaustive_matcher, tg_static_library
    ):
        # Every cell's own orbit, including the 5/6-input cells random
        # sampling would practically never hit.
        rng = random.Random(24)
        probes = []
        for cell in tg_static_library.cells:
            n = cell.arity
            for _ in range(5):
                variant = apply_match(
                    cell.function,
                    InputMatch(
                        tuple(rng.sample(range(n), n)),
                        rng.getrandbits(n),
                        rng.random() < 0.5,
                    ),
                )
                probes.append((n, variant.bits))
        assert _assert_same_matches(npn_matcher, exhaustive_matcher, probes) == len(
            probes
        )

    def test_np_only_mode_equivalent(self, tg_static_library):
        npn = LibraryMatcher(tg_static_library, allow_output_negation=False)
        exhaustive = ExhaustiveLibraryMatcher(
            tg_static_library, allow_output_negation=False
        )
        rng = random.Random(25)
        probes = []
        for _ in range(500):
            num_vars = rng.randint(2, 4)
            probes.append((num_vars, rng.getrandbits(1 << num_vars)))
        assert _assert_same_matches(npn, exhaustive, probes)
        result = npn.match_positions_batch(
            [num_vars for num_vars, _ in probes], [bits for _, bits in probes]
        )
        assert not any(match.match.output_negated for match in result.matches)

    def test_match_reduced_equivalent(self, npn_matcher, exhaustive_matcher):
        # A 3-leaf cut whose function ignores the middle leaf: x0 & x2.
        table = 0
        for minterm in range(8):
            if (minterm & 1) and (minterm & 4):
                table |= 1 << minterm
        leaves = (10, 11, 12)
        reference = match_reduced(exhaustive_matcher, leaves, table)
        result = npn_matcher.match_positions_batch([3], [table])
        assert reference is not None and result.matched[0]
        ours = result.matches[int(result.match_index[0])]
        positions = result.positions[0, : int(result.width[0])].tolist()
        assert tuple(leaves[p] for p in positions) == reference[1] == (10, 12)
        assert int(result.reduced[0]) == reference[2]
        assert ours.cell.name == reference[0].cell.name


class TestMappingBitIdentity:
    @pytest.mark.parametrize("benchmark_name", SUBSET)
    @pytest.mark.parametrize("max_inputs", (4, 6))
    def test_mapping_statistics_identical(
        self,
        benchmark_name,
        max_inputs,
        tg_static_library,
        cmos_library,
        exhaustive_matchers,
    ):
        """NPN-matched mapping reproduces the exhaustive (seed) Table-3 numbers."""
        aig = run_flow("resyn2rs", benchmark_by_name(benchmark_name).build()).aig
        for library in (tg_static_library, cmos_library):
            ours = technology_map(
                aig, library, matcher=LibraryMatcher(library), max_inputs=max_inputs
            )
            reference = mapper_oracle.technology_map(
                aig, library, exhaustive_matchers[library.name], max_inputs
            )
            assert ours.statistics() == reference.statistics()
            assert [gate.cell_name for gate in ours.gates] == [
                gate.cell_name for gate in reference.gates
            ]
