"""Parity of the batched NPN matching pipeline with the scalar oracle.

The batched pipeline (``cut_function_table``: lexsort dedup, projection and
NPN signatures -> ``LibraryMatcher.match_positions_batch`` /
``match_table``: signature filter, ``canonicalize_bits_batch_columns``,
index lookup) must resolve every cut function exactly as the scalar
one-function-at-a-time matcher of ``tests/oracles/matcher.py`` does: the
same cut functions match, the same cells win, and the composed pin
assignments are *tuple-equal* (not merely equivalent).  The oracle's
``match_positions`` is the pinned reference throughout.  The signature
kernel is pinned to a scalar reference and to NPN invariance, and the dedup
to ``np.unique``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.logic.npn import (
    InputMatch,
    apply_match,
    canonicalize_bits,
    canonicalize_bits_batch_columns,
)
from repro.logic.truth_table import TruthTable
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cut_kernels import (
    distinct_keys,
    npn_signature_batch,
    project_table_batch,
    table_support_batch,
)
from repro.synthesis.cuts import cut_set_for, table_support
from repro.synthesis.matcher import (
    LibraryMatcher,
    cut_function_table,
    matcher_for,
)
from tests.oracles.matcher import match_positions, project_table


@pytest.fixture(scope="module")
def tg_library():
    return build_library(LogicFamily.TG_STATIC)


@pytest.fixture(scope="module")
def cmos_library():
    return build_library(LogicFamily.CMOS)


@pytest.fixture(scope="module")
def matchers(tg_library, cmos_library):
    """One matcher per (library, output-negation) combination."""
    return {
        (library.name, flag): LibraryMatcher(library, allow_output_negation=flag)
        for library in (tg_library, cmos_library)
        for flag in (True, False)
    }


@st.composite
def table_batches(draw):
    """A batch of random truth tables of one arity, degenerates included."""
    arity = draw(st.integers(min_value=2, max_value=6))
    size = 1 << arity
    full = (1 << size) - 1
    count = draw(st.integers(min_value=1, max_value=24))
    tables = [draw(st.integers(min_value=0, max_value=full)) for _ in range(count)]
    # Seed the classic degenerate shapes: constants and single-variable
    # projections exercise the empty/partial-support branches.
    tables.extend([0, full, 0xAAAAAAAAAAAAAAAA & full])
    return arity, tables


def reference_signature(bits: int, num_vars: int) -> int:
    """Scalar NPN signature: the onset count, then every variable's
    ``min(negative, positive)`` cofactor onset count (zero-padded to six
    values) sorted ascending, 6 bits a field; the smaller of the keys of
    ``f`` and ``~f``."""
    size = 1 << num_vars
    full = (1 << size) - 1

    def key(table: int) -> int:
        onset = bin(table).count("1")
        values = [0] * (6 - num_vars)
        for var in range(num_vars):
            negative = sum(
                (table >> minterm) & 1
                for minterm in range(size)
                if not (minterm >> var) & 1
            )
            values.append(min(negative, onset - negative))
        packed = onset
        for value in sorted(values):
            packed = (packed << 6) | value
        return packed

    return min(key(bits & full), key(~bits & full))


@st.composite
def transformed_functions(draw):
    """A random 1-6 input function and a random NPN transform of it."""
    arity = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << arity)) - 1))
    permutation = tuple(draw(st.permutations(range(arity))))
    phase = draw(st.integers(min_value=0, max_value=(1 << arity) - 1))
    negated = draw(st.booleans())
    return arity, bits, InputMatch(permutation, phase, negated)


class TestNpnSignature:
    @settings(max_examples=200, deadline=None)
    @given(case=transformed_functions())
    def test_signature_equals_reference_and_is_npn_invariant(self, case):
        arity, bits, transform = case
        variant = apply_match(TruthTable(arity, bits), transform).bits
        signatures = npn_signature_batch(
            np.array([bits, variant], dtype=np.uint64), np.array([arity, arity])
        )
        assert int(signatures[0]) == reference_signature(bits, arity)
        assert int(signatures[1]) == int(signatures[0])

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.integers(min_value=0, max_value=6).flatmap(
                lambda arity: st.tuples(
                    st.just(arity), st.integers(min_value=0, max_value=2**64 - 1)
                )
            ),
            min_size=1,
            max_size=24,
        )
    )
    def test_mixed_size_batch_ignores_bits_above_the_table(self, rows):
        sizes = np.array([arity for arity, _ in rows], dtype=np.int64)
        tables = np.array([bits for _, bits in rows], dtype=np.uint64)
        signatures = npn_signature_batch(tables, sizes)
        for row, (arity, bits) in enumerate(rows):
            assert int(signatures[row]) == reference_signature(bits, arity)


class TestDistinctKeys:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                # A small alphabet forces repeats, and equal tables at
                # different sizes.
                st.sampled_from([0, 1, 0x6, 0x8, 0x96, 0xE8, 2**63, 2**64 - 1]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_lexsort_dedup_equals_np_unique(self, rows):
        sizes = np.array([size for size, _ in rows], dtype=np.int8)
        tables = np.array([table for _, table in rows], dtype=np.uint64)
        first, inverse = distinct_keys(sizes, tables)
        keys = np.stack([sizes.astype(np.uint64), tables], axis=1)
        want, want_first, want_inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        assert first.tolist() == want_first.tolist()
        assert inverse.tolist() == want_inverse.reshape(-1).tolist()
        assert sizes[first].astype(np.uint64).tolist() == want[:, 0].tolist()
        assert tables[first].tolist() == want[:, 1].tolist()


def _assert_row_equals_scalar(result, row, scalar):
    """Row ``row`` of a :class:`MatchTable` equals a scalar
    ``match_positions`` result: matched flag, cell object, composed
    ``InputMatch`` tuple, positions and reduced bits."""
    if scalar is None:
        assert not result.matched[row]
        assert result.match_index[row] == -1
        return
    cell_match, positions, reduced_bits = scalar
    width = len(positions)
    assert result.matched[row]
    assert int(result.width[row]) == width
    assert tuple(result.positions[row, :width].tolist()) == positions
    assert int(result.reduced[row]) == reduced_bits
    batched_match = result.matches[int(result.match_index[row])]
    assert batched_match.cell is cell_match.cell
    # Tuple equality of the composed transform, not mere functional
    # equivalence: downstream pin bindings depend on the exact tuple.
    assert batched_match.match == cell_match.match


class TestCanonicalizerColumns:
    @settings(max_examples=80, deadline=None)
    @given(batch=table_batches(), include_output_negation=st.booleans())
    def test_batch_columns_equal_scalar_canonicalizer(
        self, batch, include_output_negation
    ):
        arity, tables = batch
        values = np.array(tables, dtype=np.uint64)
        canon, perm, phase, negated = canonicalize_bits_batch_columns(
            values, arity, include_output_negation
        )
        assert perm.shape == (values.shape[0], arity)
        for row, bits in enumerate(tables):
            want = canonicalize_bits(bits, arity, include_output_negation)
            got = (
                int(canon[row]),
                tuple(int(v) for v in perm[row]),
                int(phase[row]),
                bool(negated[row]),
            )
            assert got == want


class TestBatchedMatchParity:
    @settings(max_examples=60, deadline=None)
    @given(
        batch=table_batches(),
        prefer=st.sampled_from(["delay", "area"]),
        allow_negation=st.booleans(),
        library_name=st.sampled_from(["cntfet-tg-static", "cmos-static"]),
    )
    def test_match_positions_batch_equals_scalar(
        self, matchers, batch, prefer, allow_negation, library_name
    ):
        arity, tables = batch
        matcher = matchers[(library_name, allow_negation)]
        sizes = np.full(len(tables), arity, dtype=np.int64)
        values = np.array(tables, dtype=np.uint64)
        result = matcher.match_positions_batch(sizes, values, prefer)
        assert result.inverse.tolist() == list(range(len(tables)))
        for row, bits in enumerate(tables):
            scalar = match_positions(matcher, arity, bits, prefer=prefer)
            _assert_row_equals_scalar(result, row, scalar)

    @settings(max_examples=80, deadline=None)
    @given(batch=table_batches())
    def test_support_and_projection_kernels_match_scalar(self, batch):
        arity, tables = batch
        sizes = np.full(len(tables), arity, dtype=np.int64)
        values = np.array(tables, dtype=np.uint64)
        masks = table_support_batch(values, sizes)
        projected = project_table_batch(values, masks)
        for row, bits in enumerate(tables):
            mask = table_support(bits, arity)
            assert int(masks[row]) == mask
            assert int(projected[row]) == project_table(bits, arity, mask)


class TestCutFunctionTable:
    @pytest.fixture(scope="class")
    def subject(self):
        aig = run_flow("resyn2rs", benchmark_by_name("add-16").build()).aig
        return aig, aig_arrays(aig), cut_set_for(aig)

    def test_function_table_covers_every_ranked_cut(self, subject):
        aig, arrays, cut_set = subject
        table = cut_function_table(cut_set, arrays.and_nodes)
        total = int((cut_set.count[arrays.and_nodes] - 1).sum())
        assert table.num_rows == total
        assert table.inverse.min() >= 0
        assert table.inverse.max() < table.num_distinct
        # Distinct rows reproduce their (size, table) keys through inverse.
        per_node = cut_set.count[arrays.and_nodes] - 1
        nodes_rep = np.repeat(arrays.and_nodes, per_node)
        starts = np.concatenate(([0], np.cumsum(per_node)[:-1]))
        slots = np.arange(total) - np.repeat(starts, per_node)
        assert np.array_equal(
            table.sizes[table.inverse], cut_set.size[nodes_rep, slots]
        )
        assert np.array_equal(
            table.tables[table.inverse], cut_set.table[nodes_rep, slots]
        )

    def test_function_table_is_memoized(self, subject):
        aig, arrays, cut_set = subject
        first = cut_function_table(cut_set, arrays.and_nodes)
        assert cut_function_table(cut_set, arrays.and_nodes) is first

    def test_match_table_counters_and_span(self, subject, tg_library):
        from repro import obs

        aig, arrays, cut_set = subject
        matcher = matcher_for(tg_library)
        obs.enable_tracing()
        try:
            before = dict(obs.counters())
            table = matcher.match_table(cut_set, arrays.and_nodes, "delay")
            # Memoized: a second call must not re-count.
            assert matcher.match_table(cut_set, arrays.and_nodes, "delay") is table
            after = obs.counters()

            def grew(name):
                return after.get(name, 0) - before.get(name, 0)

            assert grew("match.batch_rows") == table.inverse.shape[0]
            assert grew("match.unique_functions") == table.matched.shape[0]
            assert grew("match.index_hits") == int(table.matched.sum())
            # Canonicalized: exactly the rows whose (scalar reference)
            # signature one of the library's cells of that arity carries.
            functions = cut_function_table(cut_set, arrays.and_nodes)
            cell_signatures = {
                (cell.arity, reference_signature(cell.function.bits, cell.arity))
                for cell in tg_library.cells
            }
            candidates = sum(
                (width, reference_signature(bits, width)) in cell_signatures
                for width, bits in zip(
                    functions.width.tolist(), functions.reduced.tolist()
                )
                if width > 0
            )
            assert grew("match.canonicalized") == candidates
            assert int(table.matched.sum()) <= candidates < functions.num_distinct
            batch_spans = [s for s in obs.spans() if s.name == "match-batch"]
            assert len(batch_spans) == 1
            attributes = batch_spans[0].attributes
            assert attributes["prefer"] == "delay"
            assert attributes["index_hits"] == int(table.matched.sum())
            assert attributes["canonicalized"] == candidates
        finally:
            obs.disable_tracing()


@pytest.fixture(scope="module")
def family_matchers():
    """A fresh NPN matcher per family (the process-wide ones stay clean)."""
    return [LibraryMatcher(build_library(family)) for family in LogicFamily]


@pytest.mark.parametrize("name", [case.name for case in BENCHMARKS])
def test_match_tables_equal_scalar_oracle(name, family_matchers):
    """Every distinct cut function of a registered subject resolves as the
    scalar ``match_positions`` oracle does, for all five families under
    both cell policies: the signature filter drops no function that
    matches."""
    aig = run_flow("resyn2rs", benchmark_by_name(name).build()).aig
    and_nodes = aig_arrays(aig).and_nodes
    cut_set = cut_set_for(aig)
    functions = cut_function_table(cut_set, and_nodes)
    rows = list(zip(functions.sizes.tolist(), functions.tables.tolist()))
    for matcher in family_matchers:
        for prefer in ("delay", "area"):
            result = matcher.match_table(cut_set, and_nodes, prefer)
            assert result.inverse is functions.inverse
            for row, (size, bits) in enumerate(rows):
                scalar = match_positions(matcher, size, bits, prefer=prefer)
                _assert_row_equals_scalar(result, row, scalar)
