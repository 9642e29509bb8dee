"""Parity of the batched NPN matching pipeline with the scalar oracle.

The batched pipeline (``canonicalize_bits_batch_columns`` ->
``cut_function_table`` -> ``LibraryMatcher.match_positions_batch`` /
``match_table``) must be a bit-for-bit drop-in for the retained scalar path:
the same cut functions match, the same cells win, the composed pin
assignments are *tuple-equal* (not merely equivalent), and the candidate
tables the mapper builds from either path produce byte-identical mappings.
The scalar ``match_positions`` (and, at the mapper level, its
per-distinct-function candidate-table branch) is the pinned oracle
throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.registry import benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.logic.npn import canonicalize_bits, canonicalize_bits_batch_columns
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cut_kernels import project_table_batch, table_support_batch
from repro.synthesis.cuts import cut_set_for, project_table, table_support
from repro.synthesis.mapper import technology_map
from repro.synthesis.matcher import (
    LibraryMatcher,
    cut_function_table,
    matcher_for,
)


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
            scalar = matcher.match_positions(arity, bits, prefer=prefer)
            if scalar is None:
                assert not result.matched[row]
                assert result.match_index[row] == -1
                continue
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
            cell = cell_match.cell
            assert result.delay[row] == cell.delay.fo4_average
            assert result.area[row] == cell.area
            assert result.parasitic[row] == cell.delay.parasitic_output
            assert result.effort[row] == max(
                cell.delay.fo4_average - cell.delay.parasitic_output, 0.0
            ) / 4.0

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
            batch_spans = [s for s in obs.spans() if s.name == "match-batch"]
            assert len(batch_spans) == 1
            assert batch_spans[0].attributes["prefer"] == "delay"
            assert batch_spans[0].attributes["index_hits"] == int(
                table.matched.sum()
            )
        finally:
            obs.disable_tracing()


class _PerFunctionMatcher:
    """The same matcher without the batch API (no ``match_table``), so the
    mapper builds its candidate table through the per-distinct-function
    ``match_positions`` branch."""

    def __init__(self, matcher):
        self.library = matcher.library
        self.match_positions = matcher.match_positions


class TestMapperPathParity:
    @pytest.mark.parametrize("max_inputs", [4, 6])
    def test_scalar_forced_mapping_is_identical(self, tg_library, max_inputs):
        """The per-function candidate-table branch must reproduce the batched
        mapping gate-for-gate at every cut width (the mapper-level parity
        pin)."""
        aig = run_flow("resyn2rs", benchmark_by_name("t481").build()).aig
        matcher = matcher_for(tg_library)
        batched = technology_map(
            aig, tg_library, matcher=matcher, max_inputs=max_inputs
        )
        # A distinct matcher object, so the candidate-table memo on the
        # shared cut set misses and the table is rebuilt per function.
        scalar = technology_map(
            aig,
            tg_library,
            matcher=_PerFunctionMatcher(matcher),
            max_inputs=max_inputs,
        )
        assert [
            (g.output, g.cell_name, g.leaves, g.table, g.inverted)
            for g in batched.gates
        ] == [
            (g.output, g.cell_name, g.leaves, g.table, g.inverted)
            for g in scalar.gates
        ]
        assert batched.normalized_delay == scalar.normalized_delay
        assert batched.area == scalar.area
