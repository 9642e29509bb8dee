"""Component micro-benchmarks for the synthesis substrate.

These complement the table/figure harness by timing the individual stages of
the flow (library construction, matcher construction, optimization, cut
enumeration, mapping) on a fixed mid-size circuit, so performance regressions
in any one stage are visible in isolation.
"""

import pytest

from repro import obs
from repro.bench.generators.adders import ripple_adder_circuit
from repro.bench.generators.multiplier import array_multiplier_circuit
from repro.core.families import LogicFamily, build_family_cells
from repro.core.library import build_library
from repro.logic.npn import canonicalize_bits, clear_canonicalizer_memo
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import cut_set_for
from repro.synthesis.mapper import technology_map
from repro.synthesis.matcher import LibraryMatcher, cut_function_table
from repro.synthesis.optimize import balance, optimize, rewrite
from tests.oracles import matcher as matcher_oracle


@pytest.fixture(scope="module")
def multiplier_aig():
    return array_multiplier_circuit(8)


def test_bench_library_construction(benchmark):
    """Build and verify all 46 static transmission-gate cells."""
    cells = benchmark(build_family_cells, LogicFamily.TG_STATIC)
    assert len(cells) == 46


def test_bench_matcher_construction(benchmark):
    """Build the NPN-canonical match index of the static library."""
    library = build_library(LogicFamily.TG_STATIC)
    matcher = benchmark(LibraryMatcher, library)
    # One entry per matched canonical class -- tiny compared to the
    # pre-expanded tables (see test_bench_exhaustive_matcher_construction).
    assert 0 < len(matcher) <= len(library)


def test_bench_exhaustive_matcher_construction():
    """Smoke: one construction of the exhaustive matching oracle
    (``tests/oracles/matcher.py``), untimed -- no production path builds
    it."""
    library = build_library(LogicFamily.TG_STATIC)
    matcher = matcher_oracle.ExhaustiveLibraryMatcher(library)
    assert len(matcher) > 1000


def test_bench_balance(benchmark, multiplier_aig):
    balanced = benchmark(balance, multiplier_aig)
    assert balanced.depth() <= multiplier_aig.depth()


def test_bench_rewrite(benchmark, multiplier_aig):
    rewritten = benchmark(rewrite, multiplier_aig)
    assert rewritten.num_ands > 0


def test_bench_optimize_adder(benchmark):
    aig = ripple_adder_circuit(32)
    optimized = benchmark(optimize, aig)
    assert optimized.num_ands <= aig.num_ands


def test_bench_cut_enumeration_cold(benchmark, multiplier_aig):
    """Enumerate the multiplier's cuts from scratch every round.

    The per-AIG cut-set memo is dropped first, so every round times
    enumeration rather than a ``cut_set_for`` memo hit.
    """

    def run():
        multiplier_aig.__dict__.pop("_cut_sets", None)
        return cut_set_for(multiplier_aig)

    cut_set = benchmark(run)
    assert (cut_set.count[aig_arrays(multiplier_aig).and_nodes] >= 2).all()


def test_bench_matching_batch(benchmark, multiplier_aig, libraries, matchers):
    """Batched match resolution (cut_function_table + match_table) on the
    multiplier's ranked cuts.

    Every round drops the cut set's function and match table memos and the
    batch canonicalizer memo first, so the benchmark times the full
    dedup/sign/filter/canonicalize/searchsorted/compose pipeline rather than
    a memo hit.
    """
    matcher = matchers[LogicFamily.TG_STATIC]
    arrays = aig_arrays(multiplier_aig)
    cut_set = cut_set_for(multiplier_aig)

    def run():
        for field in ("_match_tables", "_function_table"):
            cut_set.__dict__.pop(field, None)
        clear_canonicalizer_memo()
        return matcher.match_table(cut_set, arrays.and_nodes, "delay")

    table = benchmark(run)
    assert table.matched.any()
    assert table.inverse.shape[0] == int(
        (cut_set.count[arrays.and_nodes] - 1).sum()
    )


def test_bench_matching_scalar(benchmark, multiplier_aig, libraries, matchers):
    """Scalar oracle (``match_positions`` of ``tests/oracles/matcher.py`` per
    distinct cut function) on the same workload as
    ``test_bench_matching_batch``, memos cleared per round."""
    matcher = matchers[LogicFamily.TG_STATIC]
    arrays = aig_arrays(multiplier_aig)
    cut_set = cut_set_for(multiplier_aig)
    functions = cut_function_table(cut_set, arrays.and_nodes)
    sizes = [int(v) for v in functions.sizes]
    tables = [int(v) for v in functions.tables]

    def run():
        matcher_oracle.cache_clear(matcher)
        canonicalize_bits.cache_clear()
        hits = 0
        for size, bits in zip(sizes, tables):
            found = matcher_oracle.match_positions(matcher, size, bits, prefer="delay")
            if found is not None:
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits > 0


def test_bench_mapping_only(benchmark, multiplier_aig, libraries, matchers):
    """Technology mapping alone (cuts + matching + covering) on an 8x8 multiplier."""
    library = libraries[LogicFamily.TG_STATIC]
    matcher = matchers[LogicFamily.TG_STATIC]
    mapped = benchmark(technology_map, multiplier_aig, library, matcher)
    assert mapped.gate_count > 0


def test_bench_obs_disabled_overhead(benchmark):
    """The observability off-path across 1000 instrumented sections.

    Every pipeline stage / mapper round / flow pass runs through these call
    sites unconditionally, so the disabled path (one module-attribute read
    each) must stay effectively free -- this pins it in seconds per 1000
    stage+span+count triples.
    """
    obs.reset()  # tracing off: measure the path production runs on
    assert not obs.tracing_active()

    def hot_loop():
        for _ in range(1000):
            with obs.stage("bench-stage"):
                with obs.span("bench-span", category="task"):
                    obs.count("bench-counter")

    benchmark(hot_loop)
    assert obs.spans() == []  # disabled: nothing may have been recorded
    assert obs.counters() == {}
