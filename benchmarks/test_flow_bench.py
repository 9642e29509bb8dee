"""Benchmark: the NPN-canonical matcher build and the named synthesis flows.

Times the canonical index build against the exhaustive permutation/phase
tables of the matching oracle (``tests/oracles/matcher.py``), and a full K=6
technology mapping against the per-candidate oracle mapper
(``tests/oracles/mapper.py``) over those tables, asserting the wins the
canonical index exists for: an index at least 10x smaller, a faster build,
and bit-identical mapping statistics.  A flow benchmark times the named synthesis flows through the
pass manager on a mid-size benchmark, and a split benchmark times the
``balance`` and ``rewrite`` passes alone.  Results are exported as
pytest-benchmark JSON by the nightly CI job (see
``.github/workflows/ci.yml``).
"""

import time

import pytest

from repro.bench.registry import benchmark_by_name
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.flow import available_flows, run_flow
from repro.synthesis.mapper import technology_map
from repro.synthesis.matcher import LibraryMatcher
from tests.oracles import mapper as mapper_oracle
from tests.oracles.matcher import ExhaustiveLibraryMatcher

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def static_library():
    return build_library(LogicFamily.TG_STATIC)


@pytest.fixture(scope="module")
def subject_aig():
    return run_flow("resyn2rs", benchmark_by_name("C1908").build()).aig


def test_bench_matcher_build_npn_vs_exhaustive(benchmark, static_library):
    """Canonical index: >=10x fewer entries and a faster build."""
    start = time.perf_counter()
    exhaustive = ExhaustiveLibraryMatcher(static_library)
    exhaustive_seconds = time.perf_counter() - start

    npn = benchmark(LibraryMatcher, static_library)
    npn_seconds = benchmark.stats.stats.mean

    assert len(npn) * 10 <= len(exhaustive), (
        f"canonical index ({len(npn)} entries) not >=10x smaller than the "
        f"exhaustive tables ({len(exhaustive)} entries)"
    )
    assert npn_seconds < exhaustive_seconds, (
        f"canonical build ({npn_seconds:.3f}s) not faster than exhaustive "
        f"({exhaustive_seconds:.3f}s)"
    )


def test_bench_k6_mapping_npn_vs_exhaustive(benchmark, static_library, subject_aig):
    """Full K=6 mapping: production against the exhaustive tables mapped
    through the oracle pipeline must agree bit for bit."""
    exhaustive = ExhaustiveLibraryMatcher(static_library)
    start = time.perf_counter()
    reference = mapper_oracle.technology_map(
        subject_aig, static_library, exhaustive, max_inputs=6
    )
    exhaustive_seconds = time.perf_counter() - start

    npn = LibraryMatcher(static_library)
    mapped = benchmark(
        technology_map, subject_aig, static_library, npn, max_inputs=6
    )
    npn_seconds = benchmark.stats.stats.mean

    assert mapped.statistics() == reference.statistics()
    assert [gate.cell_name for gate in mapped.gates] == [
        gate.cell_name for gate in reference.gates
    ]
    # The canonical path canonicalizes each distinct cut function once
    # (memoized); it must stay in the same ballpark as the raw lookup.
    assert npn_seconds < 5 * exhaustive_seconds, (
        f"canonical mapping ({npn_seconds:.3f}s) more than 5x slower than "
        f"exhaustive lookup ({exhaustive_seconds:.3f}s)"
    )


@pytest.mark.parametrize("flow", sorted(available_flows()))
def test_bench_named_flows(benchmark, flow):
    """Per-flow optimization time on a mid-size benchmark (pass telemetry on)."""
    aig = benchmark_by_name("C1355").build()
    result = benchmark(run_flow, flow, aig)
    assert result.aig.num_ands > 0
    if flow != "none":
        assert result.passes


@pytest.mark.parametrize("pass_name", ("balance", "rewrite"))
def test_bench_single_pass(benchmark, pass_name):
    """Balance/rewrite split of the ``resyn2rs`` lane (vectorized fast paths).

    ``rewrite`` is timed on the balanced subject -- its position in the
    flow -- with the per-AIG cut-set memo dropped each round so every round
    pays for cut enumeration like a cold flow does.
    """
    from repro.flow.passes import get_pass

    aig = benchmark_by_name("C1355").build()
    if pass_name == "rewrite":
        aig = run_flow("quick", aig).aig

    run = get_pass(pass_name).run

    def setup():
        aig.__dict__.pop("_cut_sets", None)
        return (aig,), {}

    result = benchmark.pedantic(run, setup=setup, rounds=20)
    assert result.num_ands > 0
