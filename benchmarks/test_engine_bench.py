"""Benchmark: the experiment engine's caching and scheduling wins.

Measures the full Table-3 regeneration through the engine: a cold run
(every job computed) against a warm run (every job served from the
on-disk result cache), asserting the cache delivers at least the 3x
wall-clock reduction the engine exists for.  A micro-benchmark compares the
word-parallel ``verify_mapping`` fast path against the retained
bit-at-a-time reference on a mid-size mapped circuit.
"""

import time

import pytest

from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.experiments.engine import ExperimentEngine
from repro.logic.simulation import random_pattern_words
from repro.synthesis.mapper import (
    technology_map,
    verify_mapping,
)
from repro.synthesis.matcher import matcher_for
from repro.synthesis.optimize import optimize
from repro.bench.registry import benchmark_by_name
from tests.oracles.mapper import verify_mapping_reference

pytestmark = pytest.mark.slow


def test_engine_warm_cache_at_least_3x_faster(benchmark, tmp_path_factory):
    """Full Table 3: cold compute vs. warm result cache."""
    cache_dir = tmp_path_factory.mktemp("engine-cache")
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)

    start = time.perf_counter()
    cold = engine.run_table3()
    cold_seconds = time.perf_counter() - start

    warm = benchmark.pedantic(engine.run_table3, iterations=1, rounds=1)
    warm_seconds = benchmark.stats.stats.mean

    view = lambda result: [(row.name, row.results) for row in result.rows]
    assert view(cold) == view(warm)
    assert cold_seconds >= 3.0 * warm_seconds, (
        f"warm cache run ({warm_seconds:.3f}s) not >=3x faster than cold "
        f"({cold_seconds:.3f}s)"
    )


def test_verify_fast_path_vs_reference(benchmark):
    """Word-parallel mapped-netlist verification vs. the bit-level oracle."""
    aig = optimize(benchmark_by_name("C1908").build())
    library = build_library(LogicFamily.TG_STATIC)
    mapped = technology_map(aig, library, matcher=matcher_for(library))
    patterns = random_pattern_words(aig.pi_names, num_words=4, seed=19)

    start = time.perf_counter()
    assert verify_mapping_reference(mapped, aig, patterns)
    reference_seconds = time.perf_counter() - start

    assert benchmark(verify_mapping, mapped, aig, patterns)
    fast_seconds = benchmark.stats.stats.mean
    assert fast_seconds < reference_seconds
