"""Mapping-core lane: multi-round recovery QoR and runtime.

Times the cost-model mapping engine with and without required-time recovery
(``rounds=0`` vs ``rounds=2``) on representative Table-3 circuits, so the
nightly ``mapping_bench.json`` artifact tracks both the single-pass DP cost
and the full recovery driver (candidate re-pricing, per-round covering and
re-timing) as the engine evolves.  Every recovered run also asserts the
driver's QoR contract -- area no worse than round 0 at unchanged worst
delay -- so a regression in recovery quality fails the lane even if the
timing stays flat.
"""

import pytest

from repro.bench.registry import benchmark_by_name
from repro.core.families import LogicFamily
from repro.flow import run_flow
from repro.synthesis.mapper import map_rounds

pytestmark = pytest.mark.slow

#: Circuit-class spread: XOR-rich ECC, wide ALU, symmetric logic, multiplier.
MAPPING_CASES = ("C1908", "dalu", "t481", "C6288")


@pytest.fixture(scope="module")
def subject_aigs():
    return {
        name: run_flow("resyn2rs", benchmark_by_name(name).build()).aig
        for name in MAPPING_CASES
    }


def _cold_map_rounds(aig, library, matcher, rounds):
    """Map with the per-AIG cut-set memo dropped, so every benchmark round
    pays for cut enumeration as well as the DP and (for rounds > 0) the
    recovery driver."""
    aig.__dict__.pop("_cut_sets", None)
    return map_rounds(
        aig, library, matcher=matcher, objective="delay", rounds=rounds
    )


@pytest.mark.parametrize("name", sorted(MAPPING_CASES))
@pytest.mark.parametrize("rounds", [0, 2])
def test_bench_mapping_rounds(
    benchmark, libraries, matchers, subject_aigs, name, rounds
):
    """Time one delay-objective mapping at the given recovery depth."""
    aig = subject_aigs[name]
    family = LogicFamily.TG_STATIC
    result = benchmark(
        _cold_map_rounds, aig, libraries[family], matchers[family], rounds
    )
    round0, final = result.rounds[0], result.final
    assert final.gate_count > 0 and final.levels > 0
    if rounds:
        # The recovery contract: never slower than round 0, never larger.
        assert final.normalized_delay <= round0.normalized_delay + 1e-9
        assert final.area <= round0.area + 1e-9


@pytest.mark.parametrize("name", sorted(MAPPING_CASES))
def test_bench_warm_recovery(benchmark, libraries, matchers, subject_aigs, name):
    """Time the warm rounds=2 recovery driver.

    Unlike :func:`test_bench_mapping_rounds` this keeps the cut-set memo, so
    the measurement isolates what the recovery rounds cost once the
    candidate tables exist: their DP solves, covers and re-timing.
    """
    aig = subject_aigs[name]
    family = LogicFamily.TG_STATIC
    result = benchmark(
        map_rounds,
        aig,
        libraries[family],
        matcher=matchers[family],
        objective="delay",
        rounds=2,
    )
    round0, final = result.rounds[0], result.final
    assert final.normalized_delay <= round0.normalized_delay + 1e-9
    assert final.area <= round0.area + 1e-9


def test_recovery_qor_across_families(libraries, matchers, subject_aigs):
    """Aggregate QoR guard: recovery must keep finding real area at equal
    delay somewhere in the lane (the headline claim of the recovery rounds),
    not merely hold the no-worse line everywhere."""
    total0 = total2 = 0.0
    for name in MAPPING_CASES:
        aig = subject_aigs[name]
        for family in (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO, LogicFamily.CMOS):
            result = map_rounds(
                aig,
                libraries[family],
                matcher=matchers[family],
                objective="delay",
                rounds=2,
            )
            round0, final = result.rounds[0], result.final
            assert final.normalized_delay <= round0.normalized_delay + 1e-9
            assert final.area <= round0.area + 1e-9
            total0 += round0.area
            total2 += final.area
    # At least a few percent of aggregate area must be recovered.
    assert total2 <= total0 * 0.99
