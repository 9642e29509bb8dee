"""Netlist power analysis and the power mapping objective."""

import functools

import pytest

from repro.analysis.activity import compute_activities
from repro.analysis.power import analyze_power
from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.experiments.table3 import TABLE3_FAMILIES
from repro.logic.simulation import random_pattern_words
from repro.synthesis.mapper import technology_map, verify_mapping
from repro.synthesis.matcher import matcher_for
from repro.synthesis.optimize import optimize
from tests.oracles import power as oracle

PSEUDO = (LogicFamily.TG_PSEUDO, LogicFamily.PASS_PSEUDO)
FAST_SUBSET = ("add-16", "t481", "C1355")


@functools.lru_cache(maxsize=None)
def _optimized_aig(name):
    return optimize(benchmark_by_name(name).build())


def _mapped(name, family, objective="delay", activities=None):
    aig = _optimized_aig(name)
    library = build_library(family)
    mapped = technology_map(
        aig,
        library,
        matcher=matcher_for(library),
        objective=objective,
        activities=activities,
    )
    return aig, library, mapped


class TestNetlistPower:
    @pytest.mark.parametrize("family", list(LogicFamily), ids=lambda f: f.value)
    def test_dynamic_positive_static_iff_pseudo(self, family):
        aig, library, mapped = _mapped("add-16", family)
        report = analyze_power(mapped, aig, library)
        assert report.dynamic > 0
        assert report.input_dynamic > 0
        assert report.total == pytest.approx(
            report.dynamic + report.input_dynamic + report.static
        )
        if family in PSEUDO:
            assert report.static > 0
        else:
            assert report.static == 0.0
        # The gate-by-gate reference gives the same totals, bit for bit.
        activities = compute_activities(aig)
        assert report == oracle.analyze_power(mapped, aig, library, activities)

    def test_power_is_deterministic_per_seed(self):
        aig, library, mapped = _mapped("C2670", LogicFamily.TG_PSEUDO)
        first = analyze_power(mapped, aig, library, vectors=32, seed=3)
        second = analyze_power(mapped, aig, library, vectors=32, seed=3)
        assert first == second
        other = analyze_power(mapped, aig, library, vectors=32, seed=4)
        assert first.dynamic != other.dynamic

    def test_shared_activities_short_circuit_recomputation(self):
        aig = optimize(benchmark_by_name("t481").build())
        activities = compute_activities(aig)
        library = build_library(LogicFamily.TG_STATIC)
        mapped = technology_map(aig, library, matcher=matcher_for(library))
        with_shared = analyze_power(mapped, aig, library, activities)
        recomputed = analyze_power(mapped, aig, library)
        assert with_shared == recomputed

    def test_cmos_burns_more_dynamic_than_tg_static(self):
        # The paper's area story implies a capacitance story: the CMOS
        # mapping switches substantially more capacitance.
        aig = optimize(benchmark_by_name("add-16").build())
        activities = compute_activities(aig)
        results = {}
        for family in (LogicFamily.TG_STATIC, LogicFamily.CMOS):
            library = build_library(family)
            mapped = technology_map(aig, library, matcher=matcher_for(library))
            results[family] = analyze_power(mapped, aig, library, activities)
        assert (
            results[LogicFamily.CMOS].dynamic
            > results[LogicFamily.TG_STATIC].dynamic
        )


class TestPowerObjective:
    @pytest.mark.parametrize("family", TABLE3_FAMILIES, ids=lambda f: f.value)
    def test_power_mapping_is_correct_and_deterministic(self, family):
        aig = optimize(benchmark_by_name("t481").build())
        library = build_library(family)
        activities = compute_activities(aig)
        first = technology_map(
            aig, library, matcher=matcher_for(library),
            objective="power", activities=activities,
        )
        second = technology_map(
            aig, library, matcher=matcher_for(library),
            objective="power", activities=activities,
        )
        assert [g.cell_name for g in first.gates] == [
            g.cell_name for g in second.gates
        ]
        patterns = random_pattern_words(aig.pi_names, num_words=2, seed=17)
        assert verify_mapping(first, aig, patterns)

    def test_power_mapping_does_not_exceed_delay_mapping_power(self):
        aig = optimize(benchmark_by_name("add-16").build())
        library = build_library(LogicFamily.TG_PSEUDO)
        activities = compute_activities(aig)
        by_objective = {}
        for objective in ("delay", "power"):
            mapped = technology_map(
                aig, library, matcher=matcher_for(library),
                objective=objective, activities=activities,
            )
            by_objective[objective] = analyze_power(
                mapped, aig, library, activities
            )
        assert by_objective["power"].total <= by_objective["delay"].total


@pytest.mark.parametrize("name", FAST_SUBSET)
@pytest.mark.parametrize("family", TABLE3_FAMILIES, ids=lambda f: f.value)
def test_power_reported_for_table3_pairs_fast_subset(name, family):
    _assert_pair_reports_power(name, family)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", tuple(c.name for c in BENCHMARKS if c.name not in FAST_SUBSET)
)
@pytest.mark.parametrize("family", TABLE3_FAMILIES, ids=lambda f: f.value)
def test_power_reported_for_table3_pairs_full_sweep(name, family):
    _assert_pair_reports_power(name, family)


def _assert_pair_reports_power(name, family):
    """Acceptance: dynamic + static power for every Table-3 pair, static
    power nonzero exactly for the pseudo families."""
    aig, library, mapped = _mapped(name, family)
    report = analyze_power(mapped, aig, library)
    assert report.dynamic > 0
    if family in PSEUDO:
        assert report.static > 0
    else:
        assert report.static == 0.0
