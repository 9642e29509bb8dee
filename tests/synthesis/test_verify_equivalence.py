"""Equivalence regression: word-parallel verify_mapping vs. the reference.

For Table-3 benchmarks and the three mapping libraries, the mapped netlist
is re-simulated with both the Shannon-expansion fast path
(:func:`repro.synthesis.mapper.verify_mapping`) and the retained
bit-at-a-time reference (``tests/oracles/mapper.py``) on random packed
patterns; both must accept the mapping, and both must reject a deliberately
corrupted netlist.  A small subset runs in the default lane; the full
15-benchmark sweep is marked ``slow``.
"""

import functools

import pytest

from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.experiments.table3 import TABLE3_FAMILIES
from repro.logic.simulation import random_pattern_words
from repro.synthesis.mapper import (
    MappedGate,
    technology_map,
    verify_mapping,
)
from repro.synthesis.matcher import matcher_for
from repro.synthesis.optimize import optimize
from tests.oracles.mapper import verify_mapping_reference

FAST_SUBSET = ("add-16", "t481", "C1355")
FULL_SET = tuple(case.name for case in BENCHMARKS)


@functools.lru_cache(maxsize=None)
def _optimized_aig(name: str):
    return optimize(benchmark_by_name(name).build())


@functools.lru_cache(maxsize=None)
def _mapped(name: str, family: LogicFamily):
    library = build_library(family)
    return technology_map(_optimized_aig(name), library, matcher=matcher_for(library))


def _check_agreement(name: str, family: LogicFamily, num_words: int = 2):
    aig = _optimized_aig(name)
    mapped = _mapped(name, family)
    patterns = random_pattern_words(
        aig.pi_names,
        num_words=num_words,
        seed=1000 * len(name) + TABLE3_FAMILIES.index(family),
    )
    fast = verify_mapping(mapped, aig, patterns)
    slow = verify_mapping_reference(mapped, aig, patterns)
    assert fast is True, f"fast path rejected {name}/{family.value}"
    assert slow is True, f"reference rejected {name}/{family.value}"


@pytest.mark.parametrize("family", TABLE3_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("name", FAST_SUBSET)
def test_fast_and_reference_agree_fast_subset(name, family):
    _check_agreement(name, family)


@pytest.mark.slow
@pytest.mark.parametrize("family", TABLE3_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize(
    "name", tuple(n for n in FULL_SET if n not in FAST_SUBSET)
)
def test_fast_and_reference_agree_full_sweep(name, family):
    _check_agreement(name, family)


@pytest.mark.parametrize("family", TABLE3_FAMILIES, ids=lambda f: f.value)
def test_both_paths_reject_corrupted_netlist(family):
    name = "add-16"
    aig = _optimized_aig(name)
    mapped = _mapped(name, family)
    broken_gate = mapped.gates[len(mapped.gates) // 2]
    flipped = MappedGate(
        output=broken_gate.output,
        cell_name=broken_gate.cell_name,
        function_id=broken_gate.function_id,
        leaves=broken_gate.leaves,
        table=broken_gate.table ^ ((1 << (1 << len(broken_gate.leaves))) - 1),
        area=broken_gate.area,
        intrinsic_delay=broken_gate.intrinsic_delay,
        parasitic_delay=broken_gate.parasitic_delay,
        effort_delay=broken_gate.effort_delay,
    )
    corrupted = type(mapped).from_gates(
        [flipped if g is broken_gate else g for g in mapped.gates],
        name=mapped.name,
        library_name=mapped.library_name,
        tau_ps=mapped.tau_ps,
        primary_inputs=mapped.primary_inputs,
        primary_outputs=mapped.primary_outputs,
        po_nodes=mapped.po_nodes,
        levels=mapped.levels,
        normalized_delay=mapped.normalized_delay,
    )
    patterns = random_pattern_words(aig.pi_names, num_words=2, seed=5)
    assert verify_mapping(corrupted, aig, patterns) is False
    assert verify_mapping_reference(corrupted, aig, patterns) is False
