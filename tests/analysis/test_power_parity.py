"""Columnar ``analyze_power`` vs the per-gate oracle in ``tests/oracles/power.py``.

Production computes a netlist's power from its gate columns with a fixed
summation order (``repro.analysis.power``); these tests pin the totals to
the gate-by-gate ``+=`` loops they replaced, with ``==``, never ``approx``:

* every registered subject x the five families x delay/area/power, every
  round of a one-round recovery run (rounds 0 and 1), also checking
  ``MappedCircuit.area`` against the builtin ``sum`` over ``mapped.gates``
  (compensated from Python 3.12 on, so a sequential sum would differ there);
* hand-built netlists over real library cells whose gates omit their pin
  bindings (the mean-input-capacitance fallback) and whose output ids are
  not in topological order;
* a production map batch builds no ``MappedGate``, and reading
  ``mapped.gates`` afterwards gives the oracle cover's gates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.activity import compute_activities
from repro.analysis.power import PO_LOAD, analyze_power
from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.experiments.engine import ExperimentEngine, MapJob
from repro.flow import run_flow
from repro.synthesis import mapper
from repro.synthesis.aig import Aig
from repro.synthesis.mapper import MappedCircuit, MappedGate, map_rounds
from repro.synthesis.matcher import matcher_for
from tests.oracles import mapper as mapper_oracle
from tests.oracles import power as oracle

FAST_SUBJECTS = ("add-16", "t481")
OBJECTIVES = ("delay", "area", "power")
FAMILIES = tuple(LogicFamily)

_SUBJECTS: dict[str, tuple] = {}


def _subject(name: str):
    """The optimized AIG of a registered benchmark and its activities."""
    subject = _SUBJECTS.get(name)
    if subject is None:
        aig = run_flow("resyn2rs", benchmark_by_name(name).build()).aig
        subject = _SUBJECTS[name] = (aig, compute_activities(aig))
    return subject


def _assert_power_parity(mapped, aig, library, activities) -> None:
    got = analyze_power(mapped, aig, library, activities)
    want = oracle.analyze_power(mapped, aig, library, activities)
    assert got.dynamic == want.dynamic
    assert got.input_dynamic == want.input_dynamic
    assert got.static == want.static
    assert got.total == want.total
    assert got == want


def _check_subject(name: str, family: LogicFamily) -> None:
    aig, activities = _subject(name)
    library = build_library(family)
    for objective in OBJECTIVES:
        result = map_rounds(
            aig,
            library,
            matcher=matcher_for(library),
            objective=objective,
            rounds=1,
            activities=activities,
        )
        for mapped in result.rounds:
            assert mapped.area == sum(gate.area for gate in mapped.gates)
            _assert_power_parity(mapped, aig, library, activities)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("name", FAST_SUBJECTS)
def test_subject_power_equals_oracle_fast_subset(name, family):
    _check_subject(name, family)


@pytest.mark.slow
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize(
    "name", tuple(c.name for c in BENCHMARKS if c.name not in FAST_SUBJECTS)
)
def test_subject_power_equals_oracle_full_sweep(name, family):
    _check_subject(name, family)


def _small_aig(num_inputs: int = 4, num_ands: int = 10) -> Aig:
    """A subject graph whose node ids the hand-built netlists refer to."""
    aig = Aig("hand")
    literals = [aig.add_pi(f"x{i}") for i in range(num_inputs)]
    for index in range(num_ands):
        pi = literals[index % num_inputs] ^ (index & 1)
        literals.append(aig.and_gate(literals[-1], pi))
    aig.add_po("y", literals[-1])
    assert aig.num_nodes == 1 + num_inputs + num_ands
    return aig


def _gate(cell, output, leaves, loads, inverted):
    return MappedGate(
        output=output,
        cell_name=cell.name,
        function_id=cell.function_id,
        leaves=tuple(leaves),
        table=cell.function.bits,
        area=cell.area,
        intrinsic_delay=cell.delay.fo4_average,
        parasitic_delay=cell.delay.parasitic_output,
        effort_delay=max(cell.delay.fo4_average - cell.delay.parasitic_output, 0.0)
        / 4.0,
        leaf_loads=tuple(loads),
        inverted=inverted,
    )


def _order_sensitive_binding(library):
    """A two-input cell and pin loads ``(a, b)`` with ``a + b + PO_LOAD``
    depending on the order of the additions."""
    for cell in library.cells_with_arity(2):
        for phases in ((False, False), (False, True), (True, False), (True, True)):
            a, b = (
                cell.power.pin_capacitance(pin, negated)
                for pin, negated in zip(cell.input_names, phases)
            )
            if (a + b) + PO_LOAD != (PO_LOAD + a) + b:
                return cell, (a, b)
    raise AssertionError(f"no order-sensitive pin loads in {library.name}")


@pytest.mark.parametrize("family", (LogicFamily.TG_PSEUDO, LogicFamily.CMOS))
def test_hand_built_netlist_without_pin_bindings(family):
    """Gates without ``leaf_loads`` charge the cell's mean input capacitance,
    output ids out of topological order change nothing, and a primary
    output's load comes after its pin loads."""
    aig = _small_aig()
    activities = compute_activities(aig)
    library = build_library(family)
    two = library.cells_with_arity(2)
    three = library.cells_with_arity(3)
    bound, loads = _order_sensitive_binding(library)
    # Net 12 feeds net 9, which feeds net 6: ids descend along the paths,
    # and the list order is neither ids nor dependencies.  Input 1 drives
    # both pins of the bound gate and a primary output.
    gates = [
        _gate(two[0], 9, (12, 2), (), False),
        _gate(three[0], 6, (9, 3, 12), (), True),
        _gate(bound, 12, (1, 1), loads, True),
        _gate(two[0], 14, (6, 4), (), False),
    ]
    mapped = MappedCircuit.from_gates(
        gates,
        name=aig.name,
        library_name=library.name,
        tau_ps=library.tau_ps,
        primary_inputs=aig.pi_names,
        primary_outputs=("y", "z", "w", "v"),
        po_nodes=(14, 6, 1, 2),
    )
    report = analyze_power(mapped, aig, library, activities)
    assert report.input_dynamic > 0
    _assert_power_parity(mapped, aig, library, activities)


@st.composite
def _netlists(draw, library, num_nodes, pi_nodes):
    """Acyclic netlists over real cells: random ids, list order, pin
    bindings present or omitted, output polarity and primary outputs."""
    cells = draw(st.lists(st.sampled_from(library.cells), max_size=8))
    and_ids = [node for node in range(1, num_nodes) if node not in pi_nodes]
    outputs = draw(st.permutations(and_ids))[: len(cells)]
    available = [0, *pi_nodes]
    gates = []
    for cell, output in zip(cells, outputs):
        leaves = [draw(st.sampled_from(available)) for _ in cell.input_names]
        loads = ()
        if draw(st.booleans()):
            loads = tuple(
                cell.power.pin_capacitance(pin, draw(st.booleans()))
                for pin in cell.input_names
            )
        gates.append(_gate(cell, output, leaves, loads, draw(st.booleans())))
        available.append(output)
    listed = draw(st.permutations(gates))
    po_nodes = draw(st.lists(st.sampled_from(available), max_size=4))
    return MappedCircuit.from_gates(
        listed,
        name="random",
        library_name=library.name,
        tau_ps=library.tau_ps,
        primary_inputs=(),
        primary_outputs=tuple(f"y{i}" for i in range(len(po_nodes))),
        po_nodes=tuple(po_nodes),
    )


_RANDOM_AIG = _small_aig(num_inputs=4, num_ands=12)
_RANDOM_ACTIVITIES = compute_activities(_RANDOM_AIG)
_PI_NODES = [_RANDOM_AIG.pi_literal(name) >> 1 for name in _RANDOM_AIG.pi_names]
_PSEUDO = build_library(LogicFamily.TG_PSEUDO)


@given(mapped=_netlists(_PSEUDO, _RANDOM_AIG.num_nodes, _PI_NODES))
@settings(max_examples=60, deadline=None)
def test_random_hand_built_netlists_equal_oracle(mapped):
    _assert_power_parity(mapped, _RANDOM_AIG, _PSEUDO, _RANDOM_ACTIVITIES)
    assert mapped.area == sum(gate.area for gate in mapped.gates)


def test_map_batch_builds_no_mapped_gate(monkeypatch):
    """A production map job (engine batch, ``jobs=1``, no cache) creates no
    ``MappedGate``; the gates read afterwards equal the oracle cover's."""
    covers = []
    cover_rows = mapper._cover_rows

    def recording(aig, library, arrays, table, choice, prices):
        produced = cover_rows(aig, library, arrays, table, choice, prices)
        covers.append((aig, library, table, choice.copy(), produced.mapped))
        return produced

    built = []
    init = MappedGate.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mapper, "_cover_rows", recording)
    monkeypatch.setattr(MappedGate, "__init__", counting)
    engine = ExperimentEngine(jobs=1, use_cache=False)
    results = engine.run_map_jobs(
        [
            MapJob("t481", family, objective, rounds=rounds)
            for family in (LogicFamily.TG_PSEUDO, LogicFamily.CMOS)
            for objective, rounds in (("delay", 1), ("power", 0))
        ]
    )
    assert len(results) == 4 and covers
    assert built == []

    monkeypatch.setattr(MappedGate, "__init__", init)
    for aig, library, table, choice, mapped in covers:
        expected, _ = mapper_oracle.cover(
            aig,
            library,
            mapper_oracle.BatchedChoices(table, choice),
            mapper_oracle.pin_capacitances,
        )
        assert mapped.gates == expected.gates
