"""Array cover and array STA vs the per-gate oracles in ``tests/oracles/mapper.py``.

Production covers the DP's chosen rows with array passes
(``repro.synthesis.mapper._cover_rows``) and times netlists with one array
core (``repro.analysis.timing.static_timing``).  These tests pin both to the
per-gate cover and the dict-walking STA they replaced:

* every cover ``map_rounds`` builds -- round 0, every recovery attempt --
  on fixed benchmarks and hypothesis-generated AIGs equals the oracle
  cover of the same choices: the ``MappedCircuit`` (``==`` plus the timing
  figures), Python scalar fields, the required times, the reference counts
  and the keep-best cost;
* ``compute_timing`` equals the oracle report on hypothesis netlists with
  shuffled output ids, gates without leaves, primary outputs driven by
  inputs or the constant, and repeated primary outputs;
* a combinational cycle raises ``ValueError``;
* a live node without a chosen row raises a typed ``MappingError``.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.activity import compute_activities
from repro.analysis.timing import compute_timing
from repro.bench.registry import benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.synthesis import mapper
from repro.synthesis.aig import Aig, lit_node
from repro.synthesis.cost import MappingContext, cost_model_for, resolve_recovery
from repro.synthesis.mapper import (
    MappedCircuit,
    MappedGate,
    MappingError,
    _required_times,
    map_rounds,
)
from repro.synthesis.matcher import matcher_for
from tests.oracles import mapper as oracle

FAST_BENCHMARKS = ("add-16", "t481")
OBJECTIVES = ("delay", "area", "power")
FAMILIES = (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO, LogicFamily.CMOS)

_SUBJECTS: dict[str, Aig] = {}


def _subject(name: str) -> Aig:
    aig = _SUBJECTS.get(name)
    if aig is None:
        aig = _SUBJECTS[name] = run_flow(
            "resyn2rs", benchmark_by_name(name).build()
        ).aig
    return aig


def _random_aig(seed: int, num_inputs: int, num_nodes: int) -> Aig:
    import random

    rng = random.Random(seed)
    aig = Aig(f"rand-{seed}")
    literals = [aig.add_pi(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_nodes):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.and_gate(a, b))
    for i, literal in enumerate(literals[-max(2, num_inputs // 2):]):
        aig.add_po(f"y{i}", literal ^ rng.randint(0, 1))
    return aig


_GATE_FIELD_TYPES = {
    "output": int,
    "cell_name": str,
    "function_id": str,
    "table": int,
    "area": float,
    "intrinsic_delay": float,
    "parasitic_delay": float,
    "effort_delay": float,
    "inverted": bool,
}


def _assert_python_fields(mapped: MappedCircuit) -> None:
    """Every field is a Python scalar or a tuple of them (numpy scalars
    subclass ``float``, so the check is on the exact type)."""
    for gate in mapped.gates:
        for name, kind in _GATE_FIELD_TYPES.items():
            assert type(getattr(gate, name)) is kind, (name, gate)
        assert type(gate.leaves) is tuple
        assert all(type(leaf) is int for leaf in gate.leaves)
        assert type(gate.leaf_loads) is tuple
        assert all(type(load) is float for load in gate.leaf_loads)
    assert type(mapped.normalized_delay) is float
    assert type(mapped.worst_slack) is float
    assert type(mapped.levels) is int
    assert all(type(node) is int for node in mapped.po_nodes)


def _map_checked(monkeypatch, aig, library, objective, rounds, **kwargs):
    """``map_rounds`` with every cover it builds compared against the oracle
    cover of the same choices; returns the result and the cover count."""
    cost_model = cost_model_for(
        resolve_recovery(objective, "auto") if rounds else objective
    )
    activities = compute_activities(aig)
    covers = []
    original = mapper._cover_rows

    def checked(aig_, library_, arrays, table, choice, prices):
        produced = original(aig_, library_, arrays, table, choice, prices)
        choices = oracle.BatchedChoices(table, choice.copy())
        expected, report = oracle.cover(
            aig_, library_, choices, oracle.pin_capacitances
        )

        got = produced.mapped
        assert got == expected
        assert got.normalized_delay == expected.normalized_delay
        assert got.levels == expected.levels
        assert got.worst_slack == expected.worst_slack
        _assert_python_fields(got)
        assert compute_timing(got) == report

        num_nodes = arrays.num_nodes
        for deadline in (report.normalized_delay, report.normalized_delay - 0.5):
            assert _required_times(produced.timing, deadline).tolist() == (
                oracle.required_times(num_nodes, report, deadline)
            )
        assert produced.references.tolist() == oracle.cover_references(
            expected, arrays.fanout.tolist()
        )
        context = MappingContext(
            activity=activities.activity, probability=activities.probability
        )
        assert produced.cost == oracle.cover_cost(
            expected, choices, cost_model, context
        )
        covers.append(got)
        return produced

    monkeypatch.setattr(mapper, "_cover_rows", checked)
    result = map_rounds(aig, library, objective=objective, rounds=rounds, **kwargs)
    assert len(covers) >= len(result.rounds)
    assert all(any(kept is cover for cover in covers) for kept in result.rounds)
    return result, len(covers)


class TestCoverParity:
    """Every cover of a mapping run equals the per-gate oracle cover."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("rounds", (0, 2))
    def test_benchmark_covers(self, monkeypatch, bench_name, objective, rounds):
        library = build_library(LogicFamily.TG_STATIC)
        _, count = _map_checked(
            monkeypatch,
            _subject(bench_name),
            library,
            objective,
            rounds,
            matcher=matcher_for(library),
        )
        assert count >= 1 + (rounds > 0)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=2, max_value=7),
        num_nodes=st.integers(min_value=0, max_value=60),
        family=st.sampled_from(FAMILIES),
        objective=st.sampled_from(OBJECTIVES),
        rounds=st.integers(min_value=0, max_value=2),
        max_inputs=st.sampled_from((4, 6)),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_covers(
        self, seed, num_inputs, num_nodes, family, objective, rounds, max_inputs
    ):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _map_checked(
                monkeypatch,
                _random_aig(seed, num_inputs, num_nodes),
                build_library(family),
                objective,
                rounds,
                max_inputs=max_inputs,
            )


def _gate(output, leaves, parasitic, effort):
    return MappedGate(
        output=output,
        cell_name="F00_test",
        function_id="F00",
        leaves=tuple(leaves),
        table=1,
        area=2.0,
        intrinsic_delay=parasitic + 4 * effort,
        parasitic_delay=parasitic,
        effort_delay=effort,
    )


def _circuit(gates, po_nodes) -> MappedCircuit:
    return MappedCircuit.from_gates(
        gates,
        name="netlist",
        library_name="test",
        tau_ps=1.0,
        primary_inputs=(),
        primary_outputs=tuple(f"y{i}" for i in range(len(po_nodes))),
        po_nodes=tuple(po_nodes),
    )


#: Delay terms with exact ties (critical-path and slack ties) plus arbitrary
#: floats.
_DELAYS = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.25)),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)


@st.composite
def _netlists(draw):
    """Acyclic netlists whose output ids are not in topological order.

    Gates are created in dependency order but numbered by a random
    permutation and listed in another, may have no leaves (or repeat one),
    and the primary outputs may name inputs, the constant 0 or the same net
    twice.
    """
    num_inputs = draw(st.integers(min_value=0, max_value=4))
    num_gates = draw(st.integers(min_value=0, max_value=12))
    ids = draw(st.permutations(range(1, num_inputs + num_gates + 1)))
    available = [0, *ids[:num_inputs]]
    gates = []
    for output in ids[num_inputs:]:
        leaves = draw(st.lists(st.sampled_from(available), max_size=4))
        gates.append(_gate(output, leaves, draw(_DELAYS), draw(_DELAYS)))
        available.append(output)
    listed = draw(st.permutations(gates))
    po_nodes = draw(st.lists(st.sampled_from(available), max_size=5))
    return _circuit(listed, po_nodes)


class TestTimingParity:
    @given(mapped=_netlists())
    @settings(max_examples=200, deadline=None)
    def test_compute_timing_equals_oracle(self, mapped):
        report = compute_timing(mapped)
        assert report == oracle.compute_timing(mapped)
        assert report.worst_slack() == oracle.compute_timing(mapped).worst_slack()

    def test_covered_edge_shapes(self):
        """The shapes the hypothesis strategy must reach, pinned once."""
        gates = [
            _gate(9, (1, 2), 1.0, 0.5),
            _gate(3, (9, 1), 1.0, 0.5),
            _gate(5, (3, 2), 1.0, 0.5),
            _gate(7, (), 0.5, 0.25),
        ]
        mapped = _circuit(gates, (5, 5, 1, 0, 7))
        assert compute_timing(mapped) == oracle.compute_timing(mapped)

    @pytest.mark.parametrize(
        "gates",
        [
            [_gate(3, (5,), 1.0, 0.5), _gate(5, (3,), 1.0, 0.5)],
            [_gate(3, (3,), 1.0, 0.5)],
            # A two-gate cycle fed by an acyclic gate and feeding another,
            # off every primary output.
            [
                _gate(2, (1,), 1.0, 0.5),
                _gate(4, (6, 2), 1.0, 0.5),
                _gate(6, (4,), 1.0, 0.5),
                _gate(8, (6,), 1.0, 0.5),
            ],
        ],
        ids=("two-gate", "self-loop", "off-po"),
    )
    def test_cycle_raises(self, gates):
        with pytest.raises(ValueError, match="cycle"):
            compute_timing(_circuit(gates, (2,)))


class TestMappingFailure:
    def test_live_node_without_chosen_row_raises_mapping_error(self, monkeypatch):
        """A DP choice array missing a row for a needed node is a typed,
        named failure, not a bare ``KeyError``."""
        aig = _subject("add-16")
        library = build_library(LogicFamily.TG_STATIC)
        victim = lit_node(aig.po_literals[-1])
        assert not aig.is_pi(victim) and victim != 0
        original = mapper._dp_round_batched

        def doctored(*args, **kwargs):
            choice, arrival, flow = original(*args, **kwargs)
            choice[victim] = -1
            return choice, arrival, flow

        monkeypatch.setattr(mapper, "_dp_round_batched", doctored)
        with pytest.raises(
            MappingError, match=rf"node {victim} .*{re.escape(repr(library.name))}"
        ):
            map_rounds(aig, library, matcher=matcher_for(library))
