"""Vectorized mapper DP vs the scalar oracle in ``tests/oracles/mapper.py``.

The batched DP of :mod:`repro.synthesis.mapper` must reproduce the scalar
incumbent scan *decision for decision*: the ``1e-9`` epsilon tie-breaks are
not transitive, so any reordering of the comparison sequence could select a
different (equally "best") cell and silently change downstream artifacts.
These tests pin that contract:

* choice streams -- the selected candidate of every AND node, in order --
  compared node-for-node between the oracle ``dp_round`` and
  ``_dp_round_batched``, on fixed benchmarks and hypothesis-generated
  random AIGs, for all three objectives, with and without required-time
  constraints;
* ``_required_times`` edge cases (deadline below the worst arrival, values
  off the cover's nets, empty covers);
* the incremental recovery re-solve against the full re-solve
  (``map_rounds(incremental=True)`` == ``incremental=False``), and the
  row-wise hook adapter for cost models without batch hooks.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timing import TimingArrays
from repro.bench.registry import benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.synthesis.aig import Aig
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cost import MappingContext, cost_model_for
from repro.synthesis.cuts import cut_set_for
from repro.synthesis.mapper import (
    _candidate_table_for,
    _dp_round_batched,
    _pin_bindings,
    _required_times,
    _RowwiseHooks,
    _supports_batch,
    _with_batch_hooks,
    map_rounds,
)
from repro.synthesis.matcher import matcher_for
from tests.oracles.mapper import (
    BatchedChoices,
    build_candidates,
    cover,
    cover_references,
    dp_round,
    price_candidates,
    required_times,
)

FAST_BENCHMARKS = ("add-16", "t481")


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

_LIBRARY = build_library(LogicFamily.TG_STATIC)
_MATCHER = matcher_for(_LIBRARY)

_SUBJECTS: dict[str, Aig] = {}


def _subject(name: str) -> Aig:
    aig = _SUBJECTS.get(name)
    if aig is None:
        aig = _SUBJECTS[name] = run_flow(
            "resyn2rs", benchmark_by_name(name).build()
        ).aig
    return aig


def _context(aig: Aig, objective: str) -> MappingContext:
    """A mapping context equivalent to the one ``map_rounds`` builds."""
    memo: dict[int, tuple] = {}

    def pin_capacitances(match):
        entry = memo.get(id(match))
        if entry is None:
            power = match.cell.power
            caps = tuple(
                power.pin_capacitance(pin, negated)
                for pin, negated in _pin_bindings(match)
            )
            memo[id(match)] = entry = (match, caps)
        return entry[1]

    context = MappingContext(pin_capacitances=pin_capacitances)
    if objective == "power":
        from repro.analysis.activity import compute_activities

        report = compute_activities(aig)
        context.activity = report.activity.tolist()
        context.probability = report.probability.tolist()
    return context


def _candidate_key(candidate) -> tuple:
    return (
        candidate.leaves,
        candidate.table,
        candidate.match.cell.name,
        candidate.match.match.output_negated,
    )


def _compare_streams(aig: Aig, objective: str, constrained: bool) -> None:
    """Scalar and batched DP must agree on every node's selected candidate
    (and bitwise on every arrival/flow) under identical inputs."""
    model = cost_model_for(objective)
    assert _supports_batch(model)
    context = _context(aig, objective)
    arrays = aig_arrays(aig)
    cut_set = cut_set_for(aig)
    and_node_list = arrays.and_nodes.tolist()
    num_nodes = arrays.num_nodes

    candidates = build_candidates(arrays, cut_set, _MATCHER, model.prefer)
    prices = price_candidates(and_node_list, candidates, model, context)
    table = _candidate_table_for(arrays, cut_set, _MATCHER, model.prefer)
    batch_prices = model.price_batch(table, context)

    references = [max(float(count), 1.0) for count in arrays.fanout]
    references_np = np.maximum(arrays.fanout, 1).astype(np.float64)
    required = required_np = None
    load_aware = False
    if constrained:
        # Derive realistic constraints from the round-0 cover, exactly the
        # way the recovery driver does.
        choices, _arr, _flow = dp_round(
            aig, _LIBRARY, and_node_list, candidates, prices, model, references
        )
        mapped, report = cover(aig, _LIBRARY, choices, context.pin_capacitances)
        references = cover_references(mapped, arrays.fanout.tolist())
        references_np = np.asarray(references, dtype=np.float64)
        required = required_times(num_nodes, report, report.normalized_delay)
        required_np = np.asarray(required, dtype=np.float64)
        load_aware = True

    scalar_choices, scalar_arrival, scalar_flow = dp_round(
        aig,
        _LIBRARY,
        and_node_list,
        candidates,
        prices,
        model,
        references,
        required=required,
        load_aware=load_aware,
    )
    state = _dp_round_batched(
        aig,
        _LIBRARY,
        table,
        batch_prices,
        model,
        references_np,
        required=required_np,
        load_aware=load_aware,
    )
    batched_choices = BatchedChoices(table, state.choice)

    for node in and_node_list:
        assert _candidate_key(batched_choices[node]) == _candidate_key(
            scalar_choices[node]
        ), f"choice stream diverges at node {node} ({objective}, constrained={constrained})"
    # Bitwise equality, not approx: the whole point of the slot-ordered scan.
    assert state.arrival.tolist() == scalar_arrival
    assert state.flow.tolist() == scalar_flow


class TestChoiceStreamParity:
    """Vectorized vs scalar selection, node for node."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize("objective", ("delay", "area", "power"))
    @pytest.mark.parametrize("constrained", (False, True), ids=("round0", "recovery"))
    def test_benchmark_streams(self, bench_name, objective, constrained):
        _compare_streams(_subject(bench_name), objective, constrained)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=60),
        objective=st.sampled_from(("delay", "area", "power")),
        constrained=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_streams(self, seed, num_inputs, num_nodes, objective, constrained):
        aig = _random_aig(seed, num_inputs, num_nodes)
        if not aig.num_ands:
            return  # nothing to map; the DP has no decisions to compare
        _compare_streams(aig, objective, constrained)


def _timing(normalized_delay, nets, arrival, required) -> TimingArrays:
    """STA arrays for ``_required_times`` (the fields it does not read are
    placeholders)."""
    return TimingArrays(
        normalized_delay=normalized_delay,
        levels=0,
        nets=np.asarray(nets, dtype=bool),
        loads=np.zeros(len(nets), dtype=np.int64),
        arrival=np.asarray(arrival, dtype=np.float64),
        required=np.asarray(required, dtype=np.float64),
        slack=np.asarray(required, dtype=np.float64)
        - np.asarray(arrival, dtype=np.float64),
        gate_delay=np.zeros(0, dtype=np.float64),
    )


class TestRequiredTimesEdges:
    """Shift/clip behaviour of the per-node required times."""

    def test_deadline_below_worst_arrival_tightens_every_net(self):
        timing = _timing(
            10.0,
            nets=[False, True, True, False],
            arrival=[0.0, 4.0, 10.0, 0.0],
            required=[0.0, 6.0, 10.0, 0.0],
        )
        required = _required_times(timing, deadline=7.0)
        # Every covered net shifts by deadline - normalized_delay = -3.
        assert required[1] == 3.0
        assert required[2] == 7.0
        # Net 2's requirement is now below its arrival: all-negative slack
        # is representable, the DP's fallback scan handles infeasibility.
        assert required[2] - timing.arrival[2] < 0.0
        # Uncovered nodes stay unconstrained.
        assert required[0] == float("inf")
        assert required[3] == float("inf")

    def test_values_off_the_cover_nets_are_ignored(self):
        timing = _timing(
            5.0,
            nets=[False, False, True, False],
            arrival=[1.0, 2.0, 3.0, 4.0],
            required=[1.0, 2.0, 5.0, 2.0],
        )
        required = _required_times(timing, deadline=5.0)
        assert required[2] == 5.0
        assert [required[i] for i in (0, 1, 3)] == [float("inf")] * 3
        assert len(required) == 4

    def test_empty_cover_leaves_everything_unconstrained(self):
        timing = _timing(
            0.0, nets=[False] * 3, arrival=[0.0] * 3, required=[0.0] * 3
        )
        assert _required_times(timing, deadline=1.0).tolist() == [float("inf")] * 3


def _round_digests(result) -> list[str]:
    digests = []
    for mapped in result.rounds:
        digest = hashlib.sha256()
        for gate in sorted(mapped.gates, key=lambda g: g.output):
            digest.update(
                f"{gate.output}:{gate.cell_name}:{gate.leaves}:{gate.table}:"
                f"{int(gate.inverted)};".encode()
            )
        digests.append(digest.hexdigest())
    return digests


class TestIncrementalEquivalence:
    """Incremental recovery re-solves must equal the full re-solve bit for bit."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize("objective", ("delay", "area", "power"))
    def test_benchmark_equivalence(self, bench_name, objective):
        aig = _subject(bench_name)
        incremental = map_rounds(
            aig, _LIBRARY, matcher=_MATCHER, objective=objective, rounds=3
        )
        full = map_rounds(
            aig,
            _LIBRARY,
            matcher=_MATCHER,
            objective=objective,
            rounds=3,
            incremental=False,
        )
        assert incremental.accepted == full.accepted
        assert _round_digests(incremental) == _round_digests(full)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=50),
        objective=st.sampled_from(("delay", "area", "power")),
        rounds=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_equivalence(self, seed, num_inputs, num_nodes, objective, rounds):
        aig = _random_aig(seed, num_inputs, num_nodes)
        incremental = map_rounds(
            aig, _LIBRARY, matcher=_MATCHER, objective=objective, rounds=rounds
        )
        full = map_rounds(
            aig,
            _LIBRARY,
            matcher=_MATCHER,
            objective=objective,
            rounds=rounds,
            incremental=False,
        )
        assert incremental.accepted == full.accepted
        assert _round_digests(incremental) == _round_digests(full)


class _ScalarOnlyDelay:
    """DelayCost semantics without the batch hooks."""

    name = "delay-scalar-test"
    prefer = "delay"

    def gate_cost(self, candidate, node, context):
        return candidate.area

    def better(self, arrival, flow, best_arrival, best_flow):
        return arrival < best_arrival - 1e-9 or (
            abs(arrival - best_arrival) <= 1e-9 and flow < best_flow - 1e-9
        )


class _ScalarOnlyArea:
    """AreaFlowCost semantics without the batch hooks."""

    name = "area-scalar-test"
    prefer = "area"

    def gate_cost(self, candidate, node, context):
        return candidate.area

    def better(self, arrival, flow, best_arrival, best_flow):
        return flow < best_flow - 1e-9 or (
            abs(flow - best_flow) <= 1e-9 and arrival < best_arrival - 1e-9
        )


def test_models_without_batch_hooks_map_through_the_adapter():
    """Third-party models lacking price_batch/better_batch still map, through
    the row-wise adapter, and (with DelayCost's and AreaFlowCost's semantics)
    reproduce the built-in models' round digests, recovery included."""
    from repro.synthesis.cost import _COST_MODELS

    delay, area = _ScalarOnlyDelay(), _ScalarOnlyArea()
    assert not _supports_batch(delay) and not _supports_batch(area)
    adapted = _with_batch_hooks(delay)
    assert isinstance(adapted, _RowwiseHooks) and _supports_batch(adapted)
    assert _with_batch_hooks(cost_model_for("delay")) is cost_model_for("delay")
    for model in (delay, area):
        _COST_MODELS[model.name] = model
    try:
        aig = _subject("add-16")
        scalar = map_rounds(
            aig,
            _LIBRARY,
            matcher=_MATCHER,
            objective=delay.name,
            rounds=2,
            recovery=area.name,
        )
        batched = map_rounds(
            aig, _LIBRARY, matcher=_MATCHER, objective="delay", rounds=2
        )
        assert scalar.accepted == batched.accepted
        assert len(scalar.rounds) > 1
        assert _round_digests(scalar) == _round_digests(batched)
        # The adapter prices exactly like the built-in hook.
        arrays = aig_arrays(aig)
        table = _candidate_table_for(arrays, cut_set_for(aig), _MATCHER, "delay")
        context = _context(aig, "delay")
        assert (
            adapted.price_batch(table, context).tolist()
            == cost_model_for("delay").price_batch(table, context).tolist()
        )
    finally:
        for model in (delay, area):
            _COST_MODELS.pop(model.name, None)
