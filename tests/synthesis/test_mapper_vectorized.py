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
* the cost-model contract: a model without the batch hooks is rejected at
  registration;
* the memory guard: a matcher's ``delay`` and ``area`` candidate tables
  share their policy-independent frame by identity, and the shared table
  equals one built on its own.
"""

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
from repro.synthesis.cost import (
    MappingContext,
    available_objectives,
    cost_model_for,
    register_cost_model,
)
from repro.synthesis.cuts import cut_set_for
from repro.synthesis.mapper import (
    _build_candidate_table,
    _candidate_table_for,
    _dp_round_batched,
    _required_times,
)
from repro.synthesis.matcher import matcher_for
from tests.oracles.cost import pin_capacitances
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
    if objective != "power":
        return MappingContext()
    from repro.analysis.activity import compute_activities

    report = compute_activities(aig)
    return MappingContext(activity=report.activity, probability=report.probability)


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
        mapped, report = cover(aig, _LIBRARY, choices, pin_capacitances)
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
    choice, arrival, flow = _dp_round_batched(
        aig,
        _LIBRARY,
        table,
        batch_prices,
        model,
        references_np,
        required=required_np,
        load_aware=load_aware,
    )
    batched_choices = BatchedChoices(table, choice)

    for node in and_node_list:
        assert _candidate_key(batched_choices[node]) == _candidate_key(
            scalar_choices[node]
        ), f"choice stream diverges at node {node} ({objective}, constrained={constrained})"
    # Bitwise equality, not approx: the whole point of the slot-ordered scan.
    assert arrival.tolist() == scalar_arrival
    assert flow.tolist() == scalar_flow


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


class _ScalarOnlyDelay:
    """DelayCost's name and policy with a per-candidate ``gate_cost`` and
    ``better`` but neither batch hook."""

    name = "delay-scalar-test"
    prefer = "delay"

    def gate_cost(self, candidate, node, context):
        return candidate.area

    def better(self, arrival, flow, best_arrival, best_flow):
        return arrival < best_arrival - 1e-9 or (
            abs(arrival - best_arrival) <= 1e-9 and flow < best_flow - 1e-9
        )


def test_models_without_batch_hooks_are_rejected():
    """``price_batch`` and ``better_batch`` are the whole cost-model
    contract: a model defining only the per-candidate methods is refused at
    registration and never reaches the DP."""
    model = _ScalarOnlyDelay()
    with pytest.raises(ValueError, match="lacks price_batch and better_batch"):
        register_cost_model(model)
    assert model.name not in available_objectives()


class TestMemoryGuards:
    FRAME = ("node", "start", "count", "leaves", "width", "table_bits", "level_rows")

    def test_policies_share_one_candidate_frame(self):
        aig = run_flow("resyn2rs", benchmark_by_name("C1355").build()).aig
        arrays = aig_arrays(aig)
        cut_set = cut_set_for(aig)
        delay = _candidate_table_for(arrays, cut_set, _MATCHER, "delay")
        area = _candidate_table_for(arrays, cut_set, _MATCHER, "area")
        for name in self.FRAME:
            assert getattr(area, name) is getattr(delay, name), name
        assert not np.array_equal(area.area, delay.area)

        alone = _build_candidate_table(arrays, cut_set, _MATCHER, "area")
        for name in (*self.FRAME, "match_index", "delay", "area", "parasitic", "effort"):
            shared, built = getattr(area, name), getattr(alone, name)
            if name == "level_rows":
                assert len(shared) == len(built)
                assert all(map(np.array_equal, shared, built)), name
            else:
                assert shared.dtype == built.dtype and np.array_equal(shared, built), name
        assert area.matches == alone.matches
