"""Timing report and the topological-order regression of ``_compute_timing``.

The shuffled-id netlist reproduces the latent bug the analysis subsystem
fixed: the historical timing/resimulation loops walked gates in ascending
output id, silently miscomputing arrival times whenever node ids were not
topologically ordered (possible after cleanup/rewrite of the subject graph).
"""

import pytest

from repro.bench.registry import benchmark_by_name
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.analysis.timing import compute_timing
from repro.synthesis.mapper import (
    MappedCircuit,
    MappedGate,
    technology_map,
    topological_gates,
)
from repro.synthesis.matcher import matcher_for
from repro.synthesis.optimize import optimize
from tests.oracles.mapper import gate_delay


def _gate(output, leaves, parasitic=1.0, effort=0.5):
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


def _shuffled_circuit():
    """A three-gate chain whose output ids are NOT in topological order.

    Net 9 is driven by the first gate (from PIs 1 and 2), net 3 consumes net
    9 and net 5 consumes net 3 -- sorting by output id (3, 5, 9) visits the
    consumers before their driver.
    """
    gates = [
        _gate(9, (1, 2)),
        _gate(3, (9, 1)),
        _gate(5, (3, 2)),
    ]
    return MappedCircuit.from_gates(
        gates,
        name="shuffled",
        library_name="test",
        tau_ps=1.0,
        primary_inputs=("a", "b"),
        primary_outputs=("y",),
        po_nodes=(5,),
    )


class TestTopologicalOrder:
    def test_orders_shuffled_ids_by_dependency(self):
        order = [gate.output for gate in topological_gates(_shuffled_circuit().gates)]
        assert order == [9, 3, 5]

    def test_rejects_combinational_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            topological_gates([_gate(3, (5,)), _gate(5, (3,))])
        with pytest.raises(ValueError, match="cycle"):
            topological_gates([_gate(3, (3,))])
        # A diamond (shared leaf reached through two parents) is NOT a cycle.
        diamond = [_gate(2, (1,)), _gate(3, (2,)), _gate(4, (2,)), _gate(5, (3, 4))]
        assert [g.output for g in topological_gates(diamond)] == [2, 3, 4, 5]

    def test_preserves_ascending_order_when_already_topological(self):
        aig = optimize(benchmark_by_name("add-16").build())
        library = build_library(LogicFamily.TG_STATIC)
        mapped = technology_map(aig, library, matcher=matcher_for(library))
        order = [gate.output for gate in topological_gates(mapped.gates)]
        assert order == sorted(order)


class TestShuffledIdRegression:
    def test_arrival_times_follow_dependencies_not_ids(self):
        mapped = _shuffled_circuit()
        report = compute_timing(mapped)
        # Every gate drives exactly one load here (the chain or the PO).
        delay = gate_delay(mapped.gates[0], 1)
        assert report.arrival[9] == pytest.approx(delay)
        assert report.arrival[3] == pytest.approx(2 * delay)
        assert report.arrival[5] == pytest.approx(3 * delay)
        assert report.normalized_delay == pytest.approx(3 * delay)
        assert report.levels == 3

    def test_mapper_records_correct_delay_for_shuffled_ids(self):
        # The historical sorted-by-id walk would report a depth-1 arrival
        # for net 3 (its driver net 9 not yet computed => treated as 0).
        mapped = _shuffled_circuit()
        report = compute_timing(mapped)
        broken_arrival = gate_delay(mapped.gates[0], 1)  # what the bug gave
        assert report.normalized_delay > 2 * broken_arrival


class TestTimingReport:
    @pytest.fixture(scope="class")
    def mapped(self):
        aig = optimize(benchmark_by_name("add-16").build())
        library = build_library(LogicFamily.TG_STATIC)
        return technology_map(aig, library, matcher=matcher_for(library))

    def test_matches_mapper_recorded_figures(self, mapped):
        report = compute_timing(mapped)
        assert report.normalized_delay == pytest.approx(mapped.normalized_delay)
        assert report.levels == mapped.levels

    def test_slack_is_nonnegative_and_zero_on_critical_path(self, mapped):
        report = compute_timing(mapped)
        assert report.worst_slack() >= -1e-9
        assert report.critical_path, "critical path must not be empty"
        for node in report.critical_path:
            assert report.slack[node] == pytest.approx(0.0, abs=1e-9)
        # The critical path ends at a worst-arrival primary output driver.
        assert report.arrival[report.critical_path[-1]] == pytest.approx(
            report.normalized_delay
        )

    def test_required_is_arrival_plus_slack(self, mapped):
        report = compute_timing(mapped)
        for node, slack in report.slack.items():
            assert report.required[node] == pytest.approx(
                report.arrival[node] + slack
            )

    def test_critical_path_is_a_connected_gate_chain(self, mapped):
        report = compute_timing(mapped)
        by_output = {gate.output: gate for gate in mapped.gates}
        path = report.critical_path
        for upstream, downstream in zip(path, path[1:]):
            assert upstream in by_output[downstream].leaves
