"""Tests for the pass-based synthesis flow framework."""

import pytest

from repro.flow import (
    FlowSpec,
    FunctionPass,
    available_flows,
    available_passes,
    flow_pass,
    get_flow,
    get_pass,
    register_flow,
    register_pass,
    run_flow,
)
from repro.logic.simulation import random_pattern_words
from repro.synthesis import CircuitBuilder, optimize
from repro.synthesis.optimize import balance, rewrite


def _adder(width=6, name="adder"):
    builder = CircuitBuilder(name)
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    total, carry = builder.ripple_adder(a, b)
    builder.output_bus("s", total)
    builder.output("cout", carry)
    return builder.finish()


def _equivalent(a, b, seed=5):
    patterns = random_pattern_words(a.pi_names, num_words=4, seed=seed)
    return a.simulate_words(patterns) == b.simulate_words(patterns)


def _shape(aig):
    return (
        aig.num_ands,
        aig.depth(),
        [(node, aig.fanins(node)) for node in aig.and_nodes()],
        tuple(aig.po_literals),
    )


class TestRegistries:
    def test_builtin_flows_registered(self):
        assert {"none", "quick", "resyn2rs", "deep"} <= set(available_flows())

    def test_builtin_passes_registered(self):
        assert {"balance", "rewrite", "rewrite3", "rewrite5"} <= set(available_passes())

    def test_fresh_process_registers_no_oracle(self):
        """The reference passes and flow are test fixtures: a fresh process
        that imports the package registers none of them."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import json\n"
            "from repro.flow import available_flows, available_passes\n"
            "print(json.dumps([available_flows(), available_passes()]))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True,
            text=True,
            check=True,
        )
        flows, passes = json.loads(completed.stdout)
        assert flows == ["deep", "none", "quick", "resyn2rs"]
        assert not any("reference" in name for name in passes)

    def test_unknown_names_raise_with_suggestions(self):
        with pytest.raises(KeyError, match="resyn2rs"):
            get_flow("not-a-flow")
        with pytest.raises(KeyError, match="balance"):
            get_pass("not-a-pass")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_pass(FunctionPass("balance", balance))
        with pytest.raises(ValueError):
            register_flow(FlowSpec(name="quick"))

    def test_flow_with_unknown_pass_rejected(self):
        with pytest.raises(KeyError):
            register_flow(FlowSpec(name="broken-test-flow", prologue=("no-such-pass",)))

    def test_custom_pass_and_flow(self):
        @flow_pass("double-rewrite-test", "rewrite twice (test-only)", replace=True)
        def double_rewrite(aig):
            return rewrite(rewrite(aig))

        spec = register_flow(
            FlowSpec(
                name="custom-test-flow",
                description="test-only",
                prologue=("balance", "double-rewrite-test"),
            ),
            replace=True,
        )
        aig = _adder(4, "adder4")
        result = spec.run(aig)
        assert _equivalent(aig, result.aig)
        assert [p.name for p in result.passes] == ["balance", "double-rewrite-test"]


class TestFlowExecution:
    def test_resyn2rs_reproduces_optimize_exactly(self):
        aig = _adder(8, "adder8")
        via_flow = run_flow("resyn2rs", aig).aig
        via_optimize = optimize(aig)
        assert _shape(via_flow) == _shape(via_optimize)

    def test_resyn2rs_matches_hand_rolled_driver(self):
        # The flow driver must replicate the historical optimize() loop
        # structure bit for bit (balance; rounds of rewrite+balance; keep
        # best; prefer the input when it was already smaller).
        aig = _adder(8, "adder8b")
        current = balance(aig)
        best = current
        for _ in range(3):
            before = current.num_ands
            current = balance(rewrite(current))
            if (current.num_ands, current.depth()) < (best.num_ands, best.depth()):
                best = current
            if current.num_ands >= before:
                break
        if (aig.num_ands, aig.depth()) < (best.num_ands, best.depth()):
            best = aig
        assert _shape(run_flow("resyn2rs", aig).aig) == _shape(best)

    @pytest.mark.parametrize("flow", ("none", "quick", "resyn2rs", "deep"))
    def test_every_flow_preserves_function(self, flow):
        aig = _adder(6, f"adder-{flow}")
        result = run_flow(flow, aig)
        assert _equivalent(aig, result.aig)

    @pytest.mark.parametrize("flow", ("quick", "resyn2rs", "deep"))
    def test_flows_never_worse_than_input(self, flow):
        aig = _adder(6, f"adder-m-{flow}")
        result = run_flow(flow, aig)
        assert (result.aig.num_ands, result.aig.depth()) <= (aig.num_ands, aig.depth())

    def test_none_flow_is_identity(self):
        aig = _adder(3, "adder3")
        result = run_flow("none", aig)
        assert result.aig is aig
        assert result.passes == []

    def test_run_flow_accepts_spec_instances(self):
        aig = _adder(3, "adder3s")
        spec = FlowSpec(name="inline", prologue=("balance",))
        assert _equivalent(aig, run_flow(spec, aig).aig)

    def test_negative_max_rounds_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec(name="bad", max_rounds=-1)


class TestTelemetry:
    def test_per_pass_node_and_depth_accounting(self):
        aig = _adder(8, "adder8t")
        result = run_flow("resyn2rs", aig)
        assert result.passes, "resyn2rs must execute at least the balance prologue"
        assert result.passes[0].name == "balance"
        assert result.passes[0].nodes_before == aig.num_ands
        assert result.passes[0].depth_before == aig.depth()
        for before, after in zip(result.passes, result.passes[1:]):
            assert after.nodes_before == before.nodes_after
            assert after.depth_before == before.depth_after
        assert all(p.seconds >= 0 for p in result.passes)
        assert result.seconds == pytest.approx(sum(p.seconds for p in result.passes))
        assert len(result.telemetry_lines()) == len(result.passes)

    def test_fingerprint_identifies_behaviour(self):
        resyn = get_flow("resyn2rs")
        quick = get_flow("quick")
        assert resyn.fingerprint() != quick.fingerprint()
        from dataclasses import replace

        tweaked = replace(resyn, max_rounds=5)
        assert tweaked.fingerprint() != resyn.fingerprint()

    def test_pass_names_in_first_use_order(self):
        assert get_flow("resyn2rs").pass_names() == ("balance", "rewrite")
        assert get_flow("deep").pass_names() == ("balance", "rewrite", "rewrite3")


class TestMappingPass:
    """Technology mapping as a flow pass (repro.flow.mapping)."""

    def test_default_map_pass_registered(self):
        assert "map" in available_passes()

    def test_map_pass_records_result_and_preserves_the_network(self):
        aig = _adder(width=5, name="map-flow")
        spec = FlowSpec(
            name="test-map-inline",
            prologue=("balance",),
            round_passes=("rewrite", "balance", "map"),
            max_rounds=2,
        )
        register_flow(spec, replace=True)
        result = run_flow("test-map-inline", aig)
        assert result.mapped is not None
        assert result.mapped.gate_count > 0
        assert result.mapped.library_name == "cntfet-tg-static"
        # Mapping is an observation: the flow's AIG is still equivalent.
        assert _equivalent(aig, result.aig)
        assert any(p.name == "map" for p in result.passes)

    def test_map_pass_output_is_equivalent_to_its_subject(self):
        # With the map pass as the only pass, the mapped netlist's node ids
        # refer to the unmodified input AIG, so it can be formally verified
        # against it.
        from repro.synthesis.mapper import verify_mapping

        aig = _adder(width=5, name="map-verify")
        register_flow(FlowSpec(name="test-map-only", prologue=("map",)),
                      replace=True)
        result = run_flow("test-map-only", aig)
        patterns = random_pattern_words(aig.pi_names, num_words=2, seed=9)
        assert verify_mapping(result.mapped, aig, patterns)

    def test_flow_without_map_pass_has_no_mapping(self):
        result = run_flow("quick", _adder(width=4, name="no-map"))
        assert result.mapped is None

    def test_configured_mapping_pass(self):
        from repro.core.families import LogicFamily
        from repro.flow import mapping_pass

        try:
            mapping_pass(
                "test-map-pseudo-area",
                family=LogicFamily.TG_PSEUDO,
                objective="area",
                rounds=2,
            )
        except ValueError:
            pass  # already registered by a previous test run in-process
        register_flow(
            FlowSpec(
                name="test-map-pseudo",
                prologue=("balance", "test-map-pseudo-area"),
            ),
            replace=True,
        )
        result = run_flow("test-map-pseudo", _adder(width=4, name="cfg"))
        assert result.mapped.library_name == "cntfet-tg-pseudo"

    def test_stale_mapping_does_not_leak_between_runs(self):
        from repro.flow import get_pass

        aig = _adder(width=4, name="stale")
        register_flow(
            FlowSpec(name="test-map-once", prologue=("map",)), replace=True
        )
        first = run_flow("test-map-once", aig)
        assert first.mapped is not None
        # A later flow NOT containing a map pass must not inherit the result.
        second = run_flow("quick", aig)
        assert second.mapped is None
