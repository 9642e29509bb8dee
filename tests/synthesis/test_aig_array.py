"""Tests for the array-backed AIG view and its consumers."""

import numpy as np
import pytest

from repro.synthesis import CircuitBuilder
from repro.synthesis.aig import Aig
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import cut_set_for


def _sample_aig() -> Aig:
    builder = CircuitBuilder("sample")
    a, b, c, d = (builder.input(name) for name in "abcd")
    builder.output("s", builder.or_(builder.xor_(a, b), builder.and_(c, d)))
    builder.output("t", builder.nand_(a, c))
    return builder.finish()


class TestAigArrays:
    def test_fields_match_aig_accessors(self):
        aig = _sample_aig()
        arrays = aig_arrays(aig)
        assert arrays.num_nodes == aig.num_nodes
        assert arrays.num_ands == aig.num_ands
        assert arrays.pi_nodes.tolist() == list(aig.pi_nodes())
        assert arrays.po_literals.tolist() == list(aig.po_literals)
        for node in aig.and_nodes():
            fanin0, fanin1 = aig.fanins(node)
            assert arrays.fanin0[node] == fanin0
            assert arrays.fanin1[node] == fanin1
            assert arrays.level[node] == aig.level(node)
            assert arrays.is_and[node]
        assert arrays.fanout_dict() == aig.fanout_counts()

    def test_level_groups_partition_and_nodes_in_topological_order(self):
        aig = _sample_aig()
        arrays = aig_arrays(aig)
        flattened = [node for group in arrays.level_groups for node in group.tolist()]
        assert sorted(flattened) == list(aig.and_nodes())
        previous = 0
        for group in arrays.level_groups:
            group_levels = set(arrays.level[group].tolist())
            assert len(group_levels) == 1
            level = group_levels.pop()
            assert level > previous
            previous = level

    def test_view_is_cached_and_invalidated_by_mutation(self):
        aig = _sample_aig()
        first = aig_arrays(aig)
        assert aig_arrays(aig) is first
        x = aig.pi_literal("a")
        y = aig.pi_literal("b")
        aig.add_po("extra", aig.and_gate(x, y))
        second = aig_arrays(aig)
        assert second is not first
        assert second.fanout_dict() == aig.fanout_counts()


class TestVectorizedSimulation:
    def test_simulate_words_matches_per_pattern_evaluation(self):
        aig = _sample_aig()
        words = {name: [0xDEADBEEFCAFEF00D ^ (i * 0x9E3779B97F4A7C15 & (2**64 - 1))]
                 for i, name in enumerate(aig.pi_names)}
        packed = aig.simulate_words(words)
        for bit in range(64):
            assignment = {
                name: bool((words[name][0] >> bit) & 1) for name in aig.pi_names
            }
            single = aig.evaluate(assignment)
            for name, value in single.items():
                assert bool((packed[name][0] >> bit) & 1) == value

    def test_simulate_words_rejects_mismatched_inputs(self):
        aig = _sample_aig()
        with pytest.raises(ValueError):
            aig.simulate_words({"a": [1]})


class TestCleanupFastPath:
    def test_cleanup_matches_reference_rebuild(self):
        builder = CircuitBuilder("dangling")
        a, b, c = (builder.input(name) for name in "abc")
        _ = builder.xor_(builder.and_(a, b), c)  # dangling cone
        builder.output("y", builder.and_(a, c))
        aig = builder.finish()
        fast = aig.cleanup()
        slow = aig._cleanup_rebuild()
        assert fast.statistics() == slow.statistics()
        assert fast.pi_names == slow.pi_names
        assert fast.po_literals == slow.po_literals
        for node in fast.and_nodes():
            assert fast.fanins(node) == slow.fanins(node)

    def test_cleanup_interleaved_pi_and_gate_ids(self):
        aig = Aig("interleaved")
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        gate = aig.and_gate(a, b)
        late = aig.add_pi("late")  # PI id greater than the AND id
        aig.add_po("y", aig.and_gate(gate, late))
        fast = aig.cleanup()
        slow = aig._cleanup_rebuild()
        assert fast.po_literals == slow.po_literals
        assert [fast.fanins(n) for n in fast.and_nodes()] == [
            slow.fanins(n) for n in slow.and_nodes()
        ]


class TestCutSetMemo:
    def test_cut_set_memoized_per_structure(self):
        aig = _sample_aig()
        first = cut_set_for(aig, max_inputs=4, cut_limit=4)
        assert cut_set_for(aig, max_inputs=4, cut_limit=4) is first
        assert cut_set_for(aig, max_inputs=6, cut_limit=4) is not first
        x = aig.pi_literal("a")
        aig.add_po("z", x)
        assert cut_set_for(aig, max_inputs=4, cut_limit=4) is not first
