"""Tests for optimization, cut enumeration, matching and technology mapping."""

import pytest

from repro.core import LogicFamily, build_library
from repro.logic.simulation import random_pattern_words
from repro.synthesis import (
    CircuitBuilder,
    LibraryMatcher,
    enumerate_cuts,
    optimize,
    balance,
    rewrite,
    technology_map,
)
from repro.synthesis.aig import Aig, lit_node
from repro.synthesis.cuts import Cut
from repro.synthesis.mapper import MappingError
from tests.oracles.cuts import _expand_table


def _small_adder(width=4, name="adder"):
    builder = CircuitBuilder(name)
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    total, carry = builder.ripple_adder(a, b)
    builder.output_bus("s", total)
    builder.output("cout", carry)
    return builder.finish()


def _equivalent(a, b, seed=7):
    patterns = random_pattern_words(a.pi_names, num_words=4, seed=seed)
    return a.simulate_words(patterns) == b.simulate_words(patterns)


@pytest.fixture(scope="module")
def tg_static_library():
    return build_library(LogicFamily.TG_STATIC)


@pytest.fixture(scope="module")
def cmos_library():
    return build_library(LogicFamily.CMOS)


class TestOptimize:
    def test_balance_preserves_function(self):
        aig = _small_adder()
        balanced = balance(aig)
        assert _equivalent(aig, balanced)

    def test_balance_reduces_depth_of_chain(self):
        aig = Aig("chain")
        pis = [aig.add_pi(f"x{i}") for i in range(8)]
        acc = pis[0]
        for literal in pis[1:]:
            acc = aig.and_gate(acc, literal)
        aig.add_po("y", acc)
        assert aig.depth() == 7
        balanced = balance(aig)
        assert balanced.depth() == 3
        assert _equivalent(aig, balanced)

    def test_rewrite_preserves_function(self):
        aig = _small_adder()
        rewritten = rewrite(aig)
        assert _equivalent(aig, rewritten)

    def test_rewrite_removes_redundant_logic(self):
        aig = Aig("red")
        a, b = aig.add_pi("a"), aig.add_pi("b")
        # (a & b) | (a & b & a) is just a & b.
        redundant = aig.or_gate(aig.and_gate(a, b), aig.and_gate(aig.and_gate(a, b), a))
        aig.add_po("y", redundant)
        rewritten = rewrite(aig)
        assert rewritten.num_ands <= aig.num_ands
        assert _equivalent(aig, rewritten)

    def test_optimize_never_grows_and_preserves_function(self):
        aig = _small_adder(width=6, name="adder6")
        optimized = optimize(aig)
        assert optimized.num_ands <= aig.num_ands
        assert optimized.depth() <= aig.depth()
        assert _equivalent(aig, optimized)


class TestCuts:
    def test_expand_table_inserts_variables(self):
        # Table over leaves (2, 5): AND.  Expanded over (2, 3, 5).
        table = 0b1000
        expanded = _expand_table(table, (2, 5), (2, 3, 5))
        # New variable (position 1) is a don't care: AND of positions 0 and 2.
        for minterm in range(8):
            expected = bool(minterm & 1) and bool(minterm & 4)
            assert bool((expanded >> minterm) & 1) == expected

    def test_cut_of_fanins_always_present(self):
        aig = _small_adder(width=2, name="a2")
        cuts = enumerate_cuts(aig)
        for node in aig.and_nodes():
            f0, f1 = aig.fanins(node)
            fanin_leaves = tuple(sorted({lit_node(f0), lit_node(f1)}))
            assert any(cut.leaves == fanin_leaves for cut in cuts[node])

    def test_cut_functions_are_correct(self):
        # Check the cut functions of a small circuit against direct evaluation.
        aig = Aig("f")
        a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
        xor_ab = aig.xor_gate(a, b)
        out = aig.and_gate(xor_ab, c)
        aig.add_po("y", out)
        cuts = enumerate_cuts(aig)
        pi_nodes = {lit_node(a): "a", lit_node(b): "b", lit_node(c): "c"}
        target = lit_node(out)
        full_cuts = [cut for cut in cuts[target] if set(cut.leaves) <= set(pi_nodes)]
        assert full_cuts
        for cut in full_cuts:
            names = [pi_nodes[leaf] for leaf in cut.leaves]
            for minterm in range(1 << cut.size):
                env = {"a": False, "b": False, "c": False}
                for position, name in enumerate(names):
                    env[name] = bool((minterm >> position) & 1)
                expected = (env["a"] != env["b"]) and env["c"]
                assert bool((cut.table >> minterm) & 1) == expected

    def test_cut_size_limit_respected(self):
        aig = _small_adder(width=4, name="a4")
        cuts = enumerate_cuts(aig, max_inputs=4, cut_limit=6)
        for node in aig.and_nodes():
            for cut in cuts[node]:
                if cut.leaves != (node,):
                    assert cut.size <= 4

    def test_parameter_validation(self):
        aig = _small_adder(width=2, name="a2v")
        with pytest.raises(ValueError):
            enumerate_cuts(aig, max_inputs=1)
        with pytest.raises(ValueError):
            enumerate_cuts(aig, max_inputs=7)
        with pytest.raises(ValueError):
            enumerate_cuts(aig, cut_limit=0)


class TestMatcher:
    def test_matcher_finds_and2_and_xor2(self, tg_static_library):
        matcher = LibraryMatcher(tg_static_library)
        and2 = 0b1000
        xor2 = 0b0110
        assert matcher.match(2, and2) is not None
        assert matcher.match(2, xor2) is not None
        assert matcher.match(2, xor2).cell.function_id == "F01"

    def test_cmos_matcher_has_no_xor(self, cmos_library):
        matcher = LibraryMatcher(cmos_library)
        assert matcher.match(2, 0b0110) is None
        assert matcher.match(2, 0b1000) is not None

    def test_match_reduced_projects_support(self, tg_static_library):
        matcher = LibraryMatcher(tg_static_library)
        # A 3-leaf cut whose function ignores the middle leaf: x0 & x2.
        table = 0
        for minterm in range(8):
            if (minterm & 1) and (minterm & 4):
                table |= 1 << minterm
        found = matcher.match_reduced((10, 11, 12), table)
        assert found is not None
        match, leaves, reduced_bits = found
        assert leaves == (10, 12)
        assert reduced_bits == 0b1000
        assert match.cell.arity == 2

    def test_phase_freedom(self, tg_static_library):
        matcher = LibraryMatcher(tg_static_library)
        # NAND2 (output negation of AND2) must match because every cell
        # provides both output polarities.
        nand2 = (~0b1000) & 0xF
        assert matcher.match(2, nand2) is not None


class TestMapper:
    def test_mapped_adder_statistics(self, tg_static_library, cmos_library):
        aig = optimize(_small_adder(width=8, name="add8"))
        cntfet = technology_map(aig, tg_static_library)
        cmos = technology_map(aig, cmos_library)
        assert cntfet.gate_count > 0 and cmos.gate_count > 0
        # XOR-rich arithmetic: the ambipolar library needs fewer gates, less
        # area and fewer levels than CMOS (the Table-3 trend).
        assert cntfet.gate_count < cmos.gate_count
        assert cntfet.area < cmos.area
        assert cntfet.levels < cmos.levels
        assert cntfet.absolute_delay_ps < cmos.absolute_delay_ps

    def test_mapped_gates_reference_known_cells(self, tg_static_library):
        aig = _small_adder(width=3, name="add3")
        mapped = technology_map(aig, tg_static_library)
        ids = {cell.function_id for cell in tg_static_library}
        for gate in mapped.gates:
            assert gate.function_id in ids
            assert gate.area > 0

    def test_gate_histogram_uses_xor_cells_for_adder(self, tg_static_library):
        aig = optimize(_small_adder(width=8, name="add8h"))
        mapped = technology_map(aig, tg_static_library)
        histogram = mapped.gate_histogram()
        xor_cells = {
            fid for fid, count in histogram.items()
            if "^" in tg_static_library.cell(fid).expression_text and count > 0
        }
        assert xor_cells, "an adder mapped onto the ambipolar library must use XOR cells"

    def test_area_objective_not_larger_than_delay_objective(self, tg_static_library):
        aig = optimize(_small_adder(width=6, name="add6"))
        by_delay = technology_map(aig, tg_static_library, objective="delay")
        by_area = technology_map(aig, tg_static_library, objective="area")
        assert by_area.area <= by_delay.area + 1e-9

    def test_objective_validation(self, tg_static_library):
        aig = _small_adder(width=2, name="add2")
        with pytest.raises(ValueError):
            technology_map(aig, tg_static_library, objective="energy")

    def test_statistics_dictionary(self, tg_static_library):
        aig = _small_adder(width=2, name="add2s")
        mapped = technology_map(aig, tg_static_library)
        stats = mapped.statistics()
        assert set(stats) == {
            "gates",
            "area",
            "levels",
            "normalized_delay",
            "absolute_delay_ps",
            "worst_slack",
        }
        assert stats["absolute_delay_ps"] == pytest.approx(
            stats["normalized_delay"] * 0.59
        )
        # Timing-feasible circuits have non-positive slack bounded by zero.
        assert stats["worst_slack"] == pytest.approx(0.0, abs=1e-9)

    def test_statistics_include_power_when_attached(self, tg_static_library):
        from repro.analysis.power import analyze_power

        aig = _small_adder(width=2, name="add2p")
        mapped = technology_map(aig, tg_static_library)
        mapped.attach_power(analyze_power(mapped, aig, tg_static_library))
        stats = mapped.statistics()
        assert {"dynamic_power", "static_power", "total_power"} <= set(stats)
        assert stats["total_power"] == pytest.approx(
            stats["dynamic_power"] + stats["static_power"]
        )

    def test_mapping_preserves_function(self, tg_static_library):
        # Re-simulate the mapped netlist from the recorded per-gate truth
        # tables and compare every primary output against the subject AIG.
        from repro.logic.simulation import exhaustive_pattern_words
        from repro.synthesis.mapper import verify_mapping

        aig = _small_adder(width=4, name="add4f")
        mapped = technology_map(aig, tg_static_library)
        patterns = exhaustive_pattern_words(aig.pi_names)
        assert verify_mapping(mapped, aig, patterns)

    def test_mapping_preserves_function_cmos_and_optimized(self, cmos_library):
        from repro.synthesis.mapper import verify_mapping

        aig = optimize(_small_adder(width=5, name="add5f"))
        mapped = technology_map(aig, cmos_library)
        patterns = random_pattern_words(aig.pi_names, num_words=4, seed=11)
        assert verify_mapping(mapped, aig, patterns)


class TestPinBindings:
    """The matcher's pin assignment, as resolved for the power analysis.

    Regression for the phase convention: ``g(z) = (~)^out f(sigma(z) ^
    phase)`` applies the phase in the *base function's* input space, so the
    complement flag of leaf ``j`` is phase bit ``permutation[j]`` (reading
    bit ``j`` instead silently mis-assigns pin polarities -- and therefore
    pin capacitances -- whenever a match permutes inputs).
    """

    @pytest.mark.parametrize(
        "family", (LogicFamily.TG_STATIC, LogicFamily.PASS_STATIC),
        ids=lambda f: f.value,
    )
    def test_bindings_reproduce_the_cut_function(self, family):
        import random

        from repro.synthesis.mapper import _pin_bindings
        from repro.synthesis.matcher import matcher_for

        library = build_library(family)
        matcher = matcher_for(library)
        rng = random.Random(42)
        probes = [(2, bits) for bits in range(16)]
        probes += [(3, rng.getrandbits(8)) for _ in range(60)]
        probes += [(4, rng.getrandbits(16)) for _ in range(60)]
        checked = 0
        for num_leaves, bits in probes:
            found = matcher.match(num_leaves, bits)
            if found is None:
                continue
            cell, transform = found.cell, found.match
            bindings = _pin_bindings(found)
            pin_index = {name: i for i, name in enumerate(cell.input_names)}
            for assignment in range(1 << num_leaves):
                minterm = 0
                for j, (pin, negated) in enumerate(bindings):
                    value = ((assignment >> j) & 1) ^ negated
                    minterm |= value << pin_index[pin]
                value = (cell.function.bits >> minterm) & 1
                if transform.output_negated:
                    value ^= 1
                assert value == (bits >> assignment) & 1, (
                    f"{cell.name}: binding {bindings} does not reproduce "
                    f"table {bits:#x} at assignment {assignment}"
                )
            checked += 1
        assert checked > 20
