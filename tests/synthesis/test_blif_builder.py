"""Tests for the BLIF reader/writer and the circuit builder."""

import pytest

from repro.logic.simulation import exhaustive_pattern_words, random_pattern_words
from repro.synthesis import CircuitBuilder, read_blif, write_blif
from repro.synthesis.aig import Aig
from repro.synthesis.blif import BlifParseError


SAMPLE_BLIF = """
.model sample
.inputs a b c
.outputs f g
.names a b ab
11 1
.names ab c f
1- 1
-1 1
.names a c g
10 1
01 1
.end
"""


class TestBlifReader:
    def test_parse_and_evaluate(self):
        aig = read_blif(SAMPLE_BLIF)
        assert aig.pi_names == ("a", "b", "c")
        assert aig.po_names == ("f", "g")
        # f = (a & b) | c, g = a ^ c
        for minterm in range(8):
            env = {"a": bool(minterm & 1), "b": bool(minterm & 2), "c": bool(minterm & 4)}
            out = aig.evaluate(env)
            assert out["f"] == ((env["a"] and env["b"]) or env["c"])
            assert out["g"] == (env["a"] != env["c"])

    def test_constant_names(self):
        text = """
.model consts
.inputs a
.outputs one zero buf
.names one
1
.names zero
.names a buf
1 1
.end
"""
        aig = read_blif(text)
        out = aig.evaluate({"a": True})
        assert out == {"one": True, "zero": False, "buf": True}

    def test_inverted_cover_output(self):
        text = """
.model inv
.inputs a b
.outputs y
.names a b y
11 0
.end
"""
        aig = read_blif(text)
        assert aig.evaluate({"a": True, "b": True})["y"] is False
        assert aig.evaluate({"a": True, "b": False})["y"] is True

    def test_undefined_signal_rejected(self):
        with pytest.raises(BlifParseError):
            read_blif(".model x\n.inputs a\n.outputs y\n.end")

    def test_latch_rejected(self):
        with pytest.raises(BlifParseError):
            read_blif(".model x\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end")

    def test_malformed_cube_rejected(self):
        with pytest.raises(BlifParseError):
            read_blif(".model x\n.inputs a b\n.outputs y\n.names a b y\n1 1 1\n.end")

    def test_second_cover_of_a_signal_rejected(self):
        with pytest.raises(BlifParseError, match="two .names covers"):
            read_blif(
                ".model x\n.inputs a b\n.outputs y\n"
                ".names a b y\n11 1\n.names a b y\n00 1\n.end\n"
            )

    def test_cover_of_a_declared_input_rejected(self):
        with pytest.raises(BlifParseError, match="input 'b' also has"):
            read_blif(
                ".model x\n.inputs a b\n.outputs y\n"
                ".names a b\n0 1\n.names a b y\n11 1\n.end\n"
            )

    def test_signals_resolve_fanins_first_in_output_order(self):
        # y's cone is built first (t before y), then z, whatever the order
        # of the .names blocks in the file.
        aig = read_blif(
            ".model order\n.inputs a b c\n.outputs y z\n"
            ".names t c y\n11 1\n.names a b t\n11 1\n.names b c z\n11 1\n.end\n"
        )
        assert [aig.fanins(node) for node in aig.and_nodes()] == [
            (2, 4),
            (6, 8),
            (4, 6),
        ]

    def test_loop_rejected(self):
        with pytest.raises(BlifParseError, match="combinational loop"):
            read_blif(
                ".model x\n.inputs a\n.outputs y\n"
                ".names a z y\n11 1\n.names y z\n1 1\n.end\n"
            )


class TestConstantCovers:
    """Constant ``.names`` drivers in every form tools emit them."""

    def test_omitted_cube_under_declared_fanins(self):
        # Some tools write a constant driver as a bare output-value row even
        # when the .names declares fanins (all inputs don't-care).
        text = ".model m\n.inputs a b\n.outputs y z\n.names a b y\n1\n.names a b z\n0\n.end\n"
        aig = read_blif(text)
        for a in (False, True):
            for b in (False, True):
                out = aig.evaluate({"a": a, "b": b})
                assert out["y"] is True and out["z"] is False

    def test_constant_feeding_logic(self):
        text = (
            ".model m\n.inputs a\n.outputs y\n.names c\n1\n"
            ".names a c y\n11 1\n.end\n"
        )
        aig = read_blif(text)
        assert aig.evaluate({"a": True})["y"] is True
        assert aig.evaluate({"a": False})["y"] is False

    def test_zero_input_empty_cover_is_constant_zero(self):
        aig = read_blif(".model m\n.outputs y\n.names y\n.end\n")
        assert aig.evaluate({})["y"] is False

    def test_bare_value_mixed_with_cube_rows_still_rejected(self):
        # A bare value row next to real cubes is a cube whose output column
        # was dropped, not a constant driver.
        with pytest.raises(BlifParseError):
            read_blif(
                ".model m\n.inputs a b\n.outputs y\n"
                ".names a b y\n11 1\n10\n.end\n"
            )


def _roundtrip_equivalent(name: str) -> bool:
    from repro.bench.registry import benchmark_by_name

    original = benchmark_by_name(name).build()
    rebuilt = read_blif(write_blif(original), name=name)
    patterns = random_pattern_words(original.pi_names, num_words=2, seed=3)
    return original.simulate_words(patterns) == rebuilt.simulate_words(patterns)


class TestBlifRoundTrip:
    def test_write_then_read_is_equivalent(self):
        builder = CircuitBuilder("rt")
        a = builder.input_bus("a", 4)
        b = builder.input_bus("b", 4)
        total, carry = builder.ripple_adder(a, b)
        builder.output_bus("s", total)
        builder.output("cout", carry)
        original = builder.finish()

        rebuilt = read_blif(write_blif(original))
        patterns = random_pattern_words(original.pi_names, num_words=4)
        assert original.simulate_words(patterns) == rebuilt.simulate_words(patterns)

    def test_internal_nets_avoid_input_and_output_names(self):
        aig = Aig("clash")
        a, n4, c = (aig.add_pi(name) for name in ("a", "n4", "c"))
        gate = aig.and_gate(a, c)  # node 4, whose default net name is n4
        aig.add_po("y", aig.and_gate(gate, n4 ^ 1))
        aig.add_po("n5", gate ^ 1)  # an output named like AND node 5's net
        aig.add_po("a", a)  # an output named like the input driving it
        text = write_blif(aig)
        assert ".names a a" not in text
        rebuilt = read_blif(text)
        assert rebuilt.num_ands == 2
        patterns = exhaustive_pattern_words(aig.pi_names)
        assert rebuilt.simulate_words(patterns) == aig.simulate_words(patterns)

    def test_unwritable_output_names_rejected(self):
        aig = Aig("bad")
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        aig.add_po("a", b)
        with pytest.raises(ValueError, match="'a' is already defined otherwise"):
            write_blif(aig)
        twice = Aig("twice")
        a = twice.add_pi("a")
        twice.add_po("y", a)
        twice.add_po("y", a ^ 1)
        with pytest.raises(ValueError, match="'y' is already defined otherwise"):
            write_blif(twice)

    def test_deep_chain_roundtrips(self):
        aig = Aig("chain")
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        literal = a
        for index in range(1500):
            literal = aig.and_gate(literal ^ 1, a if index % 2 else b)
        aig.add_po("y", literal)
        assert aig.depth() == 1500
        rebuilt = read_blif(write_blif(aig))
        assert rebuilt.num_ands == 1500 and rebuilt.depth() == 1500
        patterns = exhaustive_pattern_words(aig.pi_names)
        assert rebuilt.simulate_words(patterns) == aig.simulate_words(patterns)

    @pytest.mark.parametrize(
        "name", ("add-16", "add-32", "t481", "C1908", "C1355", "dalu")
    )
    def test_registered_benchmark_roundtrip(self, name):
        assert _roundtrip_equivalent(name)

    @pytest.mark.slow
    def test_all_registered_benchmarks_roundtrip(self):
        from repro.bench.registry import all_benchmarks

        for case in all_benchmarks():
            assert _roundtrip_equivalent(case.name), case.name


class TestCircuitBuilder:
    def test_ripple_adder_adds(self):
        builder = CircuitBuilder("adder")
        a = builder.input_bus("a", 4)
        b = builder.input_bus("b", 4)
        total, carry = builder.ripple_adder(a, b)
        builder.output_bus("s", total)
        builder.output("cout", carry)
        aig = builder.finish()
        for x in range(16):
            for y in range(16):
                env = {f"a[{i}]": bool((x >> i) & 1) for i in range(4)}
                env.update({f"b[{i}]": bool((y >> i) & 1) for i in range(4)})
                out = aig.evaluate(env)
                value = sum((1 << i) for i in range(4) if out[f"s[{i}]"])
                value += 16 if out["cout"] else 0
                assert value == x + y

    def test_subtractor(self):
        builder = CircuitBuilder("sub")
        a = builder.input_bus("a", 4)
        b = builder.input_bus("b", 4)
        diff, _ = builder.subtractor(a, b)
        builder.output_bus("d", diff)
        aig = builder.finish()
        out = aig.evaluate(
            {**{f"a[{i}]": bool((9 >> i) & 1) for i in range(4)},
             **{f"b[{i}]": bool((3 >> i) & 1) for i in range(4)}}
        )
        value = sum((1 << i) for i in range(4) if out[f"d[{i}]"])
        assert value == 6

    def test_equal_and_parity(self):
        builder = CircuitBuilder("cmp")
        a = builder.input_bus("a", 3)
        b = builder.input_bus("b", 3)
        builder.output("eq", builder.equal(a, b))
        builder.output("par", builder.parity(a))
        aig = builder.finish()
        env = {f"a[{i}]": bool((5 >> i) & 1) for i in range(3)}
        env.update({f"b[{i}]": bool((5 >> i) & 1) for i in range(3)})
        out = aig.evaluate(env)
        assert out["eq"] is True
        assert out["par"] is False  # 5 = 0b101 has two set bits

    def test_decoder_one_hot(self):
        builder = CircuitBuilder("dec")
        select = builder.input_bus("s", 2)
        outputs = builder.decoder(select)
        builder.output_bus("o", outputs)
        aig = builder.finish()
        for value in range(4):
            env = {f"s[{i}]": bool((value >> i) & 1) for i in range(2)}
            out = aig.evaluate(env)
            assert [out[f"o[{i}]"] for i in range(4)] == [i == value for i in range(4)]

    def test_mux_tree(self):
        builder = CircuitBuilder("mux")
        select = builder.input_bus("s", 2)
        data = builder.input_bus("d", 4)
        builder.output("y", builder.mux_tree(select, data))
        aig = builder.finish()
        for sel in range(4):
            env = {f"s[{i}]": bool((sel >> i) & 1) for i in range(2)}
            env.update({f"d[{i}]": i == sel for i in range(4)})
            assert aig.evaluate(env)["y"] is True

    def test_truth_table_logic(self):
        builder = CircuitBuilder("tt")
        inputs = builder.input_bus("x", 3)
        column = [1, 0, 0, 1, 1, 0, 1, 0]
        builder.output("y", builder.truth_table_logic(inputs, column))
        aig = builder.finish()
        for minterm in range(8):
            env = {f"x[{i}]": bool((minterm >> i) & 1) for i in range(3)}
            assert aig.evaluate(env)["y"] == bool(column[minterm])

    def test_width_validation(self):
        builder = CircuitBuilder("err")
        a = builder.input_bus("a", 2)
        b = builder.input_bus("b", 3)
        with pytest.raises(ValueError):
            builder.ripple_adder(a, b)
        with pytest.raises(ValueError):
            builder.equal(a, b)
        with pytest.raises(ValueError):
            builder.mux_tree(a, b)
        with pytest.raises(ValueError):
            builder.truth_table_logic(a, [0, 1])

    def test_constant_bus(self):
        builder = CircuitBuilder("const")
        builder.input("a")
        bus = builder.constant_bus(0b1010, 4)
        builder.output_bus("k", bus)
        aig = builder.finish()
        out = aig.evaluate({"a": False})
        assert [out[f"k[{i}]"] for i in range(4)] == [False, True, False, True]
