"""Array-backed resynthesis passes vs the per-node reference oracles.

The ``balance``/``rewrite`` passes carry the same contract as the mapper
DP: they must reproduce the reference passes of ``tests/oracles/optimize.py``
**node for node** -- same candidate order, same gate-emission stream (losing
rewrite candidates included, since their structural-hash side effects feed
later cost decisions), same structural hashing order, same levels -- so that
every table2/table3/figure6/pareto artifact stays byte-identical to what the
per-node algorithms produced.  These tests pin that contract:

* full-graph signatures and per-node choice streams (``trace``) compared on
  registered benchmarks and hypothesis-generated AIGs, for rewrite at
  K=3/4/5 and balance, on graphs of every size (none, one or a few AND
  nodes included, and outputs on PIs and constants);
* the complete ``resyn2rs`` flow against ``RESYN2RS_REFERENCE`` (the same
  flow built from the reference passes, run unregistered);
* the heapq scheduling of ``balance_reference`` against a verbatim copy of
  the original ``ordered.pop(0)``/``insert`` algorithm;
* the cover schedules: ``compile_ops`` schedules run through the oracle
  executor ``replay_ops`` equal ``replay_cover`` gate for gate,
  ``cover_schedule`` memoizes exactly ``compile_ops(compile_cover(...))``
  and its schedules compute their truth tables, and a cold ``resyn2rs``
  flow runs no NPN canonicalization;
* the mask-based ``_cube_minterms`` against the per-minterm loop it
  replaced, and the cut enumerator's level kernel against the pure-Python
  oracle in ``tests/oracles/cuts.py``, cut for cut;
* the memory guard: the graph ``resyn2rs`` returns holds no cut set of the
  rewrite pass.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.flow import run_flow
from repro.logic import npn
from repro.logic.npn import canonicalize_bits
from repro.synthesis.aig import Aig, CONST0, CONST1, lit_is_complemented, lit_node
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import enumerate_cuts_arrays
from repro.synthesis.optimize import balance, rewrite
from repro.synthesis.rewrite_lib import (
    _cube_minterms,
    compile_cover,
    compile_ops,
    cover_schedule,
    replay_cover,
)
from tests.oracles.cuts import _cut_set_from_dict, enumerate_cuts_reference
from tests.oracles.optimize import (
    RESYN2RS_REFERENCE,
    balance_reference,
    oracle_passes,
    replay_ops,
    rewrite_reference,
)

FAST_BENCHMARKS = ("add-16", "t481")


def _random_aig(seed: int, num_inputs: int, num_nodes: int) -> Aig:
    """A random AIG of up to ``num_nodes`` AND nodes (none at all allowed).

    Outputs sit on the last few literals, in either polarity; depending on
    the seed a PI and a constant drive outputs of their own.
    """
    rng = random.Random(seed)
    aig = Aig(f"rand-{seed}")
    literals = [aig.add_pi(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_nodes):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.and_gate(a, b))
    for i, literal in enumerate(literals[-max(2, num_inputs // 2):]):
        aig.add_po(f"y{i}", literal ^ rng.randint(0, 1))
    if rng.random() < 0.5:
        aig.add_po("pi", literals[rng.randrange(num_inputs)] ^ rng.randint(0, 1))
    if rng.random() < 0.5:
        aig.add_po("const", rng.choice((CONST0, CONST1)))
    return aig


def _signature(aig: Aig) -> tuple:
    """Full structural identity: every node's fanins/level, POs, names."""
    return (
        tuple(zip(aig._fanin0, aig._fanin1, aig._level)),
        tuple(aig.po_literals),
        tuple(aig.po_names),
        tuple(aig.pi_names),
    )


def _compare_rewrite(aig: Aig, max_inputs: int) -> None:
    reference_trace: list = []
    reference = rewrite_reference(aig, max_inputs=max_inputs, trace=reference_trace)
    fast_trace: list = []
    fast = rewrite(aig, max_inputs=max_inputs, trace=fast_trace)
    assert fast_trace == reference_trace, "rewrite choice streams diverge"
    assert _signature(fast) == _signature(reference)


def _compare_balance(aig: Aig) -> None:
    reference_trace: list = []
    reference = balance_reference(aig, trace=reference_trace)
    fast_trace: list = []
    fast = balance(aig, trace=fast_trace)
    assert fast_trace == reference_trace, "balance choice streams diverge"
    assert _signature(fast) == _signature(reference)


def _compare_flow(aig: Aig) -> None:
    fast = run_flow("resyn2rs", aig)
    with oracle_passes():
        reference = run_flow(RESYN2RS_REFERENCE, aig)
    assert _signature(fast.aig) == _signature(reference.aig)
    assert len(fast.passes) == len(reference.passes)


def _flat_aig(num_pis: int) -> Aig:
    """No AND node: outputs on both constants and on every PI."""
    aig = Aig(f"flat-{num_pis}")
    literals = [aig.add_pi(f"x{i}") for i in range(num_pis)]
    aig.add_po("zero", CONST0)
    aig.add_po("one", CONST1)
    for i, literal in enumerate(literals):
        aig.add_po(f"y{i}", literal ^ (i & 1))
    return aig


class TestPassParity:
    """Vectorized passes vs reference oracles, node for node."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize("max_inputs", (3, 4, 5))
    def test_benchmark_rewrite(self, bench_name, max_inputs):
        _compare_rewrite(benchmark_by_name(bench_name).build(), max_inputs)

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    def test_benchmark_balance(self, bench_name):
        _compare_balance(benchmark_by_name(bench_name).build())

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    def test_benchmark_resyn2rs_flow(self, bench_name):
        _compare_flow(benchmark_by_name(bench_name).build())

    @pytest.mark.parametrize("num_pis", (0, 1, 3))
    def test_aigs_without_and_nodes(self, num_pis):
        aig = _flat_aig(num_pis)
        assert aig.num_ands == 0
        _compare_balance(aig)
        for max_inputs in (3, 4, 5):
            _compare_rewrite(aig, max_inputs)
        _compare_flow(aig)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=1, max_value=7),
        num_nodes=st.integers(min_value=0, max_value=60),
        max_inputs=st.sampled_from((3, 4, 5)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_rewrite(self, seed, num_inputs, num_nodes, max_inputs):
        _compare_rewrite(_random_aig(seed, num_inputs, num_nodes), max_inputs)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=1, max_value=7),
        num_nodes=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_balance(self, seed, num_inputs, num_nodes):
        _compare_balance(_random_aig(seed, num_inputs, num_nodes))

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=1, max_value=6),
        num_nodes=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_resyn2rs_flow(self, seed, num_inputs, num_nodes):
        _compare_flow(_random_aig(seed, num_inputs, num_nodes))

    def test_oracle_passes_leave_no_registration(self):
        from repro.flow import available_passes

        with oracle_passes():
            assert "balance_reference" in available_passes()
        assert not any(name.endswith("_reference") for name in available_passes())


def _balance_original(aig: Aig) -> Aig:
    """Verbatim pre-heapq balance: sorted list with pop(0)/insert-after-ties.

    ``balance_reference``'s heap keyed on ``(level, insertion index)`` must
    reproduce this scheduling exactly.
    """
    fanout = aig_arrays(aig).fanout.tolist()
    new = Aig(aig.name)
    mapping: dict[int, int] = {0: CONST0}
    for name, node in zip(aig.pi_names, aig.pi_nodes()):
        mapping[node] = new.add_pi(name)

    def translate(literal: int) -> int:
        return mapping[lit_node(literal)] ^ (literal & 1)

    def collect_and_leaves(literal: int, root: bool) -> list:
        node = lit_node(literal)
        if (
            lit_is_complemented(literal)
            or not aig.is_and(node)
            or (not root and fanout[node] > 1)
        ):
            return [literal]
        f0, f1 = aig.fanins(node)
        return collect_and_leaves(f0, False) + collect_and_leaves(f1, False)

    def rebuild(node: int) -> int:
        if node in mapping:
            return mapping[node]
        leaves = collect_and_leaves(node << 1, True)
        translated = []
        for leaf in leaves:
            leaf_node = lit_node(leaf)
            if leaf_node not in mapping:
                rebuild(leaf_node)
            translated.append(translate(leaf))
        ordered = sorted(translated, key=new.literal_level)
        while len(ordered) > 1:
            a = ordered.pop(0)
            b = ordered.pop(0)
            combined = new.and_gate(a, b)
            level = new.literal_level(combined)
            position = 0
            while position < len(ordered) and new.literal_level(
                ordered[position]
            ) <= level:
                position += 1
            ordered.insert(position, combined)
        result = ordered[0] if ordered else CONST1
        mapping[node] = result
        return result

    for node in aig.and_nodes():
        rebuild(node)
    for name, literal in zip(aig.po_names, aig.po_literals):
        if lit_node(literal) not in mapping:
            rebuild(lit_node(literal))
        new.add_po(name, translate(literal))
    return new.cleanup()


class TestBalanceHeapEquivalence:
    """heapq scheduling == the original sorted-list scheduling, gate for gate."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    def test_benchmarks(self, bench_name):
        aig = benchmark_by_name(bench_name).build()
        assert _signature(balance_reference(aig)) == _signature(
            _balance_original(aig)
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_random(self, seed, num_inputs, num_nodes):
        aig = _random_aig(seed, num_inputs, num_nodes)
        assert _signature(balance_reference(aig)) == _signature(
            _balance_original(aig)
        )


def _simulate_literal_table(aig: Aig, literal: int, num_vars: int) -> int:
    """Truth table of ``literal`` over the first ``num_vars`` PIs."""
    size = 1 << num_vars
    words = {
        name: [
            sum(
                1 << m
                for m in range(size)
                if (m >> index) & 1
            )
        ]
        for index, name in enumerate(aig.pi_names)
    }
    aig.add_po("_probe", literal)
    try:
        result = aig.simulate_words(words)["_probe"][0]
    finally:
        aig._po_names.pop()
        aig._po_literals.pop()
    return result & ((1 << size) - 1)


def _table_strategy():
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)
        )
    )


class TestRewriteLibrary:
    """Op schedules, the per-function schedule memo and its use by the flow."""

    @given(_table_strategy())
    @settings(max_examples=60, deadline=None)
    def test_replay_ops_equals_replay_cover(self, arity_table):
        num_vars, table = arity_table
        program = compile_cover(table, num_vars)
        ops, result = compile_ops(program)

        a = Aig("cover")
        leaves_a = [a.add_pi(f"x{i}") for i in range(num_vars)]
        lit_a = replay_cover(a.and_gate, leaves_a, program)

        b = Aig("ops")
        leaves_b = [b.add_pi(f"x{i}") for i in range(num_vars)]
        lit_b = replay_ops(b.and_gate, leaves_b, ops, result)

        assert lit_a == lit_b, "op schedule returned a different literal"
        assert _signature(a) == _signature(b), "op schedule emitted different gates"

    @given(_table_strategy())
    @settings(max_examples=60, deadline=None)
    def test_cover_schedule_memoizes_the_compiled_schedule(self, arity_table):
        num_vars, table = arity_table
        schedule = cover_schedule(table, num_vars)
        assert schedule == compile_ops(compile_cover(table, num_vars))
        assert cover_schedule(table, num_vars) is schedule

    @given(_table_strategy())
    @settings(max_examples=60, deadline=None)
    def test_cover_schedule_computes_its_table(self, arity_table):
        num_vars, table = arity_table
        ops, result = cover_schedule(table, num_vars)
        aig = Aig("schedule")
        leaves = [aig.add_pi(f"x{i}") for i in range(num_vars)]
        literal = replay_ops(aig.and_gate, leaves, ops, result)
        assert _simulate_literal_table(aig, literal, num_vars) == table

    def test_cold_flow_runs_no_npn_canonicalization(self, monkeypatch):
        """The rewrite pass keys its covers by raw table: a cold ``resyn2rs``
        flow never enters the NPN orbit scan."""
        cover_schedule.cache_clear()
        canonicalize_bits.cache_clear()
        calls = []

        def spy(name):
            original = getattr(npn, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(npn, name, counted)

        spy("_min_variant")
        spy("_min_variant_batch")
        result = run_flow("resyn2rs", benchmark_by_name("C1908").build())
        assert result.aig.num_ands > 0
        assert cover_schedule.cache_info().currsize > 0
        assert calls == []


class TestCubeMintermMasks:
    """Mask-based cube arithmetic vs the per-minterm loop it replaced."""

    @given(
        num_vars=st.integers(min_value=1, max_value=6),
        care=st.integers(min_value=0, max_value=63),
        value=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=120, deadline=None)
    def test_cube_minterms_matches_loop(self, num_vars, care, value):
        care &= (1 << num_vars) - 1
        naive = 0
        for minterm in range(1 << num_vars):
            if (minterm & care) == value:
                naive |= 1 << minterm
        assert _cube_minterms(num_vars, care, value) == naive


class TestEnumeratorParity:
    """The level kernel reproduces the oracle's CutSet arrays exactly."""

    @staticmethod
    def _assert_parity(aig, max_inputs, cut_limit):
        kernel = enumerate_cuts_arrays(aig, max_inputs, cut_limit)
        reference = _cut_set_from_dict(
            enumerate_cuts_reference(aig, max_inputs, cut_limit),
            aig_arrays(aig),
            max_inputs,
            cut_limit,
        )
        for field in ("count", "leaves", "size", "table", "support"):
            produced, expected = getattr(kernel, field), getattr(reference, field)
            assert produced.dtype == expected.dtype, field
            assert np.array_equal(produced, expected), (
                f"kernel and oracle disagree on {field}"
            )

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize("params", ((4, 4), (3, 4), (6, 8)))
    def test_benchmarks(self, bench_name, params):
        aig = benchmark_by_name(bench_name).build()
        self._assert_parity(aig, *params)

    def test_two_word_dedup_keys(self):
        """C2670 has 779 nodes: 10-bit fields, so the seven fields of a K=6
        dedup key (node in level plus six leaves) take two uint64 words."""
        aig = benchmark_by_name("C2670").build()
        assert aig.num_nodes.bit_length() == 10
        self._assert_parity(aig, 6, 8)

    @pytest.mark.parametrize("num_pis", (0, 3))
    def test_aigs_without_and_nodes(self, num_pis):
        """Constant-only and PI-only AIGs have no level to enumerate."""
        aig = _flat_aig(num_pis)
        assert aig.num_ands == 0
        for params in ((2, 3), (4, 4), (6, 8)):
            self._assert_parity(aig, *params)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=40),
    )
    @settings(max_examples=20, deadline=None)
    def test_random(self, seed, num_inputs, num_nodes):
        self._assert_parity(_random_aig(seed, num_inputs, num_nodes), 4, 4)


class TestMemoryGuards:
    def test_flow_output_holds_no_rewrite_cuts(self):
        """Keep-best returns the rewrite pass's input graph for most
        subjects; the pass must not leave its (4,4) cuts memoized there."""
        for case in BENCHMARKS:
            aig = run_flow("resyn2rs", case.build()).aig
            _, memo = aig.__dict__.get("_cut_sets", (None, {}))
            assert (4, 4) not in memo, case.name
