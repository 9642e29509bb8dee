"""Vectorized resynthesis passes vs the retained reference oracles.

PR 6 pinned the mapper DP to its scalar oracle decision for decision; the
vectorized ``balance``/``rewrite`` passes carry the same contract: the
array-backed fast paths must reproduce the reference passes **node for
node** -- same candidate order, same gate-emission stream (losing rewrite
candidates included, since their structural-hash side effects feed later
cost decisions), same structural hashing order, same levels -- so that every
table2/table3/figure6/pareto artifact stays byte-identical whichever arm the
dispatch picks.  These tests pin that contract:

* full-graph signatures and per-node choice streams (``trace``) compared on
  registered benchmarks and hypothesis-generated AIGs, for rewrite at
  K=3/4/5 and balance, with the vectorized arm forced on small graphs too;
* the complete ``resyn2rs`` flow against ``resyn2rs-reference`` (the oracle
  flow registered from the reference passes);
* the heapq scheduling of ``balance_reference`` against a verbatim copy of
  the original ``ordered.pop(0)``/``insert`` algorithm;
* the NPN-class rewrite library: member programs replayed through
  ``compile_ops``/``replay_ops`` equal ``replay_cover`` gate for gate, and
  ``instantiate`` (class template + composed transform) is functionally
  equivalent to direct member synthesis for every class encountered;
* the mask-based ``_cube_minterms`` against the per-minterm loop it
  replaced, and the cut enumerator's level kernel against the pure-Python
  oracle in ``tests/oracles/cuts.py``, cut for cut.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# ``repro.synthesis`` re-exports the ``optimize`` *function*, which shadows
# the submodule attribute -- fetch the module itself for threshold patching.
optimize_module = importlib.import_module("repro.synthesis.optimize")
from repro.bench.registry import benchmark_by_name
from repro.flow import run_flow
from repro.synthesis.aig import Aig, CONST0, CONST1, lit_is_complemented, lit_node
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import enumerate_cuts_arrays
from repro.synthesis.optimize import (
    balance,
    balance_reference,
    rewrite,
    rewrite_reference,
)
from repro.synthesis.rewrite_lib import (
    REWRITE_LIBRARY,
    _cube_minterms,
    compile_cover,
    compile_ops,
    replay_cover,
    replay_ops,
)
from tests.oracles.cuts import _cut_set_from_dict, enumerate_cuts_reference

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


def _signature(aig: Aig) -> tuple:
    """Full structural identity: every node's fanins/level, POs, names."""
    return (
        tuple((node.fanin0, node.fanin1, node.level) for node in aig._nodes),
        tuple(aig.po_literals),
        tuple(aig.po_names),
        tuple(aig.pi_names),
    )


class _forced_vectorized:
    """Temporarily drop the dispatch threshold so tiny graphs take the
    vectorized arm (the dispatch must be behaviourally invisible)."""

    def __enter__(self):
        self._saved = optimize_module.PASS_VECTOR_THRESHOLD
        optimize_module.PASS_VECTOR_THRESHOLD = 0

    def __exit__(self, *exc):
        optimize_module.PASS_VECTOR_THRESHOLD = self._saved


def _compare_rewrite(aig: Aig, max_inputs: int) -> None:
    reference_trace: list = []
    reference = rewrite_reference(aig, max_inputs=max_inputs, trace=reference_trace)
    with _forced_vectorized():
        fast_trace: list = []
        fast = rewrite(aig, max_inputs=max_inputs, trace=fast_trace)
    assert fast_trace == reference_trace, "rewrite choice streams diverge"
    assert _signature(fast) == _signature(reference)


def _compare_balance(aig: Aig) -> None:
    reference_trace: list = []
    reference = balance_reference(aig, trace=reference_trace)
    with _forced_vectorized():
        fast_trace: list = []
        fast = balance(aig, trace=fast_trace)
    assert fast_trace == reference_trace, "balance choice streams diverge"
    assert _signature(fast) == _signature(reference)


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
        aig = benchmark_by_name(bench_name).build()
        fast = run_flow("resyn2rs", aig)
        reference = run_flow("resyn2rs-reference", aig)
        assert _signature(fast.aig) == _signature(reference.aig)
        assert len(fast.passes) == len(reference.passes)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=60),
        max_inputs=st.sampled_from((3, 4, 5)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_rewrite(self, seed, num_inputs, num_nodes, max_inputs):
        _compare_rewrite(_random_aig(seed, num_inputs, num_nodes), max_inputs)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_balance(self, seed, num_inputs, num_nodes):
        _compare_balance(_random_aig(seed, num_inputs, num_nodes))

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=6),
        num_nodes=st.integers(min_value=8, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_resyn2rs_flow(self, seed, num_inputs, num_nodes):
        aig = _random_aig(seed, num_inputs, num_nodes)
        fast = run_flow("resyn2rs", aig)
        reference = run_flow("resyn2rs-reference", aig)
        assert _signature(fast.aig) == _signature(reference.aig)


def _balance_original(aig: Aig) -> Aig:
    """Verbatim pre-heapq balance: sorted list with pop(0)/insert-after-ties.

    The oracle for the satellite fix: ``balance_reference``'s heap keyed on
    ``(level, insertion index)`` must reproduce this scheduling exactly.
    """
    fanout = aig_arrays(aig).fanout.tolist()
    new = Aig(aig.name)
    mapping: dict[int, int] = {0: CONST0}
    for name in aig.pi_names:
        mapping[lit_node(aig.pi_literal(name))] = new.add_pi(name)

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


def _table_strategy():
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)
        )
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


class TestRewriteLibrary:
    """Program compilation, op schedules and template instantiation."""

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
    def test_template_instantiation_is_functionally_equivalent(self, arity_table):
        num_vars, table = arity_table
        aig = Aig("inst")
        leaves = [aig.add_pi(f"x{i}") for i in range(num_vars)]

        direct = replay_cover(
            aig.and_gate, leaves, REWRITE_LIBRARY.program(table, num_vars)
        )
        via_template = REWRITE_LIBRARY.instantiate(aig, leaves, table, num_vars)

        assert _simulate_literal_table(aig, direct, num_vars) == table
        assert _simulate_literal_table(aig, via_template, num_vars) == table

    def test_class_compression(self):
        """Members share class templates: classes <= members, and a member
        equal to its canonical form reuses the template program object."""
        REWRITE_LIBRARY.cache_clear()
        for table in range(1 << (1 << 2)):
            REWRITE_LIBRARY.program(table, 2)
        assert REWRITE_LIBRARY.member_count == 16
        assert REWRITE_LIBRARY.class_count < REWRITE_LIBRARY.member_count
        template, _match = REWRITE_LIBRARY.template_for(0b1000, 2)
        canonical_program = REWRITE_LIBRARY.program(template.table, 2)
        assert canonical_program is template.program


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
        aig = Aig(f"flat-{num_pis}")
        literals = [aig.add_pi(f"x{i}") for i in range(num_pis)]
        aig.add_po("zero", CONST0)
        aig.add_po("one", CONST1)
        for i, literal in enumerate(literals):
            aig.add_po(f"y{i}", literal ^ (i & 1))
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
