"""Property-based tests (hypothesis) for the synthesis substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis.aig import Aig, lit_node
from repro.synthesis.cuts import enumerate_cuts
from repro.synthesis.optimize import balance, rewrite
from repro.synthesis.rewrite_lib import _cube_minterms, _isop
from repro.logic.simulation import random_pattern_words


def _random_aig(seed: int, num_inputs: int, num_nodes: int) -> Aig:
    """A random, deterministic AIG used as a property-test subject."""
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


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_inputs=st.integers(min_value=3, max_value=8),
    num_nodes=st.integers(min_value=5, max_value=60),
)
@settings(max_examples=25, deadline=None)
def test_balance_and_rewrite_preserve_random_circuits(seed, num_inputs, num_nodes):
    aig = _random_aig(seed, num_inputs, num_nodes)
    patterns = random_pattern_words(aig.pi_names, num_words=2, seed=seed)
    reference = aig.simulate_words(patterns)
    assert balance(aig).simulate_words(patterns) == reference
    assert rewrite(aig).simulate_words(patterns) == reference


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_inputs=st.integers(min_value=3, max_value=6),
    num_nodes=st.integers(min_value=5, max_value=40),
)
@settings(max_examples=15, deadline=None)
def test_cut_functions_evaluate_like_the_node(seed, num_inputs, num_nodes):
    aig = _random_aig(seed, num_inputs, num_nodes)
    cuts = enumerate_cuts(aig, max_inputs=4, cut_limit=4)
    pi_nodes = set(aig.pi_nodes())
    # Pick the last AND node with a PI-only cut and check its function.
    for node in reversed(list(aig.and_nodes())):
        candidates = [c for c in cuts[node] if set(c.leaves) <= pi_nodes and c.leaves != (node,)]
        if not candidates:
            continue
        cut = candidates[0]
        name_of = {n: aig.pi_names[aig.pi_nodes().index(n)] for n in cut.leaves}
        for minterm in range(1 << cut.size):
            env = {name: False for name in aig.pi_names}
            for position, leaf in enumerate(cut.leaves):
                env[name_of[leaf]] = bool((minterm >> position) & 1)
            aig_value = _evaluate_node(aig, node, env)
            assert bool((cut.table >> minterm) & 1) == aig_value
        break


def _evaluate_node(aig: Aig, node: int, env: dict) -> bool:
    probe = Aig("probe")
    mapping = {0: 0}
    for name in aig.pi_names:
        mapping[lit_node(aig.pi_literal(name))] = probe.add_pi(name)
    for candidate in aig.and_nodes():
        f0, f1 = aig.fanins(candidate)
        probe_f0 = mapping[lit_node(f0)] ^ (f0 & 1)
        probe_f1 = mapping[lit_node(f1)] ^ (f1 & 1)
        mapping[candidate] = probe.and_gate(probe_f0, probe_f1)
        if candidate == node:
            break
    probe.add_po("y", mapping[node])
    return probe.evaluate(env)["y"]


@given(
    bits=st.integers(min_value=0, max_value=(1 << 16) - 1),
    num_vars=st.just(4),
)
@settings(max_examples=60, deadline=None)
def test_isop_covers_exactly_the_onset(bits, num_vars):
    cubes = _isop(bits, num_vars)
    covered = 0
    for care, value in cubes:
        covered |= _cube_minterms(num_vars, care, value)
    assert covered == bits
    # Irredundancy: removing any cube must uncover at least one minterm.
    for skip in range(len(cubes)):
        partial = 0
        for index, (care, value) in enumerate(cubes):
            if index != skip:
                partial |= _cube_minterms(num_vars, care, value)
        assert partial != bits or not cubes
