"""Signal probability / switching activity engine.

The hypothesis property pins the word-parallel exact enumeration against the
one-assignment-at-a-time reference of ``tests/oracles/activity.py`` on
random cones of up to 10 inputs; the Monte-Carlo estimator must converge to the exact probabilities within a
statistical tolerance on a mid-size benchmark and be bit-for-bit
reproducible under a fixed seed.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.activity import (
    compute_activities,
    exact_activities,
    exact_pi_words,
    monte_carlo_activities,
)
from repro.bench.registry import benchmark_by_name
from repro.synthesis.aig import Aig
from tests.oracles.activity import exact_activities_reference


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
    num_inputs=st.integers(min_value=1, max_value=10),
    num_nodes=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=25, deadline=None)
def test_exact_word_parallel_matches_brute_force(seed, num_inputs, num_nodes):
    aig = _random_aig(seed, num_inputs, num_nodes)
    fast = exact_activities(aig)
    reference = exact_activities_reference(aig)
    assert fast.patterns == reference.patterns == (1 << num_inputs)
    assert np.array_equal(fast.probability, reference.probability)
    assert np.array_equal(fast.activity, reference.activity)


def test_exact_pi_words_enumerate_all_minterms():
    words, total, tail_mask = exact_pi_words(8)
    assert total == 256 and words.shape == (8, 4) and tail_mask == (1 << 64) - 1
    # Reassemble every minterm from the packed columns.
    for minterm in (0, 1, 85, 170, 255):
        word, bit = divmod(minterm, 64)
        value = sum(
            ((int(words[i, word]) >> bit) & 1) << i for i in range(8)
        )
        assert value == minterm


def test_probabilities_of_known_gates():
    aig = Aig("known")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    and_lit = aig.and_gate(a, b)
    xor_lit = aig.xor_gate(a, b)
    aig.add_po("and", and_lit)
    aig.add_po("xor", xor_lit)
    report = exact_activities(aig)
    assert report.node_probability(a >> 1) == pytest.approx(0.5)
    assert report.node_probability(and_lit >> 1) == pytest.approx(0.25)
    assert report.node_activity(and_lit >> 1) == pytest.approx(2 * 0.25 * 0.75)
    assert report.literal_probability(and_lit ^ 1) == pytest.approx(0.75)
    # The XOR output literal is complemented in AIG encoding; its literal
    # probability must still be 1/2.
    assert report.literal_probability(xor_lit) == pytest.approx(0.5)


def test_exact_guard_rejects_wide_inputs():
    aig = _random_aig(7, 10, 5)
    with pytest.raises(ValueError):
        exact_activities(aig, exact_limit=8)


def test_compute_activities_switches_method_on_input_count():
    small = _random_aig(3, 6, 20)
    assert compute_activities(small).method == "exact"
    wide = _random_aig(4, 14, 20)
    report = compute_activities(wide, exact_limit=12, vectors=8, seed=5)
    assert report.method == "monte-carlo"
    assert report.patterns == 8 * 64
    assert report.seed == 5


def test_monte_carlo_is_deterministic_per_seed():
    aig = benchmark_by_name("t481").build()
    first = monte_carlo_activities(aig, vectors=64, seed=11)
    second = monte_carlo_activities(aig, vectors=64, seed=11)
    assert np.array_equal(first.probability, second.probability)
    other = monte_carlo_activities(aig, vectors=64, seed=12)
    assert not np.array_equal(first.probability, other.probability)


def test_monte_carlo_converges_on_mid_size_benchmark():
    # t481 has 16 inputs: small enough to enumerate exactly (65536 patterns)
    # and large enough that the Monte-Carlo path is the default.  At 512
    # words (32768 samples) the worst per-node error of a binomial estimate
    # stays well under 0.02 with this fixed seed.
    aig = benchmark_by_name("t481").build()
    exact = exact_activities(aig, exact_limit=16)
    estimate = monte_carlo_activities(aig, vectors=512, seed=2009)
    worst = float(np.abs(exact.probability - estimate.probability).max())
    assert worst < 0.02, f"Monte-Carlo error {worst:.4f} out of tolerance"
    assert float(np.abs(exact.activity - estimate.activity).max()) < 0.02
