"""Property tests for cut enumeration and the batched uint64 kernels.

Three families of properties:

* **Semantic correctness** -- for random small AIGs, every enumerated cut's
  table must reproduce the node's simulated value on every *reachable* leaf
  assignment (exhaustive primary-input simulation).  Reachability matters:
  under reconvergence a leaf may be a function of other leaves, and the
  enumerator is free to fill the unreachable (inconsistent) minterms with
  either cofactor, so plain free-variable cone simulation would be too
  strong a specification.
* **Implementation agreement** -- the level kernel must agree with the
  pure-Python oracle ``enumerate_cuts_reference`` (``tests/oracles/cuts.py``)
  cut for cut (same leaves, same tables, same supports, same order), and each
  batched kernel must agree with its scalar counterpart on random inputs.
* **Packed-key dedup** -- the level kernel's integer dedup keeps exactly the
  first occurrences ``np.unique(signature, axis=0, return_index=True)``
  keeps, in the same order, for node-id widths that pack a key into one,
  two and three uint64 words.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis.aig import Aig
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cut_kernels import (
    FULL_BY_SIZE,
    batch_support,
    expand_tables,
    insert_dontcare,
)
from repro.synthesis.cuts import (
    LEAF_SENTINEL,
    MAX_NODES,
    _first_occurrences,
    _key_weights,
    _validate_parameters,
    enumerate_cuts,
    enumerate_cuts_arrays,
    table_support,
)
from tests.oracles.cuts import _expand_at_positions, enumerate_cuts_reference


@st.composite
def random_aigs(draw):
    """A small random AIG built through the structurally hashing constructors."""
    num_pis = draw(st.integers(min_value=2, max_value=5))
    aig = Aig("prop")
    literals = [aig.add_pi(f"x{i}") for i in range(num_pis)]
    num_gates = draw(st.integers(min_value=1, max_value=30))
    for _ in range(num_gates):
        index_a = draw(st.integers(min_value=0, max_value=len(literals) - 1))
        index_b = draw(st.integers(min_value=0, max_value=len(literals) - 1))
        comp_a = draw(st.booleans())
        comp_b = draw(st.booleans())
        gate = draw(st.sampled_from(["and", "or", "xor"]))
        a = literals[index_a] ^ int(comp_a)
        b = literals[index_b] ^ int(comp_b)
        if gate == "and":
            literals.append(aig.and_gate(a, b))
        elif gate == "or":
            literals.append(aig.or_gate(a, b))
        else:
            literals.append(aig.xor_gate(a, b))
    num_pos = draw(st.integers(min_value=1, max_value=3))
    for out in range(num_pos):
        index = draw(st.integers(min_value=0, max_value=len(literals) - 1))
        comp = draw(st.booleans())
        aig.add_po(f"y{out}", literals[index] ^ int(comp))
    return aig


def _exhaustive_node_values(aig: Aig) -> dict[int, int]:
    """Value word of every node over all primary-input assignments."""
    num_pis = aig.num_pis
    patterns = 1 << num_pis
    full = (1 << patterns) - 1
    values = {0: 0}
    for position, node in enumerate(aig.pi_nodes()):
        bits = 0
        for minterm in range(patterns):
            if (minterm >> position) & 1:
                bits |= 1 << minterm
        values[node] = bits
    for node in aig.and_nodes():
        fanin0, fanin1 = aig.fanins(node)
        value0 = values[fanin0 >> 1] ^ (full if fanin0 & 1 else 0)
        value1 = values[fanin1 >> 1] ^ (full if fanin1 & 1 else 0)
        values[node] = value0 & value1
    return values


@settings(max_examples=60, deadline=None)
@given(aig=random_aigs(), max_inputs=st.integers(min_value=2, max_value=6))
def test_cut_tables_match_simulation_on_reachable_assignments(aig, max_inputs):
    """Every cut table agrees with node simulation wherever the leaves can go."""
    cuts = enumerate_cuts(aig, max_inputs=max_inputs, cut_limit=6)
    values = _exhaustive_node_values(aig)
    patterns = 1 << aig.num_pis
    arrays = aig_arrays(aig)
    for node in arrays.and_nodes.tolist():
        node_word = values[node]
        for cut in cuts[node]:
            leaf_words = [values[leaf] for leaf in cut.leaves]
            for pattern in range(patterns):
                leaf_minterm = 0
                for position, word in enumerate(leaf_words):
                    if (word >> pattern) & 1:
                        leaf_minterm |= 1 << position
                assert ((cut.table >> leaf_minterm) & 1) == (
                    (node_word >> pattern) & 1
                ), (node, cut.leaves, pattern)
            assert cut.support_mask() == table_support(cut.table, cut.size)


@settings(max_examples=60, deadline=None)
@given(
    aig=random_aigs(),
    max_inputs=st.integers(min_value=2, max_value=6),
    cut_limit=st.integers(min_value=1, max_value=8),
)
def test_vectorized_agrees_with_reference_cut_for_cut(aig, max_inputs, cut_limit):
    """The kernel path reproduces the oracle exactly, cut for cut."""
    reference = enumerate_cuts_reference(aig, max_inputs=max_inputs, cut_limit=cut_limit)
    cut_set = enumerate_cuts_arrays(aig, max_inputs=max_inputs, cut_limit=cut_limit)
    produced = cut_set.to_dict(aig_arrays(aig))
    assert set(produced) == set(reference)
    for node, expected in reference.items():
        actual = produced[node]
        assert len(actual) == len(expected), node
        for cut_a, cut_e in zip(actual, expected):
            assert cut_a.leaves == cut_e.leaves
            assert cut_a.table == cut_e.table
            assert cut_a.support_mask() == cut_e.support_mask()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), num_vars=st.integers(min_value=0, max_value=5))
def test_insert_dontcare_matches_scalar_insertion(data, num_vars):
    table = data.draw(st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1))
    position = data.draw(st.integers(min_value=0, max_value=num_vars))
    expected = _expand_at_positions(table, (position,))
    produced = int(insert_dontcare(np.array([table], dtype=np.uint64), position)[0])
    assert produced == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), merged_size=st.integers(min_value=1, max_value=6))
def test_expand_tables_matches_scalar_expansion(data, merged_size):
    positions = data.draw(
        st.sets(
            st.integers(min_value=0, max_value=merged_size - 1),
            min_size=1,
            max_size=merged_size,
        )
    )
    submask = sum(1 << p for p in positions)
    table = data.draw(
        st.integers(min_value=0, max_value=(1 << (1 << len(positions))) - 1)
    )
    inserts = tuple(p for p in range(merged_size) if not (submask >> p) & 1)
    expected = _expand_at_positions(table, inserts)
    produced = int(
        expand_tables(np.array([table], dtype=np.uint64), np.array([submask]))[0]
    )
    produced &= int(FULL_BY_SIZE[merged_size])
    assert produced == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), num_vars=st.integers(min_value=1, max_value=6))
def test_batch_support_matches_scalar_support(data, num_vars):
    table = data.draw(st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1))
    expected = table_support(table, num_vars)
    produced = int(
        batch_support(np.array([table], dtype=np.uint64), np.array([num_vars]))[0]
    )
    assert produced == expected


#: Node counts on both sides of field-width boundaries, with the number of
#: uint64 words a K=6 dedup key (seven fields) takes at that width:
#: ``2**b - 1`` nodes have ``b``-bit fields, ``2**b`` nodes ``b + 1``.
KEY_WIDTHS = (
    (2**9 - 1, 1),
    (2**9, 2),
    (2**16 - 1, 2),
    (2**16, 3),
    (2**21 - 1, 3),
)


@st.composite
def dedup_inputs(draw, num_nodes):
    """Signature rows drawn from small id pools, so equal rows repeat and
    rows that differ only by their largest leaf (the id ``num_nodes - 1``
    against padding) are common.

    Hypothesis draws the pools, the row count and a seed; a numpy generator
    then draws every row at once from the pools (a uniformly sized subset
    of the leaf pool per row, ascending, padded with ``LEAF_SENTINEL``).
    """
    width = draw(st.sampled_from((6, 4, 2)))
    top = num_nodes - 1
    ids = st.integers(min_value=0, max_value=top)
    pool = np.array(
        sorted(set(draw(st.lists(ids, min_size=1, max_size=5))) | {0, top})
    )
    locals_ = np.array(
        sorted(set(draw(st.lists(ids, min_size=1, max_size=2))) | {top})
    )
    num_rows = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    local = rng.choice(locals_, size=num_rows)
    # A random order of the pool per row; the first ``sizes[row]`` ids of it
    # are the row's leaves.
    span = min(width, pool.size)
    picked = pool[np.argsort(rng.random((num_rows, pool.size)), axis=1)[:, :span]]
    sizes = rng.integers(1, span, size=num_rows, endpoint=True)
    leaves = np.where(np.arange(span) < sizes[:, None], picked, LEAF_SENTINEL)
    rows = np.full((num_rows, width), LEAF_SENTINEL, dtype=np.int64)
    rows[:, :span] = np.sort(leaves, axis=1)
    return local, rows


@pytest.mark.parametrize("num_nodes, words", KEY_WIDTHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_dedup_matches_unique(num_nodes, words, data):
    """The packed-key dedup returns ``np.unique``'s first indices."""
    assert _key_weights(7, num_nodes.bit_length()).shape[1] == words
    local, rows = data.draw(dedup_inputs(num_nodes))
    signature = np.concatenate([local[:, None], rows], axis=1)
    expected = np.unique(signature, axis=0, return_index=True)[1]
    produced = _first_occurrences(local, rows, num_nodes)
    assert produced.tolist() == expected.tolist()


def test_node_count_bound():
    """Node ids share a 32-bit merge entry with two tag bits."""
    _validate_parameters(6, 8, MAX_NODES)
    with pytest.raises(ValueError):
        _validate_parameters(6, 8, MAX_NODES + 1)
