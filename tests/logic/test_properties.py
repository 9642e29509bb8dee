"""Property-based tests on the Boolean substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import TruthTable, npn_canonical, parse_expr
from repro.logic.npn import (
    InputMatch,
    apply_match,
    invert_match,
    npn_canonicalize,
)
from tests.oracles.npn import all_input_permutation_phase_tables

MAX_VARS = 4


def tables(num_vars=MAX_VARS):
    return st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1).map(
        lambda bits: TruthTable(num_vars, bits)
    )


def matches(num_vars=MAX_VARS, allow_output_negation=True):
    return st.tuples(
        st.permutations(list(range(num_vars))),
        st.integers(min_value=0, max_value=(1 << num_vars) - 1),
        st.booleans() if allow_output_negation else st.just(False),
    ).map(lambda t: InputMatch(tuple(t[0]), t[1], t[2]))


@given(tables(), tables())
def test_de_morgan_holds_for_random_tables(a, b):
    assert ~(a & b) == (~a) | (~b)
    assert ~(a | b) == (~a) & (~b)


@given(tables())
def test_double_complement_is_identity(a):
    assert ~~a == a


@given(tables(), st.integers(min_value=0, max_value=MAX_VARS - 1))
def test_shannon_expansion(a, index):
    x = TruthTable.variable(index, MAX_VARS)
    rebuilt = (x & a.cofactor(index, True)) | (~x & a.cofactor(index, False))
    assert rebuilt == a


@given(tables(), st.integers(min_value=0, max_value=MAX_VARS - 1))
def test_flip_input_is_involution(a, index):
    assert a.flip_input(index).flip_input(index) == a


@given(tables(), st.permutations(list(range(MAX_VARS))))
def test_permutation_preserves_onset_size(a, perm):
    assert a.permute_inputs(perm).count_ones() == a.count_ones()


@given(tables(3))
@settings(max_examples=30)
def test_npn_canonical_is_class_invariant(a):
    canon = npn_canonical(a)
    for bits in list(all_input_permutation_phase_tables(a, include_output_negation=True))[:10]:
        variant = TruthTable(3, bits)
        assert npn_canonical(variant) == canon


@given(tables(), matches())
def test_npn_canonicalize_invariant_under_random_transforms(a, match):
    """The canonical form of any permuted/phased/negated variant is unchanged."""
    canonical, _ = npn_canonicalize(a)
    variant = apply_match(a, match)
    assert npn_canonicalize(variant)[0] == canonical


@given(tables())
def test_npn_canonicalize_transform_round_trips(a):
    """The returned transform maps the table to its canonical form and back."""
    canonical, transform = npn_canonicalize(a)
    assert apply_match(a, transform) == canonical
    assert apply_match(canonical, invert_match(transform)) == a


@given(tables(), matches(allow_output_negation=False))
def test_np_canonicalize_invariant_without_output_negation(a, match):
    canonical, transform = npn_canonicalize(a, include_output_negation=False)
    assert not transform.output_negated
    variant = apply_match(a, match)
    assert npn_canonicalize(variant, include_output_negation=False)[0] == canonical


@given(tables(3))
@settings(max_examples=30)
def test_support_shrink_round_trip(a):
    reduced, mapping = a.shrink_to_support()
    assert reduced.num_vars == len(mapping)
    expanded = reduced.place_variables(mapping, a.num_vars)
    assert expanded == a


@given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=6),
       st.lists(st.sampled_from(["&", "|", "^"]), min_size=0, max_size=5))
def test_parser_agrees_with_direct_evaluation(names, ops):
    # Build a random left-associated expression string and check evaluation
    # against the truth table conversion on every assignment.
    text = names[0]
    for i, op in enumerate(ops):
        text += f" {op} {names[(i + 1) % len(names)]}"
    expr = parse_expr(text)
    order = list(expr.variables())
    table = expr.to_truth_table(order)
    for minterm in range(1 << len(order)):
        env = {name: bool((minterm >> i) & 1) for i, name in enumerate(order)}
        assert expr.evaluate(env) == table.value_at(minterm)
