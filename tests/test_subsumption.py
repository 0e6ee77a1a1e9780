import random

from hypothesis import given, settings, strategies as st

from rulehier.kgstore import Interner
from rulehier.rules import (Rule, body_length, format_rule, parse_rule,
                            reverse_body, skolemize)
from rulehier.subsumption import (a_subsumes, i_subsumes, oi_subsumes,
                                  sa_subsumes, sa_subsumes_complete,
                                  theta_subsumes)

from helpers import (R, deduction_level, random_generalization, random_rule,
                     toy_store)


def academic_rules():
    """The worked-example rules over the five-triple academic graph."""
    store = toy_store()
    p4 = R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store)
    p5 = R("Advises(X,Y) <- Is_A(Y,V0)", store)
    p6 = R("Advises(X,Y) <- Is_A(Y,student)", store)
    p7 = R("Advises(X,Y) <-", store)
    p8 = R("Advises(X,Y) <- Publishes(X,V0)", store)
    return store, p4, p5, p6, p7, p8


# ---------------------------------------------------------------------------
# worked examples

def test_theta_subsumption_instantiation_example():
    _, p4, p5, p6, p7, p8 = academic_rules()
    # p5 theta-subsumes p6 with the single substitution {V0 -> student}
    assert theta_subsumes(p5, p6)
    assert not theta_subsumes(p6, p5)
    # the X-anchored sibling does not: the head fixes X and Y apart
    store = toy_store()
    p5x = R("Advises(X,Y) <- Is_A(X,V0)", store)
    assert not theta_subsumes(p5x, p6)


def test_theta_subsumption_head_predicate_gate():
    store = toy_store()
    p = R("Advises(X,Y) <-", store)
    q = R("Publishes(X,Y) <- Is_A(X,V0)", store)
    assert not theta_subsumes(p, q)


def test_oi_relation_over_abstract_chain_family():
    _, p4, _, _, p7, p8 = academic_rules()
    rules = {"p4": p4, "p7": p7, "p8": p8}
    oi = {(a, b) for a in rules for b in rules
          if a != b and oi_subsumes(rules[a], rules[b])}
    assert oi == {("p8", "p4"), ("p7", "p8"), ("p7", "p4")}


def test_sa_chain_over_abstract_family():
    _, p4, _, _, p7, p8 = academic_rules()
    assert sa_subsumes(p7, p8)
    assert sa_subsumes(p8, p4)
    assert sa_subsumes(p7, p4)
    assert not sa_subsumes(p4, p8)
    assert not sa_subsumes(p8, p7)


def test_oi_backtracking_example_negative():
    ents, rels = Interner(), Interner()
    p9 = parse_rule("rt(X,Y) <- r0(X,V0)", ents, rels)
    p10 = parse_rule("rt(X,Y) <- r1(X,V0), r0(V0,V1), r0(V1,V2)", ents, rels)
    # both r0 atoms fail to host p9's body atom once the head binds X
    assert not oi_subsumes(p9, p10)
    assert not theta_subsumes(p9, p10)
    assert not sa_subsumes_complete(p9, p10)
    assert format_rule(skolemize(p10), ents, rels) == \
        "rt(sk0,sk1) <- r1(sk0,sk2), r0(sk2,sk3), r0(sk3,sk4)"


def test_reversed_body_completeness_example():
    ents, rels = Interner(), Interner()
    p9 = parse_rule("rt(X,Y) <- r0(X,V0)", ents, rels)
    p11 = parse_rule("rt(X,Y) <- r0(Y,V0), r0(X,V0)", ents, rels)
    assert oi_subsumes(p9, p11)
    assert not sa_subsumes(p9, p11)
    assert sa_subsumes(p9, reverse_body(p11))
    assert sa_subsumes_complete(p9, p11)


def test_single_instantiation_step_example():
    store = toy_store()
    p = R("Advises(X,Y) <- Publishes(Y,V0)", store)
    q = R("Advises(X,bob) <- Publishes(bob,V0)", store)
    assert sa_subsumes(p, q)
    assert i_subsumes(p, q)
    assert not a_subsumes(p, q)
    assert not i_subsumes(q, p)


def test_single_addition_step_example():
    _, p4, _, _, p7, p8 = academic_rules()
    assert a_subsumes(p7, p8)
    assert a_subsumes(p8, p4)
    assert not a_subsumes(p7, p4)    # length gap two
    assert not i_subsumes(p7, p8)


def test_oi_blocks_variable_constant_merge():
    store = toy_store()
    # under object identity V0 may not denote bob, which p names explicitly
    p = R("Advises(X,bob) <- Publishes(X,V0)", store)
    q = R("Advises(X,bob) <- Publishes(X,bob)", store)
    assert theta_subsumes(p, q)
    assert not oi_subsumes(p, q)
    assert not sa_subsumes(p, q)


def test_oi_blocks_variable_merging():
    ents, rels = Interner(), Interner()
    p = parse_rule("rt(X,Y) <- r0(X,V0), r0(V1,V0)", ents, rels)
    q = parse_rule("rt(X,Y) <- r0(X,V0)", ents, rels)
    # theta can merge V1 with X and reuse the single body atom
    assert theta_subsumes(p, q)
    assert not oi_subsumes(p, q)


def test_sa_is_positional():
    ents, rels = Interner(), Interner()
    p = parse_rule("rt(X,Y) <- r1(V0,Y)", ents, rels)
    q = parse_rule("rt(X,Y) <- r0(X,V0), r1(V1,Y)", ents, rels)
    # the embedding exists but not at matching positions
    assert oi_subsumes(p, q)
    assert not sa_subsumes(p, q)
    assert sa_subsumes_complete(p, q)


def test_subsumption_reflexive():
    rng = random.Random(5)
    for _ in range(50):
        p = random_rule(rng)
        assert sa_subsumes(p, p)
        assert oi_subsumes(p, p)
        assert theta_subsumes(p, p)


# ---------------------------------------------------------------------------
# property checks (the full-scale corpus lives in the acceptance suite)

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_implication_chain_and_equivalence(seed, derived):
    rng = random.Random(seed)
    q = random_rule(rng)
    p = random_generalization(rng, q) if derived else random_rule(rng)
    if derived:
        assert sa_subsumes(p, q)
    if sa_subsumes(p, q):
        assert oi_subsumes(p, q)
    if oi_subsumes(p, q):
        assert theta_subsumes(p, q)
    assert sa_subsumes_complete(p, q) == oi_subsumes(p, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_gap_restricted_deciders(seed):
    rng = random.Random(seed)
    q = random_rule(rng)
    p = random_generalization(rng, q)
    if a_subsumes(p, q):
        assert body_length(q) == body_length(p) + 1
        assert deduction_level(p) == deduction_level(q)
    if i_subsumes(p, q):
        assert body_length(p) == body_length(q)
        assert deduction_level(q) == deduction_level(p) + 1
    assert not (a_subsumes(p, q) and i_subsumes(p, q))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_sa_antisymmetric_on_canonical_rules(seed):
    rng = random.Random(seed)
    p, q = random_rule(rng), random_rule(rng)
    if p != q and sa_subsumes(p, q):
        assert not sa_subsumes(q, p)
