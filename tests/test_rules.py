import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rulehier.kgstore import Interner, ParseError, TripleStore
from rulehier.miner import MinerConfig, open_groundings
from rulehier.rules import (Atom, KindError, Rule, StraightnessError, Term,
                            VAR_X, VAR_Y, body_length, const, constants,
                            dangling_term, format_rule, instantiate,
                            is_straight, kind_of, parse_rule, reverse_body,
                            skolem, skolemize, var, walk_rule)

from helpers import (Path, R, anchoring, deduction_level, generalize,
                     is_connected, random_rule, specialize, toy_store,
                     zero_thresholds)


def _interners():
    ents, rels = Interner(), Interner()
    for c in range(6):
        ents.intern(f"c{c}")
    for p in range(5):
        rels.intern(f"r{p}")
    return ents, rels


# ---------------------------------------------------------------------------
# construction and canonical form

def test_fresh_variables_renumbered_by_first_occurrence():
    a = Rule(Atom(0, VAR_X, VAR_Y),
             (Atom(1, VAR_X, var(7)), Atom(1, var(7), var(3))))
    b = Rule(Atom(0, VAR_X, VAR_Y),
             (Atom(1, VAR_X, var(0)), Atom(1, var(0), var(1))))
    assert a == b
    assert a.body[0].obj == var(0)
    assert a.body[1].obj == var(1)


def test_head_variables_never_renumbered():
    r = Rule(Atom(0, VAR_X, VAR_Y), (Atom(1, VAR_Y, var(5)),))
    assert r.head.subj == VAR_X and r.head.obj == VAR_Y
    assert r.body[0].subj == VAR_Y


def test_positional_accessor():
    r = Rule(Atom(0, VAR_X, VAR_Y), (Atom(1, VAR_X, var(0)),))
    assert r.atoms == (r.head, *r.body)
    assert len(r.atoms) == 2


def test_rules_hashable_and_equal_by_structure():
    ents, rels = _interners()
    a = parse_rule("r0(X,Y) <- r1(X,V3)", ents, rels)
    b = parse_rule("r0(X,Y) <- r1(X,V0)", ents, rels)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def _term_triples(rule: Rule):
    """The sort key as a flat (pred, is_var, idx) sequence, term by term."""
    return tuple((a.pred, t.is_var, t.idx) for a in rule.atoms
                 for t in a.terms)


def test_rules_are_values_with_a_cached_hash_and_sort_key():
    rng = random.Random(20261018)
    for _ in range(500):
        rule = random_rule(rng)
        # an alpha-variant: every fresh variable shifted by 5
        shift = {t: Term(True, t.idx + 5) for a in rule.body for t in a.terms
                 if t.is_var and t not in (VAR_X, VAR_Y)}
        variant = Rule(rule.head, tuple(
            Atom(a.pred, shift.get(a.subj, a.subj), shift.get(a.obj, a.obj))
            for a in rule.body))
        assert variant == rule and hash(variant) == hash(rule)
        assert hash(rule) == hash((rule.head, rule.body))
        fresh = Rule(rule.head, rule.body)
        assert rule.sort_key() == fresh.sort_key() == (rule.head, *rule.body)
        assert rule != (rule.head, rule.body) and (rule.head, rule.body) != rule
        assert rule != rule.atoms and rule != tuple(rule.body)
    # the cached key orders rules exactly as the term-by-term triples do
    corpus = [random_rule(rng) for _ in range(2000)]
    assert sorted(corpus, key=Rule.sort_key) == sorted(corpus,
                                                       key=_term_triples)
    with pytest.raises(AttributeError):
        rule.head = rule.head
    with pytest.raises(AttributeError):
        rule._hash = 0
    with pytest.raises(AttributeError):
        rule._atoms = ()
    assert hash(rule) == hash((rule.head, rule.body))


_PLAIN_TERMS = [VAR_X, VAR_Y, const(0), const(4), skolem(1)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 4),
       st.sampled_from(_PLAIN_TERMS), st.sampled_from(_PLAIN_TERMS))
def test_with_head_is_the_rule_under_a_head_of_x_y_and_constants(seed, pred,
                                                                  subj, obj):
    rng = random.Random(seed)
    rule = random_rule(rng)
    while any(t.is_var and t not in (VAR_X, VAR_Y) for t in rule.head.terms):
        rule = random_rule(rng)
    head = Atom(pred, subj, obj)
    got, want = rule.with_head(head), Rule(head, rule.body)
    assert got == want and hash(got) == hash(want)
    assert got.atoms == want.atoms == (head, *rule.body)
    assert got.head is head and got.body is rule.body
    # a head holding a fresh variable, the new one or the rule's own,
    # would need renumbering
    for bad in (Atom(pred, var(0), obj), Atom(pred, subj, var(0))):
        with pytest.raises(ValueError, match="body variable"):
            rule.with_head(bad)
    fresh_head = Rule(Atom(pred, var(0), VAR_Y),
                      (Atom(1, VAR_X, var(1)), Atom(2, var(1), var(0))))
    with pytest.raises(ValueError, match="body variable"):
        fresh_head.with_head(head)


def test_terms_and_atoms_keep_their_attribute_api():
    t = const(4)
    assert (t.is_var, t.idx, t.is_skolem) == (False, 4, False)
    assert skolem(0).is_skolem and not VAR_X.is_skolem
    atom = Atom(2, VAR_X, t)
    assert (atom.pred, atom.subj, atom.obj, atom.terms) == (2, VAR_X, t,
                                                            (VAR_X, t))
    assert hash(atom) == hash((2, (True, 0), (False, 4)))
    with pytest.raises(AttributeError):
        atom.pred = 3


def test_walk_rule_numbers_ids_as_x_y_and_fresh_variables():
    ents, rels = _interners()
    assert walk_rule(0, ()) == parse_rule("r0(X,Y) <-", ents, rels)
    assert walk_rule(0, (1, 0, 2, 2, 3, 2)) == parse_rule(
        "r0(X,Y) <- r1(X,V0), r2(V1,V0)", ents, rels)
    assert walk_rule(0, (1, 2, 0, 3, 2, 1)) == parse_rule(
        "r0(X,Y) <- r1(V0,X), r3(V0,Y)", ents, rels)


# ---------------------------------------------------------------------------
# syntactic measures and checks

def test_body_length_and_deduction_level():
    ents, rels = _interners()
    r = parse_rule("r0(X,c1) <- r1(X,V0), r2(V0,c2)", ents, rels)
    assert body_length(r) == 2
    assert deduction_level(r) == 2      # distinct constants: c1, c2
    r2 = parse_rule("r0(X,c1) <- r1(X,c1)", ents, rels)
    assert deduction_level(r2) == 1     # repeated constant counted once


def test_straightness_counts_occurrences():
    ents, rels = _interners()
    ok = parse_rule("r0(X,Y) <- r1(X,V0), r2(V0,Y)", ents, rels)
    assert is_straight(ok)
    bad = parse_rule("r0(X,Y) <- r1(X,V0), r2(X,V1)", ents, rels)
    assert not is_straight(bad)         # X occurs three times


def test_connectedness_adjacent_atoms():
    ents, rels = _interners()
    ok = parse_rule("r0(X,Y) <- r1(Y,V0), r2(V0,V1)", ents, rels)
    assert is_connected(ok)
    bad = parse_rule("r0(X,Y) <- r1(V0,V1)", ents, rels)
    assert not is_connected(bad)
    gap = parse_rule("r0(X,Y) <- r1(X,V0), r2(V1,V2)", ents, rels)
    assert not is_connected(gap)


def test_dangling_term():
    ents, rels = _interners()
    assert dangling_term(parse_rule("r0(X,Y) <- r1(X,V0)", ents, rels)) == var(0)
    assert dangling_term(parse_rule("r0(X,Y) <- r1(V0,X)", ents, rels)) == var(0)
    assert dangling_term(
        parse_rule("r0(X,Y) <- r1(X,V0), r2(V0,c3)", ents, rels)) == const(3)
    with pytest.raises(KindError):
        dangling_term(parse_rule("r0(X,Y) <-", ents, rels))


def test_kind_classification():
    ents, rels = _interners()
    cases = {
        "r0(X,Y) <-": "OAR",                                # top rule
        "r0(X,Y) <- r1(X,V0)": "OAR",
        "r0(X,Y) <- r1(X,V0), r2(V0,Y)": "CAR",
        "r0(X,Y) <- r1(Y,V0)": "OPEN",                      # Y-anchored open
        "r0(X,c0) <- r1(X,V0)": "HAR",
        "r0(X,c0) <- r1(X,c1)": "BAR",
        "r0(X,c0) <- r1(X,V0), r2(V0,c1)": "BAR",
        "r0(X,c0) <- r1(c1,X)": "BAR",
        "r0(c0,Y) <- r1(Y,c1)": "INSR",                     # head subj bound
        "r0(X,c0) <- r1(c1,V0), r2(V0,X)": "INSR",          # constant mid-walk
        "r0(X,c0) <- r1(X,c1), r2(c1,c2)": "INSR",          # three constants
    }
    for text, kind in cases.items():
        assert kind_of(parse_rule(text, ents, rels)) == kind, text


def _kind_two_pass(rule: Rule) -> str:
    """kind_of as it was written before its one-pass scan: the oracle."""
    d = deduction_level(rule)
    body_terms = {t for a in rule.body for t in a.terms}
    if d == 0:
        if VAR_Y not in body_terms:
            return "OAR"
        return "CAR" if VAR_X in body_terms else "OPEN"
    head_const = not rule.head.obj.is_var and rule.head.subj == VAR_X
    if head_const and d == 1:
        return "HAR"
    if (head_const and d == 2 and rule.body
            and not dangling_term(rule).is_var):
        return "BAR"
    return "INSR"


def test_kind_of_matches_the_two_pass_classification():
    rng = random.Random(14)
    kinds = Counter()
    for _ in range(3000):
        rule = random_rule(rng)
        kinds[kind_of(rule)] += 1
        assert kind_of(rule) == _kind_two_pass(rule), rule
    assert set(kinds) == {"OAR", "CAR", "OPEN", "HAR", "BAR", "INSR"}


def test_reverse_body():
    ents, rels = _interners()
    r = parse_rule("r0(X,Y) <- r1(Y,V0), r2(V0,X)", ents, rels)
    rev = reverse_body(r)
    # canonical renumbering kicks in after reversal
    assert rev == parse_rule("r0(X,Y) <- r2(V0,X), r1(Y,V0)", ents, rels)
    assert reverse_body(rev) == r


def test_skolemize_injective_and_repeatable():
    ents, rels = _interners()
    r = parse_rule("r0(X,Y) <- r1(X,V0), r2(V0,Y)", ents, rels)
    s = skolemize(r)
    terms = [t for a in s.atoms for t in a.terms]
    assert all(t.is_skolem for t in terms)
    assert len({t for t in terms}) == 3  # X, Y, V0 stay distinct
    assert skolemize(r) == s
    assert s.head.subj == skolem(0) and s.head.obj == skolem(1)


# ---------------------------------------------------------------------------
# paths and generalize: the per-prefix oracle in helpers.py

def test_path_validation():
    a, b, c = 10, 11, 12
    head = Atom(0, const(a), const(b))
    step = Atom(1, const(a), const(c))
    Path((head, step), (a, c))
    with pytest.raises(ValueError):
        Path((head, step), (b, c))          # must start at head subject
    with pytest.raises(ValueError):
        Path((head, step), (a,))            # entity per step
    with pytest.raises(ValueError):
        Path((head, Atom(1, const(b), const(c))), (a, c))  # disconnected
    with pytest.raises(ValueError):
        Path((Atom(0, VAR_X, const(b)),), (a,))  # ground atoms only


def test_generalize_toy_walk_closed():
    store = toy_store()
    e = store.entities.get
    r = store.relations.get
    path = Path((Atom(r("Advises"), const(e("alice")), const(e("bob"))),
                 Atom(r("Publishes"), const(e("alice")), const(e("paper"))),
                 Atom(r("Publishes"), const(e("bob")), const(e("paper")))),
                (e("alice"), e("paper"), e("bob")))
    rule = generalize(path)
    assert rule == R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store)
    assert kind_of(rule) == "CAR"


def test_generalize_open_walk():
    store = toy_store()
    e = store.entities.get
    r = store.relations.get
    path = Path((Atom(r("Advises"), const(e("alice")), const(e("bob"))),
                 Atom(r("Is_A"), const(e("alice")), const(e("professor")))),
                (e("alice"), e("professor")))
    rule = generalize(path)
    assert rule == R("Advises(X,Y) <- Is_A(X,V0)", store)
    assert kind_of(rule) == "OAR"


def test_generalize_rejects_revisiting_walks():
    a, b, c = 10, 11, 12
    atoms = (Atom(0, const(a), const(b)),
             Atom(1, const(a), const(c)),
             Atom(1, const(a), const(c)))
    path = Path(atoms, (a, c, a))
    with pytest.raises(StraightnessError):
        generalize(path)


# ---------------------------------------------------------------------------
# anchoring open rules

def test_specialization_anchors_y_and_the_dangling_term():
    ents, rels = _interners()
    oar = parse_rule("r0(X,Y) <- r1(X,V0), r2(V1,V0)", ents, rels)
    assert dangling_term(oar) == var(1)
    assert instantiate(oar, {VAR_Y: 0, var(1): 1}) == parse_rule(
        "r0(X,c0) <- r1(X,V0), r2(c1,V0)", ents, rels)
    # specialization binds Y for a HAR, and Y plus the dangling term for
    # a BAR
    store = toy_store()
    rt = store.relations.get("Advises")
    oar = R("Advises(X,Y) <- Is_A(X,V0)", store)
    rt_pairs = store.instances_of(rt)
    specs, _ = specialize(oar, open_groundings(oar, store), rt_pairs,
                          set(), zero_thresholds(MinerConfig()))
    assert [set(anchoring(oar, r)) for r, _ in specs] == [
        {VAR_Y}, {VAR_Y, var(0)}]
    assert [r for r, _ in specs] == [
        R("Advises(X,bob) <- Is_A(X,V0)", store),
        R("Advises(X,bob) <- Is_A(X,professor)", store)]


@pytest.mark.parametrize("text, r1_obj, error", [
    ("rt(X,X) <- r1(X,V0)", "d", ValueError),         # the head lacks Y
    ("rt(X,Y) <- r1(X,X)", "a", StraightnessError)])  # X occurs thrice
def test_specialization_raises_what_instantiate_raises(text, r1_obj, error):
    # specialization builds its rules without instantiate, and checks the
    # OAR once instead: an OAR whose anchorings instantiate rejects still
    # raises, as soon as a candidate is kept
    store = TripleStore()
    a, b, _ = (store.entities.intern(e) for e in "abd")
    rt, r1 = store.relations.intern("rt"), store.relations.intern("r1")
    store.add_triple(rt, a, b, "train")
    store.add_triple(r1, a, store.entities.get(r1_obj), "train")
    oar = R(text, store)
    assert kind_of(oar) == "OAR"
    with pytest.raises(error):
        instantiate(oar, {VAR_Y: b})
    rt_pairs = store.instances_of(rt)
    args = (oar, open_groundings(oar, store), rt_pairs, set())
    with pytest.raises(error):
        specialize(*args, zero_thresholds(MinerConfig()))
    # the same OAR with no kept candidate builds nothing and raises nothing
    assert specialize(*args, MinerConfig(supp_f=1)) == ([], False)


def test_specialization_of_an_oar_whose_head_holds_a_body_variable_raises():
    # specialization checks the OAR's head once, not both heads of every
    # kept rule as with_head does: an OAR whose head holds V0, from which
    # every kept rule's head derives, still raises with_head's ValueError
    # as soon as a candidate is kept, and nothing with none kept
    store = TripleStore()
    a, b, d = (store.entities.intern(e) for e in "abd")
    rt, r1 = store.relations.intern("rt"), store.relations.intern("r1")
    store.add_triple(rt, a, b, "train")
    store.add_triple(r1, a, d, "train")
    oar = R("rt(V0,Y) <- r1(X,V0)", store)
    assert kind_of(oar) == "OAR" and is_straight(oar)
    # either head holding it makes with_head raise
    for rule, head in ((oar, Atom(rt, var(0), const(b))),
                       (Rule(Atom(rt, VAR_X, const(b)), oar.body),
                        oar.head)):
        with pytest.raises(ValueError, match="body variable"):
            rule.with_head(head)
    args = (oar, open_groundings(oar, store), store.instances_of(rt), set())
    with pytest.raises(ValueError, match="body variable"):
        specialize(*args, zero_thresholds(MinerConfig()))
    assert specialize(*args, MinerConfig(supp_f=1)) == ([], False)


def test_specialization_rejects_non_oars():
    # specialization reads the index that open_groundings builds, and
    # open_groundings accepts only an OAR
    ents, rels = _interners()
    store, config = TripleStore(), MinerConfig()
    for text in ("r0(X,Y) <-",
                 "r0(X,Y) <- r1(X,V0), r2(V0,Y)",
                 "r0(X,Y) <- r1(Y,V0)",
                 "r0(X,c0) <- r1(X,V0)"):
        rule = parse_rule(text, ents, rels)
        with pytest.raises(KindError):
            specialize(rule, open_groundings(rule, store), set(), set(),
                       config)


def test_instantiate_har_and_bar():
    ents, rels = _interners()
    oar = parse_rule("r0(X,Y) <- r1(X,V0)", ents, rels)
    har = instantiate(oar, {VAR_Y: 0})
    assert har == parse_rule("r0(X,c0) <- r1(X,V0)", ents, rels)
    assert kind_of(har) == "HAR"
    bar = instantiate(oar, {VAR_Y: 0, var(0): 1})
    assert bar == parse_rule("r0(X,c0) <- r1(X,c1)", ents, rels)
    assert kind_of(bar) == "BAR"
    assert deduction_level(bar) == deduction_level(har) + 1 \
        == deduction_level(oar) + 2


def test_instantiate_validates_bindings():
    ents, rels = _interners()
    oar = parse_rule("r0(X,Y) <- r1(X,V0)", ents, rels)
    with pytest.raises(ValueError):
        instantiate(oar, {})
    with pytest.raises(ValueError):
        instantiate(oar, {VAR_Y: 0, var(1): 1})   # not a variable of the rule
    with pytest.raises(ValueError):
        instantiate(oar, {const(2): 1})           # a constant, not a slot
    with pytest.raises(StraightnessError):
        instantiate(oar, {VAR_Y: 0, var(0): 0})   # repeated constant


def test_instantiate_two_slot_bar_and_collision():
    ents, rels = _interners()
    oar = parse_rule("r0(X,Y) <- r1(X,V0), r2(V0,V1)", ents, rels)
    bar = instantiate(oar, {VAR_Y: 2, dangling_term(oar): 3})
    assert bar == parse_rule("r0(X,c2) <- r1(X,V0), r2(V0,c3)", ents, rels)
    assert kind_of(bar) == "BAR"
    # binding a variable to an entity already named in the rule is rejected
    insr = parse_rule("r0(X,Y) <- r1(X,c1)", ents, rels)
    with pytest.raises(StraightnessError):
        instantiate(insr, {VAR_Y: 1})


# ---------------------------------------------------------------------------
# text grammar

def test_parse_format_fixed_points():
    ents, rels = _interners()
    for text in ("r0(X,Y) <-",
                 "r0(X,Y) <- r1(X,V0)",
                 "r0(X,c0) <- r1(X,c1)",
                 "r0(X,Y) <- r1(Y,V0), r2(V0,X)",
                 "r0(sk0,sk1) <- r1(sk0,sk2)"):
        rule = parse_rule(text, ents, rels)
        assert format_rule(rule, ents, rels) == text


def test_parse_errors():
    ents, rels = _interners()
    with pytest.raises(ParseError):
        parse_rule("r0(X,Y)", ents, rels)                 # no arrow
    with pytest.raises(ParseError):
        parse_rule("r0(X) <- r1(X,V0)", ents, rels)       # arity
    with pytest.raises(ParseError):
        parse_rule("r0(X,Y) <- junk", ents, rels)
    with pytest.raises(ParseError):
        parse_rule("r9(X,Y) <-", ents, rels, intern=False)
    with pytest.raises(ParseError):
        parse_rule("r0(X,zz) <-", ents, rels, intern=False)
    for bad in ('r0(X,"c0) <-',        # unterminated quote
                'r0(X,"c\\q") <-',     # not a JSON escape
                'r0(X,c"0") <-'):      # a quote inside a bare name
        with pytest.raises(ParseError):
            parse_rule(bad, ents, rels)
    assert parse_rule('"r0"(X,"c0") <-', ents, rels, intern=False) == \
        parse_rule("r0(X,c0) <-", ents, rels, intern=False)


def test_parse_format_round_trip_random():
    ents, rels = _interners()
    rng = random.Random(20260823)
    for _ in range(2000):
        rule = random_rule(rng)
        text = format_rule(rule, ents, rels)
        assert parse_rule(text, ents, rels, intern=False) == rule


def test_format_rule_memo_gives_the_same_text():
    # write_rules shares one memo across a file's rules
    ents, rels = _interners()
    rng = random.Random(7)
    rules = [random_rule(rng) for _ in range(500)]
    memo: dict = {}
    bodies: dict = {}
    # each rule twice, and its body under another head, so that the memos
    # are read as well as filled
    rules += [r for rule in rules for r in (
        rule, Rule(Atom(rule.head.pred, VAR_Y, VAR_X), rule.body))]
    assert [format_rule(r, ents, rels, memo, bodies) for r in rules] == \
        [format_rule(r, ents, rels) for r in rules]
    assert set(memo) == {a for r in rules for a in r.atoms}
    assert set(bodies) == {r.body for r in rules}


def test_parse_rule_body_memo_gives_the_same_rules():
    # read_rules shares one atom memo and one body memo across a file's
    # lines; among them bodies under heads with and without a fresh
    # variable, in both orders, and bodies written with other numbers
    ents, rels = _interners()
    rng = random.Random(8)
    texts = []
    for _ in range(400):
        rule = random_rule(rng)
        body = format_rule(rule, ents, rels).partition("<-")[2]
        texts.append(format_rule(rule, ents, rels))
        texts += [f"r{rng.randrange(5)}({s},{o}) <-{body}" for s, o in (
            ("X", "c1"), ("V0", "Y"), ("Y", "X"), ("c2", "V0"), ("V1", "c3"))]
        texts.append(texts[-1].replace("V0", "V7").replace("V1", "V0"))
    atoms: dict = {}
    bodies: dict = {}
    got = [parse_rule(t, ents, rels, False, atoms, bodies) for t in texts]
    want = [parse_rule(t, ents, rels, False) for t in texts]
    assert got == want
    assert [r.atoms for r in got] == [r.atoms for r in want]
    assert len(bodies) < len(texts) // 3
