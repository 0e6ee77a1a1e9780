import random
import time

import pytest

from rulehier import evaluator
from rulehier.evaluator import (Query, evaluate_kgc, hits_at, mrr, queries_for,
                                rank, suggest)
from rulehier.kgstore import TripleStore
from rulehier.miner import Measures, MinerConfig, learn
from rulehier.rules import Rule

from helpers import (N_PREDS, R, evaluate_kgc_oracle, random_kg, random_rule,
                     rank_of, repeat_a_variable, suggest_oracle, toy_store)


def triangle_with_test():
    store = TripleStore()
    rt, r0 = store.relations.intern("rt"), store.relations.intern("r0")
    a, b, c, d = (store.entities.intern(x) for x in "abcd")
    store.add_triple(r0, a, c, "train")
    store.add_triple(r0, b, c, "train")
    store.add_triple(rt, a, b, "test")
    return store, (rt, r0), (a, b, c, d)


# ---------------------------------------------------------------------------
# queries and rule application

def test_queries_for_both_directions():
    store, (rt, _), (a, b, _, _) = triangle_with_test()
    qs = queries_for(store)
    assert Query(rt, a, "head", b) in qs
    assert Query(rt, b, "tail", a) in qs
    assert len(qs) == 2
    assert queries_for(store, rels=set()) == []


def test_suggest_closed_rule():
    store, (rt, _), (a, b, _, _) = triangle_with_test()
    rule = R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store)
    rules = [(rule, Measures(sc=0.5))]
    head = suggest(Query(rt, a, "head", b), rules, store)
    assert head == {b: [0.5]}
    tail = suggest(Query(rt, b, "tail", a), rules, store)
    assert tail == {a: [0.5]}


def test_suggest_constant_head_rule():
    store = toy_store()
    rt = store.relations.get("Advises")
    alice, bob = store.entities.get("alice"), store.entities.get("bob")
    har = R("Advises(X,bob) <- Is_A(X,V0)", store)
    rules = [(har, Measures(sc=0.25))]
    # open slot is the constant itself
    assert suggest(Query(rt, alice, "head", bob), rules, store) == \
        {bob: [0.25]}
    # known slot must equal the constant
    assert suggest(Query(rt, bob, "tail", alice), rules, store) == \
        {alice: [0.25]}
    other = store.entities.get("paper")
    assert suggest(Query(rt, other, "tail", alice), rules, store) == {}


def test_suggest_skips_other_relations():
    store, (rt, r0), (a, b, _, _) = triangle_with_test()
    rule = R("r0(X,Y) <- r0(X,V0), r0(Y,V0)", store)
    assert suggest(Query(rt, a, "head", b), [(rule, Measures(sc=1.0))],
                   store) == {}


def test_suggest_merges_vectors_per_candidate():
    store = toy_store()
    rt = store.relations.get("Advises")
    alice, bob = store.entities.get("alice"), store.entities.get("bob")
    rules = [(R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store),
              Measures(sc=0.4)),
             (R("Advises(X,bob) <- Is_A(X,V0)", store), Measures(sc=0.2))]
    got = suggest(Query(rt, alice, "head", bob), rules, store)
    assert got == {bob: [0.4, 0.2]}


# ---------------------------------------------------------------------------
# ranking

def test_rank_recursive_tie_break():
    ranking = rank({1: [0.9, 0.4], 2: [0.9, 0.5]}, set())
    assert [e for e, _ in ranking] == [2, 1]
    assert rank_of(ranking, 2) == 1
    assert rank_of(ranking, 1) == 2


def test_rank_longer_vector_wins_on_equal_prefix():
    ranking = rank({1: [0.9], 2: [0.1, 0.9]}, set())
    assert [e for e, _ in ranking] == [2, 1]


def test_rank_identical_vectors_fall_back_to_entity_id():
    ranking = rank({7: [0.5], 3: [0.5]}, set())
    assert [e for e, _ in ranking] == [3, 7]


def test_rank_sorts_vectors_descending_before_compare():
    # max aggregation: the best rule counts first regardless of insert order
    ranking = rank({1: [0.2, 0.9], 2: [0.8, 0.3]}, set())
    assert [e for e, _ in ranking] == [1, 2]


def test_rank_filters_known_truths():
    ranking = rank({1: [0.9], 2: [0.5]}, known_truths={1})
    assert rank_of(ranking, 1) is None
    assert rank_of(ranking, 2) == 1


# ---------------------------------------------------------------------------
# metrics

def test_mrr_and_hits():
    ranks = [1, None, 4]
    assert mrr(ranks) == pytest.approx((1 + 0 + 0.25) / 3)
    assert hits_at(1, ranks) == pytest.approx(1 / 3)
    assert hits_at(10, ranks) == pytest.approx(2 / 3)
    assert mrr([]) == 0.0
    assert hits_at(1, []) == 0.0


def test_evaluate_kgc_perfect_rule():
    store, (rt, _), _ = triangle_with_test()
    rule = R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store)
    summary = evaluate_kgc(store, {rt: [(rule, Measures(sc=0.5))]})
    assert summary.mrr == pytest.approx(1.0)
    assert summary.hits == {1: 1.0, 3: 1.0, 10: 1.0}
    assert summary.rule_application_seconds >= 0.0
    assert len(summary.records) == 2
    for _, r, top in summary.records:
        assert r == 1
        assert top[0][1] == pytest.approx(0.5)


def test_evaluate_kgc_filtered_setting():
    store, (rt, r0), (a, b, c, d) = triangle_with_test()
    # d is a known true answer from train and must not absorb rank 1
    store.add_triple(r0, d, c, "train")
    store.add_triple(rt, a, d, "train")
    rule = R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store)
    summary = evaluate_kgc(store, {rt: [(rule, Measures(sc=0.5))]})
    # head query rt(a,?): candidates {b, d}; d filtered -> b ranks first
    head_record = next(rec for rec in summary.records
                       if rec[0].slot == "head")
    assert head_record[1] == 1


def test_evaluate_kgc_unsuggested_answer_contributes_zero():
    store, (rt, _), _ = triangle_with_test()
    summary = evaluate_kgc(store, {rt: []})
    assert summary.mrr == 0.0
    assert all(r is None for _, r, _ in summary.records)


# ---------------------------------------------------------------------------
# shared body grounding against the per-query oracle

# every rule kind, top rules and a repeated head variable, over the
# entity and relation names random_kg interns
ORACLE_RULES = [
    "r0(X,Y) <- r1(X,V0), r2(V0,Y)",      # CAR
    "r0(X,Y) <- r1(Y,X)",                 # CAR, one atom
    "r0(X,Y) <- r1(X,V0)",                # OAR
    "r1(X,Y) <- r1(X,V0)",                # OAR, same body, other relation
    "r1(X,Y) <- r0(X,V0), r2(V0,V1)",     # OAR, two atoms
    "r0(X,e1) <- r1(X,V0)",               # HAR on the OARs' body
    "r0(X,e2) <- r1(X,V0)",               # HAR
    "r2(X,e3) <- r0(X,V0), r1(V0,e4)",    # BAR
    "r2(X,e5) <- r0(X,e5)",               # head constant also in the body
    "r2(X,e5) <- r1(X,V0), r0(V0,e5)",    # the same, two atoms
    "r1(e6,Y) <- r0(Y,V0)",               # INSR, constant head subject
    "r0(X,Y) <- r2(Y,V0)",                # OPEN
    "r2(X,Y) <- r0(Y,V0), r1(V0,V1)",     # OPEN, two atoms
    "r0(X,Y) <-",                         # top rule
    "r1(X,e7) <-",                        # top rule with a head constant
    "r1(e8,e9) <-",                       # ground head, empty body
    "r2(X,X) <- r0(X,V0)",                # repeated head variable
    "r2(X,X) <-",
]


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_kgc_equals_the_per_query_oracle(seed):
    rng = random.Random(seed)
    store = random_kg(rng, n_entities=12, n_relations=3, n_train=60,
                      n_valid=8 if seed % 2 else 0, n_test=12)
    rules_by_rel: dict[int, list] = {}
    for text in ORACLE_RULES:
        rule = R(text, store)
        m = Measures(sc=rng.choice((0.1, 0.2, 0.3)))
        rules_by_rel.setdefault(rule.head.pred, []).append((rule, m))
    cfg = MinerConfig(max_len=2, walks_per_instance=3, supp_f=1, seed=seed)
    for rt in range(3):
        if store.instances_of(rt):
            rules_by_rel[rt] += learn(store, rt, cfg).rules
    summary = evaluate_kgc(store, rules_by_rel)
    oracle = evaluate_kgc_oracle(store, rules_by_rel)
    assert len(summary.records) == len(oracle) == 24
    for got, want in zip(summary.records, oracle):
        assert got == want
    assert any(r for _, r, _ in oracle)
    rules = [rm for rms in rules_by_rel.values() for rm in rms]
    for q in queries_for(store):
        got = {e: sorted(v) for e, v in suggest(q, rules, store).items()}
        assert got == {e: sorted(v) for e, v in
                       suggest_oracle(q, rules, store).items()}


def _shapes(rule: Rule) -> set[str]:
    head = rule.head
    body_consts = {t for a in rule.body for t in a.terms if not t.is_var}
    out = set()
    if not head.subj.is_var:
        out.add("constant head subject")
    if not head.obj.is_var:
        out.add("constant head object")
    if not (head.subj.is_var or head.obj.is_var):
        out.add("two head constants")
    if {head.subj, head.obj} & body_consts:
        out.add("head constant in the body")
    if any(a.subj == a.obj and a.subj.is_var for a in rule.atoms):
        out.add("repeated variable in one atom")
    return out


SHAPES = {"constant head subject", "constant head object",
          "two head constants", "head constant in the body",
          "repeated variable in one atom"}


@pytest.mark.parametrize("seed", range(4))
def test_shared_index_answers_random_rules_like_the_oracles(seed):
    """Every rule of a body group answers from the group's shared index as
    the per-query oracle does. Rules are drawn until each shape in SHAPES
    has a rule that answers some query."""
    rng = random.Random(100 + seed)
    store = random_kg(rng, n_entities=8, n_relations=N_PREDS, n_train=90,
                      n_test=16)
    for e in range(0, 8, 3):   # self-loops, so repeated variables bind
        store.add_triple(e % N_PREDS, e, e, "train")
    queries = queries_for(store)
    rules: list[Rule] = []
    answering: set[str] = set()
    while len(rules) < 160 or answering < SHAPES:
        assert len(rules) < 2000, SHAPES - answering
        rule = random_rule(rng, max_len=3)
        if rng.random() < 0.3:
            rule = repeat_a_variable(rng, rule)
        rules.append(rule)
        if any(suggest_oracle(q, [(rule, Measures())], store)
               for q in queries):
            answering |= _shapes(rule)
    rules_by_rel: dict[int, list] = {}
    for rule in rules:
        m = Measures(sc=rng.choice((0.1, 0.2, 0.3)))
        rules_by_rel.setdefault(rule.head.pred, []).append((rule, m))
    flat = [rm for rms in rules_by_rel.values() for rm in rms]
    summary = evaluate_kgc(store, rules_by_rel)
    assert summary.records == evaluate_kgc_oracle(store, rules_by_rel)
    for q in queries:
        got = {e: sorted(v) for e, v in suggest(q, flat, store).items()}
        assert got == {e: sorted(v) for e, v in
                       suggest_oracle(q, flat, store).items()}


def test_rules_repeating_a_variable_answer_like_the_oracle():
    store = TripleStore()
    r = store.relations.intern("r")
    a, b, c, d = (store.entities.intern(x) for x in "abcd")
    for s, o in ((a, a), (a, b), (c, c), (b, c)):
        store.add_triple(r, s, o, "train")
    store.add_triple(r, d, b, "test")
    store.add_triple(r, a, d, "test")
    rules_by_rel = {r: [(R(text, store), Measures(sc=sc)) for text, sc in
                        (("r(X,Y) <- r(X,X)", 0.5),
                         ("r(X,Y) <- r(Y,V0), r(V0,V0)", 0.4),
                         ("r(X,Y) <- r(V0,V0)", 0.3))]}
    summary = evaluate_kgc(store, rules_by_rel)
    assert summary.records == evaluate_kgc_oracle(store, rules_by_rel)
    assert summary.stats["groundings"] == 2 + 1 + 2
    assert any(top for _, _, top in summary.records)


def test_a_grounding_that_uses_a_head_only_constant_does_not_count():
    store = TripleStore()
    r, s = store.relations.intern("r"), store.relations.intern("s")
    a, b, c = (store.entities.intern(x) for x in "abc")
    store.add_triple(r, b, c, "train")   # the body's one grounding uses b
    store.add_triple(s, a, b, "test")
    rules_by_rel = {s: [(R(text, store), Measures(sc=0.5)) for text in
                        ("s(a,b) <- r(V0,V1)", "s(X,b) <- r(V0,V1)")]}
    summary = evaluate_kgc(store, rules_by_rel)
    assert summary.records == evaluate_kgc_oracle(store, rules_by_rel)
    assert all(top == [] for _, _, top in summary.records)
    store.add_triple(r, c, store.entities.intern("d"), "train")
    summary = evaluate_kgc(store, rules_by_rel)
    assert summary.records == evaluate_kgc_oracle(store, rules_by_rel)
    assert summary.records[0][1] == 1   # s(a,?) ranks b first


def test_relations_without_test_triples_are_never_grounded(monkeypatch):
    store, (rt, r0), _ = triangle_with_test()
    grounded = []
    ground_body = evaluator.ground_body

    def spy(rule, *args, **kwargs):
        grounded.append(rule.body)
        return ground_body(rule, *args, **kwargs)

    monkeypatch.setattr(evaluator, "ground_body", spy)
    queried = R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store)
    rules_by_rel = {
        rt: [(queried, Measures(sc=0.5)),
             (R("rt(X,d) <- r0(X,V0), r0(Y,V0)", store), Measures(sc=0.2))],
        r0: [(R("r0(X,Y) <- r0(Y,V0)", store), Measures(sc=0.5))]}
    summary = evaluate_kgc(store, rules_by_rel)
    assert grounded == [queried.body]
    assert summary.stats == {"queries": 2, "bodies_grounded": 1,
                             "groundings": 2}


def _toy_with_tests():
    store = toy_store()
    ents, rels = store.entities, store.relations
    for head, rel, tail in (("bob", "Advises", "alice"),
                            ("alice", "Publishes", "thesis")):
        store.add_triple(rels.intern(rel), ents.intern(head),
                         ents.intern(tail), "test")
    texts = ["Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)",
             "Advises(X,Y) <- Is_A(X,V0)",
             "Advises(X,bob) <- Is_A(X,V0)",
             "Publishes(X,Y) <- Advises(X,V0), Publishes(V0,Y)",
             "Publishes(X,paper) <- Is_A(X,V0)"]
    rules_by_rel: dict[int, list] = {}
    for i, text in enumerate(texts):
        rule = R(text, store)
        rules_by_rel.setdefault(rule.head.pred, []).append(
            (rule, Measures(sc=0.1 * (i + 1))))
    return store, rules_by_rel


def test_rule_application_seconds_cover_the_grounding_pass(monkeypatch):
    store, rules_by_rel = _toy_with_tests()
    ground_body = evaluator.ground_body
    calls = []

    def slow(*args, **kwargs):
        calls.append(args[0])
        time.sleep(0.02)
        yield from ground_body(*args, **kwargs)

    monkeypatch.setattr(evaluator, "ground_body", slow)
    summary = evaluate_kgc(store, rules_by_rel)
    assert len(calls) == summary.stats["bodies_grounded"] == 3
    assert summary.rule_application_seconds >= 0.02 * len(calls)


def test_the_rules_of_one_body_each_add_their_sc_to_a_shared_query_key():
    # a CAR and two HARs with different anchors on one body: in each slot
    # they answer the same query keys, and every rule adds its own sc to
    # each candidate it suggests; c and a are queried in both slots
    store = TripleStore()
    t, r = store.relations.intern("t"), store.relations.intern("r")
    a, b, c, d, e = (store.entities.intern(x) for x in "abcde")
    for s, o in ((a, c), (a, e), (b, c), (c, e), (d, a)):
        store.add_triple(r, s, o, "train")
    for s, o in ((a, b), (d, c), (c, a)):
        store.add_triple(t, s, o, "test")
    rules = [(R(text, store), Measures(sc=sc)) for text, sc in (
        ("t(X,Y) <- r(X,Y)", 0.9), ("t(X,c) <- r(X,Y)", 0.5),
        ("t(X,e) <- r(X,Y)", 0.3))]
    # X binds a, b, c, d; a grounding that uses an anchor does not count
    want = {(a, "head"): {c: [0.9, 0.5], e: [0.9, 0.3]},
            (d, "head"): {a: [0.9], c: [0.5], e: [0.3]},
            (c, "head"): {e: [0.9]},
            (b, "tail"): {},
            (c, "tail"): {a: [0.9, 0.5], b: [0.9], d: [0.5]},
            (a, "tail"): {d: [0.9]}}
    queries = queries_for(store)
    assert {(q.known, q.slot) for q in queries} == set(want)
    for q in queries:
        assert suggest(q, rules, store) == want[(q.known, q.slot)], q
    summary = evaluate_kgc(store, {t: rules})
    assert summary.stats["bodies_grounded"] == 1
    assert summary.records == evaluate_kgc_oracle(store, {t: rules})
