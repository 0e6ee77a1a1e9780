import pytest

from rulehier.evaluator import (Query, evaluate_kgc, hits_at, mrr, queries_for,
                                rank, suggest)
from rulehier.kgstore import TripleStore
from rulehier.miner import Measures

from helpers import R, toy_store


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
    assert [e for e, _ in ranking.ordered] == [2, 1]
    assert ranking.rank_of(2) == 1
    assert ranking.rank_of(1) == 2


def test_rank_longer_vector_wins_on_equal_prefix():
    ranking = rank({1: [0.9], 2: [0.1, 0.9]}, set())
    assert [e for e, _ in ranking.ordered] == [2, 1]


def test_rank_identical_vectors_fall_back_to_entity_id():
    ranking = rank({7: [0.5], 3: [0.5]}, set())
    assert [e for e, _ in ranking.ordered] == [3, 7]


def test_rank_sorts_vectors_descending_before_compare():
    # max aggregation: the best rule counts first regardless of insert order
    ranking = rank({1: [0.2, 0.9], 2: [0.8, 0.3]}, set())
    assert [e for e, _ in ranking.ordered] == [1, 2]


def test_rank_filters_known_truths():
    ranking = rank({1: [0.9], 2: [0.5]}, known_truths={1})
    assert ranking.rank_of(1) is None
    assert ranking.rank_of(2) == 1


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
