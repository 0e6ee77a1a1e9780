import random

import pytest

import rulehier.miner as miner_mod
from rulehier.hierarchy import (A_EDGE, Hierarchy, SubsumptionEdge,
                                build_a_hierarchy, build_i_hierarchy)
from rulehier.kgstore import Interner, TripleStore
from rulehier.miner import (CapExceeded, EmptyTargetError, Measures,
                            MinerConfig, evaluate, generalization, ground_body,
                            is_relevant, learn, overfit_keep, post_pruning,
                            prior_pruning, read_rules, specialization,
                            write_rules)
from rulehier.rules import (constants, format_rule, kind_of, parse_rule)

from helpers import R, edges_climb, random_kg, toy_store


def cfg(**kw):
    base = dict(max_len=2, supp_f=0, hc_f=0.0, sc_f=0.0, supp_h=0,
                overfit_threshold=0.0, walks_per_instance=10, seed=0)
    base.update(kw)
    return MinerConfig(**base)


def triangle_store():
    """rt(a,b), r0(a,c), r0(b,c): one instance, one closed path."""
    store = TripleStore()
    rt, r0 = store.relations.intern("rt"), store.relations.intern("r0")
    a, b, c = (store.entities.intern(x) for x in "abc")
    store.add_triple(rt, a, b, "train")
    store.add_triple(r0, a, c, "train")
    store.add_triple(r0, b, c, "train")
    return store, (rt, r0), (a, b, c)


# ---------------------------------------------------------------------------
# grounding and measures

def naive_measures(rule, store, rt_pairs, config,
                   valid_pairs=frozenset()) -> Measures:
    """Independent oracle: enumerate the head-pair set g explicitly."""
    consts = constants(rule)
    hx, hy = rule.head.subj, rule.head.obj
    n = len(store.entities)
    g = set()
    for b in ground_body(rule, store):
        excl = {v for v in b.values()} | consts

        def values(term):
            if not term.is_var:
                return [term.idx]
            if term in b:
                return [b[term]]
            return [e for e in range(n) if e not in excl]

        for x in values(hx):
            for y in values(hy):
                g.add((x, y))
    supp = len(g & rt_pairs)
    hc = supp / len(rt_pairs) if rt_pairs else 0.0
    return Measures(supp, hc, supp / (config.eta + len(g)), len(g),
                    len(g & valid_pairs))


def test_ground_body_object_identity():
    store, (rt, r0), (a, b, c) = triangle_store()
    rule = R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store)
    got = {(bind[rule.head.subj], bind[rule.head.obj])
           for bind in ground_body(rule, store)}
    # X = Y = a is excluded by object identity
    assert got == {(a, b), (b, a)}


def test_ground_body_excludes_rule_constants():
    store, _, (a, b, c) = triangle_store()
    rule = R("rt(X,a) <- r0(X,V0)", store)
    binds = list(ground_body(rule, store))
    # X = a would merge the variable with the head constant
    assert [bind[rule.head.subj] for bind in binds] == [b]


def test_ground_body_cap():
    store, _, _ = triangle_store()
    rule = R("rt(X,Y) <- r0(X,V0)", store)
    with pytest.raises(CapExceeded):
        list(ground_body(rule, store, cap=1))


def test_evaluate_closed_rule_triangle():
    store, (rt, _), (a, b, c) = triangle_store()
    rt_pairs = store.instances_of(rt)
    m = evaluate(R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store), store,
                 rt_pairs, cfg())
    assert (m.supp, m.groundings) == (1, 2)
    assert m.hc == pytest.approx(1.0)
    assert m.sc == pytest.approx(1 / 7)     # 1 / (eta + |g|) = 1 / (5 + 2)
    assert not m.approximate


def test_evaluate_open_rule_complement_semantics():
    store, (rt, _), (a, b, c) = triangle_store()
    rt_pairs = store.instances_of(rt)
    m = evaluate(R("rt(X,Y) <- r0(X,V0)", store), store, rt_pairs, cfg())
    # groundings bind (X,V0) in {(a,c),(b,c)}; Y ranges over the rest:
    # g = {(a,b),(b,a)}
    assert (m.supp, m.groundings) == (1, 2)
    assert m.sc == pytest.approx(1 / 7)


def test_evaluate_top_rule_analytic():
    store, (rt, _), _ = triangle_store()
    rt_pairs = store.instances_of(rt)
    m = evaluate(R("rt(X,Y) <-", store), store, rt_pairs, cfg())
    assert m.supp == len(rt_pairs)
    assert m.groundings == len(store.entities) ** 2
    assert m.hc == pytest.approx(1.0)


def test_evaluate_rejects_disconnected_head():
    store, (rt, _), _ = triangle_store()
    rule = R("rt(X,Y) <- r0(V0,V1)", store)
    with pytest.raises(ValueError):
        evaluate(rule, store, store.instances_of(rt), cfg())


def test_evaluate_matches_naive_oracle_on_random_kgs():
    rng = random.Random(3)
    config = cfg()
    for _ in range(8):
        store = random_kg(rng, n_entities=12, n_relations=3, n_train=40)
        for rt in range(3):
            rt_pairs = store.instances_of(rt)
            if not rt_pairs:
                continue
            for rule in generalization(store, rt, config):
                expect = naive_measures(rule, store, rt_pairs, config)
                got = evaluate(rule, store, rt_pairs, config)
                assert (got.supp, got.groundings) == \
                    (expect.supp, expect.groundings), \
                    format_rule(rule, store.entities, store.relations)
                assert got.sc == pytest.approx(expect.sc)
                assert got.hc == pytest.approx(expect.hc)


def test_evaluate_valid_support():
    store, (rt, r0), (a, b, c) = triangle_store()
    store.add_triple(rt, b, a, "valid")
    rt_pairs = store.instances_of(rt)
    valid_pairs = store.instances_of(rt, "valid")
    m = evaluate(R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store), store,
                 rt_pairs, cfg(), valid_pairs)
    assert m.valid_supp == 1


# ---------------------------------------------------------------------------
# generalization

def test_generalization_toy_rules():
    store = toy_store()
    rt = store.relations.get("Advises")
    rules = generalization(store, rt, cfg())
    assert R("Advises(X,Y) <-", store) in rules
    assert R("Advises(X,Y) <- Publishes(X,V0)", store) in rules
    assert R("Advises(X,Y) <- Is_A(X,V0)", store) in rules
    assert R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store) in rules


def test_generalization_prefix_closed_and_deterministic():
    rng = random.Random(1)
    store = random_kg(rng, n_entities=15, n_relations=3, n_train=60)
    config = cfg(max_len=3)
    rules = generalization(store, 0, config)
    assert rules == generalization(store, 0, config)
    ruleset = set(rules)
    for rule in rules:
        if rule.body:
            from rulehier.rules import Rule
            assert Rule(rule.head, rule.body[:-1]) in ruleset


def test_generalization_never_walks_originating_triple():
    store = TripleStore()
    rt = store.relations.intern("rt")
    a, b = store.entities.intern("a"), store.entities.intern("b")
    store.add_triple(rt, a, b, "train")
    rules = generalization(store, rt, cfg())
    assert rules == [R("rt(X,Y) <-", store)]


def test_generalization_empty_target():
    store = toy_store()
    with pytest.raises(EmptyTargetError):
        generalization(store, 99, cfg())


# ---------------------------------------------------------------------------
# relevance, overfitting, pruning

def test_relevance_thresholds_are_strict():
    config = MinerConfig(supp_f=3, hc_f=0.5, sc_f=0.1)
    assert not is_relevant(Measures(supp=3, hc=0.9, sc=0.5), config)
    assert not is_relevant(Measures(supp=4, hc=0.5, sc=0.5), config)
    assert not is_relevant(Measures(supp=4, hc=0.9, sc=0.1), config)
    assert is_relevant(Measures(supp=4, hc=0.51, sc=0.11), config)


def test_overfit_filter():
    keep = MinerConfig(overfit_threshold=0.2)
    assert overfit_keep(Measures(supp=10, valid_supp=2), keep)
    assert not overfit_keep(Measures(supp=10, valid_supp=1), keep)
    assert not overfit_keep(Measures(supp=0, valid_supp=0), keep)
    off = MinerConfig(overfit_threshold=0.0)
    assert overfit_keep(Measures(supp=0, valid_supp=0), off)
    abstract_exempt = MinerConfig(overfit_threshold=0.2,
                                  overfit_instantiated_only=True)
    assert overfit_keep(Measures(supp=10, valid_supp=0), abstract_exempt,
                        "CAR")
    assert not overfit_keep(Measures(supp=10, valid_supp=0), abstract_exempt,
                            "BAR")


def test_prior_pruning_chain():
    ents, rels = Interner(), Interner()
    a = parse_rule("rt(X,Y) <-", ents, rels)
    b = parse_rule("rt(X,Y) <- r0(X,V0)", ents, rels)
    c = parse_rule("rt(X,Y) <- r0(X,V0), r1(V0,V1)", ents, rels)
    h = Hierarchy({a, b, c}, {SubsumptionEdge(a, b, A_EDGE),
                              SubsumptionEdge(b, c, A_EDGE)})
    supp = {a: 10, b: 4, c: 7}
    assert prior_pruning(h, 5, supp.get) == {a}
    assert prior_pruning(h, 0, supp.get) == {a, b, c}


def test_post_pruning_strict_dominance():
    store = toy_store()
    har = R("Advises(X,bob) <- Is_A(X,V0)", store)
    bar = R("Advises(X,bob) <- Is_A(X,professor)", store)
    h = build_i_hierarchy([har, bar])
    assert post_pruning(h, {har: 0.5, bar: 0.5}) == {har, bar}
    assert post_pruning(h, {har: 0.6, bar: 0.5}) == {har}
    assert post_pruning(h, {har: 0.5, bar: 0.6}) == {har, bar}


# ---------------------------------------------------------------------------
# specialization

def test_specialization_toy():
    store = toy_store()
    rt = store.relations.get("Advises")
    rt_pairs = store.instances_of(rt)
    oar = R("Advises(X,Y) <- Is_A(X,V0)", store)
    specs, truncated = specialization(oar, store, rt_pairs, set(),
                                      sorted(rt_pairs), cfg())
    assert not truncated
    by_rule = {format_rule(r, store.entities, store.relations): m
               for r, m in specs}
    assert set(by_rule) == {"Advises(X,bob) <- Is_A(X,V0)",
                            "Advises(X,bob) <- Is_A(X,professor)"}
    for m in by_rule.values():
        assert (m.supp, m.groundings) == (1, 1)
        assert m.hc == pytest.approx(1.0)
        assert m.sc == pytest.approx(1 / 6)


def test_specialization_measures_match_evaluate():
    rng = random.Random(9)
    config = cfg()
    for _ in range(6):
        store = random_kg(rng, n_entities=12, n_relations=3, n_train=45)
        for rt in range(3):
            rt_pairs = store.instances_of(rt)
            if not rt_pairs:
                continue
            for oar in generalization(store, rt, config):
                if not oar.body or kind_of(oar) != "OAR":
                    continue
                specs, _ = specialization(oar, store, rt_pairs, set(),
                                          sorted(rt_pairs), config)
                for rule, m in specs:
                    ref = evaluate(rule, store, rt_pairs, config)
                    assert (m.supp, m.groundings, m.valid_supp) == \
                        (ref.supp, ref.groundings, ref.valid_supp)
                    assert m.sc == pytest.approx(ref.sc)


def test_specialization_cap_limits_hars_and_bars_separately():
    rng = random.Random(2)
    store = random_kg(rng, n_entities=12, n_relations=2, n_train=60)
    rt_pairs = store.instances_of(0)
    oar = R("r0(X,Y) <- r1(X,V0)", store)
    full, _ = specialization(oar, store, rt_pairs, set(), sorted(rt_pairs),
                             cfg())
    n_hars = sum(kind_of(r) == "HAR" for r, _ in full)
    n_bars = sum(kind_of(r) == "BAR" for r, _ in full)
    assert n_hars > 1 and n_bars > 1
    capped, truncated = specialization(oar, store, rt_pairs, set(),
                                       sorted(rt_pairs),
                                       cfg(max_specs_per_oar=1))
    assert truncated
    kinds = sorted(kind_of(r) for r, _ in capped)
    assert kinds == ["BAR", "HAR"]
    har = next(r for r, _ in capped if kind_of(r) == "HAR")
    bar = next(r for r, _ in capped if kind_of(r) == "BAR")
    assert bar.head.obj == har.head.obj  # the BAR anchors the kept HAR


# ---------------------------------------------------------------------------
# end-to-end learning

def test_learn_toy_rule_set():
    store = toy_store()
    rt = store.relations.get("Advises")
    res = learn(store, rt, cfg())
    texts = {format_rule(r, store.entities, store.relations)
             for r, _ in res.rules}
    assert texts == {
        "Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)",
        "Advises(X,bob) <- Publishes(X,V0)",
        "Advises(X,bob) <- Publishes(X,paper)",
        "Advises(X,bob) <- Is_A(X,V0)",
        "Advises(X,bob) <- Is_A(X,professor)",
    }
    kinds = {format_rule(r, store.entities, store.relations): kind_of(r)
             for r, _ in res.rules}
    assert kinds["Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)"] == "CAR"
    # abstract open rules and the top rule never reach the final set
    assert all(kind_of(r) != "OAR" for r, _ in res.rules)
    assert (res.p_oars, res.i_oars, res.u_oars) == (0, 2, 0)


def test_learn_rules_sorted_by_confidence():
    store = toy_store()
    rt = store.relations.get("Advises")
    res = learn(store, rt, cfg())
    scs = [m.sc for _, m in res.rules]
    assert scs == sorted(scs, reverse=True)


def test_learn_deterministic():
    rng = random.Random(4)
    store = random_kg(rng, n_entities=15, n_relations=3, n_train=70)
    a = learn(store, 0, cfg(max_len=3))
    b = learn(store, 0, cfg(max_len=3))
    assert [(r, m.supp, m.sc) for r, m in a.rules] == \
        [(r, m.supp, m.sc) for r, m in b.rules]


def test_learn_prior_pruning_at_root_kills_everything():
    store = toy_store()
    rt = store.relations.get("Advises")
    res = learn(store, rt, cfg(supp_h=2))
    assert res.rules == []
    assert res.p_oars == 2
    assert res.i_oars == res.u_oars == 0


def test_learn_uninformative_oars():
    store = toy_store()
    rt = store.relations.get("Advises")
    res = learn(store, rt, cfg(supp_f=5))
    assert res.rules == []
    assert res.u_oars == 2


def test_learn_overfit_filter_drops_unvalidated_rules():
    store = toy_store()
    rt = store.relations.get("Advises")
    # no valid split: every rule has valid_supp 0 and is rejected
    res = learn(store, rt, cfg(overfit_threshold=0.1))
    assert res.rules == []


def test_learn_spec_time_budget_reports_skips():
    rng = random.Random(6)
    store = random_kg(rng, n_entities=20, n_relations=3, n_train=150)
    res = learn(store, 0, cfg(max_len=3, spec_time_budget=1e-9))
    assert res.truncated
    assert res.skipped_oars > 0


def test_learn_records_generalization_time():
    rng = random.Random(6)
    store = random_kg(rng, n_entities=20, n_relations=3, n_train=150)
    assert learn(store, 0, cfg()).gen_seconds > 0


def test_learn_empty_target():
    store = toy_store()
    with pytest.raises(EmptyTargetError):
        learn(store, 99, cfg())


def test_learn_collects_hierarchy(monkeypatch):
    calls = []
    union = miner_mod.union
    monkeypatch.setattr(miner_mod, "union",
                        lambda *hs: calls.append(hs) or union(*hs))
    store = toy_store()
    rt = store.relations.get("Advises")
    res = learn(store, rt, cfg(), collect_hierarchy=True)
    assert res.hierarchy is not None
    assert R("Advises(X,Y) <-", store) in res.hierarchy.nodes
    kinds = {e.kind for e in res.hierarchy.edges}
    assert "A" in kinds and "I" in kinds
    assert edges_climb(res.hierarchy)
    # the A-hierarchy and one I-hierarchy per I-OAR, merged in one call
    assert len(calls) == 1 and len(calls[0]) == 1 + res.i_oars


# ---------------------------------------------------------------------------
# rule file round trip

def test_rule_file_round_trip(tmp_path):
    store = toy_store()
    rt = store.relations.get("Advises")
    res = learn(store, rt, cfg())
    path = tmp_path / "rules.txt"
    write_rules(path, res.rules, store.entities, store.relations)
    lines = path.read_text().splitlines()
    assert len(lines) == len(res.rules)
    assert all(len(line.split(" | ")) == 5 for line in lines)
    back = read_rules(path, store.entities, store.relations)
    assert [r for r, _ in back] == [r for r, _ in res.rules]
    for (_, got), (_, want) in zip(back, res.rules):
        assert got.supp == want.supp
        assert got.hc == want.hc and got.sc == want.sc
