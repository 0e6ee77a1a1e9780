import inspect
import random
import re
from collections import Counter

import pytest

import rulehier.hierarchy as hierarchy_mod
import rulehier.miner as miner_mod
from rulehier.hierarchy import (A_EDGE, I_EDGE, Hierarchy, SubsumptionEdge,
                                bfs_with_pruning, build_a_hierarchy,
                                build_i_hierarchy, union)
from rulehier.kgstore import Interner, ParseError, TripleStore
from rulehier.miner import (CapExceeded, EmptyTargetError, Measures,
                            MinerConfig, body_vars, evaluate, generalization,
                            ground_body, is_relevant, learn, open_groundings,
                            overfit_keep, post_pruning, read_rules,
                            specialization, write_rules)
from rulehier.rules import (Atom, Rule, Term, VAR_X, VAR_Y, constants,
                            dangling_term, format_rule, instantiate, kind_of,
                            parse_rule)

from helpers import (R, anchoring, edges_climb, generalization_oracle,
                     ground_body_oracle, learn_oracle, random_kg,
                     sample_walk_oracle, toy_store, zero_thresholds)


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
    for b in ground_body_oracle(rule, store):
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
    assert body_vars(rule) == (VAR_X, Term(True, 2), VAR_Y)
    got = {(g[0], g[2]) for g in ground_body(rule, store)}
    # X = Y = a is excluded by object identity
    assert got == {(a, b), (b, a)}


def test_ground_body_excludes_rule_constants():
    store, _, (a, b, c) = triangle_store()
    rule = R("rt(X,a) <- r0(X,V0)", store)
    assert body_vars(rule)[0] == rule.head.subj
    binds = list(ground_body(rule, store))
    # X = a would merge the variable with the head constant
    assert [bind[0] for bind in binds] == [b]


def selfloop_store():
    """r(a,a), r(a,b), r(c,c), r(b,c), t(a,b): two self-loops."""
    store = TripleStore()
    r, t = store.relations.intern("r"), store.relations.intern("t")
    a, b, c = (store.entities.intern(x) for x in "abc")
    for s, o in ((a, a), (a, b), (c, c), (b, c)):
        store.add_triple(r, s, o, "train")
    store.add_triple(t, a, b, "train")
    return store, (a, b, c)


@pytest.mark.parametrize("text", ["r(X,Y) <- r(X,X)", "r(X,Y) <- r(V0,V0)",
                                  "t(X,Y) <- r(X,V0), r(V0,V0)"])
def test_ground_body_repeated_variable_matches_self_loops(text):
    store, (a, b, c) = selfloop_store()
    rule = R(text, store)
    # one variable binds one entity, whether an earlier atom bound it or not
    want = [(b, c)] if len(rule.body) == 2 else [(a,), (c,)]
    assert list(ground_body(rule, store)) == want


def test_evaluate_rule_repeating_an_unbound_variable():
    store, (a, b, c) = selfloop_store()
    rt = store.relations.get("r")
    # X binds the self-loop entities a and c, and Y any other entity:
    # g = {(a,b), (a,c), (c,a), (c,b)}, of which r holds (a,b)
    m = evaluate(R("r(X,Y) <- r(X,X)", store), store,
                 store.instances_of(rt), cfg())
    assert (m.supp, m.groundings) == (1, 4)


def test_ground_body_cap():
    store, _, _ = triangle_store()
    rule = R("rt(X,Y) <- r0(X,V0)", store)
    with pytest.raises(CapExceeded):
        list(ground_body(rule, store, cap=1))


def _capped(groundings):
    """The items a grounding generator yields, and whether it hit its cap."""
    out = []
    try:
        for g in groundings:
            out.append(g)
    except CapExceeded:
        return out, True
    return out, False


def _grounding_cases(rng):
    """(store, rule, exclude) triples: every rule `generalization` draws on
    random and hub graphs and the HARs and BARs of its OARs, a rule with
    constants also with its body constants excluded as eval does, and
    rules repeating a variable on a graph with self-loops."""
    stores = [random_kg(rng, n_entities=12, n_relations=3, n_train=40)
              for _ in range(2)] + [hub_kg(rng)]
    config = cfg(max_len=3, walks_per_instance=2, max_specs_per_oar=1)
    for store in stores:
        for rt in range(3):
            rt_pairs = store.instances_of(rt)
            rules = generalization(store, rt, config) if rt_pairs else []
            oars = [r for r in rules if r.body and kind_of(r) == "OAR"]
            for oar in oars[::3]:
                rules += [r for r, _ in specialization(
                    oar, open_groundings(oar, store), rt_pairs, set(),
                    sorted(rt_pairs), config)[0]]
            for rule in rules:
                yield store, rule, None
                if constants(rule):
                    yield store, rule, {t.idx for a in rule.body
                                        for t in a.terms if not t.is_var}
    loops = random_kg(rng, n_entities=10, n_relations=3, n_train=40)
    for e in range(0, 10, 3):
        loops.add_triple(e % 3, e, e, "train")
    for text in ("r0(X,Y) <- r1(X,X)", "r0(X,Y) <- r2(V0,V0)",
                 "r0(X,Y) <- r1(X,V0), r0(V0,V0)",
                 "r0(X,Y) <- r0(V0,V0), r2(V0,Y)",
                 "r0(X,Y) <- r1(X,V0), r2(V1,V1), r0(V0,V1)",
                 # fact checks in a row, and a check before any binding
                 "r0(X,Y) <- r1(X,V0), r0(V0,X), r2(X,V0)",
                 "r0(X,Y) <- r1(e1,e2), r2(e2,X), r0(X,e1)"):
        yield loops, R(text, loops), None


def test_ground_body_yields_the_oracle_groundings_as_tuples():
    assert inspect.isgeneratorfunction(ground_body)
    rng = random.Random(21)
    cases = capped = 0
    for store, rule, exclude in _grounding_cases(rng):
        order = body_vars(rule)

        def oracle(cap=0):
            found, hit = _capped(ground_body_oracle(rule, store, cap, exclude))
            return [tuple(b[v] for v in order) for b in found], hit

        assert list(ground_body(rule, store, exclude=exclude)) == oracle()[0]
        # the oracle's step count: the least cap that lets the pass finish
        hi = 1
        while oracle(hi)[1]:
            hi *= 2
        lo = hi // 2 + 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if not oracle(mid)[1] else (mid + 1, hi)
        # below it the same prefix, then CapExceeded; from it on, all
        for cap in {1, 2, 3, hi - 2, hi - 1, hi, hi + 1,
                    rng.randint(1, hi), rng.randint(1, hi)} - {0, -1}:
            got = _capped(ground_body(rule, store, cap, exclude))
            assert got == oracle(cap), (format_rule(
                rule, store.entities, store.relations), cap)
            capped += got[1]
        cases += 1
    assert cases > 500 and capped > 1000


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


def test_sampled_rules_keep_their_parent_so_the_top_is_the_only_root():
    # every walk prefix is generalized and straightness is monotone in
    # length, so each rule's one-atom-shorter parent was sampled too
    rng = random.Random(21)
    graphs = [(random_kg(rng, n_entities=15, n_relations=3, n_train=60), 2),
              (random_kg(rng, n_entities=15, n_relations=3, n_train=60), 3),
              (hub_kg(rng), 3)]
    for store, max_len in graphs:
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            rules = generalization(store, rt, cfg(max_len=max_len))
            ruleset = set(rules)
            assert len(rules) > 1
            for rule in rules:
                if rule.body:
                    assert Rule(rule.head, rule.body[:-1]) in ruleset
            top = Rule(Atom(rt, VAR_X, VAR_Y))
            assert build_a_hierarchy(rules).roots == [top]


def _with_draws(monkeypatch, fn, *args):
    """fn(*args) and the (range, value) of every randrange draw it made."""
    draws = []

    class Spy(random.Random):
        def randrange(self, *a):
            value = super().randrange(*a)
            draws.append((a, value))
            return value

    monkeypatch.setattr(miner_mod.random, "Random", Spy)
    try:
        return fn(*args), draws
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("seed", range(4))
def test_generalization_equals_the_per_prefix_oracle(monkeypatch, seed):
    # keyed prefixes build each rule once; the oracle builds one rule per
    # prefix with generalize() and must see the same walks
    rng = random.Random(seed)
    graphs = [random_kg(rng, n_entities=12 + 2 * seed, n_relations=3,
                        n_train=50 + 10 * seed), hub_kg(rng)]
    for store in graphs:
        for max_len in (1, 2, 3):
            config = cfg(max_len=max_len, seed=seed, walks_per_instance=4)
            for rt in range(3):
                if not store.instances_of(rt):
                    continue
                got, draws = _with_draws(monkeypatch, generalization,
                                         store, rt, config)
                want, oracle_draws = _with_draws(
                    monkeypatch, generalization_oracle, store, rt, config)
                assert got == want and len(got) > 1
                assert draws == oracle_draws and draws


@pytest.mark.parametrize("seed", range(4))
def test_walk_keys_equal_the_per_step_walker(monkeypatch, seed):
    # generalization filters x's neighbours once per instance; the oracle
    # filters them anew for every walk and must draw the same keys
    rng = random.Random(seed)
    graphs = [random_kg(rng, n_entities=12 + 2 * seed, n_relations=3,
                        n_train=50 + 10 * seed), hub_kg(rng)]
    for store in graphs:
        config = cfg(max_len=3, seed=seed, walks_per_instance=4)
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            keys = []
            walk = miner_mod._sample_walk
            monkeypatch.setattr(miner_mod, "_sample_walk",
                                lambda *a: keys.append(walk(*a)) or keys[-1])
            generalization(store, rt, config)
            monkeypatch.undo()
            oracle_rng = random.Random(f"{seed}:{rt}")
            want = [sample_walk_oracle(store, rt, x, y, length, oracle_rng)
                    for x, y in sorted(store.instances_of(rt))
                    for length in (1, 2, 3) for _ in range(4)]
            assert keys == want and any(keys)


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


@pytest.mark.parametrize("name,bad", [
    ("max_len", 0), ("walks_per_instance", 0), ("supp_f", -1),
    ("hc_f", -0.5), ("sc_f", -0.5), ("supp_h", -1), ("eta", -1.0),
    ("eta", float("nan")), ("overfit_threshold", -0.1),
    ("gen_time_budget", -1.0), ("spec_time_budget", -1.0),
    ("grounding_cap", -1), ("max_specs_per_oar", -1), ("seed", -1)])
def test_miner_config_rejects_out_of_range_values(name, bad):
    with pytest.raises(ValueError, match=name):
        MinerConfig(**{name: bad})
    # the bound itself is accepted
    MinerConfig(**{name: 1 if name in ("max_len", "walks_per_instance")
                   else 0})


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
    # learn's visit keeps a rule iff supp >= supp_h: b's subtree goes, c
    # with it, although c alone would pass
    assert bfs_with_pruning(h, lambda r: supp[r] >= 5) == {a}
    assert bfs_with_pruning(h, lambda r: supp[r] >= 0) == {a, b, c}


def test_post_pruning_strict_dominance():
    store = toy_store()
    har = R("Advises(X,bob) <- Is_A(X,V0)", store)
    bar = R("Advises(X,bob) <- Is_A(X,professor)", store)
    h = build_i_hierarchy([har, bar])
    assert post_pruning(h, {har: 0.5, bar: 0.5}) == {har, bar}
    assert post_pruning(h, {har: 0.6, bar: 0.5}) == {har}
    assert post_pruning(h, {har: 0.5, bar: 0.6}) == {har, bar}


def test_evaluate_rejects_open_rules_other_than_oars():
    store, (rt, _), _ = triangle_store()
    for text in ("rt(X,Y) <- r0(Y,V0)", "rt(X,Y) <- r0(X,c)"):
        with pytest.raises(ValueError):
            evaluate(R(text, store), store, store.instances_of(rt), cfg())


# ---------------------------------------------------------------------------
# specialization

def test_specialization_toy():
    store = toy_store()
    rt = store.relations.get("Advises")
    rt_pairs = store.instances_of(rt)
    oar = R("Advises(X,Y) <- Is_A(X,V0)", store)
    specs, truncated = specialization(oar, open_groundings(oar, store),
                                      rt_pairs, set(), sorted(rt_pairs), cfg())
    assert not truncated
    by_rule = {format_rule(r, store.entities, store.relations): m
               for r, m in specs}
    assert set(by_rule) == {"Advises(X,bob) <- Is_A(X,V0)",
                            "Advises(X,bob) <- Is_A(X,professor)"}
    for m in by_rule.values():
        assert (m.supp, m.groundings) == (1, 1)
        assert m.hc == pytest.approx(1.0)
        assert m.sc == pytest.approx(1 / 6)


def hub_kg(rng: random.Random) -> TripleStore:
    """A random graph plus one hub linked to most entities by r1 and r2."""
    store = random_kg(rng, n_entities=16, n_relations=3, n_train=40,
                      n_valid=20)
    hub = 0
    for e in range(1, 16):
        for rel in (1, 2):
            if rng.random() < 0.7:
                store.add_triple(rel, hub if rel == 1 else e,
                                 e if rel == 1 else hub, "train")
    return store


def oars_of(store, rt, config):
    return [r for r in generalization(store, rt, config)
            if r.body and kind_of(r) == "OAR"]


def test_specialization_measures_match_evaluate():
    rng = random.Random(9)
    config = cfg()
    valid_hits = 0
    for _ in range(6):
        store = random_kg(rng, n_entities=12, n_relations=3, n_train=45,
                          n_valid=25)
        for rt in range(3):
            rt_pairs = store.instances_of(rt)
            valid_pairs = store.instances_of(rt, "valid")
            if not rt_pairs:
                continue
            for oar in oars_of(store, rt, config):
                specs, _ = specialization(oar, open_groundings(oar, store),
                                          rt_pairs, valid_pairs,
                                          sorted(rt_pairs), config)
                for rule, m in specs:
                    ref = evaluate(rule, store, rt_pairs, config, valid_pairs)
                    assert (m.supp, m.groundings, m.valid_supp) == \
                        (ref.supp, ref.groundings, ref.valid_supp)
                    assert m.sc == pytest.approx(ref.sc)
                    valid_hits += m.valid_supp > 0
    assert valid_hits > 0


def test_specialization_builds_what_instantiate_builds():
    # specialization builds each HAR and BAR directly; instantiate is the
    # oracle: a kept rule equals instantiate of the OAR under the anchoring
    # read off the rule's constants, which binds Y and maybe the dangling
    # term
    config = cfg(max_len=3)
    kinds = Counter()
    for oar, args in _specialized_corpus(config):
        tail = dangling_term(oar)
        specs, _ = specialization(oar, *args, zero_thresholds(config))
        assert len({r for r, _ in specs}) == len(specs)
        for rule, _ in specs:
            bind = anchoring(oar, rule)
            assert set(bind) in ({VAR_Y}, {VAR_Y, tail})
            assert rule == instantiate(oar, bind)
            kinds[len(bind)] += 1
    assert kinds[1] > 0 and kinds[2] > 0


def _specialized_corpus(config):
    """(oar, specialization args but the config) over three random graphs
    and a hub graph, for every OAR that generalization finds."""
    rng = random.Random(31)
    stores = [random_kg(rng, n_entities=12, n_relations=3, n_train=50,
                        n_valid=20) for _ in range(3)] + [hub_kg(rng)]
    for store in stores:
        for rt in range(3):
            rt_pairs = store.instances_of(rt)
            if not rt_pairs:
                continue
            for oar in oars_of(store, rt, config):
                yield oar, (open_groundings(oar, store), rt_pairs,
                            store.instances_of(rt, "valid"), sorted(rt_pairs))


@pytest.mark.parametrize("cap", [0, 1])
def test_specialization_equals_filtering_every_candidate(cap):
    # each threshold alone drops some candidates, and the list returned
    # under it is the zero-threshold list filtered by the public checks
    configs = [cfg(max_specs_per_oar=cap, **kw) for kw in (
        dict(supp_f=1), dict(hc_f=0.1), dict(sc_f=0.1),
        dict(overfit_threshold=0.5))]
    compared = [0] * len(configs)
    kept = [0] * len(configs)
    for oar, args in _specialized_corpus(cfg()):
        every, truncated = specialization(oar, *args,
                                          cfg(max_specs_per_oar=cap))
        for i, config in enumerate(configs):
            got, got_truncated = specialization(oar, *args, config)
            assert got == [(r, m) for r, m in every if is_relevant(m, config)
                           and overfit_keep(m, config)]
            assert got_truncated == truncated
            compared[i] += len(every)
            kept[i] += len(got)
    assert all(0 < k < n for k, n in zip(kept, compared)), (kept, compared)


def test_specialization_candidates_have_support():
    # so a config with zero thresholds keeps every candidate
    candidates = 0
    for oar, args in _specialized_corpus(cfg()):
        every, _ = specialization(oar, *args, cfg())
        assert all(m.supp >= 1 for _, m in every)
        candidates += len(every)
    assert candidates > 0


def test_specialization_cap_limits_hars_and_bars_separately():
    rng = random.Random(2)
    store = random_kg(rng, n_entities=12, n_relations=2, n_train=60)
    rt_pairs = store.instances_of(0)
    oar = R("r0(X,Y) <- r1(X,V0)", store)
    groundings = open_groundings(oar, store)
    full, _ = specialization(oar, groundings, rt_pairs, set(),
                             sorted(rt_pairs), cfg())
    n_hars = sum(kind_of(r) == "HAR" for r, _ in full)
    n_bars = sum(kind_of(r) == "BAR" for r, _ in full)
    assert n_hars > 1 and n_bars > 1
    capped, truncated = specialization(oar, groundings, rt_pairs, set(),
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


def test_learn_instantiates_only_relevant_specializations(monkeypatch):
    rng = random.Random(5)
    store = random_kg(rng, n_entities=14, n_relations=3, n_train=70)
    config = cfg(supp_f=1, enable_post_pruning=False)
    # every Rule constructed during learn, and those specialization built
    made, built, oars = [], [], []
    post_init, specialize = Rule.__post_init__, miner_mod.specialization
    monkeypatch.setattr(Rule, "__post_init__",
                        lambda self: made.append(self) or post_init(self))

    def specializing(oar, *a, **kw):
        oars.append(oar)
        start = len(made)
        out = specialize(oar, *a, **kw)
        built.extend(made[start:])
        return out
    monkeypatch.setattr(miner_mod, "specialization", specializing)
    res = learn(store, 0, config)
    monkeypatch.undo()
    rt_pairs = store.instances_of(0)
    candidates = relevant = 0
    for oar in oars:
        specs, _ = specialization(oar, open_groundings(oar, store),
                                  rt_pairs, set(), sorted(rt_pairs),
                                  zero_thresholds(config))
        candidates += len(specs)
        relevant += sum(is_relevant(m, config) for _, m in specs)
    assert len(built) == relevant
    assert 0 < relevant < candidates
    assert res.i_oars > 0


def test_learn_prunes_through_prior_pruning(monkeypatch):
    calls = []
    bfs = miner_mod.bfs_with_pruning
    monkeypatch.setattr(miner_mod, "bfs_with_pruning",
                        lambda *a: calls.append(a) or bfs(*a))
    store = toy_store()
    rt = store.relations.get("Advises")
    assert learn(store, rt, cfg(supp_h=2)).p_oars == 2
    assert len(calls) == 1
    calls.clear()
    learn(store, rt, cfg(supp_h=2, enable_prior_pruning=False))
    assert calls == []


@pytest.mark.parametrize("prior", [True, False])
@pytest.mark.parametrize("post", [True, False])
def test_learn_equals_the_three_pass_reference(monkeypatch, prior, post):
    dropped = []
    post_pruning = miner_mod.post_pruning

    def counted(phi_i, sc):
        keep = post_pruning(phi_i, sc)
        dropped.append(len(phi_i.nodes) - len(keep))
        return keep
    monkeypatch.setattr(miner_mod, "post_pruning", counted)
    rng = random.Random(17)
    stores = [random_kg(rng, n_entities=14, n_relations=3, n_train=70,
                        n_valid=25) for _ in range(3)] + [hub_kg(rng)]
    pruned = specialized = 0
    for store in stores:
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            config = cfg(supp_f=1, supp_h=8, overfit_threshold=0.1,
                         enable_prior_pruning=prior,
                         enable_post_pruning=post)
            res = learn(store, rt, config)
            rules, counts = learn_oracle(store, rt, config)
            assert res.rules == rules
            assert (res.p_oars, res.i_oars, res.u_oars) == counts
            assert res.skipped_oars == 0
            pruned += res.p_oars
            specialized += res.i_oars
    assert specialized > 0
    assert (pruned > 0) == prior
    # so a wrong I-edge changes the rules compared above
    assert (sum(dropped) > 0) == post


@pytest.mark.parametrize("budget", [0.0, 1e-9])
def test_learn_accounts_for_every_oar(budget):
    rng = random.Random(6)
    store = random_kg(rng, n_entities=14, n_relations=3, n_train=70)
    for supp_h in (0, 10):
        config = cfg(supp_h=supp_h, spec_time_budget=budget)
        res = learn(store, 0, config)
        n_oars = sum(kind_of(r) == "OAR"
                     for r in generalization(store, 0, config) if r.body)
        assert res.p_oars + res.i_oars + res.u_oars + res.skipped_oars \
            == n_oars
        # measuring goes on past the deadline, so p_oars stays exact
        assert res.p_oars == learn(store, 0, cfg(supp_h=supp_h)).p_oars
        assert (res.skipped_oars > 0) == bool(budget)
        assert (supp_h > 0) == (res.p_oars > 0)


def test_learn_grounds_each_abstract_rule_body_at_most_once(monkeypatch):
    grounded = Counter()
    ground = miner_mod.ground_body
    monkeypatch.setattr(miner_mod, "ground_body",
                        lambda rule, *a, **kw: grounded.update([rule])
                        or ground(rule, *a, **kw))
    rng = random.Random(12)
    specialized = 0
    for store in (random_kg(rng, n_entities=15, n_relations=3, n_train=80),
                  hub_kg(rng)):
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            grounded.clear()
            res = learn(store, rt, cfg(supp_f=1, supp_h=2))
            assert grounded and max(grounded.values()) == 1
            assert set(grounded) <= set(generalization(store, rt, cfg()))
            specialized += res.i_oars + res.u_oars
    assert specialized > 0


@pytest.mark.parametrize("cause, value", [("gen_time_budget", 1e-9),
                                          ("spec_time_budget", 1e-9),
                                          ("max_specs_per_oar", 1)])
def test_truncated_by_names_the_approximation_that_took_effect(cause, value):
    rng = random.Random(6)
    store = random_kg(rng, n_entities=14, n_relations=3, n_train=70)
    res = learn(store, 0, cfg(**{cause: value}))
    assert res.truncated_by == {cause}
    assert res.truncated
    full = learn(store, 0, cfg())
    assert full.truncated_by == set() and not full.truncated


def test_learn_records_generalization_time():
    rng = random.Random(6)
    store = random_kg(rng, n_entities=20, n_relations=3, n_train=150)
    assert learn(store, 0, cfg()).gen_seconds > 0


def test_gen_time_budget_stop_is_reported():
    rng = random.Random(6)
    store = random_kg(rng, n_entities=20, n_relations=3, n_train=150)
    top = Rule(Atom(0, VAR_X, VAR_Y))
    # the deadline has passed before the first instance is sampled
    stopped = learn(store, 0, cfg(gen_time_budget=1e-9))
    assert stopped.truncated
    assert stopped.abstract_rules == 1
    assert generalization(store, 0, cfg(gen_time_budget=1e-9)) == [top]
    full = learn(store, 0, cfg())
    assert not full.truncated
    assert full.abstract_rules == len(generalization(store, 0, cfg())) > 1


def test_grounding_cap_marks_measures_approximate():
    rng = random.Random(9)
    store = hub_kg(rng)
    rt_pairs = store.instances_of(0)
    oar = R("r0(X,Y) <- r2(X,V0)", store)
    car = R("r0(X,Y) <- r1(V0,X), r1(V0,Y)", store)
    for rule in (oar, car):
        assert not evaluate(rule, store, rt_pairs, cfg()).approximate
        capped = evaluate(rule, store, rt_pairs, cfg(grounding_cap=3))
        assert capped.approximate
        assert capped.groundings < evaluate(rule, store, rt_pairs,
                                            cfg()).groundings
    exact, _ = specialization(oar, open_groundings(oar, store), rt_pairs,
                              set(), sorted(rt_pairs), cfg())
    capped, _ = specialization(oar, open_groundings(oar, store, 8), rt_pairs,
                               set(), sorted(rt_pairs), cfg(grounding_cap=8))
    assert exact and not any(m.approximate for _, m in exact)
    assert capped and all(m.approximate for _, m in capped)
    res = learn(store, 0, cfg(grounding_cap=8))
    assert any(m.approximate for _, m in res.rules)
    assert not any(m.approximate for _, m in learn(store, 0, cfg()).rules)


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


def test_learn_records_the_hierarchy_the_builders_find(monkeypatch):
    # learn records the edges it creates and checks no subsumption; the
    # builders, run on the abstract rules and on each OAR's kept
    # specializations, find exactly the recorded nodes and edges
    def forbidden(*a):
        raise AssertionError("learn checked a subsumption")
    for module, name in ((miner_mod, "build_a_hierarchy"),
                         (miner_mod, "build_i_hierarchy"),
                         (hierarchy_mod, "a_subsumes"),
                         (hierarchy_mod, "i_subsumes")):
        monkeypatch.setattr(module, name, forbidden)
    specs_of = []   # per learn call, the specs of each specialized OAR
    specialize = miner_mod.specialization

    def recorded(*a):
        specs, truncated = specialize(*a)
        specs_of[-1].append(specs)
        return specs, truncated
    monkeypatch.setattr(miner_mod, "specialization", recorded)
    rng = random.Random(17)
    stores = [random_kg(rng, n_entities=14, n_relations=3, n_train=70,
                        n_valid=25) for _ in range(3)] + [hub_kg(rng)]
    config = cfg(supp_f=1, supp_h=8, overfit_threshold=0.1)
    learned = []
    for store in stores:
        for rt in range(3):
            if store.instances_of(rt):
                specs_of.append([])
                learned.append((store, rt, learn(store, rt, config,
                                                 collect_hierarchy=True)))
    monkeypatch.undo()
    kinds = Counter()
    for (store, rt, res), specs in zip(learned, specs_of):
        oracle = union(build_a_hierarchy(generalization(store, rt, config)),
                       *(build_i_hierarchy([r for r, _ in s]) for s in specs))
        assert res.hierarchy.nodes == oracle.nodes
        assert res.hierarchy.edges == oracle.edges
        kinds.update(e.kind for e in oracle.edges)
    assert kinds[A_EDGE] > 0 and kinds[I_EDGE] > 0


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


GOOD_LINE = ("Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | "
             "kind=HAR")


@pytest.mark.parametrize("bad", [
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | kind=HAR | x=1",
    "Advises(X,bob) <- Is_A(X,V0) | supp=3.5 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=high | kind=HAR",
    "Advises(X,carol) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Knows(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25",
])
def test_read_rules_names_the_file_and_line_of_a_malformed_line(tmp_path,
                                                                  bad):
    store = toy_store()
    path = tmp_path / "rules.txt"
    path.write_text(f"{GOOD_LINE}\n\n{bad}\n{GOOD_LINE}\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: "):
        read_rules(path, store.entities, store.relations)


def test_read_rules_equals_parsing_each_line_alone(tmp_path):
    # lines sharing atom texts, among them atoms whose variables the rules
    # renumber differently: the atom memo must not carry one rule's
    # numbering into another
    store = toy_store()
    texts = ["Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)",
             "Advises(X,bob) <- Publishes(X,V0)",
             "Advises(X,Y) <- Publishes(X,V1), Publishes(Y,V1)",
             "Advises(X,Y) <- Is_A(V1,V0), Publishes(X,V0)",
             "Publishes(X,V0) <- Publishes(X,V0)",
             "Advises(X,Y) <- Publishes(Y,V0), Publishes(X,V0)",
             "Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)"]
    path = tmp_path / "rules.txt"
    path.write_text("".join(f"{t} | supp={i} | hc=0.{i} | sc=0.0{i} | "
                            f"kind=CAR\n" for i, t in enumerate(texts)))
    back = read_rules(path, store.entities, store.relations)
    assert [r for r, _ in back] == [
        parse_rule(t, store.entities, store.relations, intern=False)
        for t in texts]
    assert [(m.supp, m.hc, m.sc) for _, m in back] == [
        (i, float(f"0.{i}"), float(f"0.0{i}")) for i in range(len(texts))]
    assert back[0][0] == back[-1][0] and back[0][0] != back[5][0]
