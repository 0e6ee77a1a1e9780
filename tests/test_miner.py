import inspect
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rulehier.hierarchy as hierarchy_mod
import rulehier.miner as miner_mod
from rulehier.hierarchy import (A_EDGE, I_EDGE, Hierarchy, SubsumptionEdge,
                                bfs_with_pruning, build_a_hierarchy,
                                build_i_hierarchy, union)
from rulehier.kgstore import Interner, ParseError, TripleStore, decode_line
from rulehier.miner import (BodyIndex, EmptyTargetError, Measures,
                            MinerConfig, body_vars, evaluate, generalization,
                            ground_body, is_relevant, learn, learn_all,
                            learned_hierarchy, open_groundings, overfit_keep,
                            post_pruning, read_rules, write_rules)
from rulehier.rules import (Atom, Rule, Term, VAR_X, VAR_Y, constants,
                            dangling_term, format_rule, instantiate,
                            is_straight, kind_of, parse_rule, walk_rule)

import helpers
from helpers import (N_PREDS, R, anchoring, edges_climb,
                     generalization_oracle, ground_body_oracle,
                     is_bound_first, learn_oracle, random_kg, random_rule,
                     repeat_a_variable, same_groundings, sample_walk_oracle,
                     specialize, toy_store, walk_rules, zero_thresholds)


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


def parallel_store():
    """Parallel edges: r(a,c), s(c,a), r(c,b), s(b,c), r(c,e), s(e,c),
    r(e,b), s(b,e), r(e,f), a self-loop r(c,c), and the instances t(a,b),
    t(b,e), t(f,c), t(c,a). A walk reaching c or e has two edges back to
    where it came from, and c's self-loop is two edges of c's own."""
    store = TripleStore()
    t, r, s = (store.relations.intern(n) for n in ("t", "r", "s"))
    a, b, c, e, f = (store.entities.intern(n) for n in "abcef")
    for rel, subj, obj in ((r, a, c), (s, c, a), (r, c, c), (r, c, b),
                           (s, b, c), (r, c, e), (s, e, c), (r, e, b),
                           (s, b, e), (r, e, f), (t, a, b), (t, b, e),
                           (t, f, c), (t, c, a)):
        store.add_triple(rel, subj, obj, "train")
    return store, (a, b, c, e, f)


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


def _grounding_cases(rng):
    """(store, rule, exclude) triples: every rule `generalization` draws on
    random and hub graphs and, for every third OAR, its first HAR and a BAR
    on that HAR's anchor; a rule with constants also with its body
    constants excluded as eval does, and rules repeating a variable on a
    graph with self-loops."""
    stores = [random_kg(rng, n_entities=12, n_relations=3, n_train=40)
              for _ in range(2)] + [hub_kg(rng)]
    config = cfg(max_len=3, walks_per_instance=2)
    for store in stores:
        for rt in range(3):
            rt_pairs = store.instances_of(rt)
            rules = walk_rules(store, rt, config) if rt_pairs else []
            oars = [r for r in rules if r.body and kind_of(r) == "OAR"]
            for oar in oars[::3]:
                specs = sorted((r for r, _ in specialize(
                    oar, open_groundings(oar, store), rt_pairs, set(),
                    config)[0]), key=Rule.sort_key)
                har = next((r for r in specs if kind_of(r) == "HAR"), None)
                if har is not None:
                    # each supporting instance also supports a BAR on c
                    rules += [har, next(
                        r for r in specs if kind_of(r) == "BAR"
                        and r.head.obj == har.head.obj)]
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
    cases = reordered = 0
    for store, rule, exclude in _grounding_cases(rng):
        order = body_vars(rule)
        want = [tuple(b[v] for v in order)
                for b in ground_body_oracle(rule, store, exclude)]
        got = list(ground_body(rule, store, exclude))
        assert same_groundings(got, want, rule), format_rule(
            rule, store.entities, store.relations)
        cases += 1
        reordered += not is_bound_first(rule.body)
    assert cases > 500 and reordered > 100


class _CountingDict(dict):
    """A dict that counts the calls of its `get`."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def test_a_body_with_a_constant_never_scans_a_relation(monkeypatch):
    # the join starts from a body constant and reaches every other atom of
    # a connected body through a known term, so no atom reads all of its
    # relation's facts, wherever the constant is written
    rng = random.Random(21)
    cases = [c for c in _grounding_cases(rng)
             if any(not t.is_var for a in c[1].body for t in a.terms)]
    store = random_kg(rng, n_entities=8, n_relations=3, n_train=50)
    cases += [(store, R(text, store), None) for text in (
        "r0(X,Y) <- r1(X,V0), r2(V0,V1), r0(V1,e3)",
        "r0(X,e1) <- r1(X,V0), r0(V0,e2)",
        "r0(X,Y) <- r2(X,V0), r1(e4,V0), r0(V0,Y)",
        "r0(X,Y) <- r1(V0,X), r2(V1,V0), r0(e2,V1)",
        "r0(X,Y) <- r1(X,Y), r2(Y,V0), r0(V0,e5)")]
    grounded = Counter()
    for store, rule, exclude in cases:
        order = body_vars(rule)
        want = [tuple(b[v] for v in order)
                for b in ground_body_oracle(rule, store, exclude)]
        scans = _CountingDict(store.by_relation)
        monkeypatch.setattr(store, "by_relation", scans)
        got = list(ground_body(rule, store, exclude))
        monkeypatch.undo()
        assert scans.gets == 0, format_rule(rule, store.entities,
                                            store.relations)
        assert sorted(got) == sorted(want)
        grounded[len(rule.body)] += bool(want)
    assert len(cases) > 300 and min(grounded[n] for n in (1, 2, 3)) >= 5, \
        grounded


def _brute_force_maps(groundings, n_slots):
    """The maps a BodyIndex offers, per slot and slot pair, computed value
    by value from the grounding tuples."""
    grouped, common, pairs = {}, {}, {}
    for j in range(n_slots):
        values = dict.fromkeys(g[j] for g in groundings)
        grouped[j] = {v: [g for g in groundings if g[j] == v] for v in values}
        common[j] = {v: set.intersection(*map(set, gs))
                     for v, gs in grouped[j].items()}
        for i in range(n_slots):
            pairs[(j, i)] = {v: {g[i] for g in gs}
                             for v, gs in grouped[j].items()}
    return grouped, common, pairs


def _random_bodies(rng, n):
    """(store, rule) pairs: `n` random rules per graph, 40% of them with a
    variable repeated, on a graph with self-loops and on a hub graph;
    rules without a body are drawn but skipped."""
    loops = random_kg(rng, n_entities=10, n_relations=N_PREDS, n_train=70)
    for e in range(0, 10, 3):   # self-loops, so repeated variables bind
        loops.add_triple(e % N_PREDS, e, e, "train")
    for store in (loops, hub_kg(rng)):
        for _ in range(n):
            rule = random_rule(rng, max_len=3)
            if rng.random() < 0.4:
                rule = repeat_a_variable(rng, rule)
            if rule.body:
                yield store, rule


def test_body_index_maps_equal_brute_force_over_the_oracle_groundings():
    seen = Counter()
    for store, rule in _random_bodies(random.Random(31), 450):
        order = body_vars(rule)
        consts = {t.idx for a in rule.body for t in a.terms
                  if not t.is_var}
        body = BodyIndex(rule, ground_body(rule, store, consts))
        assert body.pos == {v: i for i, v in enumerate(order)}
        want = [tuple(b[v] for v in order)
                for b in ground_body_oracle(rule, store, consts)]
        assert same_groundings(body.groundings, want, rule)
        grouped, common, pairs = _brute_force_maps(body.groundings,
                                                   len(order))
        for j in range(len(order)):
            assert dict(body.grouped(j)) == grouped[j]
            assert body.common(j) == common[j]
            assert body.common(j) is body.common(j)   # built once
            for i in range(len(order)):
                assert dict(body.pairs(j, i)) == pairs[(j, i)]
                # the same sets from the (j, i) value pairs' groundings
                both = {}
                for v, gs in grouped[j].items():
                    for g in gs:
                        both.setdefault((v, g[i]), []).append(set(g))
                both = {vu: set.intersection(*sets)
                        for vu, sets in both.items()}
                for v in grouped[j]:
                    assert body.common_split(j, v, i) == {
                        u: ents for (w, u), ents in both.items() if w == v}
                    sets, held = body.common_count(j, v, i)
                    assert sets == {u: ents for (w, u), ents in both.items()
                                    if w == v}
                    assert held == Counter(c for ents in sets.values()
                                           for c in ents)
                    assert body.common_split(j, v, i) \
                        is body.common_split(j, v, i)
                    assert body.common_count(j, v, i) \
                        is body.common_count(j, v, i)
                sets, held = body.common_count(i, None, j)
                assert sets is body.common(j)
                assert held == Counter(c for ents in common[j].values()
                                       for c in ents)
        if kind_of(rule) == "OAR":
            oar = open_groundings(rule, store)
            assert isinstance(oar, BodyIndex)
            assert same_groundings(oar.groundings, want, rule)
        if want:
            seen["grounded"] += 1
            seen["body constant"] += bool(consts)
            seen["repeated variable"] += any(
                a.subj == a.obj and a.subj.is_var for a in rule.body)
            seen["OAR"] += kind_of(rule) == "OAR"
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


def _reached_keys(monkeypatch, store, rt, config):
    """The walk keys whose rules `learn` builds, in the order it builds
    them."""
    keys = []
    walk = miner_mod.walk_rule
    monkeypatch.setattr(miner_mod, "walk_rule",
                        lambda pred, key: keys.append(key) or walk(pred, key))
    learn(store, rt, config)
    monkeypatch.undo()
    return keys


def test_extending_the_parent_groundings_equals_grounding_from_scratch(
        monkeypatch):
    # every walk body learn reaches, grounded from its A-parent's tuples,
    # gives the from-scratch tuples in their order
    rng = random.Random(23)
    stores = [random_kg(rng, n_entities=14, n_relations=3, n_train=70)
              for _ in range(2)] + [hub_kg(rng)]
    seen = Counter()
    for store in stores:
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            config = cfg(max_len=3, supp_h=2, walks_per_instance=4)
            for key in _reached_keys(monkeypatch, store, rt, config):
                if len(key) < 6:
                    continue   # the top rule's children have no groundings
                rule, up = walk_rule(rt, key), walk_rule(rt, key[:-3])
                order = body_vars(rule)
                parent = list(ground_body(up, store))
                want = list(ground_body(rule, store))
                assert want == [tuple(b[v] for v in order)
                                for b in ground_body_oracle(rule, store)]
                assert list(ground_body(rule, store, parent=parent)) == want
                if kind_of(rule) == "OAR":
                    body = open_groundings(rule, store, parent)
                    assert body.groundings == want
                seen["extended"] += bool(want)
                # the parent's tuples are what is extended
                assert list(ground_body(rule, store, parent=[])) == []
                seen["OAR" if kind_of(rule) == "OAR" else "CAR"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def _last_atom_kind(rule):
    """How `ground_body` joins the last body atom to the rows of the
    atoms before it."""
    bound = {t for a in rule.body[:-1] for t in a.terms if t.is_var}
    known = [t for t in rule.body[-1].terms if not t.is_var or t in bound]
    if len(known) == 2:
        return "check"
    if known:
        return "extend from a constant" if not known[0].is_var \
            else "extend from a bound slot"
    atom = rule.body[-1]
    return "one-variable scan" if atom.subj == atom.obj \
        else "two-variable scan"


def test_the_parent_tuples_start_the_join_for_every_kind_of_last_atom():
    # random rules with constants, repeated variables and checks, each
    # grounded from the tuples of its body without the last atom, under the
    # rule's exclusions
    seen = Counter()
    for store, rule in _random_bodies(random.Random(37), 600):
        order = body_vars(rule)
        prefix = Rule(rule.head, rule.body[:-1])
        parent = list(ground_body(prefix, store, constants(rule)))
        want = list(ground_body(rule, store))
        assert same_groundings(want, [tuple(b[v] for v in order)
                                      for b in ground_body_oracle(rule, store)],
                               rule)
        assert same_groundings(list(ground_body(rule, store, parent=parent)),
                               want, rule), \
            format_rule(rule, store.entities, store.relations)
        assert list(ground_body(rule, store, parent=[])) == []
        if want:
            seen[_last_atom_kind(rule)] += 1
    assert min(seen.values()) >= 10 and len(seen) == 5, seen


def test_evaluate_closed_rule_triangle():
    store, (rt, _), (a, b, c) = triangle_store()
    rt_pairs = store.instances_of(rt)
    m = evaluate(R("rt(X,Y) <- r0(X,V0), r0(Y,V0)", store), store,
                 rt_pairs, cfg())
    assert (m.supp, m.groundings) == (1, 2)
    assert m.hc == pytest.approx(1.0)
    assert m.sc == pytest.approx(1 / 7)     # 1 / (eta + |g|) = 1 / (5 + 2)


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
            for rule in walk_rules(store, rt, config):
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
    rules = walk_rules(store, rt, cfg())
    assert R("Advises(X,Y) <-", store) in rules
    assert R("Advises(X,Y) <- Publishes(X,V0)", store) in rules
    assert R("Advises(X,Y) <- Is_A(X,V0)", store) in rules
    assert R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store) in rules


def test_generalization_prefix_closed_and_deterministic():
    rng = random.Random(1)
    store = random_kg(rng, n_entities=15, n_relations=3, n_train=60)
    config = cfg(max_len=3)
    keys = generalization(store, 0, config)
    assert keys == generalization(store, 0, config)
    assert keys[0] == () and len(keys) > 1
    keyset = set(keys)
    for key in keys[1:]:
        assert key[:-3] in keyset
    # one rule per key, and the sorted keys are in their rules' order
    rules = [walk_rule(0, key) for key in keys]
    assert len(set(rules)) == len(keys)
    assert rules == sorted(rules, key=Rule.sort_key)
    for key, rule in zip(keys[1:], rules[1:]):
        assert walk_rule(0, key[:-3]) == Rule(rule.head, rule.body[:-1])


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
            rules = walk_rules(store, rt, cfg(max_len=max_len))
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
    # the self-loop graph has instances (x, x), whose walks start at X
    graphs = [random_kg(rng, n_entities=12 + 2 * seed, n_relations=3,
                        n_train=50 + 10 * seed), hub_kg(rng),
              selfloop_store()[0], parallel_store()[0]]
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
                assert [walk_rule(rt, key) for key in got] == want
                assert len(got) > 1
                # straight by construction: no step revisits an entity
                assert all(is_straight(walk_rule(rt, key)) for key in got)
                assert draws == oracle_draws and draws


@pytest.mark.parametrize("seed", range(4))
def test_walk_keys_equal_the_per_step_walker(monkeypatch, seed):
    # every step of generalization's walks draws by position, past the
    # excluded positions; the oracle filters every step's neighbours anew
    # and must draw the same keys
    rng = random.Random(seed)
    # the self-loop graph has instances (x, x), whose walks start at X;
    # the parallel-edge graph makes steps, the first included, skip
    # several positions of one entity, and draw past them
    graphs = [random_kg(rng, n_entities=12 + 2 * seed, n_relations=3,
                        n_train=50 + 10 * seed), hub_kg(rng),
              selfloop_store()[0], parallel_store()[0]]
    seen = Counter()
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
            want = [sample_walk_oracle(store, rt, x, y, length, oracle_rng,
                                       seen)
                    for x, y in sorted(store.instances_of(rt))
                    for length in (1, 2, 3) for _ in range(4)]
            assert keys == want and any(keys)
    assert seen["repeated"] and seen["passed"]
    assert seen["first repeated"] and seen["first passed"]


def test_a_triple_added_after_generalization_changes_the_next_walks():
    # the positions of each entity's neighbours are indexed anew by every
    # call, so an edge added between calls is excluded like the others
    store, (a, _, c, _, _) = parallel_store()
    t, r = store.relations.get("t"), store.relations.get("r")
    config = cfg(max_len=3, walks_per_instance=8)
    before = generalization(store, t, config)
    assert store.add_triple(r, c, a, "train")
    after = generalization(store, t, config)
    assert after != before
    assert [walk_rule(t, key) for key in after] == \
        generalization_oracle(store, t, config)


def test_generalization_never_walks_originating_triple():
    store = TripleStore()
    rt = store.relations.intern("rt")
    a, b = store.entities.intern("a"), store.entities.intern("b")
    store.add_triple(rt, a, b, "train")
    assert generalization(store, rt, cfg()) == [()]


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
    ("eta", float("nan")), ("overfit_threshold", -0.1), ("seed", -1)])
def test_miner_config_rejects_out_of_range_values(name, bad):
    with pytest.raises(ValueError, match=name):
        MinerConfig(**{name: bad})
    # the bound itself is accepted
    MinerConfig(**{name: 1 if name in ("max_len", "walks_per_instance")
                   else 0})


@pytest.mark.parametrize("name,bad", [
    ("max_len", 2.5), ("walks_per_instance", True), ("seed", "0"),
    ("supp_f", None), ("supp_h", 1.0), ("eta", "5"), ("hc_f", False),
    ("enable_post_pruning", "no"), ("enable_post_pruning", 1)])
def test_miner_config_rejects_wrong_types(name, bad):
    # int fields take an int but not a bool, float fields an int or a
    # float, bool fields only a bool
    with pytest.raises(TypeError, match=name):
        MinerConfig(**{name: bad})
    assert MinerConfig(eta=5, hc_f=0, sc_f=1, overfit_threshold=0).eta == 5


def test_overfit_filter():
    keep = MinerConfig(overfit_threshold=0.2)
    assert overfit_keep(Measures(supp=10, valid_supp=2), keep)
    assert not overfit_keep(Measures(supp=10, valid_supp=1), keep)
    assert not overfit_keep(Measures(supp=0, valid_supp=0), keep)
    off = MinerConfig(overfit_threshold=0.0)
    assert overfit_keep(Measures(supp=0, valid_supp=0), off)


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


def post_pruning_kg() -> TripleStore:
    """Train facts p(x_i, t) and rt(x_i, anchor), and validation facts
    rt(x_i, anchor), whose OAR rt(X,Y) <- p(X,V0), at eta 0, sc_f 0.3 and
    overfit_threshold 0.5, gives a BAR for each case of post pruning."""
    store = TripleStore()
    rt, p = store.relations.intern("rt"), store.relations.intern("p")
    ent = store.entities.intern
    for t, xs in {"t1": (0, 1, 2, 3, 6, 7, 8, 9), "t3": (0, 6, 7),
                  "t4": (0, 1, 9), "t5": (4, 5), "t2": range(6, 12)}.items():
        for x in xs:
            store.add_triple(p, ent(f"x{x}"), ent(t), "train")
    for split, anchors in (
            ("train", {"c": range(6), "e": range(6), "f": range(3)}),
            ("valid", {"c": (6, 7, 8), "e": (6,), "f": (9,)})):
        for c, xs in anchors.items():
            for x in xs:
                store.add_triple(rt, ent(f"x{x}"), ent(c), split)
    return store


@pytest.mark.parametrize("post", [True, False])
def test_post_pruning_drops_a_bar_only_below_its_kept_har(post):
    store = post_pruning_kg()
    rt = store.relations.get("rt")
    config = cfg(max_len=1, sc_f=0.3, eta=0.0, overfit_threshold=0.5,
                 enable_post_pruning=post)
    res = learn(store, rt, config)
    assert res.rules == learn_oracle(store, rt, config)[0]
    sc = {format_rule(r, store.entities, store.relations): m.sc
          for r, m in res.rules}
    # a tie stays
    assert sc["rt(X,c) <- p(X,V0)"] == sc["rt(X,c) <- p(X,t1)"] == 0.5
    # a strictly dominated BAR goes
    assert ("rt(X,c) <- p(X,t3)" in sc) != post
    # a BAR stays when its HAR fails overfit_keep, although the HAR has the
    # higher sc, or fails sc_f
    har = evaluate(R("rt(X,e) <- p(X,V0)", store), store,
                   store.instances_of(rt), config)
    assert har.sc == 0.5 > sc["rt(X,e) <- p(X,t3)"]
    assert "rt(X,e) <- p(X,V0)" not in sc
    assert "rt(X,f) <- p(X,V0)" not in sc and "rt(X,f) <- p(X,t4)" in sc


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
    specs, flag = specialize(oar, open_groundings(oar, store), rt_pairs,
                             set(), cfg())
    assert flag is False
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
    return [r for r in walk_rules(store, rt, config)
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
                specs, _ = specialize(oar, open_groundings(oar, store),
                                      rt_pairs, valid_pairs, config)
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
        specs, _ = specialize(oar, *args, zero_thresholds(config))
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
                            store.instances_of(rt, "valid"))


def test_kept_rules_share_one_body_per_tail_value():
    # each kept rule is the Rule its head and body make, renumbered as
    # construction renumbers; the HARs of an OAR hold the OAR's body tuple,
    # and the BARs of one (OAR, tail value) one body tuple between them
    shared = bars = 0
    for oar, args in _specialized_corpus(cfg()):
        specs, _ = specialize(oar, *args, cfg())
        bodies: dict = {}
        for rule, _ in specs:
            fresh = Rule(rule.head, tuple(rule.body))
            assert rule == fresh and hash(rule) == hash(fresh)
            assert rule.atoms == fresh.atoms
            assert bodies.setdefault(rule.body, rule.body) is rule.body
            if kind_of(rule) == "HAR":
                assert rule.body is oar.body
            else:
                bars += 1
        shared += len(specs) - len(bodies)
    assert 0 < shared and bars > 0


def _anchors(specs, config):
    """The anchors of a zero-threshold specialization whose HARs pass and
    fail `supp_f` and `hc_f` under `config`: (live, dead)."""
    hars = {r.head.obj.idx: m for r, m in specs if kind_of(r) == "HAR"}
    live = {c for c, m in hars.items()
            if m.supp > config.supp_f and m.hc > config.hc_f}
    return live, set(hars) - live


def test_specialization_equals_filtering_every_candidate():
    # each threshold alone drops some candidates, and the list returned
    # under it is the zero-threshold list filtered by the public checks;
    # under supp_f and hc_f, some anchors' HARs pass and others' fail, so
    # their BARs are never counted
    configs = [cfg(**kw) for kw in (
        dict(supp_f=1), dict(hc_f=0.1), dict(supp_f=2, hc_f=0.08),
        dict(sc_f=0.1), dict(overfit_threshold=0.5))]
    compared = [0] * len(configs)
    kept = [0] * len(configs)
    anchors = [Counter() for _ in configs]
    for oar, args in _specialized_corpus(cfg()):
        every, _ = specialize(oar, *args, cfg())
        for i, config in enumerate(configs):
            got, _ = specialize(oar, *args, config)
            assert got == [(r, m) for r, m in every if is_relevant(m, config)
                           and overfit_keep(m, config)]
            compared[i] += len(every)
            kept[i] += len(got)
            live, dead = _anchors(every, config)
            anchors[i].update(live=len(live), dead=len(dead))
    assert all(0 < k < n for k, n in zip(kept, compared)), (kept, compared)
    assert all(a["live"] and a["dead"] for a in anchors[:3]), anchors


def _tail_value(rule):
    """A kept rule's tail value: its one body constant (None for a HAR)."""
    return next((t.idx for a in rule.body for t in a.terms if not t.is_var),
                None)


def test_specialization_enumerates_tails_of_live_anchors_only():
    # on a fresh index, x's tail values are split only for an instance
    # (x, c) that supports the HAR of a live anchor c, and a tail value's
    # sets are built only for the tails of candidates that pass supp_f and
    # hc_f
    split = counted = dead_anchors = 0
    config = cfg(supp_f=1, hc_f=0.08)
    for oar, (body, rt_pairs, valid) in _specialized_corpus(cfg()):
        every, _ = specialize(oar, body, rt_pairs, valid, cfg())
        live, dead = _anchors(every, config)
        fresh = BodyIndex(oar, body.groundings)
        specialize(oar, fresh, rt_pairs, valid, config)
        j, k = fresh.pos[VAR_X], fresh.pos[dangling_term(oar)]
        common_x = fresh.common(j)
        assert set(fresh._split.get((j, k), ())) == {
            x for x, c in rt_pairs
            if c in live and c not in common_x.get(x, (c,))}
        assert set(fresh._count.get((k, j), ())) == {
            _tail_value(r) for r, m in every
            if m.supp > config.supp_f and m.hc > config.hc_f}
        split += len(fresh._split.get((j, k), ()))
        counted += len(fresh._count.get((k, j), ()))
        dead_anchors += len(dead)
    assert split and counted and dead_anchors


def test_specialization_with_no_live_anchor_groups_nothing():
    # no HAR passes supp_f, so no BAR can, and the body's groundings are
    # never grouped
    store = toy_store()
    rt = store.relations.get("Advises")
    oar = R("Advises(X,Y) <- Is_A(X,V0)", store)
    body = open_groundings(oar, store)
    rt_pairs = store.instances_of(rt)
    assert specialize(oar, body, rt_pairs, set(), cfg(supp_f=1)) \
        == ([], False)
    assert body._grouped == {}
    assert specialize(oar, body, rt_pairs, set(), cfg())[0]


def test_specialization_candidates_have_support():
    # so a config with zero thresholds keeps every candidate
    candidates = 0
    for oar, args in _specialized_corpus(cfg()):
        every, _ = specialize(oar, *args, cfg())
        assert all(m.supp >= 1 for _, m in every)
        candidates += len(every)
    assert candidates > 0


def test_specialization_does_not_depend_on_pair_order():
    # the same rules with the same measures, whatever order the target's
    # train pairs come in
    kept = 0
    for config in (cfg(), cfg(supp_f=1, sc_f=0.1, overfit_threshold=0.5)):
        for oar, (body, rt_pairs, valid) in _specialized_corpus(cfg()):
            shuffled = sorted(rt_pairs)
            random.Random(len(rt_pairs)).shuffle(shuffled)
            got = [sorted(specialize(oar, body, pairs, valid, config)[0],
                          key=lambda rm: rm[0].sort_key())
                   for pairs in (rt_pairs, sorted(rt_pairs),
                                 sorted(rt_pairs, reverse=True), shuffled)]
            assert all(specs == got[0] for specs in got[1:])
            kept += len(got[0])
    assert kept > 0



def _filtered(oar, body, rt_pairs, valid, config):
    """The oracle: the zero-threshold specialization, filtered by the
    public checks under `config`."""
    every, _ = specialize(oar, body, rt_pairs, valid,
                          zero_thresholds(config))
    return [(r, m) for r, m in every
            if is_relevant(m, config) and overfit_keep(m, config)]


def _anchor_store(counts: dict[str, int]):
    """A target rt whose train pairs (x, c) give anchor c counts[c] xs,
    each x with one p-fact to tail value t0, and the OAR
    rt(X,Y) <- p(X,V0) over it: anchor c's HAR and its BAR on t0 both
    have support counts[c]."""
    store = TripleStore()
    rt, p = store.relations.intern("rt"), store.relations.intern("p")
    t0 = store.entities.intern("t0")
    i = 0
    for c, n in counts.items():
        anchor = store.entities.intern(c)
        for _ in range(n):
            x = store.entities.intern(f"x{i}")
            store.add_triple(rt, x, anchor, "train")
            store.add_triple(p, x, t0, "train")
            i += 1
    oar = R("rt(X,Y) <- p(X,V0)", store)
    return store, oar, open_groundings(oar, store), store.instances_of(rt)


def _anchors_kept(specs, store):
    return Counter(store.entities.name(r.head.obj.idx) for r, _ in specs)


def test_specialization_hc_f_at_an_exact_ratio():
    # 10 train pairs and hc_f 0.3: a support of 3 is an hc of exactly 0.3,
    # which fails the strict test, and 4 passes
    assert not 3 / 10 > 0.3 and 4 / 10 > 0.3
    store, oar, body, rt_pairs = _anchor_store({"a": 4, "b": 3, "c": 3})
    assert len(rt_pairs) == 10
    config = cfg(hc_f=0.3)
    got, _ = specialize(oar, body, rt_pairs, set(), config)
    assert got == _filtered(oar, body, rt_pairs, set(), config)
    assert _anchors_kept(got, store) == {"a": 2}   # its HAR and its BAR
    assert all(m.supp == 4 and m.hc == 0.4 for _, m in got)
    # just below the ratio, support 3 passes too
    got, _ = specialize(oar, body, rt_pairs, set(), cfg(hc_f=0.29))
    assert _anchors_kept(got, store) == {"a": 2, "b": 2, "c": 2}


@pytest.mark.parametrize("hc_f", [1.0, 1e300, float("inf")])
def test_specialization_hc_f_of_one_or_more_keeps_nothing(hc_f):
    # no support exceeds the number of train pairs, so no hc exceeds 1,
    # not even the one anchor's that every pair supports
    store, oar, body, rt_pairs = _anchor_store({"a": 10})
    assert [m.hc for _, m in specialize(oar, body, rt_pairs, set(),
                                        cfg())[0]] == [1.0, 1.0]
    config = cfg(hc_f=hc_f)
    assert specialize(oar, body, rt_pairs, set(), config) == ([], False)
    assert _filtered(oar, body, rt_pairs, set(), config) == []


def test_specialization_supp_f_of_at_least_the_pair_count_keeps_nothing():
    store, oar, body, rt_pairs = _anchor_store({"a": 10})
    for supp_f, kept in ((9, 2), (10, 0), (11, 0), (10 ** 9, 0)):
        config = cfg(supp_f=supp_f)
        got, _ = specialize(oar, body, rt_pairs, set(), config)
        assert got == _filtered(oar, body, rt_pairs, set(), config)
        assert len(got) == kept


def test_specialization_of_a_target_with_one_train_pair():
    store, oar, body, rt_pairs = _anchor_store({"a": 1})
    assert len(rt_pairs) == 1
    for config, kept in ((cfg(), 2), (cfg(hc_f=0.999), 2), (cfg(supp_f=1), 0),
                         (cfg(sc_f=0.2), 0)):
        got, _ = specialize(oar, body, rt_pairs, set(), config)
        assert got == _filtered(oar, body, rt_pairs, set(), config)
        assert len(got) == kept
        for rule, m in got:
            ref = evaluate(rule, store, rt_pairs, config)
            assert (m.supp, m.hc, m.groundings) == (1, 1.0, ref.groundings)
            assert m.sc == pytest.approx(ref.sc)


def test_specialization_builds_no_body_for_a_tail_that_fails_sc_f(
        monkeypatch):
    # a tail value whose BARs pass supp_f and hc_f has its per-tail entry
    # read, but a group none of whose BARs passes sc_f builds no body
    config = cfg(supp_f=1, sc_f=0.3)
    made = []
    post_init = Rule.__post_init__
    unkept = 0
    for oar, (body, rt_pairs, valid) in _specialized_corpus(cfg()):
        want = _filtered(oar, body, rt_pairs, valid, config)
        fresh = BodyIndex(oar, body.groundings)
        monkeypatch.setattr(Rule, "__post_init__",
                            lambda self: made.append(self) or post_init(self))
        got, _ = specialize(oar, fresh, rt_pairs, valid, config)
        monkeypatch.undo()
        assert got == want
        kept = {_tail_value(r) for r, _ in got} - {None}
        assert len(made) == len(kept)
        made.clear()
        read = set(fresh._count.get((fresh.pos[dangling_term(oar)],
                                     fresh.pos[VAR_X]), ())) - {None}
        assert kept <= read
        unkept += len(read - kept)
    assert unkept


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


def test_learn_instantiates_only_relevant_specializations(monkeypatch):
    # specialization builds each kept rule through Rule._with_head, the
    # unchecked part of with_head, and the shared body of each tail value
    # through one Rule: neither is built for a candidate that fails the
    # thresholds
    rng = random.Random(5)
    store = random_kg(rng, n_entities=14, n_relations=3, n_train=70)
    # candidates fail supp_f before the rule loop, and sc_f in it
    config = cfg(supp_f=1, sc_f=0.15, enable_post_pruning=False)
    # the rules and bodies built during learn, and those specialization
    # built, per OAR
    made, headed, oars, built = [], [], [], []
    post_init, with_head = Rule.__post_init__, Rule._with_head
    original = miner_mod.specialization
    monkeypatch.setattr(Rule, "__post_init__",
                        lambda self: made.append(self) or post_init(self))
    monkeypatch.setattr(Rule, "_with_head", lambda self, head: headed.append(
        head) or with_head(self, head))

    def specializing(oar, *a, **kw):
        oars.append(oar)
        start = len(made), len(headed)
        out = original(oar, *a, **kw)
        built.append((len(made) - start[0], len(headed) - start[1]))
        return out
    monkeypatch.setattr(miner_mod, "specialization", specializing)
    res = learn(store, 0, config)
    monkeypatch.undo()
    rt_pairs = store.instances_of(0)
    candidates = relevant = 0
    for oar, (bodies, rules) in zip(oars, built):
        specs, _ = specialize(oar, open_groundings(oar, store),
                              rt_pairs, set(), zero_thresholds(config))
        kept = [r for r, m in specs if is_relevant(m, config)]
        assert rules == len(kept)
        assert bodies == len({r.body for r in kept if r.body != oar.body})
        candidates += len(specs)
        relevant += len(kept)
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
    # supp_h 0 prunes nothing, through the same one traversal
    assert learn(store, rt, cfg(supp_h=0)).p_oars == 0
    assert len(calls) == 1


def test_prior_pruning_keeps_an_oar_whose_support_is_supp_h():
    # an OAR of support s is kept and specialized at supp_h s; at s + 1 it
    # is a P-OAR, and none of its anchorings is mined. Its support is its
    # hit count, less than the root's: x3 and x4 have no p-fact, and x5's
    # one grounding uses its anchor t0
    store = TripleStore()
    rt, p = store.relations.intern("rt"), store.relations.intern("p")
    ent = store.entities.intern
    for x, c, t in (("x0", "a", "t0"), ("x1", "a", "t0"), ("x2", "a", "t0"),
                    ("x3", "b", None), ("x4", "b", None),
                    ("x5", "t0", "t0")):
        store.add_triple(rt, ent(x), ent(c), "train")
        if t is not None:
            store.add_triple(p, ent(x), ent(t), "train")
    oar = R("rt(X,Y) <- p(X,V0)", store)
    s = evaluate(oar, store, store.instances_of(rt), cfg()).supp
    assert s == 3
    anchorings = {R("rt(X,a) <- p(X,V0)", store),
                  R("rt(X,a) <- p(X,t0)", store)}
    kept = learn(store, rt, cfg(max_len=1, supp_h=s))
    assert (kept.p_oars, kept.i_oars, kept.u_oars) == (0, 1, 0)
    assert anchorings <= {r for r, _ in kept.rules}
    pruned = learn(store, rt, cfg(max_len=1, supp_h=s + 1))
    assert (pruned.p_oars, pruned.i_oars, pruned.u_oars) == (1, 0, 0)
    assert not any(kind_of(r) in ("HAR", "BAR") for r, _ in pruned.rules)


@pytest.mark.parametrize("prune", [True, False])   # supp_h 8, or 0
@pytest.mark.parametrize("post", [True, False])
def test_learn_equals_the_three_pass_reference(monkeypatch, prune, post):
    # learn prunes without post_pruning, so the oracle's calls give the
    # rules it drops
    dropped = []

    def counted(phi_i, sc):
        keep = post_pruning(phi_i, sc)
        dropped.append(phi_i.nodes - keep)
        return keep
    monkeypatch.setattr(helpers, "post_pruning", counted)
    rng = random.Random(17)
    stores = [random_kg(rng, n_entities=14, n_relations=3, n_train=70,
                        n_valid=25) for _ in range(3)] + [hub_kg(rng)]
    pruned = specialized = 0
    for store in stores:
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            config = cfg(supp_f=1, supp_h=8 if prune else 0,
                         overfit_threshold=0.1,
                         enable_post_pruning=post)
            res = learn(store, rt, config)
            start = len(dropped)
            rules, counts = learn_oracle(store, rt, config)
            assert res.rules == rules
            assert (res.p_oars, res.i_oars, res.u_oars) == counts
            assert {r for r, _ in res.post_pruned} == set().union(
                *dropped[start:])
            assert len(res.post_pruned) == sum(map(len, dropped[start:]))
            # sorted like the rules
            assert res.post_pruned == sorted(
                res.post_pruned, key=lambda rm: (-rm[1].sc,
                                                 rm[0].sort_key()))
            pruned += res.p_oars
            specialized += res.i_oars
    assert specialized > 0
    assert (pruned > 0) == prune
    # so a wrong I-edge changes the rules compared above
    assert any(dropped) == post


def test_learn_builds_only_the_rules_it_visits(monkeypatch):
    built, visited, kept = [], [], []
    walk, bfs = miner_mod.walk_rule, miner_mod.bfs_with_pruning
    monkeypatch.setattr(miner_mod, "walk_rule",
                        lambda pred, key: built.append(key) or walk(pred, key))

    def traversal(trie, visit):
        kept.append(bfs(trie, lambda key: visited.append(key)
                        or visit(key)))
        return kept[-1]
    monkeypatch.setattr(miner_mod, "bfs_with_pruning", traversal)
    rng = random.Random(17)
    stores = [random_kg(rng, n_entities=14, n_relations=3, n_train=70,
                        n_valid=25) for _ in range(2)] + [hub_kg(rng)]
    unbuilt = 0
    for store in stores:
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            config = cfg(supp_f=1, supp_h=8)
            keys = generalization(store, rt, config)
            rules = [walk(rt, key) for key in keys]
            built.clear()
            visited.clear()
            res = learn(store, rt, config)
            # each visited rule is built once
            assert built == visited
            assert res.abstract_rules == len(rules)
            assert res.p_oars == sum(
                kind_of(r) == "OAR" for key, r in zip(keys, rules)
                if r.body and key not in kept[-1])
            unbuilt += len(keys) - len(visited)
    assert unbuilt > 0


def test_learn_accounts_for_every_oar():
    rng = random.Random(6)
    store = random_kg(rng, n_entities=14, n_relations=3, n_train=70)
    for supp_h in (0, 10):
        config = cfg(supp_h=supp_h)
        res = learn(store, 0, config)
        n_oars = sum(kind_of(r) == "OAR"
                     for r in walk_rules(store, 0, config) if r.body)
        assert res.p_oars + res.i_oars + res.u_oars == n_oars
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
            assert set(grounded) <= set(walk_rules(store, rt, cfg()))
            specialized += res.i_oars + res.u_oars
    assert specialized > 0


def test_learn_records_generalization_time():
    rng = random.Random(6)
    store = random_kg(rng, n_entities=20, n_relations=3, n_train=150)
    assert learn(store, 0, cfg()).gen_seconds > 0


def test_learn_self_loop_instance_walks_from_x():
    # walks from an instance (x, x) start at X; no grounding of x avoids
    # x, so the instance supports no mined rule
    store, (a, b, c) = selfloop_store()
    r = store.relations.get("r")
    rt_pairs = store.instances_of(r)
    assert {(a, a), (c, c)} < rt_pairs
    for max_len in (1, 2, 3):
        config = cfg(max_len=max_len)
        res = learn(store, r, config)
        rules, counts = learn_oracle(store, r, config)
        assert res.rules == rules and res.rules
        assert (res.p_oars, res.i_oars, res.u_oars) == counts
        rest = rt_pairs - {(a, a), (c, c)}
        assert all(evaluate(rule, store, rest, config).supp == m.supp
                   for rule, m in res.rules)


def test_learn_empty_target():
    store = toy_store()
    with pytest.raises(EmptyTargetError):
        learn(store, 99, cfg())


def test_learned_hierarchy():
    store = toy_store()
    rt = store.relations.get("Advises")
    results = learn_all(store, [rt], cfg())
    assert results[rt].i_oars > 0
    h = learned_hierarchy(store, results, cfg())
    assert R("Advises(X,Y) <-", store) in h.nodes
    kinds = {e.kind for e in h.edges}
    assert "A" in kinds and "I" in kinds
    assert edges_climb(h)


def test_learn_all_builds_no_hierarchy(monkeypatch):
    # mining builds no Hierarchy and runs no subsumption decider
    def forbidden(*a):
        raise AssertionError("learn built a hierarchy")
    for module, name in ((hierarchy_mod, "Hierarchy"),
                         (miner_mod, "build_a_hierarchy"),
                         (miner_mod, "build_i_hierarchy"),
                         (hierarchy_mod, "a_subsumes"),
                         (hierarchy_mod, "i_subsumes")):
        monkeypatch.setattr(module, name, forbidden)
    rng = random.Random(17)
    specialized = 0
    for store in [random_kg(rng, n_entities=14, n_relations=3, n_train=70,
                            n_valid=25), hub_kg(rng)]:
        for post in (True, False):
            results = learn_all(store, _targets(store),
                                cfg(supp_f=1, enable_post_pruning=post))
            specialized += sum(res.i_oars for res in results.values())
    assert specialized > 0


def test_learned_hierarchy_is_the_builders_over_what_learn_visits(
        monkeypatch):
    # the builders, run on the abstract rules and on each OAR's kept
    # specializations, find exactly the nodes and edges of
    # learned_hierarchy, which reads only the walk keys and each target's
    # mined and post-pruned rules
    specs_of = []   # per learn call, the specs of each specialized OAR
    specialize = miner_mod.specialization

    def recorded(*a, **kw):
        specs, flag = specialize(*a, **kw)
        specs_of[-1].append(specs)
        return specs, flag
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
                learned.append((store, rt, learn_all(store, [rt], config)))
    monkeypatch.undo()
    # prior pruning skips rules, and the hierarchy still holds every one
    assert sum(res[rt].p_oars for _, rt, res in learned) > 0
    kinds = Counter()
    for (store, rt, results), specs in zip(learned, specs_of):
        h = learned_hierarchy(store, results, config)
        oracle = union(build_a_hierarchy(walk_rules(store, rt, config)),
                       *(build_i_hierarchy([r for r, _ in s]) for s in specs))
        assert h.nodes == oracle.nodes
        assert h.edges == oracle.edges
        kinds.update(e.kind for e in oracle.edges)
    assert kinds[A_EDGE] > 0 and kinds[I_EDGE] > 0


# ---------------------------------------------------------------------------
# every target in one traversal

def _targets(store) -> list[int]:
    return [rt for rt in range(len(store.relations))
            if store.instances_of(rt)]


@pytest.mark.parametrize("prune", [True, False])   # supp_h 8, or 0
@pytest.mark.parametrize("post", [True, False])
def test_learn_all_gives_each_target_what_it_mines_alone(prune, post):
    rng = random.Random(29)
    stores = [random_kg(rng, n_entities=14, n_relations=4, n_train=90,
                        n_valid=25) for _ in range(3)] + [hub_kg(rng)]
    config = cfg(supp_f=1, supp_h=8 if prune else 0, overfit_threshold=0.1,
                 enable_post_pruning=post)
    pruned = specialized = dropped = 0
    for store in stores:
        targets = _targets(store)
        assert len(targets) >= 3
        together = learn_all(store, targets, config)
        assert list(together) == targets
        for rt in targets:
            res, alone = together[rt], learn(store, rt, config)
            rules, counts = learn_oracle(store, rt, config)
            assert res.rules == alone.rules == rules
            assert (res.p_oars, res.i_oars, res.u_oars) \
                == (alone.p_oars, alone.i_oars, alone.u_oars) == counts
            assert res.abstract_rules == alone.abstract_rules
            assert res.post_pruned == alone.post_pruned
            pruned += res.p_oars
            specialized += res.i_oars
            dropped += len(res.post_pruned)
    assert specialized > 0
    assert (pruned > 0) == prune
    assert (dropped > 0) == post


def test_learn_all_grounds_each_body_once(monkeypatch):
    grounded = Counter()   # open_groundings calls by body
    ground = miner_mod.open_groundings
    monkeypatch.setattr(miner_mod, "open_groundings",
                        lambda oar, *a: grounded.update([oar.body])
                        or ground(oar, *a))
    built = Counter()   # walk_rule calls by (target, key)
    walk = miner_mod.walk_rule
    monkeypatch.setattr(miner_mod, "walk_rule",
                        lambda pred, key: built.update([(pred, key)])
                        or walk(pred, key))
    maps = []   # the neighbour-position maps each generalization call got
    sample = miner_mod.generalization
    monkeypatch.setattr(miner_mod, "generalization",
                        lambda store, rt, config, where=None:
                        maps.append(where) or sample(store, rt, config,
                                                     where))
    rng = random.Random(31)
    shared = 0
    for store in (random_kg(rng, n_entities=14, n_relations=4, n_train=90),
                  hub_kg(rng)):
        targets = _targets(store)
        config = cfg(max_len=3, supp_h=6, walks_per_instance=2)
        grounded.clear()
        maps.clear()
        built.clear()
        learn_all(store, targets, config)
        once, together = Counter(grounded), Counter(built)
        assert once and max(once.values()) == 1
        # one map for the whole run
        assert len(maps) == len(targets) and maps[0] is not None
        assert all(where is maps[0] for where in maps)
        # the same bodies as mining the targets one at a time, where some
        # are grounded for several targets; and each target builds the
        # rules it reaches alone, those whose parent it kept
        grounded.clear()
        built.clear()
        for rt in targets:
            learn(store, rt, config)
        assert set(grounded) == set(once)
        assert built == together
        shared += sum(grounded.values()) - len(once)
        # a run-wide map gives the same walk keys as a fresh one per target
        where: dict = {}
        for rt in targets:
            assert sample(store, rt, config, where) \
                == sample(store, rt, config)
        assert where
    assert shared > 0


def test_learn_all_builds_each_body_map_entry_once(monkeypatch):
    # targets that reach one OAR specialize it from one index: each per-x
    # and per-tail entry is built on its first read, and every later read,
    # by the same target or another, gets that object
    entries: dict = {}   # (index id, map, args) -> (entry, reading targets)
    bodies = []   # keeps every index alive, so no id is reused
    reader = [None]
    spec = miner_mod.specialization

    def specialize(oar, body, *args, **kw):
        reader[0] = oar.head.pred   # the target
        bodies.append(body)
        return spec(oar, body, *args, **kw)
    monkeypatch.setattr(miner_mod, "specialization", specialize)
    for name in ("common_split", "common_count"):
        def read(self, *args, name=name, build=getattr(BodyIndex, name)):
            got = build(self, *args)
            first, targets = entries.setdefault((id(self), name, args),
                                                (got, set()))
            assert got is first
            targets.add(reader[0])
            return got
        monkeypatch.setattr(BodyIndex, name, read)
    rng = random.Random(29)
    config = cfg(supp_f=1, overfit_threshold=0.1)
    shared = Counter()   # entries read by several targets, per map
    for store in (random_kg(rng, n_entities=14, n_relations=4, n_train=90,
                            n_valid=25), hub_kg(rng)):
        targets = _targets(store)
        assert len(targets) >= 3
        entries.clear()
        together = learn_all(store, targets, config)
        for (_, name, _), (_, readers) in entries.items():
            if len(readers) >= 2:
                shared[name] += 1
            shared[name, "most"] = max(shared[name, "most"], len(readers))
        for rt in targets:
            assert together[rt].rules == learn(store, rt, config).rules
    assert shared["common_split"] and shared["common_count"], shared
    assert min(shared["common_split", "most"],
               shared["common_count", "most"]) >= 3, shared


def test_learn_all_splits_its_wall_time_over_the_targets(monkeypatch):
    ticks: list[float] = []

    class Clock:   # a clock that moves one second per reading
        @staticmethod
        def monotonic() -> float:
            ticks.append(float(len(ticks)))
            return ticks[-1]
    monkeypatch.setattr(miner_mod, "time", Clock)
    store = random_kg(random.Random(6), n_entities=14, n_relations=3,
                      n_train=70)
    targets = _targets(store)
    results = learn_all(store, targets, cfg())
    assert sum(r.gen_seconds + r.spec_seconds for r in results.values()) \
        == ticks[-1] - ticks[0]
    assert all(r.gen_seconds > 0 and r.spec_seconds > 0
               for r in results.values())


def test_learn_all_rejects_a_repeated_or_empty_target():
    store = toy_store()
    rt = store.relations.get("Advises")
    assert learn_all(store, [], cfg()) == {}
    with pytest.raises(ValueError, match="twice"):
        learn_all(store, [rt, rt], cfg())
    with pytest.raises(EmptyTargetError):
        learn_all(store, [rt, 99], cfg())


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


def test_rule_file_opening_with_a_byte_order_mark_reads_the_same(tmp_path):
    store = toy_store()
    rules = learn(store, store.relations.get("Advises"), cfg()).rules
    path = tmp_path / "rules.txt"
    write_rules(path, rules, store.entities, store.relations)
    want = read_rules(path, store.entities, store.relations)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    got = read_rules(path, store.entities, store.relations)
    assert [r for r, _ in got] == [r for r, _ in want] == [r for r, _ in rules]
    assert [m for _, m in got] == [m for _, m in want]


# names a real dataset may use that do not read back bare (a constant named
# like a variable or a skolem, grammar characters, padding, a quote, a line
# break), and a pool name that does
AWKWARD = ["Paris_(band)", "Washington,_D.C.", "X", "Y", "V0", "sk0",
           "V12", " padded ", "say \"hi\"", "a <- b", "x | y", "",
           "two\nlines", "back\\slash", "\"", "e0"]


def _anchored_rules(names: list[str], rel_names: list[str]):
    """A store interning the names, and a HAR and a BAR per pair of them."""
    store = TripleStore()
    ids = [store.entities.intern(n) for n in names]
    p, q, r = (store.relations.intern(n) for n in rel_names)
    rules = []
    for c, t in zip(ids, ids[1:] + ids[:1]):
        head = Atom(r, VAR_X, Term(False, c))
        rules.append(Rule(head, (Atom(p, VAR_X, Term(True, 2)),)))
        if t != c:
            rules.append(Rule(head, (Atom(p, VAR_X, Term(True, 2)),
                                     Atom(q, Term(True, 2), Term(False, t)))))
    return store, rules


def _round_trip(path, store, rules):
    items = [(rule, Measures(i, i / 7, i / 9)) for i, rule in enumerate(rules)]
    write_rules(path, items, store.entities, store.relations)
    back = read_rules(path, store.entities, store.relations)
    assert [(r, (m.supp, m.hc, m.sc)) for r, m in back] == \
        [(r, (m.supp, m.hc, m.sc)) for r, m in items]


def test_rule_file_round_trips_awkward_names(tmp_path):
    store, rules = _anchored_rules(
        AWKWARD, ["born_in", "located,_in", "nationality (of)"])
    _round_trip(tmp_path / "rules.txt", store, rules)
    # a name that reads back bare keeps its bytes
    text = (tmp_path / "rules.txt").read_text(encoding="utf-8")
    assert "born_in(X,V0), " in text and ",e0) <- " in text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(), min_size=2, max_size=4, unique=True),
       st.lists(st.text(), min_size=3, max_size=3, unique=True))
def test_rule_file_round_trips_any_names(names, rel_names):
    store, rules = _anchored_rules(names, rel_names)
    with tempfile.TemporaryDirectory() as tmp:
        _round_trip(Path(tmp) / "rules.txt", store, rules)


def _written_kinds(path, rules) -> list[str]:
    """The kind column `write_rules` writes for `rules`, over a store
    whose entities 0-2 and relations 0-1 are e0-e2 and r0-r1."""
    store = TripleStore()
    for i in range(3):
        store.entities.intern(f"e{i}")
    for i in range(2):
        store.relations.intern(f"r{i}")
    write_rules(path, [(r, Measures()) for r in rules], store.entities,
                store.relations)
    return [line.rsplit(" | kind=", 1)[1]
            for line in path.read_text().splitlines()]


def test_rule_file_kind_is_the_rules_kind(tmp_path):
    # write_rules classifies each body once per head shape; a head constant
    # the body holds or not, a one-atom body (whose dangling term reads the
    # head) and a constant subject each change the kind over one body
    x, y, v, a, b = VAR_X, VAR_Y, Term(True, 2), Term(False, 0), \
        Term(False, 1)
    chain = (Atom(0, x, v), Atom(1, v, a))
    one = (Atom(0, x, a),)
    rules = [Rule(Atom(1, x, a), chain), Rule(Atom(1, x, b), chain),
             Rule(Atom(1, a, y), chain), Rule(Atom(1, x, y), chain),
             Rule(Atom(1, x, a), one), Rule(Atom(1, x, b), one),
             Rule(Atom(1, b, a), one), Rule(Atom(1, x, y), one),
             Rule(Atom(1, x, b), (Atom(0, v, a),)),
             Rule(Atom(1, x, b), (Atom(0, a, v),))]
    kinds = _written_kinds(tmp_path / "rules.txt", rules)
    assert kinds == [kind_of(r) for r in rules]
    assert kinds == ["HAR", "BAR", "INSR", "INSR", "HAR", "BAR", "INSR",
                     "INSR", "BAR", "INSR"]


_KIND_TERMS = [VAR_X, VAR_Y, Term(True, 2), Term(True, 3), Term(False, 0),
               Term(False, 1), Term(False, 2)]
_KIND_ATOMS = st.builds(Atom, st.integers(0, 1), st.sampled_from(_KIND_TERMS),
                        st.sampled_from(_KIND_TERMS))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_KIND_ATOMS, max_size=3), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), _KIND_ATOMS), min_size=1,
                max_size=12))
def test_rule_file_kind_is_the_kind_of_any_rule(bodies, heads):
    # arbitrary rules, several over each body, under arbitrary heads
    rules = [Rule(head, tuple(bodies[i % len(bodies)])) for i, head in heads]
    with tempfile.TemporaryDirectory() as tmp:
        assert _written_kinds(Path(tmp) / "rules.txt", rules) \
            == [kind_of(r) for r in rules]


GOOD_LINE = ("Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | "
             "kind=HAR")


@pytest.mark.parametrize("bad", [
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | kind=HAR | x=1",
    "Advises(X,bob) <- Is_A(X,V0) | supp=3.5 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=high | kind=HAR",
    "Advises(X,bob) <- Knows(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25",
    # a bad head, an unknown predicate or constant in the head, and a
    # head with no "<-", each beside the body of line 1, parsed before
    "Advises(X,bob <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Knows(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,carol) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) | supp=2 | hc=0.5 | sc=0.25 | kind=HAR",
    # not UTF-8: the byte 0xff
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=\udcff",
    # layouts write_rules never writes: reordered columns, a repeated one,
    # an unknown one in place of kind, a missing or unknown kind
    "Advises(X,bob) <- Is_A(X,V0) | hc=0.5 | supp=2 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | sc=0.9",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | note=x",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=0.25 | kind=XAR",
    # values write_rules never writes: supp not in ASCII digits, hc or sc
    # not finite or negative
    "Advises(X,bob) <- Is_A(X,V0) | supp= 2 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=1_000 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=-3 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=\u0663 | hc=0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=nan | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=inf | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=-0.5 | sc=0.25 | kind=HAR",
    "Advises(X,bob) <- Is_A(X,V0) | supp=2 | hc=0.5 | sc=1e+999 | kind=HAR",
])
def test_read_rules_names_the_file_and_line_of_a_malformed_line(tmp_path,
                                                                  bad):
    store = toy_store()
    path = tmp_path / "rules.txt"
    path.write_bytes(f"{GOOD_LINE}\n\n{bad}\n{GOOD_LINE}\n".encode(
        "utf-8", "surrogateescape"))
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


def test_read_rules_shares_a_body_only_where_parsing_agrees(tmp_path):
    # read_rules parses a body text once and puts later heads over it;
    # each line must still read back as parse_rule reads it alone: a body
    # written with other variable numbers, a head holding a body variable
    # after the body was read under a plain head and before, and bodies
    # of quoted names, the same placeholder in a careless memo
    store = toy_store()
    for name in ("V0", "Paris_(band)"):
        store.entities.intern(name)
    texts = ["Advises(X,bob) <- Publishes(X,V3), Is_A(V3,V1)",
             "Advises(X,Y) <- Publishes(X,V3), Is_A(V3,V1)",
             "Advises(V1,bob) <- Publishes(X,V3), Is_A(V3,V1)",
             "Advises(X,paper) <- Publishes(X,V3), Is_A(V3,V1)",
             "Advises(V0,Y) <- Publishes(X,V1), Is_A(V1,V0)",
             "Advises(X,Y) <- Publishes(X,V1), Is_A(V1,V0)",
             "Advises(V0,bob) <- Publishes(X,V1), Is_A(V1,V0)",
             'Advises(X,"V0") <- Publishes(X,"V0")',
             'Advises(X,bob) <- Publishes(X,"V0")',
             'Advises(X,bob) <- Publishes(X,"Paris_(band)")',
             'Advises(X,"Paris_(band)") <- Publishes(X,"V0")',
             'Advises(X,paper) <- Publishes(X,"V0")',
             'Advises(X,paper) <- Publishes(X,"Paris_(band)")',
             "Advises(X,bob) <-",
             "Advises(X,paper) <-"]
    path = tmp_path / "rules.txt"
    path.write_text("".join(f"{t} | supp=1 | hc=0.5 | sc=0.25 | kind=HAR\n"
                            for t in texts), encoding="utf-8")
    back = [r for r, _ in read_rules(path, store.entities, store.relations)]
    alone = [parse_rule(t, store.entities, store.relations, intern=False)
             for t in texts]
    assert back == alone
    assert [r.atoms for r in back] == [r.atoms for r in alone]
    assert back[2].body != back[0].body and back[6].body != back[5].body
    assert back[3].body is back[0].body and back[12].body is back[9].body
    # a line with no "<-" is no head over the empty body read before it
    path.write_text("".join(f"{t} | supp=1 | hc=0.5 | sc=0.25 | kind=HAR\n"
                            for t in ("Advises(X,bob) <-", "Advises(X,paper)")),
                    encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: "
                                         f"missing '<-'"):
        read_rules(path, store.entities, store.relations)


# the line layout as one full-line pattern with a greedy rule part: the
# oracle of the tests below, which read each line alone, with no memo
_FLOAT = r"[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
_LINE_RE = re.compile(
    rf"(.*) \| supp=([0-9]+) \| hc=({_FLOAT}) \| sc=({_FLOAT}) \| "
    r"kind=(?:CAR|OAR|HAR|BAR|INSR|OPEN)")


def _read_alone(path, store) -> list:
    """`read_rules` of `path`, each line matched and parsed on its own."""
    out = []
    for lineno, raw in enumerate(path.read_bytes().split(b"\n")[:-1],
                                 start=1):
        line = decode_line(raw, path, lineno)
        if not line:
            continue
        m = _LINE_RE.fullmatch(line)
        try:
            if m is None or float("inf") in (float(m[3]), float(m[4])):
                raise ParseError("bad columns")
            out.append((parse_rule(m[1], store.entities, store.relations,
                                   intern=False),
                        Measures(int(m[2]), float(m[3]), float(m[4]))))
        except ParseError:
            return [lineno]
    return out


def _read_with_memos(path, store) -> list:
    """`read_rules` of `path`, or [n] if it raises naming line n."""
    try:
        return read_rules(path, store.entities, store.relations)
    except ParseError as e:
        m = re.match(rf"{re.escape(str(path))}:([0-9]+): ", str(e))
        assert m, str(e)
        return [int(m[1])]


# column texts, the part after " | supp=": good ones, among them two that
# differ only in kind, and bad ones, one of them a good one with a kind
# appended and one with an exponent past a float's range
_COLUMNS = ["2 | hc=0.5 | sc=0.25 | kind=HAR",
            "2 | hc=0.5 | sc=0.25 | kind=BAR",
            "12 | hc=1e-05 | sc=0.3333333333333333 | kind=BAR",
            "0 | hc=0.0 | sc=0.0 | kind=CAR",
            "2 | hc=0.5 | sc=0.25 | kind=HARBAR",
            "2 | hc=0.5 | sc=1e+999 | kind=HAR",
            "2 | sc=0.5 | hc=0.25 | kind=HAR"]
# entity names that hold the column separator, and so make a rule text
# that holds " | supp="
_COLUMN_NAMES = [f"a | supp={c}" for c in _COLUMNS[:2]] + ["b | supp=",
                                                           " | supp=3"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(), st.sampled_from(_COLUMN_NAMES)),
                min_size=2, max_size=4, unique=True),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 99)),
                min_size=1, max_size=24))
def test_read_rules_equals_reading_each_line_alone(names, lines):
    # random files whose lines repeat column texts and rule texts: the
    # reader's column, atom and body memos must give what one line read
    # alone gives, and a bad line must be named as the first bad one
    store, rules = _anchored_rules(names, ["p", "q", "r"])
    texts = [format_rule(r, store.entities, store.relations) for r in rules]
    good = len(_COLUMNS) - 3
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rules.txt"
        # mostly good columns, so that most files read to their end
        path.write_text("".join(
            f"{texts[t % len(texts)]} | supp="
            f"{_COLUMNS[c % good if c < 90 else c % len(_COLUMNS)]}\n"
            for t, c in lines), encoding="utf-8")
        got, want = _read_with_memos(path, store), _read_alone(path, store)
    assert got == want
    assert [rm[0].atoms for rm in got if isinstance(rm, tuple)] == \
        [rm[0].atoms for rm in want if isinstance(rm, tuple)]


def test_read_rules_names_a_bad_line_after_an_identical_good_column(
        tmp_path):
    # the column memo must not let a line past what its own text holds: a
    # bad column, a bad rule text or a non-UTF-8 byte, each after lines
    # whose column text is the same good one or starts with it
    store = toy_store()
    path = tmp_path / "rules.txt"
    good = GOOD_LINE.encode()
    for bad in (good + b" | kind=HAR",
                good.replace(b"kind=HAR", b"kind=HAR "),
                good.replace(b"Is_A", b"Knows"),
                good.replace(b"Is_A", b"Is_\xff"),
                good.replace(b"kind=HAR", b"kind=HA\xff")):
        path.write_bytes(b"\n".join([good, good, bad, good]) + b"\n")
        with pytest.raises(ParseError,
                           match=f"^{re.escape(str(path))}:3: "):
            read_rules(path, store.entities, store.relations)


def test_read_rules_reads_columns_that_differ_only_in_kind(tmp_path):
    store = toy_store()
    path = tmp_path / "rules.txt"
    path.write_text(f"{GOOD_LINE}\n{GOOD_LINE[:-3]}BAR\n{GOOD_LINE}\n",
                    encoding="utf-8")
    back = read_rules(path, store.entities, store.relations)
    assert [(m.supp, m.hc, m.sc) for _, m in back] == [(2, 0.5, 0.25)] * 3
    assert len({r for r, _ in back}) == 1
    # each line gets its own Measures, though their column text is one
    assert len({id(m) for _, m in back}) == 3


def test_rule_file_with_crlf_line_ends_reads_the_same(tmp_path):
    store = toy_store()
    rules = learn(store, store.relations.get("Advises"), cfg()).rules
    path = tmp_path / "rules.txt"
    write_rules(path, rules, store.entities, store.relations)
    want = read_rules(path, store.entities, store.relations)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    got = read_rules(path, store.entities, store.relations)
    assert got == want and [r for r, _ in got] == [r for r, _ in rules]
    assert [r.atoms for r, _ in got] == [r.atoms for r, _ in want]
