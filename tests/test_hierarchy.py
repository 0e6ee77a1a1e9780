import random
import re

from rulehier import hierarchy
from rulehier.hierarchy import (A_EDGE, Hierarchy, I_EDGE, SubsumptionEdge,
                                bfs_with_pruning, build_a_hierarchy,
                                build_i_hierarchy, union, write_dot)
from rulehier.kgstore import Interner
from rulehier.miner import MinerConfig, is_relevant, open_groundings
from rulehier.rules import Rule, format_rule, kind_of, parse_rule
from rulehier.subsumption import a_subsumes, i_subsumes, sa_subsumes

from helpers import (R, edge_pairs, edges_climb, generalization_closure,
                     is_proper, random_kg, random_rule, specialize, toy_store,
                     walk_rules, zero_thresholds)


def _family():
    store = toy_store()
    p4 = R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store)
    p7 = R("Advises(X,Y) <-", store)
    p8 = R("Advises(X,Y) <- Publishes(X,V0)", store)
    return store, p4, p7, p8


def test_a_hierarchy_skips_transitive_pair():
    _, p4, p7, p8 = _family()
    h = build_a_hierarchy([p4, p7, p8])
    assert edge_pairs(h) == {(p7, p8), (p8, p4)}
    assert all(e.kind == A_EDGE for e in h.edges)
    assert h.roots == [p7]
    assert h.children(p7) == [p8]
    assert h.parents(p4) == [p8]
    # without p8, p7 -> p4 is still no single addition step
    assert build_a_hierarchy([p4, p7]).edges == set()


def test_a_hierarchy_without_top_rule_leaves_orphans():
    _, p4, _, p8 = _family()
    h = build_a_hierarchy([p4, p8])
    assert edge_pairs(h) == {(p8, p4)}
    assert p8 in h.roots


def test_i_hierarchy_har_to_bar():
    store = toy_store()
    har = R("Advises(X,bob) <- Is_A(X,V0)", store)
    bar = R("Advises(X,bob) <- Is_A(X,professor)", store)
    other_bar = R("Advises(X,alice) <- Is_A(X,professor)", store)
    h = build_i_hierarchy([har, bar, other_bar])
    assert edge_pairs(h) == {(har, bar)}
    assert next(iter(h.edges)).kind == I_EDGE


def test_union_merges_nodes_edges_and_orphans():
    _, p4, p7, p8 = _family()
    store = toy_store()
    har = R("Advises(X,bob) <- Publishes(X,V0)", store)
    bar = R("Advises(X,bob) <- Publishes(X,paper)", store)
    ha = build_a_hierarchy([p4, p7, p8])
    hi = build_i_hierarchy([har, bar])
    u = union(ha, hi)
    assert u.nodes == {p4, p7, p8, har, bar}
    assert edge_pairs(u) == {(p7, p8), (p8, p4), (har, bar)}


def test_is_proper_detects_redundant_edge():
    _, p4, p7, p8 = _family()
    good = build_a_hierarchy([p4, p7, p8])
    assert is_proper(good, sa_subsumes)
    bad = Hierarchy({p4, p7, p8},
                    good.edges | {SubsumptionEdge(p7, p4, A_EDGE)})
    assert not is_proper(bad, sa_subsumes)


def test_is_proper_on_random_closed_sets():
    rng = random.Random(11)
    for _ in range(25):
        seeds = [random_rule(rng, max_len=3) for _ in range(3)]
        closed = generalization_closure(seeds, limit=50)
        if closed is None:
            continue
        h = union(build_a_hierarchy(closed),
                  build_i_hierarchy(closed))
        assert is_proper(h, sa_subsumes)
        assert edges_climb(h)


# ---------------------------------------------------------------------------
# the builders decide exactly the single-step relations

def _rule_sets():
    """Closed sets, non-closed random sets, and mined abstract rules and
    relevant specialization sets."""
    rng = random.Random(3)
    for _ in range(40):
        seeds = [random_rule(rng, max_len=3) for _ in range(3)]
        closed = generalization_closure(seeds, limit=60)
        if closed is not None:
            yield closed
    for _ in range(20):
        yield {random_rule(rng, max_len=3) for _ in range(40)}
    cfg = MinerConfig(max_len=3, supp_f=1, hc_f=0.0, sc_f=0.0,
                      overfit_threshold=0.0, walks_per_instance=4)
    for _ in range(2):
        store = random_kg(rng, n_entities=12, n_relations=3, n_train=50,
                          n_valid=20)
        for rt in range(3):
            rt_pairs = store.instances_of(rt)
            if not rt_pairs:
                continue
            abstract = walk_rules(store, rt, cfg)
            yield abstract
            for oar in abstract:
                if oar.body and kind_of(oar) == "OAR":
                    specs, _ = specialize(
                        oar, open_groundings(oar, store), rt_pairs,
                        store.instances_of(rt, "valid"),
                        zero_thresholds(cfg))
                    yield [r for r, m in specs if is_relevant(m, cfg)]


def test_builders_equal_the_deciders_and_test_only_the_parents_shape(
        monkeypatch):
    def shape(rule):
        return [(a.pred, *(None if t.is_var else t.idx for t in a.terms))
                for a in rule.atoms]

    def lifted(q, c):
        return [tuple(None if x == c and i else x for i, x in enumerate(a))
                for a in q]

    def spy(decider, fits):
        def check(p, q):
            assert fits(shape(p), shape(q)), (p, q)
            calls[decider] += 1
            return decider(p, q)
        return check

    calls = {a_subsumes: 0, i_subsumes: 0}
    # an A-parent has the child's predicates and constant positions minus
    # the last atom; an I-parent has them with one constant lifted
    monkeypatch.setattr(hierarchy, "a_subsumes", spy(
        a_subsumes, lambda p, q: p == q[:-1]))
    monkeypatch.setattr(hierarchy, "i_subsumes", spy(
        i_subsumes, lambda p, q: any(p == lifted(q, c) for _, *ts in q
                                     for c in ts if c is not None)))
    n_sets = n_edges = n_pairs = 0
    for rules in _rule_sets():
        rules = set(rules)
        for build, decider in ((build_a_hierarchy, a_subsumes),
                               (build_i_hierarchy, i_subsumes)):
            want = {(p, q) for p in rules for q in rules if decider(p, q)}
            assert edge_pairs(build(rules)) == want
            n_edges += len(want)
        n_sets += 1
        n_pairs += 2 * len(rules) ** 2
    assert n_sets > 50 and n_edges > 1000
    assert 0 < calls[a_subsumes] and 0 < calls[i_subsumes]
    assert calls[a_subsumes] + calls[i_subsumes] < n_pairs / 20


def test_builders_find_every_parent_of_one_shape():
    # alpha-variants: the fresh head variable V0 takes X's place
    ents, rels = Interner(), Interner()
    child = parse_rule("rt(X,Y) <- b(X,V0), c(V0,V1)", ents, rels)
    a_parents = {parse_rule("rt(V0,Y) <- b(V0,V1)", ents, rels),
                 parse_rule("rt(X,Y) <- b(X,V0)", ents, rels)}
    assert edge_pairs(build_a_hierarchy(a_parents | {child})) == \
        {(p, child) for p in a_parents}
    bar = parse_rule("rt(X,e) <- b(X,V0)", ents, rels)
    i_parents = {parse_rule("rt(X,V1) <- b(X,V0)", ents, rels),
                 parse_rule("rt(X,Y) <- b(X,V0)", ents, rels)}
    assert edge_pairs(build_i_hierarchy(i_parents | {bar})) == \
        {(p, bar) for p in i_parents}


# ---------------------------------------------------------------------------
# traversal

def _chain(suppmap):
    """Hierarchy a -> b -> c with an external support lookup."""
    ents, rels = Interner(), Interner()
    a = parse_rule("rt(X,Y) <-", ents, rels)
    b = parse_rule("rt(X,Y) <- r0(X,V0)", ents, rels)
    c = parse_rule("rt(X,Y) <- r0(X,V0), r1(V0,V1)", ents, rels)
    h = Hierarchy({a, b, c}, {SubsumptionEdge(a, b, A_EDGE),
                              SubsumptionEdge(b, c, A_EDGE)})
    supp = dict(zip((a, b, c), suppmap))
    return h, (a, b, c), supp


def test_bfs_pruning_cuts_subtree_below_failing_node():
    # supports 10 -> 4 -> 7 with threshold 5: the middle rule fails, so the
    # deeper rule is never visited even though its own support passes
    h, (a, b, c), supp = _chain((10, 4, 7))
    visited = []

    def visit(rule):
        visited.append(rule)
        return supp[rule] >= 5

    assert bfs_with_pruning(h, visit) == {a}
    assert visited == [a, b]


def test_bfs_diamond_visits_node_with_one_kept_parent():
    ents, rels = Interner(), Interner()
    top = parse_rule("rt(X,Y) <-", ents, rels)
    a = parse_rule("rt(X,Y) <- r0(X,V0)", ents, rels)
    b = parse_rule("rt(X,Y) <- r1(X,V0)", ents, rels)
    c = parse_rule("rt(X,Y) <- r0(X,V0), r1(V0,V1)", ents, rels)
    edges = {SubsumptionEdge(top, a, A_EDGE), SubsumptionEdge(top, b, A_EDGE),
             SubsumptionEdge(a, c, A_EDGE), SubsumptionEdge(b, c, A_EDGE)}
    h = Hierarchy({top, a, b, c}, edges)
    visited = []

    def keep_only(kept):
        def visit(rule):
            visited.append(rule)
            return rule in kept
        return visit

    # one parent kept is enough, and c is visited exactly once
    visited.clear()
    assert c in bfs_with_pruning(h, keep_only({top, a, c}))
    assert visited.count(c) == 1
    # both parents pruned: c never visited
    visited.clear()
    assert bfs_with_pruning(h, keep_only({top, c})) == {top}
    assert c not in visited


def test_write_dot_styles(tmp_path):
    store, p4, p7, p8 = _family()
    har = R("Advises(X,bob) <- Publishes(X,V0)", store)
    bar = R("Advises(X,bob) <- Publishes(X,paper)", store)
    h = union(build_a_hierarchy([p4, p7, p8]),
              build_i_hierarchy([har, bar]))
    out = tmp_path / "h.dot"
    write_dot(h, out, lambda r: format_rule(r, store.entities,
                                            store.relations))
    text = out.read_text()
    assert text.startswith("digraph")
    assert "style=solid" in text
    assert "style=dashed" in text
    assert "Advises(X,Y)" in text


def test_write_dot_labels_hold_the_rule_text(tmp_path):
    # a quoted name's own quotes and backslashes survive DOT's escaping
    store = toy_store()
    rules = [R('Advises(X,"say \\"hi\\"") <- Publishes(X,V0)', store),
             R('Advises(X,"back\\\\slash") <- Publishes(X,V0)', store),
             R("Advises(X,Y) <- Publishes(X,V0)", store)]
    h = build_i_hierarchy(rules)
    out = tmp_path / "h.dot"
    write_dot(h, out, lambda r: format_rule(r, store.entities,
                                            store.relations))
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)"', out.read_text())
    assert sorted(re.sub(r"\\(.)", r"\1", t) for t in labels) == sorted(
        format_rule(r, store.entities, store.relations) for r in rules)
