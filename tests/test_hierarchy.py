import random

from rulehier.hierarchy import (A_EDGE, Hierarchy, I_EDGE, ORPHAN_EDGE,
                                SubsumptionEdge, bfs_with_pruning,
                                build_a_hierarchy, build_i_hierarchy, union,
                                write_dot)
from rulehier.kgstore import Interner
from rulehier.rules import Rule, format_rule, parse_rule
from rulehier.subsumption import sa_subsumes

from helpers import (R, edges_climb, generalization_closure, is_proper,
                     random_rule, toy_store)


def _family():
    store = toy_store()
    p4 = R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store)
    p7 = R("Advises(X,Y) <-", store)
    p8 = R("Advises(X,Y) <- Publishes(X,V0)", store)
    return store, p4, p7, p8


def test_a_hierarchy_skips_transitive_pair():
    _, p4, p7, p8 = _family()
    h = build_a_hierarchy([p4, p7, p8])
    assert h.edge_pairs() == {(p7, p8), (p8, p4)}
    assert all(e.kind == A_EDGE for e in h.edges)
    assert h.roots == [p7]
    assert h.children(p7) == [p8]
    assert h.parents(p4) == [p8]
    assert h.orphan_count == 0


def test_a_hierarchy_attaches_orphans_to_top():
    _, p4, p7, _ = _family()
    # p8 was never sampled: p4 has no gap-one parent left
    h = build_a_hierarchy([p4, p7])
    assert h.orphan_count == 1
    assert h.edge_pairs() == {(p7, p4)}
    assert {e.kind for e in h.edges} == {ORPHAN_EDGE}
    assert h.roots == [p7]
    assert edges_climb(h)


def test_a_hierarchy_without_top_rule_leaves_orphans():
    _, p4, _, p8 = _family()
    h = build_a_hierarchy([p4, p8])
    assert h.edge_pairs() == {(p8, p4)}
    assert p8 in h.roots


def test_i_hierarchy_har_to_bar():
    store = toy_store()
    har = R("Advises(X,bob) <- Is_A(X,V0)", store)
    bar = R("Advises(X,bob) <- Is_A(X,professor)", store)
    other_bar = R("Advises(X,alice) <- Is_A(X,professor)", store)
    h = build_i_hierarchy([har, bar, other_bar])
    assert h.edge_pairs() == {(har, bar)}
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
    assert u.edge_pairs() == {(p7, p8), (p8, p4), (har, bar)}


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
        h = union(build_a_hierarchy(closed, attach_orphans=False),
                  build_i_hierarchy(closed))
        assert is_proper(h, sa_subsumes)
        assert edges_climb(h)


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
