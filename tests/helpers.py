"""Shared generators and fixtures for the test suite.

The random-rule generator produces connected, straight chain rules over a
small vocabulary (5 predicates, 6 constants, body length 0-4), matching the
corpus the property suites run on. The random-KG generator produces small
dense graphs where mining finds a non-trivial mix of rule kinds. The
hierarchy oracles check properness and the edge invariant that keeps the
builders' hierarchies acyclic.
"""

from __future__ import annotations

import random
from typing import Callable

import networkx as nx

from rulehier.hierarchy import Hierarchy
from rulehier.kgstore import TripleStore
from rulehier.rules import (Atom, Rule, Term, VAR_X, VAR_Y, body_length, const,
                            constants, deduction_level, is_connected,
                            is_straight, parse_rule, var)

N_PREDS = 5
N_CONSTS = 6

TOY_TRIPLES = [
    ("alice", "Advises", "bob"),
    ("alice", "Publishes", "paper"),
    ("bob", "Publishes", "paper"),
    ("alice", "Is_A", "professor"),
    ("bob", "Is_A", "student"),
]


def toy_store() -> TripleStore:
    """The five-triple academic example graph (train split only)."""
    store = TripleStore()
    for head, rel, tail in TOY_TRIPLES:
        store.add_triple(store.relations.intern(rel),
                         store.entities.intern(head),
                         store.entities.intern(tail), "train")
    return store


def R(text: str, store_or_interners) -> Rule:
    """Parse rule text against a store's (or an (ent, rel) pair's) interners."""
    if isinstance(store_or_interners, TripleStore):
        ents, rels = store_or_interners.entities, store_or_interners.relations
    else:
        ents, rels = store_or_interners
    return parse_rule(text, ents, rels, intern=True)


# ---------------------------------------------------------------------------
# random connected straight rules

def _try_rule(rng: random.Random, max_len: int) -> Rule | None:
    hs = VAR_X if rng.random() < 0.85 else const(rng.randrange(N_CONSTS))
    ho = VAR_Y if rng.random() < 0.75 else const(rng.randrange(N_CONSTS))
    if hs == ho:
        return None
    head = Atom(rng.randrange(N_PREDS), hs, ho)
    n = rng.randint(0, max_len)
    if n == 0:
        return Rule(head)
    counts = {hs: 1, ho: 1}
    used_consts = {t.idx for t in (hs, ho) if not t.is_var}
    cur = hs if rng.random() < 0.6 else ho
    other = ho if cur is hs else hs
    fresh = 0
    body = []
    for i in range(n):
        choices = ["var", "var", "const"]
        if i == n - 1 and counts.get(other, 0) == 1:
            choices.append("close")
        avail = [c for c in range(N_CONSTS) if c not in used_consts]
        kind = rng.choice(choices)
        if kind == "close":
            new = other
        elif kind == "const" and avail:
            new = const(rng.choice(avail))
            used_consts.add(new.idx)
        else:
            new = var(fresh)
            fresh += 1
        pred = rng.randrange(N_PREDS)
        atom = Atom(pred, cur, new) if rng.random() < 0.5 \
            else Atom(pred, new, cur)
        body.append(atom)
        counts[cur] = counts.get(cur, 0) + 1
        counts[new] = counts.get(new, 0) + 1
        if counts[cur] > 2 or counts[new] > 2:
            return None
        if counts[new] >= 2 and i < n - 1:
            break  # chain would have to revisit a saturated term
        cur = new
    return Rule(head, tuple(body))


def random_rule(rng: random.Random, max_len: int = 4) -> Rule:
    while True:
        rule = _try_rule(rng, max_len)
        if rule is not None and is_straight(rule) and is_connected(rule):
            return rule


def normalize_head_vars(rule: Rule) -> Rule:
    """Rename a fresh variable in a head slot to X / Y when unambiguous.

    De-instantiating a head constant leaves a fresh variable where the
    reserved head variable would normally sit; the result is an
    alpha-variant of the X/Y-headed rule and would otherwise create
    two-cycles in the subsumption relation over closed rule sets.
    """
    used = {t for a in rule.atoms for t in a.terms}
    ren = {}
    if rule.head.subj.is_var and rule.head.subj.idx >= 2 and VAR_X not in used:
        ren[rule.head.subj] = VAR_X
    if rule.head.obj.is_var and rule.head.obj.idx >= 2 and VAR_Y not in used:
        ren[rule.head.obj] = VAR_Y
    if not ren:
        return rule

    def sub(t: Term) -> Term:
        return ren.get(t, t)

    atoms = [Atom(a.pred, sub(a.subj), sub(a.obj)) for a in rule.atoms]
    return Rule(atoms[0], tuple(atoms[1:]))


def random_generalization(rng: random.Random, q: Rule) -> Rule:
    """A rule guaranteed to SA-subsume q: prefix cut plus de-instantiation."""
    keep = rng.randint(0, len(q.body))
    cand = Rule(q.head, q.body[:keep])
    mapping: dict[int, Term] = {}
    nxt = 100
    for c in sorted(constants(cand)):
        if rng.random() < 0.5:
            mapping[c] = Term(True, nxt)
            nxt += 1
    if not mapping:
        return cand

    def sub(t: Term) -> Term:
        if not t.is_var and t.idx in mapping:
            return mapping[t.idx]
        return t

    atoms = [Atom(a.pred, sub(a.subj), sub(a.obj)) for a in cand.atoms]
    return normalize_head_vars(Rule(atoms[0], tuple(atoms[1:])))


def deinstantiate(rule: Rule, c: int) -> Rule:
    """Replace every occurrence of constant c with one fresh variable."""
    fresh = Term(True, 1000)

    def sub(t: Term) -> Term:
        return fresh if (not t.is_var and t.idx == c) else t

    atoms = [Atom(a.pred, sub(a.subj), sub(a.obj)) for a in rule.atoms]
    return normalize_head_vars(Rule(atoms[0], tuple(atoms[1:])))


def generalization_closure(seeds, limit: int = 0) -> set[Rule] | None:
    """Close a rule set under drop-last-atom and single de-instantiation.

    Returns None if the closure exceeds `limit` (when limit > 0).
    """
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        rule = stack.pop()
        parents = []
        if rule.body:
            parents.append(Rule(rule.head, rule.body[:-1]))
        for c in sorted(constants(rule)):
            parents.append(deinstantiate(rule, c))
        for p in parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
                if limit and len(seen) > limit:
                    return None
    return seen


# ---------------------------------------------------------------------------
# hierarchy oracles

def is_proper(h: Hierarchy, decider: Callable[[Rule, Rule], bool]) -> bool:
    """Edge set equals the transitive reduction of the decider relation."""
    nodes = sorted(h.nodes, key=Rule.sort_key)
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from((p, q) for p in nodes for q in nodes
                     if p != q and decider(p, q))
    if not nx.is_directed_acyclic_graph(g):
        return False
    return h.edge_pairs() == set(nx.transitive_reduction(g).edges())


def edges_climb(h: Hierarchy) -> bool:
    """Every edge strictly raises (body length, deduction level)."""
    def level(rule: Rule) -> tuple[int, int]:
        return body_length(rule), deduction_level(rule)
    return all(level(e.parent) < level(e.child) for e in h.edges)


# ---------------------------------------------------------------------------
# random knowledge graphs

def random_kg(rng: random.Random, n_entities: int = 20, n_relations: int = 4,
              n_train: int = 120, n_valid: int = 0,
              n_test: int = 0) -> TripleStore:
    store = TripleStore()
    for i in range(n_entities):
        store.entities.intern(f"e{i}")
    for i in range(n_relations):
        store.relations.intern(f"r{i}")
    seen = set()

    def fill(split: str, n: int) -> None:
        count, guard = 0, 0
        while count < n and guard < n * 50:
            guard += 1
            t = (rng.randrange(n_relations), rng.randrange(n_entities),
                 rng.randrange(n_entities))
            if t[1] == t[2] or t in seen:
                continue
            seen.add(t)
            store.add_triple(*t, split)
            count += 1

    fill("train", n_train)
    fill("valid", n_valid)
    fill("test", n_test)
    return store
