"""Shared generators and fixtures for the test suite.

The random-rule generator produces connected, straight chain rules over a
small vocabulary (5 predicates, 6 constants, body length 0-4), matching the
corpus the property suites run on; `is_connected` and `deduction_level` are
the syntactic checks only the tests use. The random-KG generator produces
small dense graphs where mining finds a non-trivial mix of rule kinds. The
hierarchy oracles check properness and the edge invariant that keeps the
builders' hierarchies acyclic. The rule-application oracle grounds a rule
body once per (query, rule) pair, with the query's known entity bound, by
scanning every train fact. The grounding oracle is a recursive,
dict-yielding depth-first search over the body's atoms, a different
algorithm from `ground_body`'s nested-loop join that yields the same
groundings in the same order. The generalization oracle samples ground
walks as `Path`s and abstracts every prefix with `generalize`, one `Rule`
per prefix; its walk oracle filters every step's neighbours anew, the
first step included. The learn oracle runs `learn`'s steps as three
separate passes over public pieces: measure every abstract rule, prune,
then mine each survivor, specializing each OAR into every candidate (zero
thresholds) and filtering the candidates itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import networkx as nx

from rulehier.evaluator import Query, queries_for, rank
from rulehier.hierarchy import (Hierarchy, bfs_with_pruning,
                                build_a_hierarchy, build_i_hierarchy)
from rulehier.kgstore import TripleStore
from rulehier.miner import (EmptyTargetError, Measures, _by_anchor, _hits,
                            evaluate, generalization, is_relevant,
                            open_groundings, overfit_keep, post_pruning,
                            specialization)
from rulehier.rules import (X, Y, Atom, Rule, StraightnessError, Term, VAR_X,
                            VAR_Y, body_length, const, constants, is_straight,
                            kind_of, parse_rule, var, walk_rule)

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
# syntactic checks

def deduction_level(rule: Rule) -> int:
    """Number of distinct constants in the rule."""
    return len(constants(rule))


def is_connected(rule: Rule) -> bool:
    """Every body atom shares a term with its predecessor (head first)."""
    prev = set(rule.head.terms)
    for atom in rule.body:
        cur = set(atom.terms)
        if not prev & cur:
            return False
        prev = cur
    return True


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


def repeat_a_variable(rng: random.Random, rule: Rule) -> Rule:
    """`rule` with one variable renamed to another it has, so that a
    variable repeats, inside one atom or across atoms."""
    variables = sorted({t for a in rule.atoms for t in a.terms if t.is_var})
    if len(variables) < 2:
        return rule
    old, new = rng.sample(variables, 2)
    atoms = [Atom(a.pred, *(new if t == old else t for t in a.terms))
             for a in rule.atoms]
    return Rule(atoms[0], tuple(atoms[1:]))


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


def anchoring(oar: Rule, rule: Rule) -> dict[Term, int]:
    """The bindings under which `rule` anchors `oar`: each term of `oar`
    at a position where `rule` holds a constant, bound to that constant."""
    return {t: u.idx for a, b in zip(oar.atoms, rule.atoms)
            for t, u in zip(a.terms, b.terms) if not u.is_var}


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

def edge_pairs(h: Hierarchy) -> set[tuple[Rule, Rule]]:
    """A hierarchy's edges as (parent, child) pairs."""
    return {(e.parent, e.child) for e in h.edges}


def is_proper(h: Hierarchy, decider: Callable[[Rule, Rule], bool]) -> bool:
    """Edge set equals the transitive reduction of the decider relation."""
    nodes = sorted(h.nodes, key=Rule.sort_key)
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from((p, q) for p in nodes for q in nodes
                     if p != q and decider(p, q))
    if not nx.is_directed_acyclic_graph(g):
        return False
    return edge_pairs(h) == set(nx.transitive_reduction(g).edges())


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


# ---------------------------------------------------------------------------
# planted-rule graphs

HUB = "Washington,_D.C."
PLANTED_CAR = "r2(X,Y) <- r0(X,V0), r1(V0,Y)"
PLANTED_HAR = 'nat(X,"Washington,_D.C.") <- born(X,V0)'
# the BAR of the HAR's anchor that the HAR beats in sc
DOMINATED_BAR = 'nat(X,"Washington,_D.C.") <- born(X,"Paris_(band)")'


@dataclass
class PlantedKG:
    """A planted-rule graph and what its construction gives: the train
    support of each planted rule by its text, and the support of the open
    rule `nat(X,Y) <- rare(X,V0)` of the rare relation."""

    store: TripleStore
    supp: dict[str, int]
    rare_supp: int


def planted_kg(seed: int = 0) -> PlantedKG:
    """Four planted regularities among three noise relations, over
    YAGO-style names (`Paris_(band)`, `Washington,_D.C.`, `a b`, and people
    named `X`, `V0` and `sk0`):

    - a closed chain r2(X,Y) <- r0(X,V0), r1(V0,Y): 12 chains closed by
      r2 in train, 3 closed in test and 3 not closed;
    - a HAR nat(X,c) <- born(X,V0) on the hub c = `Washington,_D.C.`:
      34 people are born in train, 24 in `a b` and 10 in `Paris_(band)`.
      20 of those born in `a b` and 5 of those born in `Paris_(band)` have
      nationality c in train, the 4 other ones born in `a b` have it in
      test, and the other 5 have nationality `Ruritania`. The HAR has supp
      25 of 34 groundings;
    - so the BAR nat(X,c) <- born(X,"Paris_(band)"), supp 5 of 10
      groundings, has the lower sc at every eta >= 0, and post pruning
      drops it;
    - a rare relation: two people of nationality c have one rare fact
      each, so nat(X,Y) <- rare(X,V0) has supp 2.

    The noise relations n0, n1 and n2 hold 60 random train facts
    over the people and 20 noise entities (seeded by `seed`); they touch
    no planted relation, so no planted support depends on them.
    """
    rng = random.Random(seed)
    store = TripleStore()

    def add(head: str, rel: str, tail: str, split: str = "train") -> None:
        store.add_triple(store.relations.intern(rel),
                         store.entities.intern(head),
                         store.entities.intern(tail), split)

    for i in range(18):
        a, m, b = f"a{i}", f"m{i}", f"b{i}"
        add(a, "r0", m)
        add(m, "r1", b)
        if i < 15:
            add(a, "r2", b, "train" if i < 12 else "test")
    people = ["X", "V0", "sk0"] + [f"p{i}" for i in range(31)]
    for i, person in enumerate(people):
        add(person, "born", "Paris_(band)" if i >= 24 else "a b")
        nationality = "Ruritania" if i >= 29 else HUB
        add(person, "nat", nationality, "test" if 20 <= i < 24 else "train")
    add(people[0], "rare", "e0")
    add(people[1], "rare", "e1")
    pool = people + [f"e{i}" for i in range(20)]
    for _ in range(60):
        head, tail = rng.sample(pool, 2)
        add(head, f"n{rng.randrange(3)}", tail)
    return PlantedKG(store, {PLANTED_CAR: 12, PLANTED_HAR: 25,
                             DOMINATED_BAR: 5}, rare_supp=2)


# ---------------------------------------------------------------------------
# per-prefix generalization oracle

def walk_rules(store: TripleStore, rt: int, cfg) -> list[Rule]:
    """The abstract rules of `generalization`'s walk keys, in its order."""
    return [walk_rule(rt, key) for key in generalization(store, rt, cfg)]


@dataclass(frozen=True)
class Path:
    """A ground walk: head triple atom first, adjacent atoms share an entity.

    ``entities`` is the visited-entity sequence, starting at the head
    subject and ending where the walk stopped.
    """

    atoms: tuple[Atom, ...]
    entities: tuple[int, ...]

    def __post_init__(self):
        head = self.atoms[0]
        if head.subj.is_var or head.obj.is_var:
            raise ValueError("path atoms must be ground")
        if self.entities[0] != head.subj.idx:
            raise ValueError("walk must start at the head subject")
        if len(self.entities) != len(self.atoms):
            raise ValueError("one visited entity per body step expected")
        cur = self.entities[0]
        for atom, nxt in zip(self.atoms[1:], self.entities[1:]):
            ends = {atom.subj.idx, atom.obj.idx}
            if cur not in ends or nxt not in ends:
                raise ValueError("adjacent path atoms must share an entity")
            cur = nxt


def generalize(path: Path) -> Rule:
    """Abstract a path into a CAR or an OAR.

    The head subject maps to X, the head object to Y and the remaining
    distinct entities to fresh variables in walk order. Raises
    StraightnessError for revisiting walks.
    """
    head = path.atoms[0]
    e0, e1 = head.subj.idx, head.obj.idx
    mapping: dict[int, Term] = {e1: VAR_Y, e0: VAR_X}
    fresh = 0
    atoms = [Atom(head.pred, VAR_X, VAR_Y)]
    for atom in path.atoms[1:]:
        terms = []
        for t in atom.terms:
            if t.idx not in mapping:
                mapping[t.idx] = var(fresh)
                fresh += 1
            terms.append(mapping[t.idx])
        atoms.append(Atom(atom.pred, terms[0], terms[1]))
    rule = Rule(atoms[0], tuple(atoms[1:]))
    if not is_straight(rule):
        raise StraightnessError("walk revisits an entity")
    return rule


def _sample_walk_path(store: TripleStore, rt: int, x: int, y: int,
                      length: int, rng: random.Random) -> Path | None:
    """One random walk from x as a ground Path, with the miner's RNG draws."""
    atoms = [Atom(rt, const(x), const(y))]
    ents = [x]
    visited = {x}
    cur = x
    for step in range(length):
        last = step == length - 1
        cands = []
        for rel, other, direction in store.neighbors(cur):
            if rel == rt and ((direction == "out" and cur == x and other == y)
                              or (direction == "in" and cur == y and other == x)):
                continue
            if other in visited or (other == y and not last):
                continue
            cands.append((rel, other, direction))
        if not cands:
            break
        rel, other, direction = cands[rng.randrange(len(cands))]
        if direction == "out":
            atoms.append(Atom(rel, const(cur), const(other)))
        else:
            atoms.append(Atom(rel, const(other), const(cur)))
        ents.append(other)
        visited.add(other)
        cur = other
    if len(atoms) == 1:
        return None
    return Path(tuple(atoms), tuple(ents))


def sample_walk_oracle(store: TripleStore, rt: int, x: int, y: int,
                       length: int, rng: random.Random,
                       seen: Counter | None = None) -> tuple[int, ...]:
    """One walk's key, filtering every step's neighbours anew (the first
    step included), with the miner's RNG draws.

    `seen`, when given, counts over the steps after the first: "repeated",
    a step that excluded two or more edges to one entity, and "passed", a
    step whose edge lies past its draw in the unfiltered neighbour list;
    "first repeated" and "first passed" count the same over first steps."""
    ids = {y: Y, x: X}   # x is X on a self-loop instance too
    fresh = 2
    key: list[int] = []
    visited = {x}
    cur = x
    for step in range(length):
        last = step == length - 1
        cands = []
        excluded: Counter = Counter()
        for pos, (rel, other, d) in enumerate(store.neighbors(cur)):
            if rel == rt and ((d == "out" and cur == x and other == y)
                              or (d == "in" and cur == y and other == x)):
                continue  # never walk the originating triple
            if other in visited or (other == y and not last):
                excluded[other] += 1
                continue
            cands.append((pos, rel, other, d))
        if not cands:
            break
        draw = rng.randrange(len(cands))
        pos, rel, other, direction = cands[draw]
        if seen is not None:
            which = "" if step else "first "
            seen[which + "repeated"] += max(excluded.values(), default=0) > 1
            seen[which + "passed"] += pos > draw
        if other not in ids:
            ids[other] = fresh
            fresh += 1
        if direction == "out":
            key += (rel, ids[cur], ids[other])
        else:
            key += (rel, ids[other], ids[cur])
        visited.add(other)
        cur = other
    return tuple(key)


def generalization_oracle(store: TripleStore, rt: int, cfg) -> list[Rule]:
    """`generalization` as abstract rules, one `generalize` call per walk
    prefix."""
    instances = sorted(store.instances_of(rt, "train"))
    if not instances:
        raise EmptyTargetError(f"relation {rt} has no train instances")
    rng = random.Random(f"{cfg.seed}:{rt}")
    rules = {Rule(Atom(rt, VAR_X, VAR_Y))}
    for x, y in instances:
        for length in range(1, cfg.max_len + 1):
            for _ in range(cfg.walks_per_instance):
                path = _sample_walk_path(store, rt, x, y, length, rng)
                if path is None:
                    continue
                for k in range(2, len(path.atoms) + 1):
                    prefix = Path(path.atoms[:k], path.entities[:k])
                    try:
                        rules.add(generalize(prefix))
                    except StraightnessError:
                        break
    return sorted(rules, key=Rule.sort_key)


# ---------------------------------------------------------------------------
# body grounding oracle

def ground_body_oracle(rule: Rule, store: TripleStore,
                       exclude: set[int] | None = None):
    """A depth-first search over the body's atoms in written order: yield
    each object-identity body grounding once, as a var-Term -> entity
    dict. `ground_body` yields the same groundings in this order when the
    written order is bound-first (see `is_bound_first`), and in another
    order otherwise."""
    consts = constants(rule) if exclude is None else exclude
    binding: dict = {}
    used: set[int] = set()

    def admissible(e: int) -> bool:
        return e not in used and e not in consts

    def rec(i: int):
        if i == len(rule.body):
            yield dict(binding)
            return
        atom = rule.body[i]
        s = atom.subj.idx if not atom.subj.is_var else binding.get(atom.subj)
        o = atom.obj.idx if not atom.obj.is_var else binding.get(atom.obj)
        if s is not None and o is not None:
            if store.has_train(atom.pred, s, o):
                yield from rec(i + 1)
            return
        if s is None and o is None:
            loop = atom.subj == atom.obj   # one variable binds one entity
            for cs, co in store.by_relation.get(atom.pred, []):
                if (cs == co) != loop or not admissible(cs) \
                        or not admissible(co):
                    continue
                binding[atom.subj] = cs
                binding[atom.obj] = co
                used.update((cs, co))
                yield from rec(i + 1)
                binding.pop(atom.subj)
                binding.pop(atom.obj, None)
                used.difference_update((cs, co))
            return
        if s is not None:
            cands, free = store.fwd_index.get((atom.pred, s), []), atom.obj
        else:
            cands, free = store.bwd_index.get((atom.pred, o), []), atom.subj
        for cand in cands:
            if not admissible(cand):
                continue
            binding[free] = cand
            used.add(cand)
            yield from rec(i + 1)
            del binding[free]
            used.discard(cand)

    yield from rec(0)


def is_bound_first(body) -> bool:
    """Whether every atom of `body` has at least as many known terms
    (constants, and variables an earlier atom binds) as each later atom,
    so that `ground_body` joins the atoms in written order."""
    known: set = set()
    for n, atom in enumerate(body):
        if any(sum(not t.is_var or t in known for t in a.terms)
               > sum(not t.is_var or t in known for t in atom.terms)
               for a in body[n + 1:]):
            return False
        known.update(atom.terms)
    return True


def same_groundings(got: list, want: list, rule: Rule) -> bool:
    """Whether `got` equals `want` as a list when `rule`'s written order is
    bound-first, and as a multiset otherwise: the same tuples, each as
    often, in any order."""
    if is_bound_first(rule.body):
        return got == want
    return sorted(got) == sorted(want)


# ---------------------------------------------------------------------------
# per-query rule application oracle

def _bind(binding: dict, term: Term, e: int, consts: set[int]) -> bool:
    if not term.is_var:
        return term.idx == e
    if term in binding:
        return binding[term] == e
    if e in consts or e in binding.values():
        return False
    binding[term] = e
    return True


def reference_groundings(rule: Rule, store: TripleStore, binding: dict):
    """Object-identity groundings of the body that extend `binding`: every
    variable binds a distinct entity outside the rule's constants."""
    consts = constants(rule)
    if set(binding.values()) & consts:
        return

    def rec(i: int, binding: dict):
        if i == len(rule.body):
            yield binding
            return
        atom = rule.body[i]
        for s, o in store.by_relation.get(atom.pred, []):
            new = dict(binding)
            if _bind(new, atom.subj, s, consts) and \
                    _bind(new, atom.obj, o, consts):
                yield from rec(i + 1, new)

    yield from rec(0, dict(binding))


def apply_rule_oracle(rule: Rule, query: Query,
                      store: TripleStore) -> set[int]:
    """Entities the rule suggests for the query's open slot, grounding the
    body with the known head term bound to the query's known entity."""
    known, open_term = (rule.head.subj, rule.head.obj) \
        if query.slot == "head" else (rule.head.obj, rule.head.subj)
    if known.is_var:
        initial = {known: query.known}
    elif known.idx != query.known:
        return set()
    else:
        initial = {}
    out = set()
    for b in reference_groundings(rule, store, initial):
        if not open_term.is_var:
            out.add(open_term.idx)
        elif open_term in b:
            out.add(b[open_term])   # an open term the body leaves free: none
    return out


def suggest_oracle(query: Query, rules, store: TripleStore):
    vectors: dict[int, list[float]] = {}
    for rule, m in rules:
        if rule.head.pred != query.rel:
            continue
        for cand in apply_rule_oracle(rule, query, store):
            vectors.setdefault(cand, []).append(m.sc)
    return vectors


def evaluate_kgc_oracle(store: TripleStore, rules_by_rel: dict) -> list:
    """evaluate_kgc's records, one query and one rule at a time."""
    truths: dict[tuple[int, int, str], set[int]] = {}
    for split in ("train", "valid", "test"):
        for rel, subj, obj in store.splits[split]:
            truths.setdefault((rel, subj, "head"), set()).add(obj)
            truths.setdefault((rel, obj, "tail"), set()).add(subj)
    records = []
    for q in queries_for(store, set(rules_by_rel)):
        vectors = suggest_oracle(q, rules_by_rel.get(q.rel, []), store)
        known = truths.get((q.rel, q.known, q.slot), set()) - {q.answer}
        ranking = rank(vectors, known)
        top = [(e, v[0] if v else 0.0) for e, v in ranking[:10]]
        records.append((q, rank_of(ranking, q.answer), top))
    return records


def rank_of(ranking, entity: int) -> int | None:
    """The 1-based position of `entity` in `rank`'s list, or None."""
    return next((i for i, (e, _) in enumerate(ranking, start=1)
                 if e == entity), None)


# ---------------------------------------------------------------------------
# three-pass learn oracle

def zero_thresholds(cfg):
    """cfg with every relevance and overfitting threshold at zero: under
    it `specialization` returns every candidate."""
    return replace(cfg, supp_f=0, hc_f=0.0, sc_f=0.0, overfit_threshold=0.0)


def specialize(oar: Rule, body, rt_pairs, valid_pairs, cfg):
    """`specialization` of an OAR over a target's train and validation
    pairs, given as `learn_all` gives them: the OAR's hits among
    `rt_pairs`, and the validation pairs grouped by anchor."""
    hits = _hits(body.common(body.pos[VAR_X]), rt_pairs)
    return specialization(oar, body, rt_pairs, _by_anchor(valid_pairs),
                          cfg=cfg, hits=hits)


def learn_oracle(store: TripleStore, rt: int, cfg
                 ) -> tuple[list[tuple[Rule, Measures]], tuple[int, int, int]]:
    """learn's rules and (p_oars, i_oars, u_oars), one step after another.

    Every abstract rule is measured with `evaluate`; prior pruning keeps
    the rules `bfs_with_pruning` reaches with supp >= supp_h; each
    surviving CAR is filtered, and each surviving OAR is grounded again,
    specialized into every candidate, filtered and post-pruned.
    """
    rt_pairs = store.instances_of(rt, "train")
    valid_pairs = store.instances_of(rt, "valid")
    abstract = walk_rules(store, rt, cfg)
    measures = {r: evaluate(r, store, rt_pairs, cfg, valid_pairs)
                for r in abstract}
    if cfg.supp_h > 0:
        survivors = bfs_with_pruning(
            build_a_hierarchy(abstract),
            lambda r: measures[r].supp >= cfg.supp_h)
    else:
        survivors = set(abstract)
    oars = {r for r in abstract if r.body and kind_of(r) == "OAR"}
    i_oars = u_oars = 0
    mined: dict[Rule, Measures] = {}
    for rule in sorted(survivors, key=Rule.sort_key):
        m = measures[rule]
        if rule.body and kind_of(rule) == "CAR":
            if is_relevant(m, cfg) and overfit_keep(m, cfg):
                mined[rule] = m
        if rule not in oars:
            continue
        specs, _ = specialize(rule, open_groundings(rule, store), rt_pairs,
                              valid_pairs, zero_thresholds(cfg))
        specs = [(r, sm) for r, sm in specs
                 if is_relevant(sm, cfg) and overfit_keep(sm, cfg)]
        if not specs:
            u_oars += 1
            continue
        i_oars += 1
        if cfg.enable_post_pruning:
            keep = post_pruning(build_i_hierarchy([r for r, _ in specs]),
                                {r: sm.sc for r, sm in specs})
            specs = [(r, sm) for r, sm in specs if r in keep]
        for r, sm in specs:
            mined.setdefault(r, sm)
    rules = sorted(mined.items(), key=lambda rm: (-rm[1].sc,
                                                  rm[0].sort_key()))
    return rules, (len(oars - survivors), i_oars, u_oars)
