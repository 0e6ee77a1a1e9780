"""Shared generators and fixtures for the test suite.

The random-rule generator produces connected, straight chain rules over a
small vocabulary (5 predicates, 6 constants, body length 0-4), matching the
corpus the property suites run on. The random-KG generator produces small
dense graphs where mining finds a non-trivial mix of rule kinds. The
hierarchy oracles check properness and the edge invariant that keeps the
builders' hierarchies acyclic. The rule-application oracle grounds a rule
body once per (query, rule) pair, with the query's known entity bound,
by scanning every train fact; under a cap it checks each grounding of the
capped pass against the query instead. The grounding oracle is the recursive,
dict-yielding form of `ground_body`. The generalization oracle samples ground
walks as `Path`s and abstracts every prefix with `generalize`, one `Rule`
per prefix; its walk oracle filters every step's neighbours anew, the
first step included. The learn oracle runs `learn`'s steps as three
separate passes over public pieces: measure every abstract rule, prune,
then mine each survivor, specializing each OAR into every candidate (zero
thresholds) and filtering the candidates itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

import networkx as nx

from rulehier.evaluator import Query, queries_for, rank
from rulehier.hierarchy import (Hierarchy, bfs_with_pruning,
                                build_a_hierarchy, build_i_hierarchy)
from rulehier.kgstore import TripleStore
from rulehier.miner import (CapExceeded, EmptyTargetError, Measures,
                            evaluate, generalization, is_relevant,
                            open_groundings, overfit_keep, post_pruning,
                            specialization)
from rulehier.rules import (X, Y, Atom, Rule, StraightnessError, Term, VAR_X,
                            VAR_Y, body_length, const, constants,
                            deduction_level, is_connected, is_straight,
                            kind_of, parse_rule, var)

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


# ---------------------------------------------------------------------------
# per-prefix generalization oracle

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
    mapping: dict[int, Term] = {e0: VAR_X, e1: VAR_Y}
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
                       length: int, rng: random.Random) -> tuple[int, ...]:
    """One walk's key, filtering every step's neighbours anew (the first
    step included), with the miner's RNG draws."""
    ids = {x: X, y: Y}
    fresh = 2
    key: list[int] = []
    visited = {x}
    cur = x
    for step in range(length):
        last = step == length - 1
        cands = []
        for rel, other, d in store.neighbors(cur):
            if rel == rt and ((d == "out" and cur == x and other == y)
                              or (d == "in" and cur == y and other == x)):
                continue  # never walk the originating triple
            if other in visited or (other == y and not last):
                continue
            cands.append((rel, other, d))
        if not cands:
            break
        rel, other, direction = cands[rng.randrange(len(cands))]
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
    """`generalization` without the time budget, one `generalize` call
    per walk prefix."""
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

def ground_body_oracle(rule: Rule, store: TripleStore, cap: int = 0,
                       exclude: set[int] | None = None):
    """`ground_body` as a recursive generator: yield each object-identity
    body grounding as a var-Term -> entity dict, with the kernel's visit
    order, step counting and `cap` (CapExceeded once `cap` candidate
    extensions have been examined, 0 = unlimited)."""
    consts = constants(rule) if exclude is None else exclude
    binding: dict = {}
    used: set[int] = set()
    steps = 0

    def admissible(e: int) -> bool:
        return e not in used and e not in consts

    def rec(i: int):
        nonlocal steps
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
                steps += 1
                if cap and steps > cap:
                    raise CapExceeded
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
            cands, free = store.objects(atom.pred, s), atom.obj
        else:
            cands, free = store.subjects(atom.pred, o), atom.subj
        for cand in cands:
            steps += 1
            if cap and steps > cap:
                raise CapExceeded
            if not admissible(cand):
                continue
            binding[free] = cand
            used.add(cand)
            yield from rec(i + 1)
            del binding[free]
            used.discard(cand)

    yield from rec(0)


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


def apply_rule_oracle(rule: Rule, query: Query, store: TripleStore,
                      cap: int = 0) -> set[int]:
    """Entities the rule suggests for the query's open slot, grounding the
    body with the known head term bound to the query's known entity. With
    `cap`, the groundings are those a capped pass over the body finds
    (`ground_body_oracle` with the body's constants excluded, as `eval`
    grounds), each checked against the query on its own."""
    known, open_term = (rule.head.subj, rule.head.obj) \
        if query.slot == "head" else (rule.head.obj, rule.head.subj)
    if cap:
        return _apply_to_capped_pass(rule, query, store, cap, known, open_term)
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


def _apply_to_capped_pass(rule: Rule, query: Query, store: TripleStore,
                          cap: int, known: Term, open_term: Term) -> set[int]:
    consts = constants(rule)
    body_consts = {t.idx for a in rule.body for t in a.terms if not t.is_var}
    found = []
    try:
        for b in ground_body_oracle(rule, store, cap, exclude=body_consts):
            found.append(b)
    except CapExceeded:
        pass
    out = set()
    for b in found:
        if consts & set(b.values()):
            continue   # object identity: a variable never binds a constant
        if not known.is_var:
            if known.idx != query.known:
                continue
        elif known in b:
            if b[known] != query.known:
                continue
        elif query.known in consts or query.known in b.values():
            continue
        else:
            b = {**b, known: query.known}
        if not open_term.is_var:
            out.add(open_term.idx)
        elif open_term in b:
            out.add(b[open_term])
    return out


def suggest_oracle(query: Query, rules, store: TripleStore, cap: int = 0):
    vectors: dict[int, list[float]] = {}
    for rule, m in rules:
        if rule.head.pred != query.rel:
            continue
        for cand in apply_rule_oracle(rule, query, store, cap):
            vectors.setdefault(cand, []).append(m.sc)
    return vectors


def evaluate_kgc_oracle(store: TripleStore, rules_by_rel: dict,
                        cap: int = 0) -> list:
    """evaluate_kgc's records, one query and one rule at a time."""
    truths: dict[tuple[int, int, str], set[int]] = {}
    for split in ("train", "valid", "test"):
        for rel, subj, obj in store.splits[split]:
            truths.setdefault((rel, subj, "head"), set()).add(obj)
            truths.setdefault((rel, obj, "tail"), set()).add(subj)
    records = []
    for q in queries_for(store, set(rules_by_rel)):
        vectors = suggest_oracle(q, rules_by_rel.get(q.rel, []), store, cap)
        known = truths.get((q.rel, q.known, q.slot), set()) - {q.answer}
        ranking = rank(vectors, known)
        top = [(e, v[0] if v else 0.0) for e, v in ranking.ordered[:10]]
        records.append((q, ranking.rank_of(q.answer), top))
    return records


# ---------------------------------------------------------------------------
# three-pass learn oracle

def zero_thresholds(cfg):
    """cfg with every relevance and overfitting threshold at zero: under
    it `specialization` returns every candidate."""
    return replace(cfg, supp_f=0, hc_f=0.0, sc_f=0.0, overfit_threshold=0.0)


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
    abstract = generalization(store, rt, cfg)
    measures = {r: evaluate(r, store, rt_pairs, cfg, valid_pairs)
                for r in abstract}
    if cfg.enable_prior_pruning:
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
            if is_relevant(m, cfg) and overfit_keep(m, cfg, "CAR"):
                mined[rule] = m
        if rule not in oars:
            continue
        specs, _ = specialization(
            rule, open_groundings(rule, store, cfg.grounding_cap), rt_pairs,
            valid_pairs, sorted(rt_pairs), zero_thresholds(cfg))
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
