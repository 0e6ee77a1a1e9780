"""Walk-based rule mining with hierarchical pruning.

Pipeline: each target predicate samples walks into walk keys, one per
distinct abstract rule, and one traversal visits the keys of all targets
breadth-first over the atom-addition hierarchy, a trie whose parent of a
key is its prefix. Each target builds and measures each rule it reaches
once and prunes subtrees below `supp_h`; a rule no target reaches is
never built. Prior pruning reads an open rule's support alone, its hit
count among the target's train pairs; `evaluate` computes its full
measures, which mining does not need. An open rule's body does not
depend on the target, so it is grounded once per run, and its groundings
extend those of its kept A-parent by one atom. A kept closed rule is
filtered for relevance; a kept open rule is specialized from the
grounding pass and the hits that gave its support, support first (each
anchor's HAR before any of its BARs) and the dearer thresholds after,
and post pruning drops dominated anchorings. That pass fills a
`BodyIndex`, the grounding index that rule application
(`evaluator`) reads too; the part of specialization that depends only on
the body is built into it once, for every target. Post pruning compares
each BAR with its one I-parent, the HAR of its anchor. Mining builds no
hierarchy: `learned_hierarchy` builds a run's afterwards, with the
builders.
"""

from __future__ import annotations

import logging
import math
import random
import re
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import itemgetter
from typing import Collection

from . import hierarchy as hmod
from .hierarchy import bfs_with_pruning, build_a_hierarchy, build_i_hierarchy
from .kgstore import ParseError, TripleStore, decode_line
from .rules import (X, Y, Atom, KindError, Rule, StraightnessError, Term,
                    VAR_X, VAR_Y, const, constants, dangling_term,
                    format_rule, is_straight, kind_of, parse_rule, walk_rule)
# specialization builds its rules directly; bench/layers.py probes this name
from .rules import instantiate  # noqa: F401

log = logging.getLogger(__name__)


class EmptyTargetError(ValueError):
    """The target predicate has no train instances."""


def _empty_target(store: TripleStore, rt: int) -> EmptyTargetError:
    name = store.relations.name(rt) if 0 <= rt < len(store.relations) else rt
    return EmptyTargetError(f"relation {name!r} has no train instances")


@dataclass(slots=True)
class Measures:
    """Per-rule quality statistics on the train split."""

    supp: int = 0
    hc: float = 0.0
    sc: float = 0.0
    groundings: int = 0
    valid_supp: int = 0


def check_types(cfg) -> None:
    """Raise a TypeError naming the first field of the dataclass `cfg`
    whose value does not have its annotated type: an `int` field takes an
    int but not a bool, a `float` field an int or a float, and a `bool`
    field only a bool. Fields of any other type are not checked."""
    types = {"int": int, "float": (int, float), "bool": bool}
    for f in fields(cfg):
        want = types.get(f.type)
        value = getattr(cfg, f.name)
        if want is not None and (not isinstance(value, want) or (
                isinstance(value, bool) and f.type != "bool")):
            raise TypeError(f"{f.name} must be of type {f.type}, "
                            f"got {value!r}")


@dataclass(frozen=True)
class MinerConfig:
    max_len: int = 3
    supp_f: int = 3
    hc_f: float = 0.001
    sc_f: float = 0.001
    supp_h: int = 0
    eta: float = 5.0
    overfit_threshold: float = 0.1
    walks_per_instance: int = 10
    seed: int = 0
    enable_post_pruning: bool = True

    def __post_init__(self):
        check_types(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                continue
            low = 1 if f.name in ("max_len", "walks_per_instance") else 0
            if not value >= low:   # also rejects NaN
                raise ValueError(f"{f.name} must be >= {low}, got {value!r}")


@dataclass
class LearnResult:
    """One target's mined rules, sorted by descending sc and then by
    `Rule.sort_key`, so independent of the order of its train pairs; its
    OAR counts, the BARs post pruning dropped, sorted like the rules, and
    stage timings."""

    target: int
    rules: list[tuple[Rule, Measures]]
    p_oars: int = 0
    i_oars: int = 0
    u_oars: int = 0
    gen_seconds: float = 0.0
    spec_seconds: float = 0.0
    abstract_rules: int = 0
    post_pruned: list[tuple[Rule, Measures]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# grounding

def body_vars(rule: Rule) -> tuple[Term, ...]:
    """The body's variables in first-occurrence order: the positions of the
    entity tuples `ground_body` yields."""
    return tuple(dict.fromkeys(t for a in rule.body for t in a.terms
                               if t.is_var))


def ground_body(rule: Rule, store: TripleStore,
                exclude: set[int] | None = None, parent=None):
    """Yield object-identity body groundings as entity tuples in the order
    of `body_vars(rule)`: distinct variables bind distinct entities outside
    `exclude` (the rule's constants when None), and an atom repeating a
    variable matches self-loops.

    The body is one nested-loop join over its atoms, bound terms first. A
    term is known if it is a constant or a variable an earlier atom of the
    join bound, and the next atom is the first, in written order, with the
    most known terms: a body with a constant starts from it, and a walk
    body keeps its written order. An atom with both terms known keeps the
    rows whose fact is in train, and any other atom extends every row by
    its new entities. A row gains its variables in join order and is
    permuted to `body_vars` order once, at the end, if the two orders
    differ. The tuples come out in the order of a depth-first search over
    the atoms in join order. `parent`, when given, holds the tuples this
    function yields for the body without its last atom, under the same
    exclusions; the join then starts from them with only the last atom
    left."""
    used = constants(rule) if exclude is None else exclude
    if parent is None:
        rows, atoms, slot = [()], list(rule.body), {}
    else:
        rows, atoms = parent, [rule.body[-1]]
        slot = {v: i for i, v in enumerate(dict.fromkeys(
            t for a in rule.body[:-1] for t in a.terms if t.is_var))}
    while atoms:
        most = -1   # join next the first atom with the most known terms
        for n, (_, s, o) in enumerate(atoms):
            known = (not s.is_var or s in slot) + (not o.is_var or o in slot)
            if known > most:
                at, most = n, known
        pred, subj, obj = atoms.pop(at)
        si, oi = slot.get(subj), slot.get(obj)   # None if not a bound var
        if most == 2:
            has = store.has_train
            rows = [g for g in rows
                    if has(pred, subj.idx if si is None else g[si],
                           obj.idx if oi is None else g[oi])]
        elif most:
            if not subj.is_var or si is not None:
                index, k, ki, free = store.fwd_index, subj, si, obj
            else:
                index, k, ki, free = store.bwd_index, obj, oi, subj
            rows = [g + (c,) for g in rows
                    for c in index.get((pred, k.idx if ki is None else g[ki]),
                                       ())
                    if c not in used and c not in g]
            slot[free] = len(slot)
        else:   # a scan: new entities per fact, one if the atom loops
            loop = subj == obj
            new = [(s,) if loop else (s, o)
                   for s, o in store.by_relation.get(pred, ())
                   if (s == o) == loop and s not in used and o not in used]
            rows = [g + t for g in rows for t in new
                    if t[0] not in g and t[-1] not in g]
            slot[subj] = len(slot)
            slot.setdefault(obj, len(slot))
    if parent is None:   # else the last atom's new variables came last
        order = body_vars(rule)
        if tuple(slot) != order:
            rows = list(map(itemgetter(*map(slot.get, order)), rows))
    yield from rows


def _measures(supp: int, n_g: int, valid_supp: int, n_rt: int,
              cfg: MinerConfig) -> Measures:
    hc = supp / n_rt if n_rt else 0.0
    sc = supp / (cfg.eta + n_g) if (cfg.eta + n_g) > 0 else 0.0
    return Measures(supp, hc, sc, n_g, valid_supp)


def _common_sets(groundings, j: int) -> dict[int, set[int]]:
    """Each value at slot j of `groundings` -> the entities used by every
    grounding with that value."""
    out: dict[int, set[int]] = {}
    for g in groundings:
        ents = out.get(g[j])
        if ents is None:
            out[g[j]] = set(g)
        else:
            ents.intersection_update(g)
    return out


class BodyIndex:
    """One rule body's groundings, the entity tuples `ground_body` yields
    (variable v at slot pos[v]), and the maps the body's rules read, each
    built on first use and shared by every rule over the body, whatever
    its head:

    - grouped(j): each value at slot j -> the groundings with that value;
    - common(j): each value at slot j -> the entities used by every
      grounding with that value, so some grounding with the value avoids
      entity e iff e lies outside them. Of an OAR's body, common(X's
      slot) gives a target's hits (`_hits`), whose count is the support
      prior pruning reads;
    - pairs(j, i): each value at slot j -> the values at slot i beside it;
    - common_split(j, v, k): for value v at slot j, each value at slot k
      beside it -> the entities used by every grounding with both values,
      built per v from grouped(j)[v];
    - common_count(k, t, j): for value t at slot k, or for every grounding
      if t is None, each value at slot j beside it -> the entities used by
      every grounding with both values; and per entity, how many of those
      sets hold it. Built per t from grouped(k)[t], or from common(j).
    """

    def __init__(self, rule: Rule, groundings):
        """Index `groundings`, one `ground_body` pass over `rule`'s body."""
        self.pos = {v: i for i, v in enumerate(body_vars(rule))}
        self.groundings: list[tuple[int, ...]] = list(groundings)
        self._grouped: dict[int, dict[int, list[tuple[int, ...]]]] = {}
        self._common: dict[int, dict[int, set[int]]] = {}
        self._pairs: dict[tuple[int, int], dict[int, set[int]]] = {}
        self._split: dict[tuple[int, int], dict[int, dict[int, set[int]]]] = {}
        self._count: dict[tuple[int, int], dict[int | None, tuple]] = {}

    def grouped(self, j: int) -> dict[int, list[tuple[int, ...]]]:
        out = self._grouped.get(j)
        if out is None:
            out = self._grouped[j] = defaultdict(list)
            for g in self.groundings:
                out[g[j]].append(g)
        return out

    def common(self, j: int) -> dict[int, set[int]]:
        out = self._common.get(j)
        if out is None:
            out = self._common[j] = _common_sets(self.groundings, j)
        return out

    def pairs(self, j: int, i: int) -> dict[int, set[int]]:
        out = self._pairs.get((j, i))
        if out is None:
            out = self._pairs[(j, i)] = defaultdict(set)
            for g in self.groundings:
                out[g[j]].add(g[i])
        return out

    def common_split(self, j: int, v: int, k: int) -> dict[int, set[int]]:
        memo = self._split.setdefault((j, k), {})
        out = memo.get(v)
        if out is None:
            out = memo[v] = _common_sets(self.grouped(j)[v], k)
        return out

    def common_count(self, k: int, t: int | None, j: int
                     ) -> tuple[dict[int, set[int]], Counter]:
        memo = self._count.setdefault((k, j), {})
        out = memo.get(t)
        if out is None:
            sets = self.common(j) if t is None \
                else _common_sets(self.grouped(k)[t], j)
            out = memo[t] = (sets, Counter(chain.from_iterable(
                sets.values())))
        return out


def open_groundings(oar: Rule, store: TripleStore, parent=None) -> BodyIndex:
    """Ground an OAR's body once into its index; with `parent`, the
    groundings of its body but the last atom, by joining that atom to them
    (see ground_body). An OAR has no constants, so a grounding tuple is the set
    of entities its grounding uses, and (x, c) is in the OAR's
    head-grounding set iff c lies outside common(X's slot)[x]."""
    if not oar.body or kind_of(oar) != "OAR":
        kind = kind_of(oar) if oar.body else "the top rule"
        raise KindError(f"expected an OAR with a body atom, got {kind}")
    return BodyIndex(oar, ground_body(oar, store, parent=parent))


def _hits(common: dict[int, set[int]], pairs) -> list[tuple[int, int]]:
    """The pairs of `pairs` in an OAR's head groundings, in their order:
    with `common` the body's common(X's slot), (x, y) is one iff some
    grounding binds X to x and avoids y."""
    return [(x, y) for x, y in pairs if x in common and y not in common[x]]


def evaluate(rule: Rule, store: TripleStore, rt_pairs: set[tuple[int, int]],
             cfg: MinerConfig,
             valid_pairs: set[tuple[int, int]] | None = None,
             parent=None) -> Measures:
    """Exact support / head coverage / smooth confidence.

    The head-grounding set g is induced by grounding the body over the
    train split under object identity; `parent` may hold the groundings of
    the body but its last atom, whatever that atom is, and the join then
    starts from them (see ground_body). The only open rules
    measured are OARs, whose Y, not bound by the body, ranges over every
    entity outside the grounding; any other open rule raises ValueError.
    An OAR's support is its number of hits (see _hits), the one measure
    `learn_all` reads of it.
    """
    valid_pairs = valid_pairs or set()
    n_rt = len(rt_pairs)
    if not rule.body:
        # top rule: the empty body constrains nothing; measures are
        # analytic and |g| is recorded as |E|^2
        return _measures(n_rt, len(store.entities) ** 2, len(valid_pairs),
                         n_rt, cfg)

    hx, hy = rule.head.subj, rule.head.obj
    order = body_vars(rule)
    free = [t for t in (hx, hy) if t.is_var and t not in order]
    if len(free) == 2:
        raise ValueError("rule body binds neither head term")
    if free:
        # open_groundings raises KindError, a ValueError, on a non-OAR
        body = open_groundings(rule, store, parent)
        common = body.common(body.pos[VAR_X])
        # (x, c) is a head grounding iff c lies outside common[x]
        n_g = len(store.entities) * len(common) - sum(map(len,
                                                          common.values()))
        return _measures(len(_hits(common, rt_pairs)), n_g,
                         len(_hits(common, valid_pairs)), n_rt, cfg)

    xi, yi = (order.index(t) if t.is_var else None for t in (hx, hy))
    g = {(hx.idx if xi is None else b[xi], hy.idx if yi is None else b[yi])
         for b in ground_body(rule, store, parent=parent)}
    return _measures(len(g & rt_pairs), len(g), len(g & valid_pairs), n_rt,
                     cfg)


# ---------------------------------------------------------------------------
# generalization (walk sampling)

def _sample_walk(store: TripleStore, x: int, y: int, length: int,
                 rng: random.Random, skip: list[int],
                 where: dict[int, dict[int, list[int]]]) -> tuple[int, ...]:
    """One random walk from x; revisits rejected, y allowed terminally.

    Every step draws by position. A step may take any edge of
    `store.neighbors(cur)` except those to a visited entity, to y before
    the last step, and the originating triple; `skip` holds the ascending
    positions of the first step's excluded edges in x's list. A later step
    starts at an entity that is neither x (visited) nor y (a walk that
    reaches y ends there), so the originating triple is not among its
    edges; `where[cur]` maps each neighbour of cur to its positions in
    cur's list and is filled on first use. A step draws `randrange(n)`
    over the n edges it may take, then moves the index past each excluded
    position at or below it, in ascending order. That is the same draw and
    the same edge as indexing the filtered list, at a cost that does not
    depend on cur's degree.

    Returns the walk's key for `walk_rule`: a (predicate, subject id, object
    id) triple per step, where x has id 0, y id 1 and every other entity
    the next id from 2 in walk order.
    """
    key: list[int] = []
    visited = [x]   # distinct, so their positions in a list are too
    cur, cid = x, X   # a self-loop instance walks from x as X
    for step in range(length):
        edges = store.neighbors(cur)
        if step:
            at = where.get(cur)
            if at is None:
                at = where[cur] = defaultdict(list)
                for i, (_, other, _) in enumerate(edges):
                    at[other].append(i)
            # y is visited already on a self-loop instance
            ends = visited if step == length - 1 or x == y \
                else visited + [y]
            skip = [i for e in ends for i in at.get(e, ())]
            skip.sort()
        n = len(edges) - len(skip)
        if not n:
            break
        i = rng.randrange(n)
        for p in skip:   # ascending, so i passes every one at or below it
            if p > i:
                break
            i += 1
        rel, other, direction = edges[i]
        # each step reaches a new entity, and reaching y ends the walk
        oid = Y if other == y else step + 2
        key += (rel, cid, oid) if direction == "out" else (rel, oid, cid)
        visited.append(other)
        cur, cid = other, oid
    return tuple(key)


def generalization(store: TripleStore, rt: int, cfg: MinerConfig,
                   where: dict[int, dict[int, list[int]]] | None = None
                   ) -> list[tuple[int, ...]]:
    """Sample walks from every train instance and abstract them into walk
    keys, sorted; `walk_rule(rt, key)` is a key's abstract rule.

    A step never reaches a visited entity and reaches y only as the last,
    so every walk and each of its prefixes is straight. Every prefix is
    kept, so the keys are closed under prefixes: a key's A-parent is
    `key[:-3]`, and the top rule's key, (), is always included. Sorted
    keys are in their rules' `Rule.sort_key` order.

    `where` holds the neighbour-position maps `_sample_walk` fills; a
    caller that samples several targets from an unchanged store passes one
    dict to all of them. By default each call builds its own.
    """
    instances = sorted(store.instances_of(rt, "train"))
    if not instances:
        raise _empty_target(store, rt)
    rng = random.Random(f"{cfg.seed}:{rt}")
    seen: set[tuple[int, ...]] = {()}
    if where is None:
        where = {}
    for x, y in instances:
        # the first step's excluded positions in x's list, from one scan:
        # x's self-loops, and every edge to y when a later step follows or
        # else the originating triple (both x's self-loops on a self-loop
        # instance)
        edges = store.neighbors(x)
        later = [i for i, (_, other, _) in enumerate(edges)
                 if other == x or other == y]
        last = [i for i in later
                if edges[i][1] == x or edges[i] == (rt, y, "out")]
        for length in range(1, cfg.max_len + 1):
            for _ in range(cfg.walks_per_instance):
                key = _sample_walk(store, x, y, length, rng,
                                   last if length == 1 else later, where)
                if key not in seen:   # else so is every prefix
                    seen.update(key[:k] for k in range(3, len(key) + 1, 3))
    return sorted(seen)


def _is_oar_key(key: tuple[int, ...]) -> bool:
    """Whether a walk key's rule is an OAR: it has a body, and Y (id 1) is
    not in it. X is, since every walk starts there, so the rule is a CAR
    otherwise."""
    return bool(key) and Y not in key[1::3] and Y not in key[2::3]


class _WalkTrie:
    """The A-hierarchy over sorted, prefix-closed walk keys, as
    `bfs_with_pruning` reads it: the top rule's key () is the root, and a
    key's children are the keys that extend it by one step, in order."""

    roots = ((),)

    def __init__(self, keys: list[tuple[int, ...]]):
        self._children = defaultdict(list)
        for key in keys[1:]:   # keys[0] is ()
            self._children[key[:-3]].append(key)

    def children(self, key: tuple[int, ...]) -> list[tuple[int, ...]]:
        return self._children.get(key, [])


# ---------------------------------------------------------------------------
# relevance, pruning, specialization

def is_relevant(m: Measures, cfg: MinerConfig) -> bool:
    """Strict three-way threshold conjunction."""
    return m.supp > cfg.supp_f and m.hc > cfg.hc_f and m.sc > cfg.sc_f


def overfit_keep(m: Measures, cfg: MinerConfig, _kind: str = "") -> bool:
    """Validation-support ratio filter; threshold 0 keeps everything."""
    # `_kind` is ignored; bench/layers.py still passes a rule kind
    if cfg.overfit_threshold <= 0:
        return True
    if m.supp == 0:
        return False
    return m.valid_supp / m.supp >= cfg.overfit_threshold


def _least_passing(n_rt: int, cfg: MinerConfig) -> int:
    """The least support n with n > supp_f and n / n_rt > hc_f, the float
    test `is_relevant` makes, for n_rt >= 1 train pairs. Both tests only
    get easier as n grows, so a support passes both iff it is at least
    this; above n_rt, which no support exceeds, if none passes."""
    if cfg.hc_f >= 1:
        return n_rt + 1
    n = math.floor(cfg.hc_f * n_rt)   # within one of the least; step to it
    while n and (n - 1) / n_rt > cfg.hc_f:
        n -= 1
    while not n / n_rt > cfg.hc_f:
        n += 1
    return max(n, cfg.supp_f + 1)


def _by_anchor(valid_pairs) -> dict[int, list[int]]:
    """Validation pairs (x, c) grouped by anchor: c -> its xs."""
    out: dict[int, list[int]] = defaultdict(list)
    for x, c in valid_pairs:
        out[c].append(x)
    return out


def specialization(oar: Rule, body: BodyIndex,
                   rt_pairs: Collection[tuple[int, int]],
                   valid_by_c: dict[int, list[int]], cfg: MinerConfig,
                   hits: list[tuple[int, int]],
                   ) -> tuple[list[tuple[Rule, Measures]], bool]:
    """Anchor an OAR into its relevant HARs and BARs.

    A HAR binds Y to an anchor c, a BAR also binds the dangling term to a
    tail value t. `body`, which `open_groundings(oar, ...)` built (and so
    checked that `oar` is an OAR), holds all the work that depends only on
    the body, each part built on first use and read by every target that
    specializes the body in the same traversal. Per x: each tail value t
    of x's groundings -> the entities used by all of x's groundings with
    tail value t (`common_split`), built only for the x of an instance
    that supports a live anchor. Per tail value t of a surviving candidate
    (None for a HAR, which reads every grounding): those sets per x, and
    per entity c how many of them hold c (`common_count`). (x, c) is in a
    candidate's head groundings iff c is outside x's set, so |g| is the
    number of sets less the number that hold c.

    Support comes first, HARs before BARs. `hits` are the pairs of the
    target's train pairs `rt_pairs` in the OAR's head groundings
    (`_hits`), the list whose length is the OAR's support, which prior
    pruning read; they count each anchor's HAR support.
    `supp_f` and `hc_f` only get easier as the support grows, so they are
    one test against the least passing support, found once per call
    (`_least_passing`). Every pair that supports BAR (c, t) supports HAR
    c, so an anchor is live iff its HAR passes, and tail values are
    enumerated only for the hits of live anchors; with none, the body's
    groundings are never grouped. The passing candidates are then taken
    in groups that share a tail value: the live HARs straight from the
    anchor counts, then the BARs of each tail value, in ascending order.
    Each group reads its `common_count` entry once, and its candidates
    meet the dearer thresholds: |g| and `sc_f`, then the validation
    support and `overfit_keep`. `valid_by_c` holds the target's
    validation pairs (x, c) as the xs of each anchor c (`_by_anchor`),
    grouped once per target for all its specializations.

    Returns (rules with measures, False): exactly the candidates that pass
    `is_relevant` and `overfit_keep`, each built only if kept; with zero
    thresholds, every candidate (each has supp >= 1). The order of
    `rt_pairs` decides only the order of the rules, not which are kept,
    and raising a threshold keeps a sublist, in order. The second item is
    constant; bench/layers.py unpacks a pair.

    A kept rule is the OAR with Y replaced by const(c) and the dangling
    term by const(t): what `instantiate(oar, bindings)` returns, without
    its checks per rule. An OAR has no constants, and t != c because t
    comes from a grounding that avoids c, so those checks fail only if the
    OAR's head lacks Y or the OAR is not straight. Both are checked once,
    before the first kept rule, and raise `instantiate`'s errors.

    Kept rules share their bodies and heads. A HAR is
    `oar.with_head(head)`, so every HAR holds the OAR's body tuple. A tail
    value's group builds its body once, as `Rule(...)` of the OAR with
    only the dangling term bound, when it keeps its first rule, and each
    of its rules is that rule's `with_head(head)`. The head of anchor c is
    the OAR's head with Y bound to c, built once per call for every kept
    rule of c: a head binds only Y, so no rule is renumbered but the
    per-tail ones, and an OAR whose head holds a variable other than X and
    Y raises `with_head`'s ValueError.
    """
    if not hits:
        return [], False
    n_rt = len(rt_pairs)
    least = _least_passing(n_rt, cfg)
    live = [(c, n) for c, n in Counter(y for _, y in hits).items()
            if n >= least]
    if not live:
        return [], False

    tail = dangling_term(oar)
    xs, ts = body.pos[VAR_X], body.pos[tail]
    anchors = dict(live)
    # the BAR (c, t) once per instance (x, c) of a live anchor c with a
    # grounding of tail value t that avoids c (t != c, since a grounding
    # binds distinct entities); then the passing ones by tail value
    bar = Counter((t, y) for x, y in hits if y in anchors
                  for t, ents in body.common_split(xs, x, ts).items()
                  if y not in ents)
    groups: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for (t, c), n in bar.items():
        if n >= least:
            groups[t].append((c, n))

    out: list[tuple[Rule, Measures]] = []
    # per anchor, the OAR's head with Y bound to it, which every kept rule
    # of the anchor shares
    heads: dict[int, Atom] = {}
    p, s, o = oar.head
    # the HARs (tail value None), then each tail value's BARs
    for t, cands in chain([(None, live)],
                          ((t, groups[t]) for t in sorted(groups))):
        # per x with a grounding of tail value t (any, for a HAR), the
        # entities all of them use: (x, c) is a head grounding iff c is
        # outside them
        sets, blocked = body.common_count(ts, t, xs)
        n_sets = len(sets)
        # the body the group's kept rules share: the OAR's for the HARs,
        # else the OAR with the dangling term bound to t, built when the
        # group keeps its first rule
        rule = oar if t is None else None
        for c, n in cands:
            n_g = n_sets - blocked.get(c, 0)
            if not n / (cfg.eta + n_g) > cfg.sc_f:
                continue
            valid = sum(c not in sets.get(x, (c,))
                        for x in valid_by_c.get(c, ()))
            m = _measures(n, n_g, valid, n_rt, cfg)
            if not overfit_keep(m, cfg):
                continue
            if not out:
                if VAR_Y not in oar.head.terms:
                    raise ValueError("bindings must name variables of the "
                                     "rule")
                if not is_straight(oar):
                    raise StraightnessError(
                        "instantiation violates straightness")
            if rule is None:
                atoms = [Atom(q, const(t) if a == tail else a,
                              const(t) if b == tail else b)
                         for q, a, b in oar.atoms]
                rule = Rule(atoms[0], tuple(atoms[1:]))
            head = heads.get(c)
            if head is None:
                anchor = const(c)
                head = heads[c] = Atom(p, anchor if s == VAR_Y else s,
                                       anchor if o == VAR_Y else o)
            out.append((rule.with_head(head), m))
    return out, False


# learn prunes without it; tests/helpers.py and bench/layers.py use this name
def post_pruning(phi_i: hmod.Hierarchy, sc: dict[Rule, float]) -> set[Rule]:
    """Drop every rule strictly dominated in sc by a subsuming parent."""
    survivors = set(phi_i.nodes)
    for edge in phi_i.edges:
        if sc[edge.parent] > sc[edge.child]:
            survivors.discard(edge.child)
    return survivors


# ---------------------------------------------------------------------------
# Algorithm: end-to-end learning, every target in one traversal

def _by_sc(rm: tuple[Rule, Measures]) -> tuple:
    """Descending sc, then `Rule.sort_key`: the order of a result's rules."""
    return -rm[1].sc, rm[0].sort_key()


class _Target:
    """One target's share of `learn_all`'s traversal: its train and
    validation pairs, the latter also grouped by anchor once for all its
    specializations, what it mined so far and its result."""

    def __init__(self, store: TripleStore, rt: int):
        self.rt = rt
        self.rt_pairs = store.instances_of(rt, "train")
        if not self.rt_pairs:
            raise _empty_target(store, rt)
        self.valid_pairs = store.instances_of(rt, "valid")
        self.valid_by_c = _by_anchor(self.valid_pairs)
        self.result = LearnResult(target=rt, rules=[])
        self.oar_keys = 0   # how many of its walk keys are OAR keys
        self.mined: list[tuple[Rule, Measures]] = []
        self.visited = self.kept = 0

    def mine(self, rule: Rule, body: BodyIndex, hits,
             cfg: MinerConfig) -> None:
        """Mine a kept OAR: specialize it from its grounding pass (`body`)
        and the hits prior pruning counted as its support, then post-prune
        its anchorings."""
        specs, _ = specialization(rule, body, self.rt_pairs,
                                  self.valid_by_c, cfg=cfg, hits=hits)
        if not specs:
            self.result.u_oars += 1
            return
        self.result.i_oars += 1
        if cfg.enable_post_pruning:
            # a HAR binds only Y, which the OAR's body lacks, so it keeps
            # the body; a BAR's one I-parent is the HAR of its anchor, its
            # head over that body, which drops it iff kept with a higher sc
            hars = {r.head.obj: m for r, m in specs if r.body == rule.body}
            for r, m in specs:
                if hars.get(r.head.obj, m).sc > m.sc:
                    self.result.post_pruned.append((r, m))
                else:
                    self.mined.append((r, m))
        else:
            self.mined.extend(specs)

    def finish(self) -> LearnResult:
        result = self.result
        result.p_oars = self.oar_keys - result.i_oars - result.u_oars
        result.rules = sorted(self.mined, key=_by_sc)
        result.post_pruned.sort(key=_by_sc)
        return result


def learn(store: TripleStore, rt: int, cfg: MinerConfig) -> LearnResult:
    """Mine one target: `learn_all` over it alone."""
    return learn_all(store, [rt], cfg)[rt]


def learn_all(store: TripleStore, targets: Collection[int],
              cfg: MinerConfig) -> dict[int, LearnResult]:
    """Mine every target in one traversal; each target's result, in the
    order of `targets`, is the one it would get alone.

    Each target samples its own walk keys, with its own seed. Prior
    pruning's breadth-first traversal then runs once over the union of
    their A-hierarchies, tries over walk keys, and builds and measures
    each abstract rule a target reaches once per target: a target visits a
    key iff it sampled it and kept its parent, and keeps it iff supp >=
    `supp_h` (0 prunes nothing). A closed rule is measured by `evaluate`.
    An OAR is measured by its support alone: its hits, the target's train
    pairs in its head groundings (`_hits`), which its specialization
    reads; `evaluate` would give the same supp, with the hc, sc, |g| and
    validation support that nothing here reads. A rule no target reaches
    is never built. An OAR's body does not depend on the target
    (`walk_rule` uses it only in the head), so each body is grounded once
    per run, by extending the groundings of its A-parent, and every target
    that visits the key counts its hits and mines it from that one index.
    A parent's groundings are dropped once its children are visited, and
    a key no target kept keeps none. The neighbour-position maps of walk
    sampling are built once per run too.

    A target mines each kept rule as it visits it: a closed rule is
    filtered, an OAR specialized over the target's train pairs as stored,
    in no set order: its kept anchorings do not depend on it, and the
    rules are sorted at the end. No mined rule repeats: a HAR keeps its
    OAR's body, a BAR's OAR is its one body constant lifted, and CARs,
    HARs and BARs differ in their number of constants. Mining builds no
    hierarchy and checks no subsumption; `learned_hierarchy` builds the
    run's from its results.

    The run's time is split over the targets with no gap or overlap, so
    their `gen_seconds` and `spec_seconds` add up to its wall time. A
    target's `gen_seconds` is its walk sampling, and its `spec_seconds`
    its measuring, specialization and post pruning, plus the grounding
    and the common(X's slot) map of each body whose key it is the first
    target, in `targets` order, to visit."""
    clock = time.monotonic()

    def lap() -> float:
        """The time since the last lap."""
        nonlocal clock
        now = time.monotonic()
        lapsed, clock = now - clock, now
        return lapsed

    def charge(t: _Target) -> None:
        t.result.spec_seconds += lap()

    states = [_Target(store, rt) for rt in targets]
    if len({t.rt for t in states}) != len(states):
        raise ValueError("a target is listed twice")
    # the targets that sampled each key, as a set of bits: bit i stands
    # for states[i]
    tags: dict[tuple[int, ...], int] = {}
    where: dict[int, dict[int, list[int]]] = {}   # see _sample_walk
    for i, t in enumerate(states):
        keys = generalization(store, t.rt, cfg, where)
        t.result.gen_seconds = lap()
        t.result.abstract_rules = len(keys)
        t.oar_keys = sum(map(_is_oar_key, keys))
        for key in keys:
            tags[key] = tags.get(key, 0) | 1 << i
        charge(t)
    keys = where = None   # walk sampling is done: free its keys and maps
    trie = _WalkTrie(sorted(tags))
    # a kept key's groundings (None for the top rule), how many of its
    # children are still to be visited, and the bits of the targets that
    # kept it
    pending: dict[tuple[int, ...], list] = {}

    def visit(key: tuple[int, ...]) -> bool:
        """Build a key's rule for each target that visits it, ground its
        body once if it is an OAR, and let each of those targets measure,
        keep and mine it. Kept iff some target keeps it."""
        if key:
            up = pending[key[:-3]]   # the traversal reached key from it
            up[1] -= 1
            if not up[1]:
                del pending[key[:-3]]
            parent, bits = up[0], tags[key] & up[2]
        else:   # the root: every target sampled it, if there is one
            parent, bits = None, tags.get(key, 0)
        if not bits:
            return False
        active = []   # the targets of the set bits, in `targets` order
        while bits:
            low = bits & -bits
            active.append((low, states[low.bit_length() - 1]))
            bits ^= low
        rules = [walk_rule(t.rt, key) for _, t in active]
        body = None
        if _is_oar_key(key):
            body = open_groundings(rules[0], store, parent)
            common = body.common(body.pos[VAR_X])
            charge(active[0][1])
        kept = 0
        for (bit, t), rule in zip(active, rules):
            t.visited += 1
            if body is None:
                m = evaluate(rule, store, t.rt_pairs, cfg, t.valid_pairs,
                             parent)
                supp = m.supp
            else:   # prior pruning reads an OAR's support alone
                hits = _hits(common, t.rt_pairs)
                supp = len(hits)
            if supp >= cfg.supp_h:
                t.kept += 1
                kept |= bit
                if body is not None:
                    t.mine(rule, body, hits, cfg)
                elif key and is_relevant(m, cfg) and overfit_keep(m, cfg):
                    t.mined.append((rule, m))
            charge(t)
        if kept and trie.children(key):
            pending[key] = [None if body is None else body.groundings,
                            len(trie.children(key)), kept]
        return bool(kept)

    bfs_with_pruning(trie, visit)
    for t in states:
        res = t.finish()
        charge(t)
        log.debug("relation %d: %d walk keys, %d visited, %d kept; OARs "
                  "p/i/u %d/%d/%d; %d rules; gen %.3f s, spec %.3f s",
                  t.rt, res.abstract_rules, t.visited, t.kept, res.p_oars,
                  res.i_oars, res.u_oars, len(res.rules), res.gen_seconds,
                  res.spec_seconds)
    return {t.rt: t.result for t in states}


def learned_hierarchy(store: TripleStore, results: dict[int, LearnResult],
                      cfg: MinerConfig) -> hmod.Hierarchy:
    """The rule hierarchy of `results`, which `learn_all(store, targets,
    cfg)` returned, found by the builders: the A-hierarchy of the abstract
    rules of every walk key each target samples, also the ones prior
    pruning skipped, and with post pruning on, the I-hierarchy of the
    rules each target mined and the BARs post pruning dropped. The walks
    are sampled again, with the run's seed, so they give the run's keys."""
    where: dict[int, dict[int, list[int]]] = {}   # see _sample_walk
    h = build_a_hierarchy(walk_rule(rt, key) for rt in results
                          for key in generalization(store, rt, cfg, where))
    if not cfg.enable_post_pruning:
        return h
    return hmod.union(h, build_i_hierarchy(
        r for res in results.values()
        for r, _ in chain(res.rules, res.post_pruned)))


# ---------------------------------------------------------------------------
# rule-set file round trip

def write_rules(path, items: list[tuple[Rule, Measures]], entities,
                relations) -> None:
    """Write one rule per line with its supp, hc, sc and kind. Each
    distinct atom and each distinct body is formatted once per file, and
    each body is classified once per head shape: of the head, `kind_of`
    reads which terms are variables, and whether the body holds a
    constant one."""
    atoms: dict = {}
    bodies: dict = {}
    # per body, its constants and each head shape's kind
    kinds: dict[tuple[Atom, ...], tuple[set[Term], dict]] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for rule, m in items:
            text = format_rule(rule, entities, relations, atoms, bodies)
            held, by_head = kinds.get(rule.body) or kinds.setdefault(
                rule.body, ({t for a in rule.body for t in a.terms
                             if not t.is_var}, {}))
            _, s, o = rule.head
            shape = (s if s.is_var else s in held,
                     o if o.is_var else o in held)
            kind = by_head.get(shape)
            if kind is None:
                kind = by_head[shape] = kind_of(rule)
            fh.write(f"{text} | "
                     f"supp={m.supp} | hc={m.hc!r} | sc={m.sc!r} | "
                     f"kind={kind}\n")


def read_rules(path, entities, relations) -> list[tuple[Rule, Measures]]:
    """Read a rule file back: the rule and its supp, hc and sc per line,
    each line the rule text and then exactly the columns `write_rules`
    writes (`_RULE_LINE_RE`). Each distinct atom text is parsed once per
    file, and so is each distinct body text after a head that holds no
    variable but X and Y: a later line with that body and such a head is
    the first one's body under its own head (`parse_rule`'s `bodies`). A
    malformed line, or one that is not UTF-8, raises ParseError naming
    `path:lineno`."""
    out = []
    atoms: dict = {}
    bodies: dict = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = decode_line(raw, path, lineno)
            if not line:
                continue
            try:
                out.append(_read_rule_line(line, entities, relations, atoms,
                                           bodies))
            except ParseError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
    return out


# the columns `write_rules` writes after the rule text, which alone may
# hold " | ": supp in ASCII digits, hc and sc as `repr` writes a finite,
# non-negative float, and one of the six kinds
_FLOAT = r"[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
_RULE_LINE_RE = re.compile(
    rf"(.*) \| supp=([0-9]+) \| hc=({_FLOAT}) \| sc=({_FLOAT}) \| "
    r"kind=(?:CAR|OAR|HAR|BAR|INSR|OPEN)")


def _read_rule_line(line: str, entities, relations, atoms: dict,
                    bodies: dict) -> tuple[Rule, Measures]:
    m = _RULE_LINE_RE.fullmatch(line)
    # an exponent past a float's range reads as inf
    if m is None or math.inf in (hc := float(m[3]), sc := float(m[4])):
        raise ParseError("expected <rule> | supp=<n> | hc=<x> | sc=<x> | "
                         "kind=<kind>")
    return (parse_rule(m[1], entities, relations, intern=False, atoms=atoms,
                       bodies=bodies),
            Measures(int(m[2]), hc, sc))
