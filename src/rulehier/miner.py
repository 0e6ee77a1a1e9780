"""Walk-based rule mining with hierarchical pruning.

Pipeline per target predicate: sample walks and generalize them into
abstract rules, build the atom-addition hierarchy, prune low-support
subtrees, measure the head/both-anchored specializations of surviving
open rules and instantiate only those that pass the relevance and
overfitting filters, build the instantiation hierarchy and drop anchored
rules dominated in confidence by their parents.
"""

from __future__ import annotations

import logging
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from typing import Callable

from .hierarchy import Hierarchy, build_a_hierarchy, build_i_hierarchy, \
    bfs_with_pruning, union
from .kgstore import TripleStore
from .rules import (X, Y, Atom, KindError, Rule, VAR_X, VAR_Y, constants,
                    dangling_term, instantiate, kind_of, walk_rule)

log = logging.getLogger(__name__)


class EmptyTargetError(ValueError):
    """The target predicate has no train instances."""


class CapExceeded(Exception):
    """Grounding enumeration hit the configured cap."""


@dataclass
class Measures:
    """Per-rule quality statistics on the train split."""

    supp: int = 0
    hc: float = 0.0
    sc: float = 0.0
    groundings: int = 0
    valid_supp: int = 0
    approximate: bool = False


@dataclass
class MinerConfig:
    max_len: int = 3
    supp_f: int = 3
    hc_f: float = 0.001
    sc_f: float = 0.001
    supp_h: int = 0
    eta: float = 5.0
    overfit_threshold: float = 0.1
    walks_per_instance: int = 10
    gen_time_budget: float = 0.0   # seconds, 0 = unconstrained
    spec_time_budget: float = 0.0
    grounding_cap: int = 0         # 0 = exact enumeration
    max_specs_per_oar: int = 0
    seed: int = 0
    enable_prior_pruning: bool = True
    enable_post_pruning: bool = True
    overfit_instantiated_only: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                continue
            low = 1 if f.name in ("max_len", "walks_per_instance") else 0
            if not value >= low:   # also rejects NaN
                raise ValueError(f"{f.name} must be >= {low}, got {value!r}")


@dataclass
class LearnResult:
    target: int
    rules: list[tuple[Rule, Measures]]
    p_oars: int = 0
    i_oars: int = 0
    u_oars: int = 0
    skipped_oars: int = 0
    gen_seconds: float = 0.0
    spec_seconds: float = 0.0
    truncated: bool = False
    abstract_rules: int = 0
    hierarchy: Hierarchy | None = None


# ---------------------------------------------------------------------------
# grounding

def ground_body(rule: Rule, store: TripleStore, cap: int = 0,
                exclude: set[int] | None = None):
    """Yield object-identity body groundings as var-Term -> entity dicts.

    Distinct variables bind distinct entities, all outside `exclude` (the
    rule's constants when None). Raises CapExceeded when `cap` candidate
    extensions have been examined (cap 0 = unlimited).
    """
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
            for cs, co in store.by_relation.get(atom.pred, []):
                steps += 1
                if cap and steps > cap:
                    raise CapExceeded
                if cs == co or not admissible(cs) or not admissible(co):
                    continue
                binding[atom.subj] = cs
                binding[atom.obj] = co
                used.update((cs, co))
                yield from rec(i + 1)
                del binding[atom.subj], binding[atom.obj]
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


def evaluate(rule: Rule, store: TripleStore, rt_pairs: set[tuple[int, int]],
             cfg: MinerConfig,
             valid_pairs: set[tuple[int, int]] | None = None) -> Measures:
    """Exact (up to cap) support / head coverage / smooth confidence.

    The head-grounding set g is induced by grounding the body over the
    train split under object identity; a head variable not bound by the
    body ranges over all entities outside the grounding.
    """
    valid_pairs = valid_pairs or set()
    n_entities = len(store.entities)
    n_rt = len(rt_pairs)

    def finish(supp, n_g, valid_supp, approx):
        hc = supp / n_rt if n_rt else 0.0
        sc = supp / (cfg.eta + n_g) if (cfg.eta + n_g) > 0 else 0.0
        return Measures(supp, hc, sc, n_g, valid_supp, approx)

    if not rule.body:
        # top rule: the empty body constrains nothing; measures are
        # analytic and |g| is recorded as |E|^2
        return finish(n_rt, n_entities ** 2, len(valid_pairs), False)

    consts = constants(rule)
    hx, hy = rule.head.subj, rule.head.obj
    body_vars = {t for a in rule.body for t in a.terms if t.is_var}
    free = [t for t in (hx, hy) if t.is_var and t not in body_vars]
    approx = False

    if not free:
        g: set[tuple[int, int]] = set()
        try:
            for b in ground_body(rule, store, cfg.grounding_cap):
                x = hx.idx if not hx.is_var else b[hx]
                y = hy.idx if not hy.is_var else b[hy]
                g.add((x, y))
        except CapExceeded:
            approx = True
        return finish(len(g & rt_pairs), len(g), len(g & valid_pairs), approx)

    if len(free) == 2:
        raise ValueError("rule body binds neither head term")

    free_is_obj = free[0] is hy
    # per fixed-side value, the entities excluded from every grounding:
    # the free head term may take any entity outside that set
    common: dict[int, set[int]] = {}
    try:
        for b in ground_body(rule, store, cfg.grounding_cap):
            fixed = (hx.idx if not hx.is_var else b[hx]) if free_is_obj \
                else (hy.idx if not hy.is_var else b[hy])
            excluded = set(b.values()) | consts
            if fixed in common:
                common[fixed] &= excluded
            else:
                common[fixed] = excluded
    except CapExceeded:
        approx = True
    n_g = sum(n_entities - len(ex) for ex in common.values())
    supp = valid_supp = 0
    for x, y in rt_pairs:
        fixed, other = (x, y) if free_is_obj else (y, x)
        if fixed in common and other not in common[fixed]:
            supp += 1
    for x, y in valid_pairs:
        fixed, other = (x, y) if free_is_obj else (y, x)
        if fixed in common and other not in common[fixed]:
            valid_supp += 1
    return finish(supp, n_g, valid_supp, approx)


# ---------------------------------------------------------------------------
# generalization (walk sampling)

def _sample_walk(store: TripleStore, rt: int, x: int, y: int, length: int,
                 rng: random.Random) -> tuple[int, ...]:
    """One random walk from x; revisits rejected, y allowed terminally.

    Returns the walk's key for `walk_rule`: a (predicate, subject id,
    object id) triple per step, where x has id 0, y id 1 and every other
    entity the next id from 2 in walk order.
    """
    ids = {x: X, y: Y}
    fresh = 2
    key: list[int] = []
    visited = {x}
    cur = x
    for step in range(length):
        last = step == length - 1
        cands = []
        for rel, other, direction in store.neighbors(cur):
            if rel == rt and ((direction == "out" and cur == x and other == y)
                              or (direction == "in" and cur == y and other == x)):
                continue  # never walk the originating triple
            if other in visited or (other == y and not last):
                continue
            cands.append((rel, other, direction))
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


def generalization(store: TripleStore, rt: int, cfg: MinerConfig,
                   result: LearnResult | None = None) -> list[Rule]:
    """Sample walks from every train instance and abstract them.

    Every walk prefix is abstracted too, so sampled rule sets stay closed
    under generalization. Prefixes are deduplicated by their key, and a
    rule is built only for a straight key not seen before. The top rule
    is always included. When `gen_time_budget` stops sampling before the
    last instance, `result.truncated` is set.
    """
    instances = sorted(store.instances_of(rt, "train"))
    if not instances:
        raise EmptyTargetError(f"relation {rt} has no train instances")
    rng = random.Random(f"{cfg.seed}:{rt}")
    rules = [Rule(Atom(rt, VAR_X, VAR_Y))]
    seen: set[tuple[int, ...]] = set()
    deadline = time.monotonic() + cfg.gen_time_budget \
        if cfg.gen_time_budget else None
    for i, (x, y) in enumerate(instances):
        if deadline and time.monotonic() > deadline:
            log.info("relation %d: gen_time_budget stopped sampling after "
                     "%d of %d instances", rt, i, len(instances))
            if result is not None:
                result.truncated = True
            break
        for length in range(1, cfg.max_len + 1):
            for _ in range(cfg.walks_per_instance):
                key = _sample_walk(store, rt, x, y, length, rng)
                if key in seen:
                    continue  # so is every prefix
                uses = [1, 1] + [0] * length   # X and Y occur in the head
                for k in range(3, len(key) + 1, 3):
                    uses[key[k - 2]] += 1
                    uses[key[k - 1]] += 1
                    if uses[key[k - 2]] > 2 or uses[key[k - 1]] > 2:
                        break  # not straight, nor any longer prefix
                    if key[:k] not in seen:
                        seen.add(key[:k])
                        rules.append(walk_rule(rt, key[:k]))
    return sorted(rules, key=Rule.sort_key)


# ---------------------------------------------------------------------------
# relevance, pruning, specialization

def is_relevant(m: Measures, cfg: MinerConfig) -> bool:
    """Strict three-way threshold conjunction."""
    return m.supp > cfg.supp_f and m.hc > cfg.hc_f and m.sc > cfg.sc_f


def overfit_keep(m: Measures, cfg: MinerConfig, rule_kind: str = "INSR") -> bool:
    """Validation-support ratio filter; threshold 0 keeps everything."""
    if cfg.overfit_threshold <= 0:
        return True
    if cfg.overfit_instantiated_only and rule_kind in ("CAR", "OAR"):
        return True
    if m.supp == 0:
        return False
    return m.valid_supp / m.supp >= cfg.overfit_threshold


def prior_pruning(phi_a: Hierarchy, supp_h: int, supp_of) -> set[Rule]:
    """Keep a rule and traverse its children iff supp >= supp_h."""
    return bfs_with_pruning(phi_a, lambda r: supp_of(r) >= supp_h)


def specialization(oar: Rule, store: TripleStore,
                   rt_pairs: set[tuple[int, int]],
                   valid_pairs: set[tuple[int, int]],
                   instances: list[tuple[int, int]],
                   cfg: MinerConfig,
                   keep: Callable[[Measures], bool] | None = None,
                   ) -> tuple[list[tuple[Rule, Measures]], bool]:
    """Instantiate an OAR into HARs and BARs anchored at train instances.

    Candidates are measured before they are instantiated. One shared
    body-grounding pass records, for each x and for each (x, tail value t),
    the entities that all of its groundings use. Some grounding of x avoids
    c, and so puts (x, c) in g, exactly when c is outside that
    intersection. Counting, per anchor c and per (t, c), the x whose
    intersection holds c gives every candidate's |g| by one subtraction,
    and its support looks only at the train and valid pairs with object c.

    A rule is built only for a candidate whose measures pass `keep`
    (every candidate when `keep` is None): a HAR binds Y to its anchor,
    a BAR also binds the dangling term. Returns (rules with measures,
    truncated flag).
    """
    if not oar.body:
        raise KindError("the top rule has no body atom to anchor")
    if kind_of(oar) != "OAR":
        raise KindError(f"expected an OAR, got {kind_of(oar)}")
    tail = dangling_term(oar)
    n_rt = len(rt_pairs)
    approx = False
    by_x: dict[int, list[tuple[int, frozenset[int]]]] = defaultdict(list)
    try:
        for b in ground_body(oar, store, cfg.grounding_cap):
            by_x[b[VAR_X]].append((b[tail], frozenset(b.values())))
    except CapExceeded:
        approx = True

    # the entities used by every grounding of x (key (x, None)) and by
    # every grounding of x whose tail value is t (key (x, t))
    common: dict[tuple[int, int | None], frozenset[int]] = {}
    for x, gs in by_x.items():
        common[(x, None)] = frozenset.intersection(*(ents for _, ents in gs))
        for t, ents in gs:
            prev = common.get((x, t))
            common[(x, t)] = ents if prev is None else prev & ents

    hars: list[int] = []
    bars: list[tuple[int, int]] = []
    seen_h, seen_b = set(), set()
    for x, y in sorted(instances):
        ents_x = common.get((x, None))
        if ents_x is None or y in ents_x:
            continue  # no grounding of x avoids y
        for t, ents in by_x[x]:
            if y in ents:
                continue
            if y not in seen_h:
                seen_h.add(y)
                hars.append(y)
            if t != y and (y, t) not in seen_b:
                seen_b.add((y, t))
                bars.append((y, t))

    # the cap limits HARs and BARs separately, so cap=1 yields at most one
    # HAR plus its first BAR
    cap = cfg.max_specs_per_oar
    truncated = bool(cap) and (len(hars) > cap or len(bars) > cap)
    if cap:
        hars = hars[:cap]
        kept = set(hars)
        bars = [cb for cb in bars if cb[0] in kept][:cap]

    # n_xs[t]: how many x have a grounding with tail value t (any tail
    # value for t None); blocked[(t, c)]: how many of them use c in every
    # such grounding. Only instance objects can be anchors.
    anchors = {y for _, y in instances}
    n_xs = Counter(t for _, t in common)
    blocked = Counter((t, c) for (_, t), ents in common.items()
                      for c in ents if c in anchors)
    rt_by_c: dict[int, list[int]] = defaultdict(list)
    for x, c in rt_pairs:
        rt_by_c[c].append(x)
    valid_by_c: dict[int, list[int]] = defaultdict(list)
    for x, c in valid_pairs:
        valid_by_c[c].append(x)

    def measure(c: int, t: int | None = None) -> Measures:
        def reached(x: int) -> bool:
            ents = common.get((x, t))
            return ents is not None and c not in ents
        n_g = n_xs[t] - blocked[(t, c)]
        supp = sum(map(reached, rt_by_c.get(c, ())))
        vsupp = sum(map(reached, valid_by_c.get(c, ())))
        hc = supp / n_rt if n_rt else 0.0
        return Measures(supp, hc, supp / (cfg.eta + n_g), n_g, vsupp, approx)

    out: list[tuple[Rule, Measures]] = []
    for c in hars:
        m = measure(c)
        if keep is None or keep(m):
            out.append((instantiate(oar, {VAR_Y: c}), m))
    for c, t in bars:
        m = measure(c, t)
        if keep is None or keep(m):
            out.append((instantiate(oar, {VAR_Y: c, tail: t}), m))
    return out, truncated


def post_pruning(phi_i: Hierarchy, sc: dict[Rule, float]) -> set[Rule]:
    """Drop every rule strictly dominated in sc by a subsuming parent."""
    survivors = set(phi_i.nodes)
    for edge in phi_i.edges:
        if sc[edge.parent] > sc[edge.child]:
            survivors.discard(edge.child)
    return survivors


# ---------------------------------------------------------------------------
# Algorithm: end-to-end learning for one target predicate

def learn(store: TripleStore, rt: int, cfg: MinerConfig,
          collect_hierarchy: bool = False) -> LearnResult:
    rt_pairs = store.instances_of(rt, "train")
    if not rt_pairs:
        raise EmptyTargetError(f"relation {rt} has no train instances")
    valid_pairs = store.instances_of(rt, "valid")
    instances = sorted(rt_pairs)

    result = LearnResult(target=rt, rules=[])
    t0 = time.monotonic()
    abstract = generalization(store, rt, cfg, result)
    result.gen_seconds = time.monotonic() - t0
    result.abstract_rules = len(abstract)

    cache: dict[Rule, Measures] = {}

    def measure(rule: Rule) -> Measures:
        if rule not in cache:
            cache[rule] = evaluate(rule, store, rt_pairs, cfg, valid_pairs)
        return cache[rule]

    # when collecting: the A-hierarchy (if built), then every I-hierarchy,
    # unioned once at the end
    collected: list[Hierarchy] = []

    if cfg.enable_prior_pruning:
        phi_a = build_a_hierarchy(abstract)
        if collect_hierarchy:
            collected.append(phi_a)
        survivors = prior_pruning(phi_a, cfg.supp_h,
                                  lambda r: measure(r).supp)
    else:
        survivors = set(abstract)

    oars = [r for r in abstract if r.body and kind_of(r) == "OAR"]
    result.p_oars = sum(r not in survivors for r in oars)

    work = [r for r in survivors if r.body]
    work.sort(key=lambda r: (-measure(r).supp, r.sort_key()))

    def relevant_spec(m: Measures) -> bool:
        # overfit_keep treats only CARs and OARs by kind, so the default
        # kind stands for both HARs and BARs
        return is_relevant(m, cfg) and overfit_keep(m, cfg)

    t1 = time.monotonic()
    deadline = t1 + cfg.spec_time_budget if cfg.spec_time_budget else None
    mined: list[tuple[Rule, Measures]] = []
    for i, rule in enumerate(work):
        if deadline and time.monotonic() > deadline:
            result.skipped_oars = sum(kind_of(r) == "OAR" for r in work[i:])
            result.truncated = True
            break
        k = kind_of(rule)
        if k == "CAR":
            m = measure(rule)
            if is_relevant(m, cfg) and overfit_keep(m, cfg, k):
                mined.append((rule, m))
            continue
        relevant, truncated = specialization(rule, store, rt_pairs,
                                             valid_pairs, instances, cfg,
                                             keep=relevant_spec)
        result.truncated = result.truncated or truncated
        if not relevant:
            result.u_oars += 1
            continue
        result.i_oars += 1
        if cfg.enable_post_pruning:
            phi_i = build_i_hierarchy([r for r, _ in relevant])
            keep = post_pruning(phi_i, {r: m.sc for r, m in relevant})
            relevant = [(r, m) for r, m in relevant if r in keep]
            if collect_hierarchy:
                collected.append(phi_i)
        mined.extend(relevant)
    result.spec_seconds = time.monotonic() - t1

    uniq: dict[Rule, Measures] = {}
    for rule, m in mined:
        uniq.setdefault(rule, m)
    result.rules = sorted(uniq.items(),
                          key=lambda rm: (-rm[1].sc, rm[0].sort_key()))
    if collected:
        result.hierarchy = union(*collected)
    return result


# ---------------------------------------------------------------------------
# rule-set file round trip

def format_rule_line(rule: Rule, m: Measures, entities, relations,
                     fmt_rule) -> str:
    return (f"{fmt_rule(rule, entities, relations)} | supp={m.supp} | "
            f"hc={m.hc!r} | sc={m.sc!r} | kind={kind_of(rule)}")


def write_rules(path, items: list[tuple[Rule, Measures]], entities,
                relations) -> None:
    from .rules import format_rule
    with open(path, "w", encoding="utf-8") as fh:
        for rule, m in items:
            fh.write(format_rule_line(rule, m, entities, relations,
                                      format_rule) + "\n")


def read_rules(path, entities, relations) -> list[tuple[Rule, Measures]]:
    from .kgstore import ParseError
    from .rules import parse_rule
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" | ")
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 columns")
            rule = parse_rule(parts[0], entities, relations, intern=False)
            fields = dict(p.split("=", 1) for p in parts[1:])
            out.append((rule, Measures(supp=int(fields["supp"]),
                                       hc=float(fields["hc"]),
                                       sc=float(fields["sc"]))))
    return out
