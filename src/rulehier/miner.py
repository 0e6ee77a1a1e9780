"""Walk-based rule mining with hierarchical pruning.

Pipeline per target predicate: sample walks and generalize them into
abstract rules, visit those breadth-first over the atom-addition hierarchy,
measuring each once and pruning subtrees below `supp_h`. A kept closed rule
is filtered for relevance; a kept open rule is specialized from the grounding
pass that measured it, support first and the dearer thresholds after, and
post pruning drops dominated anchorings. Both hierarchies are recorded as
their rules are made, with no subsumption check: an abstract rule's
A-parent is its walk prefix, and a BAR's I-parent is the HAR of its anchor.
"""

from __future__ import annotations

import logging
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .hierarchy import (A_EDGE, I_EDGE, Hierarchy, SubsumptionEdge,
                        bfs_with_pruning, union)
# learn calls neither; bench/layers.py probes these names at this module
from .hierarchy import build_a_hierarchy, build_i_hierarchy  # noqa: F401
from .kgstore import ParseError, TripleStore
from .rules import (X, Y, Atom, KindError, Rule, StraightnessError, Term,
                    VAR_X, VAR_Y, const, constants, dangling_term,
                    format_rule, is_straight, kind_of, parse_rule, walk_rule)
# specialization builds its rules directly; bench/layers.py probes this name
from .rules import instantiate  # noqa: F401

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
    # gen_time_budget, spec_time_budget and/or max_specs_per_oar
    truncated_by: set[str] = field(default_factory=set)
    abstract_rules: int = 0
    hierarchy: Hierarchy | None = None

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_by)


# ---------------------------------------------------------------------------
# grounding

def body_vars(rule: Rule) -> tuple[Term, ...]:
    """The body's variables in first-occurrence order: the positions of the
    entity tuples `ground_body` yields."""
    return tuple(dict.fromkeys(t for a in rule.body for t in a.terms
                               if t.is_var))


def ground_body(rule: Rule, store: TripleStore, cap: int = 0,
                exclude: set[int] | None = None):
    """Yield object-identity body groundings as entity tuples in the order
    of `body_vars(rule)`: distinct variables bind distinct entities outside
    `exclude` (the rule's constants when None), and an atom repeating a
    variable matches self-loops. The body is compiled once into a slot plan
    for a depth-first search over one value list. When `cap` candidate
    extensions have been examined (cap 0 = unlimited), yields the
    groundings found so far and raises CapExceeded."""
    order = body_vars(rule)
    slot = {t: i for i, t in enumerate(order + tuple(dict.fromkeys(
        t for a in rule.body for t in a.terms if not t.is_var)))}
    vals = [None if t.is_var else t.idx for t in slot]   # constants preset
    known = {t for t in slot if not t.is_var}
    plan = []   # per atom: check its fact, extend a known slot, or scan
    for pred, subj, obj in rule.body:
        s, o = slot[subj], slot[obj]
        if obj in known and subj not in known:
            plan.append(("extend", pred, o, s, store.bwd_index))
        elif subj in known:
            plan.append(("check" if obj in known else "extend", pred, s, o,
                         store.fwd_index))
        else:   # s == o when the atom repeats its variable
            plan.append(("scan", pred, s, o, None))
        known.update((subj, obj))

    has_train, by_relation = store.has_train, store.by_relation
    used = set(constants(rule) if exclude is None else exclude)
    limit = cap or float("inf")
    out: list[tuple[int, ...]] = []
    steps = 0

    def rec(i: int) -> None:
        nonlocal steps
        kind, pred, a, b, index = plan[i]
        leaf = i == len(plan) - 1
        if kind == "check":
            if has_train(pred, vals[a], vals[b]):
                out.append(tuple(vals[:len(order)])) if leaf else rec(i + 1)
            return
        cands = index.get((pred, vals[a]), ()) if kind == "extend" \
            else by_relation.get(pred, ())
        loop = a == b   # a scan of one variable: it binds one entity
        if leaf:   # count candidates at once, up to the cap
            over = steps + len(cands) > limit
            cands = cands[:limit - steps] if over else cands
            steps += len(cands)
            head = tuple(vals[:a if kind == "scan" else b])   # new slots last
            if kind == "extend":
                for c in cands:
                    if c not in used:
                        out.append(head + (c,))
            else:
                for s, o in cands:
                    if (s == o) == loop and s not in used and o not in used:
                        out.append(head + ((s,) if loop else (s, o)))
            if over:
                raise CapExceeded
            return
        # a fact check right after this step binds nothing, so it runs here,
        # with no `used` update and no call of its own
        nxt, check = i + 1, plan[i + 1]
        if check[0] == "check":
            nxt += 1
        else:
            check = None
        for c in cands:
            steps += 1
            if steps > limit:
                raise CapExceeded
            if kind == "extend":
                if c in used:
                    continue
                vals[b], new = c, (c,)
            elif (c[0] == c[1]) != loop or c[0] in used or c[1] in used:
                continue
            else:
                vals[a], vals[b] = new = c
            if check and not has_train(check[1], vals[check[2]],
                                       vals[check[3]]):
                continue
            if nxt == len(plan):
                out.append(tuple(vals[:len(order)]))
                continue
            used.update(new)
            rec(nxt)
            used.difference_update(new)

    try:
        rec(0) if plan else out.append(())
    except CapExceeded:
        yield from out
        raise
    yield from out


def _measures(supp: int, n_g: int, valid_supp: int, approx: bool,
              n_rt: int, cfg: MinerConfig) -> Measures:
    hc = supp / n_rt if n_rt else 0.0
    sc = supp / (cfg.eta + n_g) if (cfg.eta + n_g) > 0 else 0.0
    return Measures(supp, hc, sc, n_g, valid_supp, approx)


class OpenGroundings(NamedTuple):
    """An OAR's body groundings by the entity x that X binds: the grounding
    tuples of x (in the order of `body_vars`, so a tuple holds exactly the
    entities its grounding uses); the entities every grounding of x uses
    (so (x, c) is in the OAR's head-grounding set iff c is outside
    common[x]); the dangling term's slot in a tuple; and whether the
    grounding cap hit."""

    by_x: dict[int, list[tuple[int, ...]]]
    common: dict[int, set[int]]
    tail_slot: int
    capped: bool


def open_groundings(oar: Rule, store: TripleStore,
                    cap: int = 0) -> OpenGroundings:
    """Ground an OAR's body once, up to `cap` steps (see ground_body), and
    index its grounding tuples by the entity in X's slot. The tuples are
    kept as `ground_body` yields them; an OAR has no constants, so a tuple
    is the set of entities its grounding uses."""
    if not oar.body or kind_of(oar) != "OAR":
        kind = kind_of(oar) if oar.body else "the top rule"
        raise KindError(f"expected an OAR with a body atom, got {kind}")
    order = body_vars(oar)
    xs, ts = order.index(VAR_X), order.index(dangling_term(oar))
    by_x = defaultdict(list)
    capped = False
    try:
        for g in ground_body(oar, store, cap):
            by_x[g[xs]].append(g)
    except CapExceeded:
        capped = True
    common = {x: set(gs[0]).intersection(*gs[1:]) for x, gs in by_x.items()}
    return OpenGroundings(by_x, common, ts, capped)


def _open_measures(g: OpenGroundings, store: TripleStore, rt_pairs,
                   valid_pairs, cfg: MinerConfig) -> Measures:
    """An OAR's measures: Y ranges over the entities outside common[x]."""
    def hits(pairs) -> int:
        return sum(x in g.common and y not in g.common[x] for x, y in pairs)
    n_g = len(store.entities) * len(g.common) \
        - sum(map(len, g.common.values()))
    return _measures(hits(rt_pairs), n_g, hits(valid_pairs), g.capped,
                     len(rt_pairs), cfg)


def evaluate(rule: Rule, store: TripleStore, rt_pairs: set[tuple[int, int]],
             cfg: MinerConfig,
             valid_pairs: set[tuple[int, int]] | None = None) -> Measures:
    """Exact (up to cap) support / head coverage / smooth confidence.

    The head-grounding set g is induced by grounding the body over the
    train split under object identity. The only open rules measured are
    OARs, whose Y, not bound by the body, ranges over every entity outside
    the grounding; any other open rule raises ValueError.
    """
    valid_pairs = valid_pairs or set()
    n_rt = len(rt_pairs)
    if not rule.body:
        # top rule: the empty body constrains nothing; measures are
        # analytic and |g| is recorded as |E|^2
        return _measures(n_rt, len(store.entities) ** 2, len(valid_pairs),
                         False, n_rt, cfg)

    hx, hy = rule.head.subj, rule.head.obj
    order = body_vars(rule)
    free = [t for t in (hx, hy) if t.is_var and t not in order]
    if len(free) == 2:
        raise ValueError("rule body binds neither head term")
    if free:
        # open_groundings raises KindError, a ValueError, on a non-OAR
        return _open_measures(open_groundings(rule, store, cfg.grounding_cap),
                              store, rt_pairs, valid_pairs, cfg)

    xi = order.index(hx) if hx.is_var else None
    yi = order.index(hy) if hy.is_var else None
    g: set[tuple[int, int]] = set()
    approx = False
    try:
        for b in ground_body(rule, store, cfg.grounding_cap):
            g.add((hx.idx if xi is None else b[xi],
                   hy.idx if yi is None else b[yi]))
    except CapExceeded:
        approx = True
    return _measures(len(g & rt_pairs), len(g), len(g & valid_pairs), approx,
                     n_rt, cfg)


# ---------------------------------------------------------------------------
# generalization (walk sampling)

def _steps(store: TripleStore, rt: int, x: int, y: int, cur: int,
           visited: set[int], last: bool) -> list[tuple[int, int, str]]:
    """The edges a walk for instance (x, y) may take from `cur`: never the
    originating triple nor a visited entity, and y only on the last step."""
    return [(rel, other, d) for rel, other, d in store.neighbors(cur)
            if not (rel == rt and ((d == "out" and cur == x and other == y)
                                   or (d == "in" and cur == y and other == x)))
            and other not in visited and (last or other != y)]


def _sample_walk(store: TripleStore, rt: int, x: int, y: int, length: int,
                 rng: random.Random, first: list) -> tuple[int, ...]:
    """One random walk from x; revisits rejected, y allowed terminally.

    `first` is `_steps` from x, built once per instance and last-step flag.
    Returns the walk's key for `walk_rule`: a (predicate, subject id, object
    id) triple per step, where x has id 0, y id 1 and every other entity
    the next id from 2 in walk order.
    """
    ids = {x: X, y: Y}
    fresh = 2
    key: list[int] = []
    visited = {x}
    cur = x
    cands = first
    for step in range(length):
        if step:
            cands = _steps(store, rt, x, y, cur, visited, step == length - 1)
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
    last instance, it is added to `result.truncated_by`.
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
                result.truncated_by.add("gen_time_budget")
            break
        # x's first steps, for a walk of length 1 (y allowed) or longer
        firsts = [_steps(store, rt, x, y, x, {x}, last) for last in (0, 1)]
        for length in range(1, cfg.max_len + 1):
            for _ in range(cfg.walks_per_instance):
                key = _sample_walk(store, rt, x, y, length, rng,
                                   firsts[length == 1])
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


def specialization(oar: Rule, groundings: OpenGroundings,
                   rt_pairs: set[tuple[int, int]],
                   valid_pairs: set[tuple[int, int]],
                   instances: list[tuple[int, int]],
                   cfg: MinerConfig,
                   ) -> tuple[list[tuple[Rule, Measures]], bool]:
    """Anchor an OAR into its relevant HARs and BARs.

    A HAR binds Y to an anchor c, a BAR also binds the dangling term to a
    tail value t. `groundings`, which `open_groundings(oar, ...)` built (and
    so checked that `oar` is an OAR), gives per x, and per x and t, the
    entities all of its groundings use; (x, c) is in a candidate's head
    groundings iff c is outside that intersection. The pass over
    `instances` (the pairs of `rt_pairs`) that finds the candidates counts
    their support, so the thresholds run cheapest first: `supp_f` and
    `hc_f`, then |g| and `sc_f`, then the validation support and
    `overfit_keep`. Returns (rules with measures, truncated flag): exactly
    the candidates that pass `is_relevant` and `overfit_keep`, each built
    only if kept; with zero thresholds, every candidate (each has supp >= 1).

    A kept rule is the OAR with Y replaced by const(c) and the dangling
    term by const(t): what `instantiate(oar, bindings)` returns, without
    its checks per rule. An OAR has no constants, and t != c because t
    comes from a grounding that avoids c, so those checks fail only if the
    OAR's head lacks Y or the OAR is not straight. Both are checked once,
    before the first kept rule, and raise `instantiate`'s errors.
    """
    tail, ts = dangling_term(oar), groundings.tail_slot
    # supp[(c, t)] in first-seen order: an instance (x, y) that some
    # grounding of x avoids supports the HAR (y, None) once, and the BAR
    # (y, t) once per distinct tail value t of those groundings (t != y,
    # since a grounding binds distinct entities)
    supp: dict[tuple[int, int | None], int] = {}
    for x, y in sorted(instances):
        if y in groundings.common.get(x, (y,)):
            continue  # no grounding of x avoids y
        supp[(y, None)] = supp.get((y, None), 0) + 1
        for t in dict.fromkeys(g[ts] for g in groundings.by_x[x]
                               if y not in g):
            supp[(y, t)] = supp.get((y, t), 0) + 1

    # the cap limits HARs and BARs separately, so cap=1 yields at most one
    # HAR plus its first BAR
    hars = [ct for ct in supp if ct[1] is None]
    bars = [ct for ct in supp if ct[1] is not None]
    cap = cfg.max_specs_per_oar
    truncated = bool(cap) and (len(hars) > cap or len(bars) > cap)
    if cap:
        hars = hars[:cap]
        kept = {c for c, _ in hars}
        bars = [cb for cb in bars if cb[0] in kept][:cap]
    n_rt = len(rt_pairs)
    cands = [ct for ct in hars + bars
             if supp[ct] > cfg.supp_f and supp[ct] / n_rt > cfg.hc_f]
    if not cands:
        return [], truncated

    # the entities used by every grounding of x (key (x, None)) and by
    # every grounding of x whose tail value is t (key (x, t)), for the
    # tail values of the surviving BARs
    tails = {t for _, t in cands}
    common: dict[tuple[int, int | None], set[int]] = {
        (x, None): ents for x, ents in groundings.common.items()}
    for x, gs in groundings.by_x.items():
        for g in gs:
            t = g[ts]
            if t in tails:
                ents = common.get((x, t))
                if ents is None:
                    common[(x, t)] = set(g)
                else:
                    ents.intersection_update(g)

    # n_xs[t]: how many x have a grounding with tail value t (any tail
    # value for t None); blocked[(t, c)]: how many of them use c in every
    # such grounding
    anchors = {c for c, _ in cands}
    n_xs = Counter(t for _, t in common)
    blocked = Counter((t, c) for (_, t), ents in common.items()
                      for c in ents & anchors)
    valid_by_c: dict[int, list[int]] = defaultdict(list)
    for x, c in valid_pairs:
        valid_by_c[c].append(x)

    out: list[tuple[Rule, Measures]] = []
    for c, t in cands:
        n_g = n_xs[t] - blocked[(t, c)]
        if not supp[(c, t)] / (cfg.eta + n_g) > cfg.sc_f:
            continue
        valid = sum(c not in common.get((x, t), (c,))
                    for x in valid_by_c.get(c, ()))
        m = _measures(supp[(c, t)], n_g, valid, groundings.capped, n_rt, cfg)
        if not overfit_keep(m, cfg):
            continue
        if not out:
            if VAR_Y not in oar.head.terms:
                raise ValueError("bindings must name variables of the rule")
            if not is_straight(oar):
                raise StraightnessError(
                    "instantiation violates straightness")
        bind = {VAR_Y: const(c)} if t is None \
            else {VAR_Y: const(c), tail: const(t)}
        atoms = [Atom(p, bind.get(s, s), bind.get(o, o))
                 for p, s, o in oar.atoms]
        out.append((Rule(atoms[0], tuple(atoms[1:])), m))
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
    """Mine one target, measuring each abstract rule once (see `visit`).
    Past `spec_time_budget`, counted from the end of generalization, kept
    rules are still measured (so `p_oars` stays exact) but not mined."""
    rt_pairs = store.instances_of(rt, "train")
    if not rt_pairs:
        raise EmptyTargetError(f"relation {rt} has no train instances")
    valid_pairs = store.instances_of(rt, "valid")
    instances = sorted(rt_pairs)

    result = LearnResult(target=rt, rules=[])
    t0 = time.monotonic()
    abstract = generalization(store, rt, cfg, result)
    t1 = time.monotonic()
    result.gen_seconds = t1 - t0
    result.abstract_rules = len(abstract)
    deadline = t1 + cfg.spec_time_budget if cfg.spec_time_budget else None
    supp_h = cfg.supp_h if cfg.enable_prior_pruning else 0

    # when collecting: the A-hierarchy (if built), then every I-hierarchy,
    # unioned once at the end
    collected: list[Hierarchy] = []
    mined: list[tuple[Rule, Measures]] = []

    def visit(rule: Rule) -> bool:
        """Measure a rule, keep it iff supp >= supp_h and mine it: filter a
        CAR, specialize an OAR from the grounding pass that measured it."""
        is_oar = bool(rule.body) and kind_of(rule) != "CAR"
        if is_oar:
            g = open_groundings(rule, store, cfg.grounding_cap)
            m = _open_measures(g, store, rt_pairs, valid_pairs, cfg)
        else:
            m = evaluate(rule, store, rt_pairs, cfg, valid_pairs)
        if m.supp < supp_h:
            return False
        if not rule.body:
            return True
        if deadline and time.monotonic() > deadline:
            result.truncated_by.add("spec_time_budget")
            result.skipped_oars += is_oar
            return True
        if not is_oar:
            if is_relevant(m, cfg) and overfit_keep(m, cfg, "CAR"):
                mined.append((rule, m))
            return True
        specs, truncated = specialization(rule, g, rt_pairs, valid_pairs,
                                          instances, cfg)
        if truncated:
            result.truncated_by.add("max_specs_per_oar")
        if not specs:
            result.u_oars += 1
            return True
        result.i_oars += 1
        if cfg.enable_post_pruning:
            # a HAR binds only Y, which the OAR's body lacks, so it keeps
            # the body; each BAR's one I-parent is the HAR of its anchor
            hars = {r.head.obj: r for r, _ in specs if r.body == rule.body}
            phi_i = Hierarchy({r for r, _ in specs}, {
                SubsumptionEdge(hars[r.head.obj], r, I_EDGE)
                for r, _ in specs
                if r.body != rule.body and r.head.obj in hars})
            keep = post_pruning(phi_i, {r: m.sc for r, m in specs})
            specs = [(r, m) for r, m in specs if r in keep]
            if collect_hierarchy:
                collected.append(phi_i)
        mined.extend(specs)
        return True

    if cfg.enable_prior_pruning:
        # the rules are closed under walk prefixes, and a canonical rule's
        # prefix is canonical: a rule's one A-parent has its atoms but the
        # last
        by_atoms = {r.atoms: r for r in abstract}
        phi_a = Hierarchy(set(abstract), {
            SubsumptionEdge(by_atoms[r.atoms[:-1]], r, A_EDGE)
            for r in abstract if r.body})
        if collect_hierarchy:
            collected.append(phi_a)
        bfs_with_pruning(phi_a, visit)
    else:
        for rule in abstract:
            visit(rule)
    result.p_oars = sum(kind_of(r) == "OAR" for r in abstract if r.body) \
        - result.i_oars - result.u_oars - result.skipped_oars

    uniq: dict[Rule, Measures] = {}
    for rule, m in mined:
        uniq.setdefault(rule, m)
    result.rules = sorted(uniq.items(),
                          key=lambda rm: (-rm[1].sc, rm[0].sort_key()))
    if collected:
        result.hierarchy = union(*collected)
    result.spec_seconds = time.monotonic() - t1
    return result


# ---------------------------------------------------------------------------
# rule-set file round trip

def write_rules(path, items: list[tuple[Rule, Measures]], entities,
                relations) -> None:
    """Write one rule per line with its supp, hc, sc and kind. Each
    distinct atom is formatted once per file."""
    atoms: dict = {}
    with open(path, "w", encoding="utf-8") as fh:
        for rule, m in items:
            fh.write(f"{format_rule(rule, entities, relations, atoms)} | "
                     f"supp={m.supp} | hc={m.hc!r} | sc={m.sc!r} | "
                     f"kind={kind_of(rule)}\n")


def read_rules(path, entities, relations) -> list[tuple[Rule, Measures]]:
    """Read a rule file back: the rule and its supp, hc and sc per line.
    Each distinct atom text is parsed once per file. A malformed line
    raises ParseError naming `path:lineno`."""
    out = []
    atoms: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                out.append(_read_rule_line(line, entities, relations, atoms))
            except ParseError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
    return out


def _read_rule_line(line: str, entities, relations,
                    atoms: dict) -> tuple[Rule, Measures]:
    parts = line.split(" | ")
    if len(parts) != 5:
        raise ParseError("expected 5 columns")
    rule = parse_rule(parts[0], entities, relations, intern=False,
                      atoms=atoms)
    fields = {}
    for part in parts[1:]:
        name, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"column {part!r} is not name=value")
        fields[name] = value
    values = []
    for name, cast in (("supp", int), ("hc", float), ("sc", float)):
        if name not in fields:
            raise ParseError(f"missing measure {name!r}")
        try:
            values.append(cast(fields[name]))
        except ValueError:
            raise ParseError(f"bad {name} value {fields[name]!r}") from None
    return rule, Measures(*values)
