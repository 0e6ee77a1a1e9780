"""Walk-based rule mining with hierarchical pruning.

Pipeline per target predicate: sample walks and generalize them into
abstract rules, build the atom-addition hierarchy, prune low-support
subtrees, specialize surviving open rules into head/both-anchored rules,
filter by relevance and overfitting, build the instantiation hierarchy and
drop anchored rules dominated in confidence by their parents.
"""

from __future__ import annotations

import logging
import random
import time
from collections import defaultdict
from dataclasses import dataclass

from .hierarchy import Hierarchy, build_a_hierarchy, build_i_hierarchy, \
    bfs_with_pruning, union
from .kgstore import TripleStore
from .rules import (Atom, Path, Rule, StraightnessError, VAR_X, VAR_Y, const,
                    constants, dangling_term, generalize, instantiate,
                    kind_of, specialize_templates)

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
    prior_prune_cars: bool = True
    overfit_instantiated_only: bool = False

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        for name in ("supp_f", "hc_f", "sc_f", "supp_h"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class LearnResult:
    target: int
    rules: list[tuple[Rule, Measures]]
    p_oars: int = 0
    i_oars: int = 0
    u_oars: int = 0
    skipped_oars: int = 0
    orphan_count: int = 0
    gen_seconds: float = 0.0
    spec_seconds: float = 0.0
    truncated: bool = False
    hierarchy: Hierarchy | None = None


# ---------------------------------------------------------------------------
# grounding

def ground_body(rule: Rule, store: TripleStore, cap: int = 0,
                initial: dict | None = None):
    """Yield object-identity body groundings as var-Term -> entity dicts.

    Distinct variables bind distinct entities, all distinct from the
    rule's constants. Raises CapExceeded when `cap` candidate extensions
    have been examined (cap 0 = unlimited).
    """
    consts = constants(rule)
    binding: dict = dict(initial or {})
    if any(v in consts for v in binding.values()):
        return
    used = set(binding.values())
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
# generalization (path sampling)

def _sample_walk(store: TripleStore, rt: int, x: int, y: int, length: int,
                 rng: random.Random) -> Path | None:
    """One random walk from x; revisits rejected, y allowed terminally."""
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
                continue  # never walk the originating triple
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


def generalization(store: TripleStore, rt: int, cfg: MinerConfig) -> list[Rule]:
    """Sample walks from every train instance and abstract them.

    Every walk prefix is generalized too, so sampled rule sets stay closed
    under generalization. The top rule is always included.
    """
    instances = sorted(store.instances_of(rt, "train"))
    if not instances:
        raise EmptyTargetError(f"relation {rt} has no train instances")
    rng = random.Random(f"{cfg.seed}:{rt}")
    top = Rule(Atom(rt, VAR_X, VAR_Y))
    rules = {top}
    deadline = time.monotonic() + cfg.gen_time_budget \
        if cfg.gen_time_budget else None
    for x, y in instances:
        if deadline and time.monotonic() > deadline:
            break
        for length in range(1, cfg.max_len + 1):
            for _ in range(cfg.walks_per_instance):
                path = _sample_walk(store, rt, x, y, length, rng)
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
                   cfg: MinerConfig) -> tuple[list[tuple[Rule, Measures]], bool]:
    """Instantiate an OAR into HARs and BARs anchored at train instances.

    One shared body-grounding pass populates measures for every emitted
    rule. Returns (rules with measures, truncated flag).
    """
    har_tpl, bar_tpl = specialize_templates(oar)
    tail = dangling_term(oar)
    n_rt = len(rt_pairs)
    approx = False
    by_x: dict[int, list[tuple[int, frozenset[int]]]] = defaultdict(list)
    try:
        for b in ground_body(oar, store, cfg.grounding_cap):
            by_x[b[VAR_X]].append((b[tail], frozenset(b.values())))
    except CapExceeded:
        approx = True

    hars: list[int] = []
    bars: list[tuple[int, int]] = []
    seen_h, seen_b = set(), set()
    for x, y in sorted(instances):
        for t, ents in by_x.get(x, []):
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
    out: list[tuple[Rule, Measures]] = []

    def measures(xs: set[int], c: int) -> Measures:
        supp = sum((x, c) in rt_pairs for x in xs)
        vsupp = sum((x, c) in valid_pairs for x in xs)
        hc = supp / n_rt if n_rt else 0.0
        return Measures(supp, hc, supp / (cfg.eta + len(xs)), len(xs),
                        vsupp, approx)

    for c in hars:
        xs = {x for x, gs in by_x.items()
              if any(c not in ents for _, ents in gs)}
        out.append((instantiate(har_tpl, {VAR_Y: c}), measures(xs, c)))
    for c, t in bars:
        xs = {x for x, gs in by_x.items()
              if any(bt == t and c not in ents for bt, ents in gs)}
        out.append((instantiate(bar_tpl, {VAR_Y: c, tail: t}),
                    measures(xs, c)))
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

    t0 = time.monotonic()
    abstract = generalization(store, rt, cfg)
    gen_seconds = time.monotonic() - t0

    cache: dict[Rule, Measures] = {}

    def measure(rule: Rule) -> Measures:
        if rule not in cache:
            cache[rule] = evaluate(rule, store, rt_pairs, cfg, valid_pairs)
        return cache[rule]

    result = LearnResult(target=rt, rules=[], gen_seconds=gen_seconds)
    # when collecting: the A-hierarchy, then every I-hierarchy, unioned once
    # at the end
    collected: list[Hierarchy] = []

    if cfg.enable_prior_pruning:
        phi_a = build_a_hierarchy(abstract)
        result.orphan_count = phi_a.orphan_count
        if collect_hierarchy:
            collected.append(phi_a)

        def visitor(rule: Rule) -> bool:
            if not cfg.prior_prune_cars and kind_of(rule) == "CAR":
                return True
            return measure(rule).supp >= cfg.supp_h

        survivors = bfs_with_pruning(phi_a, visitor)
    else:
        survivors = set(abstract)

    oars = [r for r in abstract if r.body and kind_of(r) == "OAR"]
    result.p_oars = sum(r not in survivors for r in oars)

    work = [r for r in survivors if r.body]
    work.sort(key=lambda r: (-measure(r).supp, r.sort_key()))

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
        specs, truncated = specialization(rule, store, rt_pairs, valid_pairs,
                                          instances, cfg)
        result.truncated = result.truncated or truncated
        relevant = [(r, m) for r, m in specs
                    if is_relevant(m, cfg) and overfit_keep(m, cfg, kind_of(r))]
        if not relevant:
            result.u_oars += 1
            continue
        result.i_oars += 1
        if cfg.enable_post_pruning:
            phi_i = build_i_hierarchy([r for r, _ in relevant])
            keep = post_pruning(phi_i, {r: m.sc for r, m in relevant})
            relevant = [(r, m) for r, m in relevant if r in keep]
            if collected:
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
