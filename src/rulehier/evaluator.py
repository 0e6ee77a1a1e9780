"""Knowledge-graph-completion evaluation: rule application, maximum
aggregation ranking with recursive tie-breaking, filtered MRR and Hits@k.

Rules are applied per distinct body: each body is grounded once into a
`miner.BodyIndex`, the index specialization reads, and every rule of the
body answers from it, appending its sc straight to the confidence vector
of each candidate it suggests. The rules of a body that read one map of
the index for one (relation, slot) share the list of that map's entries
for the queried known entities.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from .kgstore import TripleStore
from .miner import BodyIndex, Measures, ground_body
from .rules import Rule


@dataclass(frozen=True)
class Query:
    """One completion query derived from a test triple."""

    rel: int
    known: int
    slot: str           # "head": rel(known, ?), "tail": rel(?, known)
    answer: int


def queries_for(store: TripleStore, rels: set[int] | None = None) -> list[Query]:
    """Head and tail queries for every test triple (optionally filtered)."""
    out = []
    for rel, subj, obj in store.splits["test"]:
        if rels is not None and rel not in rels:
            continue
        out.append(Query(rel, subj, "head", obj))
        out.append(Query(rel, obj, "tail", subj))
    return out


def _answers(rule: Rule, sc: float, body: BodyIndex, consts: set[int],
             wanted: dict[tuple[int, str], set[int]],
             vectors: dict[tuple, dict[int, list[float]]],
             shared: dict[tuple, list]) -> None:
    """Append `sc` to the vector of each entity `rule` suggests per wanted
    (rel, slot, known), read from its body's index, whose groundings avoid
    `consts`, the body's constants. A grounding counts unless it uses a
    head-only constant; the rule suggests open value o for known k iff a
    counted grounding binds the known term to k (a known constant must
    equal k) and the open term to o. A known variable the body leaves
    unbound takes any k that is no rule constant and lies outside the
    entities the grounding uses; an open variable the body leaves unbound
    answers only when it is the known variable itself.

    When the body binds the known term, `shared` holds, per (rel, slot,
    known slot, open slot), the (vector, common[k] or pairs[k]) entry of
    each queried k the body binds there; it is built for the body's first
    such rule and read by the rest.
    """
    rel = rule.head.pred
    hs, ho = rule.head.subj, rule.head.obj
    for slot, known, open_term in (("head", hs, ho), ("tail", ho, hs)):
        ks = wanted.get((rel, slot))
        if not ks:
            continue
        j, i = body.pos.get(known), body.pos.get(open_term)
        if j is not None:
            if i is None and open_term.is_var:
                continue   # the body leaves the open term unbound
            entries = shared.get((rel, slot, j, i))
            if entries is None:
                by_k = body.common(j) if i is None else body.pairs(j, i)
                entries = shared[(rel, slot, j, i)] = [
                    (vectors[(rel, slot, k)], by_k[k])
                    for k in ks & by_k.keys()]
            if i is None:
                # a counted grounding of k avoids c iff c is outside
                # common[k]
                c = open_term.idx
                for vec, ents in entries:
                    if c not in ents:
                        vec[c].append(sc)
            else:
                for vec, cands in entries:
                    for o in cands:
                        vec[o].append(sc)
        elif i is not None:
            # the values at i of the groundings that avoid k: an unbound
            # known variable binds k, and a known constant k is the only
            # head-only constant
            common = body.common(i)
            for k in (ks - consts if known.is_var
                      else ks & {known.idx}):
                vec = vectors[(rel, slot, k)]
                for o, ents in common.items():
                    if k not in ents:
                        vec[o].append(sc)
        elif not open_term.is_var or open_term == known:
            # the body binds neither head term (a ground head, say): scan
            head_only = {t.idx for t in rule.head.terms
                         if not t.is_var} - consts
            counted = [g for g in body.groundings
                       if head_only.isdisjoint(g)]
            if not counted:
                continue
            o = None if open_term.is_var else open_term.idx
            if not known.is_var:
                if known.idx in ks:
                    vectors[(rel, slot, known.idx)][o].append(sc)
                continue
            common = set(counted[0]).intersection(*counted[1:])
            for k in ks - head_only - consts - common:
                vectors[(rel, slot, k)][k if o is None else o].append(sc)


def _suggest_all(queries: list[Query], rules: list[tuple[Rule, Measures]],
                 store: TripleStore
                 ) -> tuple[dict[tuple, dict[int, list[float]]], dict]:
    """Candidate entity -> sc vector per query key, and pass counts. Each
    body of a queried relation's rules is grounded once. A rule answers
    the queries of its head relation.
    """
    wanted: dict[tuple[int, str], set[int]] = defaultdict(set)
    for q in queries:
        wanted[(q.rel, q.slot)].add(q.known)
    rels = {rel for rel, _ in wanted}
    by_body: dict[tuple, list[tuple[Rule, Measures]]] = defaultdict(list)
    for rule, m in rules:
        if rule.head.pred in rels:
            by_body[rule.body].append((rule, m))
    stats = {"bodies_grounded": len(by_body), "groundings": 0}
    vectors: dict[tuple, dict[int, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for group in by_body.values():
        first = group[0][0]
        consts = {t.idx for a in first.body for t in a.terms if not t.is_var}
        body = BodyIndex(first, ground_body(first, store, exclude=consts))
        stats["groundings"] += len(body.groundings)
        shared: dict[tuple, list] = {}
        for rule, m in group:
            _answers(rule, m.sc, body, consts, wanted, vectors, shared)
    return vectors, stats


def suggest(query: Query, rules: list[tuple[Rule, Measures]],
            store: TripleStore) -> dict[int, list[float]]:
    """Candidate entity -> vector of sc values of the suggesting rules."""
    key = (query.rel, query.slot, query.known)
    return dict(_suggest_all([query], rules, store)[0].get(key, {}))


def rank(candidates: dict[int, list[float]], known_truths: set[int]
         ) -> list[tuple[int, tuple[float, ...]]]:
    """Maximum-aggregation ranking in the filtered setting: the
    candidates in final rank order, each with its confidence vector.

    Candidates in known_truths are removed. Remaining candidates are
    ordered by lexicographic comparison of descending confidence vectors;
    on an exhausted equal prefix the longer vector wins, and fully
    identical vectors fall back to ascending entity id.
    """
    items = [(e, tuple(sorted(v, reverse=True)))
             for e, v in candidates.items() if e not in known_truths]
    items.sort(key=lambda t: (t[1], -t[0]), reverse=True)
    return items


def mrr(ranks: list[int | None]) -> float:
    """Mean reciprocal rank; an unsuggested answer contributes 0."""
    if not ranks:
        return 0.0
    return sum(1.0 / r for r in ranks if r) / len(ranks)


def hits_at(k: int, ranks: list[int | None]) -> float:
    if not ranks:
        return 0.0
    return sum(1 for r in ranks if r and r <= k) / len(ranks)


@dataclass
class KgcSummary:
    mrr: float
    hits: dict[int, float]
    rule_application_seconds: float
    records: list[tuple[Query, int | None, list[tuple[int, float]]]]
    stats: dict[str, int]   # queries, bodies_grounded, groundings


def evaluate_kgc(store: TripleStore,
                 rules_by_rel: dict[int, list]) -> KgcSummary:
    """Answer the head and tail test queries of every relation in
    rules_by_rel and aggregate metrics; each record keeps the query's top
    10 candidates.

    Each distinct rule body is grounded once over the train split and
    answers derive from those groundings. Rule application time covers
    grounding, filtering and ranking over the full query set.
    """
    rels = set(rules_by_rel)
    queries = queries_for(store, rels)
    # pre-index known truths per (rel, known, slot)
    truths: dict[tuple[int, int, str], set[int]] = {}
    for split in ("train", "valid", "test"):
        for rel, subj, obj in store.splits[split]:
            if rel not in rels:
                continue
            truths.setdefault((rel, subj, "head"), set()).add(obj)
            truths.setdefault((rel, obj, "tail"), set()).add(subj)

    ranks: list[int | None] = []
    records = []
    t0 = time.monotonic()
    vectors, counts = _suggest_all(queries, [
        rm for rms in rules_by_rel.values() for rm in rms], store)
    for q in queries:
        known = set(truths.get((q.rel, q.known, q.slot), set()))
        known.discard(q.answer)
        ranking = rank(vectors.get((q.rel, q.slot, q.known), {}), known)
        # the answer's 1-based position, None if unsuggested
        r = next((i for i, (e, _) in enumerate(ranking, start=1)
                  if e == q.answer), None)
        ranks.append(r)
        top = [(e, v[0] if v else 0.0) for e, v in ranking[:10]]
        records.append((q, r, top))
    rat = time.monotonic() - t0
    return KgcSummary(mrr=mrr(ranks),
                      hits={k: hits_at(k, ranks) for k in (1, 3, 10)},
                      rule_application_seconds=rat,
                      records=records,
                      stats={"queries": len(queries), **counts})
