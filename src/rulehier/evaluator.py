"""Knowledge-graph-completion evaluation: rule application, maximum
aggregation ranking with recursive tie-breaking, filtered MRR and Hits@k.

Rules are applied per distinct body: each body is grounded once into a
`miner.BodyIndex`, the index specialization reads, and every rule of the
body answers from it, appending its sc straight to the confidence vector
of each candidate it suggests. A body's rules answer in head groups, one
per head relation and head shape (the head with its constants masked,
so r(X,a) and r(X,b) are one shape): a group reads its maps of the index
once, and its rules differ only in their head constants and sc, which
each branch loops over inside. So all HARs r(X,c) of one body take one
pass over the queried entities' entries for head queries, and one per
anchor for tail queries.
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


def _answers(group: list[tuple[Rule, Measures]], body: BodyIndex,
             consts: set[int],
             vectors: dict[tuple[int, str], dict[int, dict]]) -> None:
    """Append each rule's sc to the vector of each entity the rule
    suggests per query key (rel, slot, known), for one head group: the
    rules over one body whose heads have one relation and one shape, the
    head with its constants masked, with their measures.
    `vectors[(rel, slot)]` holds each queried known's candidate vectors.
    Answers are read from the body's index, whose groundings avoid
    `consts`, the body's constants. A grounding counts unless it uses a
    head-only constant; a rule suggests open value o for known k iff a
    counted grounding binds the known term to k (a known constant must
    equal k) and the open term to o. A known variable the body leaves
    unbound takes any k that is no rule constant and lies outside the
    entities the grounding uses; an open variable the body leaves unbound
    answers only when it is the known variable itself.

    The shape decides the branch and the slots it reads, so each branch
    loops over the group's rules inside: the HARs and BARs r(X,c) of one
    body take one pass over the entries of common(X's slot) for the
    queried k of head queries, and one pass over that map per anchor c
    for the tail query on c.
    """
    first = group[0][0].head
    rel = first.pred
    # Atom fields: 1 is the subject, 2 the object
    for slot, kn, op in (("head", 1, 2), ("tail", 2, 1)):
        by_known = vectors.get((rel, slot))
        if by_known is None:
            continue
        # the group's known and open terms, constants of the first rule
        known, open_term = first[kn], first[op]
        j, i = body.pos.get(known), body.pos.get(open_term)
        if j is not None:
            if i is None and open_term.is_var:
                continue   # the body leaves the open term unbound
            # per queried k the body binds at j: its vector, and
            # common[k] or pairs[k]
            by_k = body.common(j) if i is None else body.pairs(j, i)
            entries = [(by_known[k], by_k[k])
                       for k in by_known.keys() & by_k.keys()]
            if i is None:
                # a counted grounding of k avoids c iff c is outside
                # common[k]
                anchors = [(r.head[op].idx, m.sc) for r, m in group]
                for vec, ents in entries:
                    for c, sc in anchors:
                        if c not in ents:
                            vec[c].append(sc)
            else:
                scs = [m.sc for _, m in group]
                for vec, cands in entries:
                    for o in cands:
                        vec[o].extend(scs)
        elif i is not None:
            # the values at i of the groundings that avoid k: an unbound
            # known variable binds k, and a known constant k is the only
            # head-only constant
            common = body.common(i)
            for r, m in group:
                known, sc = r.head[kn], m.sc
                if known.is_var:
                    ks = by_known.keys() - consts
                elif known.idx in by_known:
                    ks = (known.idx,)
                else:
                    continue
                for k in ks:
                    vec = by_known[k]
                    for o, ents in common.items():
                        if k not in ents:
                            vec[o].append(sc)
        elif not open_term.is_var or open_term == known:
            # the body binds neither head term (a ground head, say): scan
            for r, m in group:
                known, open_term, sc = r.head[kn], r.head[op], m.sc
                head_only = {t.idx for t in (known, open_term)
                             if not t.is_var} - consts
                counted = [g for g in body.groundings
                           if head_only.isdisjoint(g)]
                if not counted:
                    continue
                o = None if open_term.is_var else open_term.idx
                if not known.is_var:
                    if known.idx in by_known:
                        by_known[known.idx][o].append(sc)
                    continue
                common = set(counted[0]).intersection(*counted[1:])
                for k in by_known.keys() - head_only - consts - common:
                    by_known[k][k if o is None else o].append(sc)


def _suggest_all(queries: list[Query], rules: list[tuple[Rule, Measures]],
                 store: TripleStore
                 ) -> tuple[dict[tuple[int, str], dict[int, dict]], dict]:
    """Per (rel, slot) of the queries, each queried known's candidate
    entity -> sc vector, and pass counts. Each body of a queried
    relation's rules is grounded once, and its rules answer the queries
    of their head relations in head groups (see `_answers`), one call per
    group.
    """
    vectors: dict[tuple[int, str], dict[int, dict]] = {}
    for q in queries:
        by_known = vectors.setdefault((q.rel, q.slot), {})
        if q.known not in by_known:
            by_known[q.known] = defaultdict(list)
    rels = {rel for rel, _ in vectors}
    # per body, its first rule and its head groups, each keyed by the
    # relation and the head terms with constants masked as None
    by_body: dict[tuple, tuple[Rule, dict]] = {}
    for rm in rules:
        rule = rm[0]
        p, s, o = rule.head
        if p in rels:
            _, groups = by_body.get(rule.body) or by_body.setdefault(
                rule.body, (rule, defaultdict(list)))
            groups[(p, s if s.is_var else None,
                    o if o.is_var else None)].append(rm)
    stats = {"bodies_grounded": len(by_body), "groundings": 0}
    for first, groups in by_body.values():
        consts = {t.idx for a in first.body for t in a.terms if not t.is_var}
        body = BodyIndex(first, ground_body(first, store, exclude=consts))
        stats["groundings"] += len(body.groundings)
        for group in groups.values():
            _answers(group, body, consts, vectors)
    return vectors, stats


def suggest(query: Query, rules: list[tuple[Rule, Measures]],
            store: TripleStore) -> dict[int, list[float]]:
    """Candidate entity -> vector of sc values of the suggesting rules."""
    vectors = _suggest_all([query], rules, store)[0]
    return dict(vectors[(query.rel, query.slot)][query.known])


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
        ranking = rank(vectors[(q.rel, q.slot)][q.known], known)
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
