"""Knowledge-graph-completion evaluation: rule application, maximum
aggregation ranking with recursive tie-breaking, filtered MRR and Hits@k.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .kgstore import TripleStore
from .miner import CapExceeded, Measures, ground_body
from .rules import Rule, VAR_X, VAR_Y


@dataclass(frozen=True)
class Query:
    """One completion query derived from a test triple."""

    rel: int
    known: int
    slot: str           # "head": rel(known, ?), "tail": rel(?, known)
    answer: int


@dataclass
class PredictionRanking:
    """Filtered candidates in final rank order with their score vectors."""

    ordered: list[tuple[int, tuple[float, ...]]]
    ranks: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.ranks = {e: i + 1 for i, (e, _) in enumerate(self.ordered)}

    def rank_of(self, entity: int) -> int | None:
        return self.ranks.get(entity)


def queries_for(store: TripleStore, rels: set[int] | None = None) -> list[Query]:
    """Head and tail queries for every test triple (optionally filtered)."""
    out = []
    for rel, subj, obj in store.splits["test"]:
        if rels is not None and rel not in rels:
            continue
        out.append(Query(rel, subj, "head", obj))
        out.append(Query(rel, obj, "tail", subj))
    return out


def _apply_rule(rule: Rule, query: Query, store: TripleStore,
                cap: int = 0) -> set[int]:
    """Entities the rule suggests for the query's open slot.

    Grounding uses the train split only: facts known at inference time.
    """
    known_term, open_term = (rule.head.subj, rule.head.obj) \
        if query.slot == "head" else (rule.head.obj, rule.head.subj)
    if known_term.is_var:
        initial = {known_term: query.known}
    else:
        if known_term.idx != query.known:
            return set()
        initial = {}
    candidates: set[int] = set()
    try:
        for binding in ground_body(rule, store, cap, initial=initial):
            if open_term.is_var:
                cand = binding.get(open_term)
                if cand is None:
                    continue  # open head variable unbound by the body
                candidates.add(cand)
            else:
                candidates.add(open_term.idx)
    except CapExceeded:
        pass
    return candidates


def suggest(query: Query, rules: list[tuple[Rule, Measures]],
            store: TripleStore, cap: int = 0) -> dict[int, list[float]]:
    """Candidate entity -> vector of sc values of the suggesting rules."""
    vectors: dict[int, list[float]] = {}
    for rule, m in rules:
        if rule.head.pred != query.rel:
            continue
        for cand in _apply_rule(rule, query, store, cap):
            vectors.setdefault(cand, []).append(m.sc)
    return vectors


def rank(candidates: dict[int, list[float]],
         known_truths: set[int]) -> PredictionRanking:
    """Maximum-aggregation ranking in the filtered setting.

    Candidates in known_truths are removed. Remaining candidates are
    ordered by lexicographic comparison of descending confidence vectors;
    on an exhausted equal prefix the longer vector wins, and fully
    identical vectors fall back to ascending entity id.
    """
    items = [(e, tuple(sorted(v, reverse=True)))
             for e, v in candidates.items() if e not in known_truths]
    items.sort(key=lambda t: t[0])
    items.sort(key=lambda t: t[1], reverse=True)
    return PredictionRanking(items)


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


def evaluate_kgc(store: TripleStore, rules_by_rel: dict[int, list],
                 cap: int = 0) -> KgcSummary:
    """Answer the head and tail test queries of every relation in
    rules_by_rel and aggregate metrics; each record keeps the query's top
    10 candidates.

    Rule application time covers suggestion, filtering and ranking over
    the full query set.
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
    for q in queries:
        vectors = suggest(q, rules_by_rel.get(q.rel, []), store, cap)
        known = set(truths.get((q.rel, q.known, q.slot), set()))
        known.discard(q.answer)
        ranking = rank(vectors, known)
        r = ranking.rank_of(q.answer)
        ranks.append(r)
        top = [(e, v[0] if v else 0.0) for e, v in ranking.ordered[:10]]
        records.append((q, r, top))
    rat = time.monotonic() - t0
    return KgcSummary(mrr=mrr(ranks),
                      hits={k: hits_at(k, ranks) for k in (1, 3, 10)},
                      rule_application_seconds=rat,
                      records=records)
