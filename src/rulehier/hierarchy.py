"""Proper rule hierarchies: addition edges, instantiation edges, their
union and breadth-first traversal with subtree pruning.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .rules import Rule, body_length, kind_of
from .subsumption import a_subsumes, i_subsumes

A_EDGE = "A"
I_EDGE = "I"
ORPHAN_EDGE = "orphan"


@dataclass(frozen=True)
class SubsumptionEdge:
    parent: Rule
    child: Rule
    kind: str


@dataclass
class Hierarchy:
    """A DAG of subsumption edges; parent subsumes child."""

    nodes: set[Rule] = field(default_factory=set)
    edges: set[SubsumptionEdge] = field(default_factory=set)
    orphan_count: int = 0

    def __post_init__(self):
        self._children: dict[Rule, list[Rule]] = defaultdict(list)
        self._parents: dict[Rule, list[Rule]] = defaultdict(list)
        for e in sorted(self.edges, key=lambda e: (e.parent.sort_key(),
                                                   e.child.sort_key())):
            self._children[e.parent].append(e.child)
            self._parents[e.child].append(e.parent)

    def children(self, rule: Rule) -> list[Rule]:
        return self._children.get(rule, [])

    def parents(self, rule: Rule) -> list[Rule]:
        return self._parents.get(rule, [])

    @property
    def roots(self) -> list[Rule]:
        return sorted((n for n in self.nodes if not self._parents.get(n)),
                      key=Rule.sort_key)

    def edge_pairs(self) -> set[tuple[Rule, Rule]]:
        return {(e.parent, e.child) for e in self.edges}


def build_a_hierarchy(rules: Iterable[Rule], attach_orphans: bool = True) -> Hierarchy:
    """All single atom-addition edges over a set of abstract rules.

    Rules are bucketed by body length so only adjacent buckets are
    compared; the length-gap-1 restriction makes the result proper by
    construction. Non-root rules whose generalization was never sampled
    are attached to the top rule when one exists (continuity repair).
    """
    buckets: dict[int, list[Rule]] = defaultdict(list)
    nodes = set(rules)
    for r in nodes:
        buckets[body_length(r)].append(r)
    edges = set()
    for length, parents in buckets.items():
        for p in parents:
            for q in buckets.get(length + 1, []):
                if a_subsumes(p, q):
                    edges.add(SubsumptionEdge(p, q, A_EDGE))
    h = Hierarchy(nodes, edges)
    if attach_orphans:
        tops = [r for r in buckets.get(0, []) if kind_of(r) == "OAR"]
        top = tops[0] if tops else None
        orphans = [n for n in h.roots if body_length(n) > 0]
        if top is not None and orphans:
            for n in orphans:
                edges.add(SubsumptionEdge(top, n, ORPHAN_EDGE))
            h = Hierarchy(nodes, edges, orphan_count=len(orphans))
    return h


def build_i_hierarchy(rules: Iterable[Rule]) -> Hierarchy:
    """Single variable-instantiation edges within one specialization set.

    BARs are grouped on their head constant so only the HAR sharing that
    constant is tested against them.
    """
    nodes = set(rules)
    hars: dict[int, list[Rule]] = defaultdict(list)
    bars: dict[int, list[Rule]] = defaultdict(list)
    others: list[Rule] = []
    for r in nodes:
        k = kind_of(r)
        if k == "HAR":
            hars[r.head.obj.idx].append(r)
        elif k == "BAR":
            bars[r.head.obj.idx].append(r)
        else:
            others.append(r)
    edges = set()
    for head_const, har_list in hars.items():
        for h in har_list:
            for b in bars.get(head_const, []):
                if i_subsumes(h, b):
                    edges.add(SubsumptionEdge(h, b, I_EDGE))
    # generic rules (test corpora) fall back to pairwise checks
    if others:
        all_rules = sorted(nodes, key=Rule.sort_key)
        for p in all_rules:
            for q in all_rules:
                if p is not q and i_subsumes(p, q):
                    edges.add(SubsumptionEdge(p, q, I_EDGE))
    return Hierarchy(nodes, edges)


def union(*hierarchies: Hierarchy) -> Hierarchy:
    """One hierarchy over the nodes and edges of all the given ones."""
    nodes: set[Rule] = set()
    edges: set[SubsumptionEdge] = set()
    for h in hierarchies:
        nodes |= h.nodes
        edges |= h.edges
    return Hierarchy(nodes, edges,
                     orphan_count=sum(h.orphan_count for h in hierarchies))


def bfs_with_pruning(h: Hierarchy,
                     visit: Callable[[Rule], bool]) -> set[Rule]:
    """Visit roots, then children of kept nodes, level by level.

    visit(rule) returns True to keep the rule. A node is visited iff at
    least one of its parents was kept, and at most once. Returns the kept
    node set.

    The builders' hierarchies are acyclic by construction: every edge
    strictly raises (body length, deduction level). A-edges add one body
    atom, orphan edges leave the body-less top rule and I-edges add one
    constant. The `seen` set ends the traversal on any input regardless.
    """
    kept: set[Rule] = set()
    seen: set[Rule] = set()
    frontier = list(h.roots)
    seen.update(frontier)
    while frontier:
        next_frontier: list[Rule] = []
        for rule in frontier:
            if visit(rule):
                kept.add(rule)
                for child in h.children(rule):
                    if child not in seen:
                        seen.add(child)
                        next_frontier.append(child)
        frontier = next_frontier
    return kept


def write_dot(h: Hierarchy, path, namer: Callable[[Rule], str]) -> None:
    """DOT export: solid A-edges, dashed I-edges."""
    styles = {A_EDGE: "solid", I_EDGE: "dashed", ORPHAN_EDGE: "dotted"}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("digraph rules {\n")
        names = {n: f"r{i}" for i, n in
                 enumerate(sorted(h.nodes, key=Rule.sort_key))}
        for node, nid in names.items():
            label = namer(node).replace('"', r'\"')
            fh.write(f'  {nid} [label="{label}"];\n')
        for e in sorted(h.edges, key=lambda e: (e.parent.sort_key(),
                                                e.child.sort_key())):
            fh.write(f"  {names[e.parent]} -> {names[e.child]} "
                     f"[style={styles[e.kind]}];\n")
        fh.write("}\n")
