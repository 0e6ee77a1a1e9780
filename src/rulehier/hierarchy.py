"""Proper rule hierarchies: addition edges, instantiation edges, their
union and breadth-first traversal with subtree pruning.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, NamedTuple

from .rules import Rule
from .subsumption import a_subsumes, i_subsumes

A_EDGE = "A"
I_EDGE = "I"


class SubsumptionEdge(NamedTuple):
    parent: Rule
    child: Rule
    kind: str


@dataclass
class Hierarchy:
    """A DAG of subsumption edges; parent subsumes child.

    The child and parent lists, each in `Rule.sort_key` order, are built
    from the edges on the first call to `children`, `parents` or `roots`:
    a hierarchy that is only united or written as DOT never sorts them."""

    nodes: set[Rule] = field(default_factory=set)
    edges: set[SubsumptionEdge] = field(default_factory=set)

    def __post_init__(self):
        self._maps: tuple[dict[Rule, list[Rule]],
                          dict[Rule, list[Rule]]] | None = None

    def _children_parents(self):
        if self._maps is None:
            children, parents = defaultdict(list), defaultdict(list)
            for e in sorted(self.edges, key=lambda e: (e.parent.sort_key(),
                                                       e.child.sort_key())):
                children[e.parent].append(e.child)
                parents[e.child].append(e.parent)
            self._maps = children, parents
        return self._maps

    def children(self, rule: Rule) -> list[Rule]:
        return self._children_parents()[0].get(rule, [])

    def parents(self, rule: Rule) -> list[Rule]:
        return self._children_parents()[1].get(rule, [])

    @property
    def roots(self) -> list[Rule]:
        parents = self._children_parents()[1]
        return sorted((n for n in self.nodes if not parents.get(n)),
                      key=Rule.sort_key)


def _build(rules: Iterable[Rule], kind: str) -> Hierarchy:
    """Single-step edges of one kind, decided only between rules that have
    the parent's shape: the predicates and the constants (None for a
    variable) by position, head first.

    SA-subsumption matches atoms by position and constants exactly, and
    object identity keeps a variable off the subsumer's constants. So an
    A-parent's shape is the child's minus the last atom, and an I-parent's
    the child's with one constant lifted to None wherever it occurs.
    """
    nodes = set(rules)
    by_shape: dict[tuple, list[Rule]] = defaultdict(list)
    for r in nodes:
        by_shape[tuple(a.pred for a in r.atoms),
                 tuple(None if t.is_var else t.idx
                       for a in r.atoms for t in a.terms)].append(r)
    decides = a_subsumes if kind == A_EDGE else i_subsumes
    edges = set()
    for (preds, terms), children in by_shape.items():
        keys = ([(preds[:-1], terms[:-2])] if kind == A_EDGE
                else [(preds, tuple(None if t == c else t for t in terms))
                      for c in set(terms) - {None}])
        # several rules of one shape (alpha-variants) are all tested
        parents = [p for key in keys for p in by_shape.get(key, ())]
        edges.update(SubsumptionEdge(p, q, kind) for q in children
                     for p in parents if decides(p, q))
    return Hierarchy(nodes, edges)


def build_a_hierarchy(rules: Iterable[Rule]) -> Hierarchy:
    """All single atom-addition edges over a set of rules.

    A rule whose one-atom-shorter generalization is not in the set is a
    root; `generalization` samples every walk prefix, so over the rules of
    its walk keys the top rule is the only root.
    """
    return _build(rules, A_EDGE)


def build_i_hierarchy(rules: Iterable[Rule]) -> Hierarchy:
    """All single variable-instantiation edges over a set of rules."""
    return _build(rules, I_EDGE)


def union(*hierarchies: Hierarchy) -> Hierarchy:
    """One hierarchy over the nodes and edges of all the given ones."""
    nodes: set[Rule] = set()
    edges: set[SubsumptionEdge] = set()
    for h in hierarchies:
        nodes |= h.nodes
        edges |= h.edges
    return Hierarchy(nodes, edges)


def bfs_with_pruning(h, visit: Callable[[Hashable], bool]) -> set:
    """Visit roots, then children of kept nodes, level by level.

    `h` needs only `roots` and `children(node)`: a `Hierarchy` of rules,
    or `learn`'s trie of walk keys, whose nodes become rules only when
    visited. visit(node) returns True to keep the node. A node is visited
    iff at least one of its parents was kept, and at most once; a kept
    node's children are queued in the order `children` gives them.
    Returns the kept node set.

    The builders' and `learn`'s hierarchies are acyclic by construction:
    every edge strictly raises (body length, deduction level). A-edges add
    one body atom and I-edges add one constant. The `seen` set ends the
    traversal on any input regardless.
    """
    kept: set = set()
    seen: set = set()
    frontier = list(h.roots)
    seen.update(frontier)
    while frontier:
        next_frontier: list = []
        for node in frontier:
            if visit(node):
                kept.add(node)
                for child in h.children(node):
                    if child not in seen:
                        seen.add(child)
                        next_frontier.append(child)
        frontier = next_frontier
    return kept


def write_dot(h: Hierarchy, path, namer: Callable[[Rule], str]) -> None:
    """DOT export: solid A-edges, dashed I-edges. A node's label is
    `namer`'s text with each backslash and double quote escaped."""
    styles = {A_EDGE: "solid", I_EDGE: "dashed"}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("digraph rules {\n")
        names = {n: f"r{i}" for i, n in
                 enumerate(sorted(h.nodes, key=Rule.sort_key))}
        for node, nid in names.items():
            label = namer(node).replace("\\", "\\\\").replace('"', '\\"')
            fh.write(f'  {nid} [label="{label}"];\n')
        for e in sorted(h.edges, key=lambda e: (e.parent.sort_key(),
                                                e.child.sort_key())):
            fh.write(f"  {names[e.parent]} -> {names[e.child]} "
                     f"[style={styles[e.kind]}];\n")
        fh.write("}\n")
