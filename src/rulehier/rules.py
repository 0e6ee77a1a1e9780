"""Logical terms, atoms and chain rules, walk abstraction, anchoring and
the rule text grammar.

Rules are immutable values. Terms and atoms are named tuples; a rule
renumbers its fresh body variables by first occurrence at construction
time, so structural equality is plain equality, and it computes its hash
once. A sampled walk is abstracted from its key, a plain int tuple of
predicates and entity ids (`walk_rule`), so the miner builds one rule per
distinct walk shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .kgstore import Interner, ParseError

# reserved head-variable indices
X = 0
Y = 1
_FIRST_FRESH = 2


class StraightnessError(ValueError):
    """A path or instantiation that repeats a term more than twice."""


class KindError(ValueError):
    """An operation applied to a rule of the wrong kind."""


class Term(NamedTuple):
    """A variable (index) or a constant (entity id; negative = skolem)."""

    is_var: bool
    idx: int

    @property
    def is_skolem(self) -> bool:
        return not self.is_var and self.idx < 0


VAR_X = Term(True, X)
VAR_Y = Term(True, Y)


def var(i: int) -> Term:
    return Term(True, i + _FIRST_FRESH)


def const(entity: int) -> Term:
    return Term(False, entity)


def skolem(i: int) -> Term:
    return Term(False, -(i + 1))


class Atom(NamedTuple):
    pred: int
    subj: Term
    obj: Term

    @property
    def terms(self) -> tuple[Term, Term]:
        return (self.subj, self.obj)


@dataclass(frozen=True, eq=False)
class Rule:
    """A chain rule head <- body. Construction renumbers fresh variables.

    The hash is hash((head, body)) and is computed once, as is the atom
    tuple; equality compares the hashes first. A rule never equals a tuple.
    """

    head: Atom
    body: tuple[Atom, ...] = ()

    def __post_init__(self):
        body = tuple(self.body)
        mapping: dict[int, int] = {X: X, Y: Y}
        canonical = True
        for _, (s_var, s), (o_var, o) in (self.head, *body):
            if s_var and s not in mapping:
                mapping[s] = n = _FIRST_FRESH + len(mapping) - 2
                canonical = canonical and s == n
            if o_var and o not in mapping:
                mapping[o] = n = _FIRST_FRESH + len(mapping) - 2
                canonical = canonical and o == n
        if not canonical:
            def sub(t: Term) -> Term:
                return Term(True, mapping[t.idx]) if t.is_var else t
            head, *body = [Atom(a.pred, sub(a.subj), sub(a.obj))
                           for a in (self.head, *body)]
            object.__setattr__(self, "head", head)
            body = tuple(body)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_atoms", (self.head, *body))
        object.__setattr__(self, "_hash", hash((self.head, body)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self is other or (self._hash == other._hash
                                 and self._atoms == other._atoms)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    def __getitem__(self, i: int) -> Atom:
        """Positional accessor: [0] is the head, [1..n] the body."""
        return self._atoms[i]

    def sort_key(self) -> tuple[Atom, ...]:
        """The atoms, head first. Atoms compare as (pred, (is_var, idx),
        (is_var, idx)) tuples: by predicate, then term by term."""
        return self._atoms


# ---------------------------------------------------------------------------
# syntactic checks

def body_length(rule: Rule) -> int:
    return len(rule.body)


def constants(rule: Rule) -> set[int]:
    return {t.idx for a in rule.atoms for t in a.terms if not t.is_var}


def deduction_level(rule: Rule) -> int:
    """Number of distinct constants in the rule."""
    return len(constants(rule))


def _occurrences(rule: Rule) -> dict[Term, int]:
    counts: dict[Term, int] = {}
    for atom in rule.atoms:
        for t in atom.terms:
            counts[t] = counts.get(t, 0) + 1
    return counts


def is_straight(rule: Rule) -> bool:
    """Every term occurs at most twice across head and body."""
    return all(c <= 2 for c in _occurrences(rule).values())


def is_connected(rule: Rule) -> bool:
    """Every body atom shares a term with its predecessor (head first)."""
    prev = set(rule.head.terms)
    for atom in rule.body:
        cur = set(atom.terms)
        if not prev & cur:
            return False
        prev = cur
    return True


def dangling_term(rule: Rule) -> Term:
    """The term of the last body atom not shared with the previous atom."""
    if not rule.body:
        raise KindError("rule has an empty body")
    prev = set(rule.atoms[-2].terms)
    last = rule.body[-1]
    free = [t for t in last.terms if t not in prev]
    # pass-through atom (e.g. closed rule ending on Y): fall back to the
    # term that is not the connector in walk order
    return free[-1] if free else last.obj


def kind_of(rule: Rule) -> str:
    """Classify a rule as CAR, OAR, HAR, BAR, generic INSR or OPEN.

    OPEN covers abstract rules outside the walker's shapes (Y in the body
    without closing the chain back to X).
    """
    body_vars: set[int] = set()
    consts: set[int] = set()
    for _, (s_var, s), (o_var, o) in rule.body:
        (body_vars if s_var else consts).add(s)
        (body_vars if o_var else consts).add(o)
    _, subj, obj = rule.head
    if not subj.is_var:
        consts.add(subj.idx)
    if not obj.is_var:
        consts.add(obj.idx)
    d = len(consts)
    if d == 0:
        if Y not in body_vars:
            return "OAR"
        return "CAR" if X in body_vars else "OPEN"
    head_const = not obj.is_var and subj == VAR_X
    if head_const and d == 1:
        return "HAR"
    if (head_const and d == 2 and rule.body
            and not dangling_term(rule).is_var):
        return "BAR"
    return "INSR"


def reverse_body(rule: Rule) -> Rule:
    return Rule(rule.head, tuple(reversed(rule.body)))


def skolemize(rule: Rule) -> Rule:
    """Replace every variable with a fresh skolem constant (injective)."""
    mapping: dict[Term, Term] = {}

    def sub(t: Term) -> Term:
        if not t.is_var:
            return t
        if t not in mapping:
            mapping[t] = skolem(len(mapping))
        return mapping[t]

    atoms = [Atom(a.pred, sub(a.subj), sub(a.obj)) for a in rule.atoms]
    return Rule(atoms[0], tuple(atoms[1:]))


# ---------------------------------------------------------------------------
# walk abstraction

def walk_rule(pred: int, key: tuple[int, ...]) -> Rule:
    """The abstract rule pred(X,Y) <- ... of a walk key.

    A key holds one (predicate, subject id, object id) triple per body
    atom. Id 0 stands for X, id 1 for Y, and id i >= 2 for the fresh
    variable V(i - 2), numbered in walk order. Straightness is the
    caller's check.
    """
    return Rule(Atom(pred, VAR_X, VAR_Y),
                tuple(Atom(key[i], Term(True, key[i + 1]),
                           Term(True, key[i + 2]))
                      for i in range(0, len(key), 3)))


# ---------------------------------------------------------------------------
# specialization

def instantiate(rule: Rule, bindings: dict[Term, int]) -> Rule:
    """Bind variables of a rule to entity constants.

    The miner anchors an OAR this way: Y alone gives a HAR, Y and the
    dangling term give a BAR.
    """
    variables = {t for a in rule.atoms for t in a.terms if t.is_var}
    if not bindings or not set(bindings) <= variables:
        raise ValueError("bindings must name variables of the rule")
    values = list(bindings.values())
    if len(set(values)) != len(values):
        raise StraightnessError("bound constants must be pairwise distinct")
    if set(values) & constants(rule):
        raise StraightnessError("bound constant collides with a rule constant")

    def sub(t: Term) -> Term:
        return const(bindings[t]) if t in bindings else t

    atoms = [Atom(a.pred, sub(a.subj), sub(a.obj)) for a in rule.atoms]
    out = Rule(atoms[0], tuple(atoms[1:]))
    if not is_straight(out):
        raise StraightnessError("instantiation violates straightness")
    return out


# ---------------------------------------------------------------------------
# text grammar:  HEAD <- ATOM(", " ATOM)*   ATOM := pred(term,term)

_VAR_RE = re.compile(r"V(\d+)$")
_SK_RE = re.compile(r"sk(\d+)$")
_ATOM_RE = re.compile(r"\s*([^(,]+)\(([^,()]+),\s*([^,()]+)\)\s*")


def _parse_term(text: str, entities: Interner, intern: bool) -> Term:
    text = text.strip()
    if text == "X":
        return VAR_X
    if text == "Y":
        return VAR_Y
    m = _VAR_RE.match(text)
    if m:
        return var(int(m.group(1)))
    m = _SK_RE.match(text)
    if m:
        return skolem(int(m.group(1)))
    if intern:
        return const(entities.intern(text))
    idx = entities.get(text)
    if idx is None:
        raise ParseError(f"unknown constant {text!r}")
    return const(idx)


def _format_term(t: Term, entities: Interner) -> str:
    if t.is_var:
        if t.idx == X:
            return "X"
        if t.idx == Y:
            return "Y"
        return f"V{t.idx - _FIRST_FRESH}"
    if t.is_skolem:
        return f"sk{-t.idx - 1}"
    return entities.name(t.idx)


def parse_rule(text: str, entities: Interner, relations: Interner,
               intern: bool = True, atoms: dict[str, Atom] | None = None
               ) -> Rule:
    """Parse rule text; raises ParseError with the failing position.

    `atoms` memoizes atom texts: a caller that parses many rules against
    the same interners passes one dict, and each distinct atom text is
    parsed once."""
    if "<-" not in text:
        raise ParseError(f"missing '<-' in {text!r}")
    head_text, body_text = text.split("<-", 1)
    memo = {} if atoms is None else atoms

    def parse_atom(chunk: str, pos: int) -> Atom:
        atom = memo.get(chunk)
        if atom is not None:
            return atom
        m = _ATOM_RE.fullmatch(chunk)
        if not m:
            raise ParseError(f"bad atom at position {pos}: {chunk.strip()!r}")
        pred = relations.intern(m.group(1).strip()) if intern \
            else relations.get(m.group(1).strip())
        if pred is None:
            raise ParseError(f"unknown predicate {m.group(1).strip()!r}")
        atom = memo[chunk] = Atom(pred,
                                  _parse_term(m.group(2), entities, intern),
                                  _parse_term(m.group(3), entities, intern))
        return atom

    head = parse_atom(head_text, 0)
    body = []
    if body_text.strip():
        pos = len(head_text) + 2
        for chunk in body_text.split(", "):
            body.append(parse_atom(chunk, pos))
            pos += len(chunk) + 2
    return Rule(head, tuple(body))


def format_rule(rule: Rule, entities: Interner, relations: Interner,
                atoms: dict[Atom, str] | None = None) -> str:
    """Rule text for `parse_rule`. `atoms` memoizes atom texts, the mirror
    of `parse_rule`'s: a caller that formats many rules against the same
    interners passes one dict, and each distinct atom is formatted once."""
    memo = {} if atoms is None else atoms

    def fmt(atom: Atom) -> str:
        text = memo.get(atom)
        if text is None:
            text = memo[atom] = (f"{relations.name(atom.pred)}("
                                 f"{_format_term(atom.subj, entities)},"
                                 f"{_format_term(atom.obj, entities)})")
        return text

    head = fmt(rule.head)
    if not rule.body:
        return f"{head} <-"
    return f"{head} <- " + ", ".join(fmt(a) for a in rule.body)
