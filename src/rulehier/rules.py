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

import json
import re
from dataclasses import dataclass, field
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


def holds_fresh(atom: Atom) -> bool:
    """Whether an atom holds a variable other than X and Y."""
    return (atom.subj.is_var and atom.subj.idx >= _FIRST_FRESH) \
        or (atom.obj.is_var and atom.obj.idx >= _FIRST_FRESH)


@dataclass(frozen=True, eq=False, slots=True)
class Rule:
    """A chain rule head <- body. Construction renumbers fresh variables.

    The hash is hash((head, body)) and is computed once, as is the atom
    tuple; equality compares the hashes first. A rule never equals a tuple.
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    _atoms: tuple[Atom, ...] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

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

    def with_head(self, head: Atom) -> Rule:
        """`Rule(head, self.body)`, built without renumbering and holding
        the same body tuple. Both heads, `head` and this rule's, may hold
        only X, Y and constants: then the body's fresh variables are
        numbered by their first occurrence in the body alone, under either
        head. Raises ValueError if one holds any other variable."""
        if holds_fresh(head) or holds_fresh(self.head):
            raise ValueError("a head holds a body variable")
        return self._with_head(head)

    def _with_head(self, head: Atom) -> Rule:
        """`with_head` without its checks, for a caller that has checked
        both heads already: `parse_rule`'s shared bodies, and
        `specialization`, whose heads all derive from one OAR head."""
        rule = object.__new__(Rule)
        object.__setattr__(rule, "head", head)
        object.__setattr__(rule, "body", self.body)
        object.__setattr__(rule, "_atoms", (head, *self.body))
        object.__setattr__(rule, "_hash", hash((head, self.body)))
        return rule

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


def _occurrences(rule: Rule) -> dict[Term, int]:
    counts: dict[Term, int] = {}
    for atom in rule.atoms:
        for t in atom.terms:
            counts[t] = counts.get(t, 0) + 1
    return counts


def is_straight(rule: Rule) -> bool:
    """Every term occurs at most twice across head and body."""
    return all(c <= 2 for c in _occurrences(rule).values())


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
    variable V(i - 2), numbered in walk order. The keys `generalization`
    samples are straight by construction; this does not check it.
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
# A name that would not read back bare is written as a JSON string.

_VAR_RE = re.compile(r"V(\d+)$")
_SK_RE = re.compile(r"sk(\d+)$")
_ATOM_RE = re.compile(r"\s*([^(,]+)\(([^,()]+),\s*([^,()]+)\)\s*")
# what a bare name may not hold: the grammar's characters, a line end, and
# in a term the spelling of a variable or a skolem
_SPECIAL_RE = re.compile(r'[(),"\n]|<-')
_RESERVED_RE = re.compile(r"X|Y|V\d+|sk\d+")
# a quoted name in rule text, and the placeholder `parse_rule` puts for it
_QUOTED_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
_HIDDEN_RE = re.compile(r'"(\d+)"')


def _quote(name: str, term: bool) -> str:
    """The name as rule text: bare if it reads back as itself, else a JSON
    string."""
    if name and name == name.strip() and not _SPECIAL_RE.search(name) \
            and not (term and _RESERVED_RE.fullmatch(name)):
        return name
    return json.dumps(name, ensure_ascii=False)


def _name(text: str, quoted: list[str] | None) -> str:
    """A name read from rule text, in which `parse_rule` replaced the i-th
    quoted name by the placeholder "i"."""
    text = text.strip()
    if '"' not in text:
        return text
    m = _HIDDEN_RE.fullmatch(text)
    if not m:
        raise ParseError(f"bad quoted name in {text!r}")
    literal = quoted[int(m.group(1))]
    try:
        return json.loads(literal)
    except ValueError:
        raise ParseError(f"bad quoted name {literal}") from None


def _parse_term(text: str, entities: Interner, intern: bool,
                quoted: list[str] | None) -> Term:
    text = text.strip()
    if not text.startswith('"'):
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
    text = _name(text, quoted)
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
    return _quote(entities.name(t.idx), term=True)


def parse_rule(text: str, entities: Interner, relations: Interner,
               intern: bool = True, atoms: dict[str, Atom] | None = None,
               bodies: dict[str, Rule] | None = None) -> Rule:
    """Parse rule text; raises ParseError with the failing position.

    A name in double quotes is a JSON string, and may hold any character.
    `atoms` memoizes atom texts: a caller that parses many rules against
    the same interners passes one dict, and each distinct atom text is
    parsed once. `bodies` memoizes body texts, the text after the first
    "<-", for rules whose head holds no variable but X and Y: such a rule,
    with no quote before its "<-", is parsed whole the first time its body
    text comes, and after that only its head is parsed, and the first
    rule's body put under it (`Rule.with_head`). Every other rule is
    parsed whole."""
    memo = {} if atoms is None else atoms
    # the body text to look up, then to record if the rule is parsed whole
    key = None
    if bodies is not None:
        head_text, sep, key = text.partition("<-")
        if not sep or '"' in head_text:   # a quoted name may hold "<-"
            key = None
        elif (shared := bodies.get(key)) is not None:
            key = None
            head = _parse_atom(head_text, entities, relations, intern, memo)
            # the shared rule's head was checked when it was recorded
            if not holds_fresh(head):
                return shared._with_head(head)
    quoted = None
    if '"' in text:
        # set each quoted name aside, so that no character of it is read
        # as grammar; the placeholders mean other names in another rule
        quoted = _QUOTED_RE.findall(text)
        names = iter(range(len(quoted)))
        text = _QUOTED_RE.sub(lambda _: f'"{next(names)}"', text)
        memo = {}
    if "<-" not in text:
        raise ParseError(f"missing '<-' in {text!r}")
    head_text, body_text = text.split("<-", 1)
    head = _parse_atom(head_text, entities, relations, intern, memo, 0,
                       quoted)
    body = []
    if body_text.strip():
        pos = len(head_text) + 2
        for chunk in body_text.split(", "):
            body.append(_parse_atom(chunk, entities, relations, intern,
                                    memo, pos, quoted))
            pos += len(chunk) + 2
    rule = Rule(head, tuple(body))
    if key is not None and not holds_fresh(rule.head):
        bodies[key] = rule
    return rule


def _parse_atom(chunk: str, entities: Interner, relations: Interner,
                intern: bool, memo: dict[str, Atom], pos: int = 0,
                quoted: list[str] | None = None) -> Atom:
    """Parse one atom of rule text, found at `pos`, through `parse_rule`'s
    atom memo, with its rules for `intern`; `quoted` holds the names
    `parse_rule` set aside (see there). Its variables keep the numbers
    written."""
    atom = memo.get(chunk)
    if atom is not None:
        return atom
    m = _ATOM_RE.fullmatch(chunk)
    if not m:
        raise ParseError(f"bad atom at position {pos}: {chunk.strip()!r}")
    name = _name(m.group(1), quoted)
    pred = relations.intern(name) if intern else relations.get(name)
    if pred is None:
        raise ParseError(f"unknown predicate {name!r}")
    atom = memo[chunk] = Atom(
        pred, _parse_term(m.group(2), entities, intern, quoted),
        _parse_term(m.group(3), entities, intern, quoted))
    return atom


def format_rule(rule: Rule, entities: Interner, relations: Interner,
                atoms: dict[Atom, str] | None = None,
                bodies: dict[tuple[Atom, ...], str] | None = None) -> str:
    """Rule text for `parse_rule`. `atoms` memoizes atom texts, the mirror
    of `parse_rule`'s, and `bodies` the text after the head: a caller that
    formats many rules against the same interners passes one dict of
    each, and each distinct atom and body is formatted once."""
    memo = {} if atoms is None else atoms

    def fmt(atom: Atom) -> str:
        text = memo.get(atom)
        if text is None:
            pred = _quote(relations.name(atom.pred), term=False)
            text = memo[atom] = (f"{pred}("
                                 f"{_format_term(atom.subj, entities)},"
                                 f"{_format_term(atom.obj, entities)})")
        return text

    body = None if bodies is None else bodies.get(rule.body)
    if body is None:
        body = " " + ", ".join(map(fmt, rule.body)) if rule.body else ""
        if bodies is not None:
            bodies[rule.body] = body
    return f"{fmt(rule.head)} <-{body}"
