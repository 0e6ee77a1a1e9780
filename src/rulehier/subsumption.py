"""Subsumption deciders over chain rules.

theta_subsumes is the exhaustive oracle (test use only). oi_subsumes adds
object identity via an injective substitution with backtracking.
sa_subsumes is the backtracking-free positional check, equivalent to
OI-subsumption on connected, straight rules once the reversed-body special
case is folded in (sa_subsumes_complete). a_subsumes / i_subsumes restrict
SA-subsumption to single atom-addition / variable-instantiation steps.
"""

from __future__ import annotations

from .rules import Rule, Term, body_length, constants, reverse_body, skolemize


def _match_atom(sub: dict[Term, Term], p_atom, q_atom,
                injective: bool, p_consts: set[int],
                used: set[Term] | None) -> dict[Term, Term] | None:
    """Extend substitution so p_atom maps onto q_atom, or return None."""
    if p_atom.pred != q_atom.pred:
        return None
    sub = dict(sub)
    new_used = set(used) if used is not None else None
    for pt, qt in zip(p_atom.terms, q_atom.terms):
        if not pt.is_var:
            if pt != qt:
                return None
            continue
        if pt in sub:
            if sub[pt] != qt:
                return None
            continue
        if injective:
            if new_used is not None and qt in new_used:
                return None
            # object identity: a variable may not merge with a constant
            # already named in the subsumer
            if not qt.is_var and qt.idx in p_consts:
                return None
        sub[pt] = qt
        if new_used is not None:
            new_used.add(qt)
    if new_used is not None:
        used.clear()
        used.update(new_used)
    return sub


def _embed(p: Rule, q: Rule, injective: bool) -> bool:
    """Head maps onto head; body atoms map into q's body with backtracking."""
    q = skolemize(q)
    p_consts = constants(p)

    def extend(sub, used, p_atom, q_atom):
        u = set(used)
        new = _match_atom(sub, p_atom, q_atom, injective, p_consts, u)
        return (new, u) if new is not None else (None, used)

    sub, used = extend({}, set(), p.head, q.head)
    if sub is None:
        return False

    def search(i: int, sub, used) -> bool:
        if i == len(p.body):
            return True
        for q_atom in q.body:
            new, new_used = extend(sub, used, p.body[i], q_atom)
            if new is not None and search(i + 1, new, new_used):
                return True
        return False

    return search(0, sub, used)


def theta_subsumes(p: Rule, q: Rule) -> bool:
    """Exhaustive theta-subsumption: some substitution embeds p into q."""
    if p.head.pred != q.head.pred:
        return False
    return _embed(p, q, injective=False)


def oi_subsumes(p: Rule, q: Rule) -> bool:
    """Theta-subsumption with an injective substitution (object identity)."""
    if p.head.pred != q.head.pred:
        return False
    return _embed(p, q, injective=True)


def _sa_subsumes(p: Rule, q: Rule, p_consts: set[int]) -> bool:
    sub: dict[Term, Term] = {}
    used: set[Term] = set()
    for p_atom, q_atom in zip(p.atoms, q.atoms):
        sub = _match_atom(sub, p_atom, q_atom, True, p_consts, used)
        if sub is None:
            return False
    return True


def sa_subsumes(p: Rule, q: Rule) -> bool:
    """Single positional left-to-right pass, no backtracking.

    p[i] must unify with q[i] for i = 0..|p| (index 0 is the head) under an
    injective variable binding.
    """
    return body_length(p) <= body_length(q) \
        and _sa_subsumes(p, q, constants(p))


def sa_subsumes_complete(p: Rule, q: Rule) -> bool:
    """SA-subsumption with the reversed-body special case folded in."""
    return sa_subsumes(p, q) or sa_subsumes(p, reverse_body(q))


def a_subsumes(p: Rule, q: Rule) -> bool:
    """Single atom-addition step: same deduction level, length gap one."""
    p_consts = constants(p)
    return (body_length(q) == body_length(p) + 1
            and len(p_consts) == len(constants(q))
            and _sa_subsumes(p, q, p_consts))


def i_subsumes(p: Rule, q: Rule) -> bool:
    """Single variable-instantiation step: same length, one extra constant."""
    p_consts = constants(p)
    return (body_length(p) == body_length(q)
            and len(constants(q)) == len(p_consts) + 1
            and _sa_subsumes(p, q, p_consts))
