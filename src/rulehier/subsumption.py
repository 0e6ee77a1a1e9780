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


def _match_atom(sub: dict[Term, Term], used: set[Term], p_atom, q_atom,
                injective: bool, p_consts: set[int],
                ) -> tuple[dict[Term, Term], set[Term]] | None:
    """Extend the substitution `sub`, whose bound terms are `used`, so
    p_atom maps onto q_atom: the extended pair, or None."""
    if p_atom.pred != q_atom.pred:
        return None
    sub, used = dict(sub), set(used)
    for pt, qt in zip(p_atom.terms, q_atom.terms):
        if not pt.is_var:
            if pt != qt:
                return None
            continue
        if pt in sub:
            if sub[pt] != qt:
                return None
            continue
        # object identity: a variable may not merge with a term already
        # bound, nor with a constant already named in the subsumer
        if injective and (qt in used or (not qt.is_var
                                         and qt.idx in p_consts)):
            return None
        sub[pt] = qt
        used.add(qt)
    return sub, used


def _embed(p: Rule, q: Rule, injective: bool) -> bool:
    """Head maps onto head; body atoms map into q's body with backtracking."""
    q = skolemize(q)
    p_consts = constants(p)

    def search(i: int, state) -> bool:
        if state is None:
            return False
        if i == len(p.body):
            return True
        return any(search(i + 1, _match_atom(*state, p.body[i], q_atom,
                                             injective, p_consts))
                   for q_atom in q.body)

    return search(0, _match_atom({}, set(), p.head, q.head, injective,
                                 p_consts))


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
    state = ({}, set())
    for p_atom, q_atom in zip(p.atoms, q.atoms):
        state = _match_atom(*state, p_atom, q_atom, True, p_consts)
        if state is None:
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
