"""Walk-through on a five-triple academic graph.

Builds the tiny advisor/publication graph, mines rules for the Advises
relation, and shows how the mined rules sit in a subsumption hierarchy.
Run with:  python3 demos/academic_toy.py
"""

from rulehier import MinerConfig, TripleStore, learn_all
from rulehier.miner import learned_hierarchy
from rulehier.rules import format_rule, kind_of, parse_rule
from rulehier.subsumption import (i_subsumes, oi_subsumes, sa_subsumes,
                                  theta_subsumes)

TRIPLES = [
    ("alice", "Advises", "bob"),
    ("alice", "Publishes", "paper"),
    ("bob", "Publishes", "paper"),
    ("alice", "Is_A", "professor"),
    ("bob", "Is_A", "student"),
]


def main():
    store = TripleStore()
    for head, rel, tail in TRIPLES:
        store.add_triple(store.relations.intern(rel),
                         store.entities.intern(head),
                         store.entities.intern(tail), "train")

    print("== graph ==")
    for head, rel, tail in TRIPLES:
        print(f"  {rel}({head}, {tail})")

    # permissive thresholds: the graph is too small for real filtering
    cfg = MinerConfig(max_len=2, supp_f=0, hc_f=0.0, sc_f=0.0,
                      overfit_threshold=0.0, walks_per_instance=10, seed=0)
    rt = store.relations.get("Advises")
    results = learn_all(store, [rt], cfg)
    result = results[rt]

    print("\n== mined rules for Advises ==")
    for rule, m in result.rules:
        text = format_rule(rule, store.entities, store.relations)
        print(f"  [{kind_of(rule):4s}] supp={m.supp} hc={m.hc:.2f} "
              f"sc={m.sc:.3f}  {text}")
    print(f"  informative open rules: {result.i_oars}")

    print("\n== hierarchy edges (parent => child) ==")
    for edge in sorted(learned_hierarchy(store, results, cfg).edges,
                       key=lambda e: (e.parent.sort_key(),
                                      e.child.sort_key())):
        p = format_rule(edge.parent, store.entities, store.relations)
        c = format_rule(edge.child, store.entities, store.relations)
        print(f"  [{edge.kind}] {p}  =>  {c}")

    print("\n== subsumption checks ==")
    def rule(text):
        return parse_rule(text, store.entities, store.relations)

    pairs = [
        ("theta", theta_subsumes,
         "Advises(X,Y) <- Is_A(Y,V0)", "Advises(X,Y) <- Is_A(Y,student)"),
        ("oi", oi_subsumes,
         "Advises(X,Y) <-",
         "Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)"),
        ("sa", sa_subsumes,
         "Advises(X,Y) <- Publishes(X,V0)",
         "Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)"),
        ("i", i_subsumes,
         "Advises(X,bob) <- Is_A(X,V0)",
         "Advises(X,bob) <- Is_A(X,professor)"),
    ]
    for name, decider, p, q in pairs:
        print(f"  {name:5s} {decider(rule(p), rule(q))!s:5s} "
              f"{p}   vs   {q}")


if __name__ == "__main__":
    main()
