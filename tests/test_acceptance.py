"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -s or -rA) and
asserts the criterion at its stated tolerance.
"""

import os
import random
import time

import pytest

from rulehier.evaluator import evaluate_kgc
from rulehier.hierarchy import build_a_hierarchy, build_i_hierarchy, union
from rulehier.kgstore import Interner
from rulehier.miner import (MinerConfig, evaluate, generalization,
                            is_relevant, learn, specialization, write_rules)
from rulehier.rules import kind_of, parse_rule
from rulehier.subsumption import (oi_subsumes, sa_subsumes,
                                  sa_subsumes_complete, theta_subsumes)

from helpers import (R, generalization_closure, is_proper,
                     random_generalization, random_kg, random_rule, toy_store)


def _report(n: int, ok: bool, desc: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {n} failed: {desc}"


def _mcfg(**kw) -> MinerConfig:
    base = dict(max_len=3, supp_f=1, hc_f=0.0, sc_f=0.0, supp_h=0,
                overfit_threshold=0.0, walks_per_instance=5, seed=0)
    base.update(kw)
    return MinerConfig(**base)


# ---------------------------------------------------------------------------

def test_criterion_1_subsumption_equivalence():
    rng = random.Random(1001)
    t0 = time.monotonic()
    n_pairs = 10_000
    discrepancies = violations = 0
    for i in range(n_pairs):
        q = random_rule(rng)
        p = random_generalization(rng, q) if i % 2 else random_rule(rng)
        sa = sa_subsumes(p, q)
        sac = sa_subsumes_complete(p, q)
        oi = oi_subsumes(p, q)
        theta = theta_subsumes(p, q)
        if sac != oi:
            discrepancies += 1
        if (sa and not oi) or (oi and not theta):
            violations += 1
    elapsed = time.monotonic() - t0
    ok = discrepancies == 0 and violations == 0 and elapsed < 60.0
    _report(1, ok,
            f"{n_pairs} pairs, {discrepancies} sa_complete/oi discrepancies, "
            f"{violations} implication violations, {elapsed:.1f}s (< 60s)")


def test_criterion_2_worked_examples():
    store = toy_store()
    p4 = R("Advises(X,Y) <- Publishes(X,V0), Publishes(Y,V0)", store)
    p5 = R("Advises(X,Y) <- Is_A(Y,V0)", store)
    p6 = R("Advises(X,Y) <- Is_A(Y,student)", store)
    p7 = R("Advises(X,Y) <-", store)
    p8 = R("Advises(X,Y) <- Publishes(X,V0)", store)

    theta_ok = theta_subsumes(p5, p6)

    names = {p4: "p4", p7: "p7", p8: "p8"}
    oi_rel = {(names[a], names[b]) for a in names for b in names
              if a != b and oi_subsumes(a, b)}
    oi_ok = oi_rel == {("p8", "p4"), ("p7", "p8"), ("p7", "p4")}
    a_edges = {(names[a], names[b]) for a, b in
               build_a_hierarchy([p4, p7, p8]).edge_pairs()}
    a_ok = a_edges == {("p7", "p8"), ("p8", "p4")}

    ents, rels = Interner(), Interner()
    p9 = parse_rule("rt(X,Y) <- r0(X,V0)", ents, rels)
    p10 = parse_rule("rt(X,Y) <- r1(X,V0), r0(V0,V1), r0(V1,V2)", ents, rels)
    p11 = parse_rule("rt(X,Y) <- r0(Y,V0), r0(X,V0)", ents, rels)
    backtrack_ok = not oi_subsumes(p9, p10)
    reversed_ok = (oi_subsumes(p9, p11) and not sa_subsumes(p9, p11)
                   and sa_subsumes_complete(p9, p11))

    ok = theta_ok and oi_ok and a_ok and backtrack_ok and reversed_ok
    _report(2, ok,
            f"theta(p5,p6)={theta_ok} oi-relation={oi_ok} a-edges={a_ok} "
            f"backtracking(p9,p10)={backtrack_ok} reversed(p9,p11)={reversed_ok}")


def test_criterion_3_properness():
    rng = random.Random(3003)
    t0 = time.monotonic()
    n_sets = 1000
    checked = failures = 0
    while checked < n_sets:
        seeds = [random_rule(rng, max_len=3)
                 for _ in range(rng.randint(2, 4))]
        closed = generalization_closure(seeds, limit=50)
        if closed is None:
            continue
        checked += 1
        h = union(build_a_hierarchy(closed, attach_orphans=False),
                  build_i_hierarchy(closed))
        if not is_proper(h, sa_subsumes):
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 120.0
    _report(3, ok, f"{checked} continuity-closed rule sets, "
                   f"{failures} improper hierarchies, {elapsed:.1f}s (< 120s)")


def _kg_corpus(seed: int, count: int, max_triples: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_kg(rng,
                        n_entities=rng.randint(8, 16),
                        n_relations=3,
                        n_train=rng.randint(30, max_triples))


def test_criterion_4_support_monotonicity():
    config = _mcfg(max_len=2, walks_per_instance=4)
    violations = edges = 0
    for store in _kg_corpus(4004, 100, 200):
        rt = 0
        rt_pairs = store.instances_of(rt)
        if not rt_pairs:
            continue
        abstract = generalization(store, rt, config)
        supp = {r: evaluate(r, store, rt_pairs, config).supp
                for r in abstract}
        phi_a = build_a_hierarchy(abstract)
        for parent, child in phi_a.edge_pairs():
            edges += 1
            if supp[child] > supp[parent]:
                violations += 1
        for oar in abstract:
            if not oar.body or kind_of(oar) != "OAR":
                continue
            specs, _ = specialization(oar, store, rt_pairs, set(),
                                      sorted(rt_pairs), config)
            measures = dict(specs)
            phi_i = build_i_hierarchy(list(measures))
            for parent, child in phi_i.edge_pairs():
                edges += 1
                if measures[child].supp > measures[parent].supp:
                    violations += 1
            # the OAR itself I-subsumes each of its head anchorings
            for rule, m in specs:
                if kind_of(rule) == "HAR":
                    edges += 1
                    if m.supp > supp[oar]:
                        violations += 1
    ok = violations == 0 and edges > 0
    _report(4, ok, f"{edges} hierarchy edges checked, "
                   f"{violations} support-monotonicity violations")


def test_criterion_5_prior_pruning_safety():
    config_base = _mcfg(max_len=2, walks_per_instance=4, supp_f=4, supp_h=0,
                        enable_post_pruning=False)
    config_aug = _mcfg(max_len=2, walks_per_instance=4, supp_f=4, supp_h=4,
                       enable_post_pruning=False)
    mismatches = 0
    kgs_with_pruning = 0
    unsafe_prunes = 0
    for store in _kg_corpus(4004, 100, 200):
        rt = 0
        rt_pairs = store.instances_of(rt)
        if not rt_pairs:
            continue
        base = learn(store, rt, config_base)
        aug = learn(store, rt, config_aug)
        if dict(base.rules) != dict(aug.rules):
            mismatches += 1
        abstract = generalization(store, rt, config_aug)
        low = [r for r in abstract
               if r.body and kind_of(r) == "OAR"
               and evaluate(r, store, rt_pairs, config_aug).supp
               < config_aug.supp_h]
        if low:
            kgs_with_pruning += 1
            if aug.p_oars < 1:
                unsafe_prunes += 1
            for oar in low:
                specs, _ = specialization(oar, store, rt_pairs, set(),
                                          sorted(rt_pairs), config_aug)
                if any(is_relevant(m, config_aug) for _, m in specs):
                    unsafe_prunes += 1
    ok = mismatches == 0 and unsafe_prunes == 0 and kgs_with_pruning > 0
    _report(5, ok,
            f"{mismatches} relevant-set mismatches, {kgs_with_pruning} "
            f"targets with prunable OARs, {unsafe_prunes} unsafe prunes")


def test_criterion_6_post_pruning_mrr_invariance():
    rng = random.Random(6006)
    runs = 20
    max_delta = 0.0
    runs_with_removal = 0
    for _ in range(runs):
        store = random_kg(rng, n_entities=rng.randint(25, 40),
                          n_relations=3,
                          n_train=rng.randint(120, 250),
                          n_valid=30, n_test=30)
        rules_on, rules_off = {}, {}
        n_on = n_off = 0
        for rt in range(3):
            if not store.instances_of(rt):
                continue
            on = learn(store, rt, _mcfg(max_len=2, walks_per_instance=4,
                                        enable_post_pruning=True))
            off = learn(store, rt, _mcfg(max_len=2, walks_per_instance=4,
                                         enable_post_pruning=False))
            rules_on[rt] = on.rules
            rules_off[rt] = off.rules
            n_on += len(on.rules)
            n_off += len(off.rules)
        if n_off > n_on:
            runs_with_removal += 1
        mrr_on = evaluate_kgc(store, rules_on).mrr
        mrr_off = evaluate_kgc(store, rules_off).mrr
        max_delta = max(max_delta, abs(mrr_on - mrr_off))
    ok = max_delta <= 0.005 and runs_with_removal >= runs / 2
    _report(6, ok,
            f"max |MRR(on) - MRR(off)| = {max_delta:.5f} (<= 0.005), "
            f"rules removed in {runs_with_removal}/{runs} runs (>= {runs // 2})")


def test_criterion_7_baseline_reduction(tmp_path):
    rng = random.Random(7007)
    stores = [toy_store()] + [random_kg(rng, n_entities=14, n_relations=3,
                                        n_train=70) for _ in range(5)]
    identical = True
    for i, store in enumerate(stores):
        for rt in range(len(store.relations)):
            if not store.instances_of(rt):
                continue
            with_pruners = learn(store, rt, _mcfg(
                max_len=2, supp_f=0, supp_h=0, enable_post_pruning=False,
                enable_prior_pruning=True))
            without = learn(store, rt, _mcfg(
                max_len=2, supp_f=0, supp_h=0, enable_post_pruning=False,
                enable_prior_pruning=False))
            fa = tmp_path / f"a_{i}_{rt}.txt"
            fb = tmp_path / f"b_{i}_{rt}.txt"
            write_rules(fa, with_pruners.rules, store.entities,
                        store.relations)
            write_rules(fb, without.rules, store.entities, store.relations)
            if fa.read_bytes() != fb.read_bytes():
                identical = False
    _report(7, identical,
            "threshold-0 run with pruning enabled writes rule files "
            "byte-identical to a run with both pruners disabled")


def test_criterion_8_stretch_full_scale():
    dataset = os.environ.get("RULEHIER_WN18RR_DIR")
    if not dataset or not os.path.isdir(dataset):
        print("[criterion 8] SKIP (stretch, non-gating): set "
              "RULEHIER_WN18RR_DIR to a WN18RR triple directory to run",
              flush=True)
        pytest.skip("stretch criterion: full-scale dataset not available")
    from rulehier.kgstore import SplitConfig, TripleStore, resplit
    store = resplit(TripleStore.from_directory(dataset), SplitConfig(seed=0))
    config = MinerConfig(max_len=3, supp_f=2, hc_f=0.0001, sc_f=0.0001,
                         overfit_threshold=0.1, walks_per_instance=10)
    rules = {}
    for rt in range(len(store.relations)):
        if store.instances_of(rt):
            rules[rt] = learn(store, rt, config).rules
    mrr = evaluate_kgc(store, rules).mrr
    ok = 0.24 <= mrr <= 0.34
    _report(8, ok, f"full-scale filtered MRR = {mrr:.3f} (target [0.24, 0.34])")
