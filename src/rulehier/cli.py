"""rulehier command line: split, learn, eval, stats, bench, subsume.

Runs are driven by an INI-style config file (``key = value`` lines grouped
in per-module sections) plus per-flag overrides. All outputs are plain
text or CSV.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import logging
import random
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import hierarchy as hmod
from .evaluator import evaluate_kgc
from .kgstore import SPLITS, Interner, SplitConfig, TripleStore, resplit
from .miner import MinerConfig, learn, read_rules, write_rules
from .rules import format_rule, parse_rule
from .subsumption import (a_subsumes, i_subsumes, oi_subsumes, sa_subsumes,
                          sa_subsumes_complete, theta_subsumes)

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    dataset_dir: str = "."
    output_dir: str = "out"
    target_mode: str = "all"        # all | random | list
    target_k: int = 20
    target_seed: int = 0
    target_list: tuple[str, ...] = ()
    eval_cap: int = 0
    miner: MinerConfig = None

    def __post_init__(self):
        if self.miner is None:
            self.miner = MinerConfig()
        for name in ("target_k", "eval_cap"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")


# (section, key) -> RunConfig field (MinerConfig field in [miner]), in
# config_echo order
_KEYS = {("dataset", "dir"): "dataset_dir",
         ("output", "dir"): "output_dir",
         ("targets", "mode"): "target_mode",
         ("targets", "k"): "target_k",
         ("targets", "seed"): "target_seed",
         ("targets", "predicates"): "target_list",
         ("evaluator", "cap"): "eval_cap",
         **{("miner", f.name): f.name for f in fields(MinerConfig)}}
# --set key -> its section
_OVERRIDES = {name: section for (section, _), name in _KEYS.items()}


def _coerce(key: str, value: str, like):
    """Parse a config value as the type of the current value `like`."""
    if isinstance(like, bool):
        word = value.strip().lower()
        if word not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"{key}: expected a boolean "
                             f"(1/yes/true/on, 0/no/false/off), got {value!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[word]
    if isinstance(like, tuple):
        return tuple(p.strip() for p in value.split(",") if p.strip())
    return type(like)(value)


def _owner(cfg: RunConfig, section: str):
    return cfg.miner if section == "miner" else cfg


def _set(owner, name: str, key: str, value: str) -> None:
    setattr(owner, name, _coerce(key, value, getattr(owner, name)))


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    cfg = RunConfig()
    for section in parser.sections():
        for key, value in parser[section].items():
            if (section, key) == ("run", "workers"):
                # the one value kept loading for configs that still set it
                if value.strip() != "1":
                    raise ValueError(f"run.workers: mining is "
                                     f"single-threaded, got {value!r}")
                continue
            name = _KEYS.get((section, key))
            if name is None:
                raise KeyError(f"unknown config option {section}.{key}")
            _set(_owner(cfg, section), name, f"{section}.{key}", value)
    for item in overrides or []:
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _OVERRIDES:
            raise KeyError(f"unknown override {key!r}")
        _set(_owner(cfg, _OVERRIDES[key]), key, key, value)
    # values were set field by field: check the ranges again
    return replace(cfg, miner=replace(cfg.miner))


def config_echo(cfg: RunConfig) -> list[str]:
    lines = []
    for (section, key), name in _KEYS.items():
        value = getattr(_owner(cfg, section), name)
        if isinstance(value, tuple):
            value = ",".join(value)
        lines.append(f"{section}.{key} = {value}")
    return lines


def select_targets(store: TripleStore, cfg: RunConfig) -> list[int]:
    """Target predicates per the config's selection mode.

    Random selection samples, seeded and without replacement, from
    predicates with enough train instances to yield a relevant rule.
    """
    if cfg.target_mode == "list":
        out = []
        for name in cfg.target_list:
            rid = store.relations.get(name)
            if rid is None:
                raise KeyError(f"unknown predicate {name!r}")
            out.append(rid)
        return out
    counts = {r: len(pairs) for r in range(len(store.relations))
              if (pairs := store.instances_of(r, "train"))}
    if cfg.target_mode == "all":
        return sorted(counts)
    if cfg.target_mode == "random":
        eligible = sorted(r for r, n in counts.items()
                          if n >= cfg.miner.supp_f + 1)
        k = min(cfg.target_k, len(eligible))
        return sorted(random.Random(cfg.target_seed).sample(eligible, k))
    raise ValueError(f"unknown target mode {cfg.target_mode!r}")


def _file_names(relations: Interner) -> list[str]:
    """A distinct file-safe name per relation id: the name with every
    character outside [A-Za-z0-9_.-] replaced by "_", plus "~<id>" where
    two relations' replaced names are equal up to case (one file on a
    case-insensitive file system). No replaced name holds "~", so a
    suffixed name meets no other."""
    safe = [re.sub(r"[^A-Za-z0-9_.-]", "_", n) for n in relations.names()]
    count = Counter(s.lower() for s in safe)
    return [s if count[s.lower()] == 1 else f"{s}~{i}"
            for i, s in enumerate(safe)]


def _learn_all(store: TripleStore, cfg: RunConfig, targets: list[int],
               collect_hierarchy: bool = False):
    return {rt: learn(store, rt, cfg.miner,
                      collect_hierarchy=collect_hierarchy)
            for rt in targets}


# ---------------------------------------------------------------------------
# commands

def cmd_split(args) -> int:
    ratios = tuple(float(x) for x in args.ratios.split(","))
    store = TripleStore()
    loaded = False
    for split in SPLITS:
        p = Path(args.in_dir) / f"{split}.txt"
        if p.exists():
            store.load_triples(p, split)
            loaded = True
    if not loaded:
        for p in sorted(Path(args.in_dir).glob("*.txt")):
            store.load_triples(p, "train")
            loaded = True
    if not loaded:
        print(f"error: no .txt triple files in {args.in_dir}", file=sys.stderr)
        return 1
    out = resplit(store, SplitConfig(ratios=ratios, seed=args.seed))
    out.write_directory(args.out_dir)
    sizes = {s: out.size(s) for s in SPLITS}
    print(f"wrote {args.out_dir}: " +
          " ".join(f"{s}={n}" for s, n in sizes.items()) +
          f" reverse_fraction={out.reverse_triple_fraction(args.same_relation_only):.4f}")
    return 0


def _write_run_record(path, cfg: RunConfig, names: list[str],
                      results) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in config_echo(cfg):
            fh.write(f"config.{line}\n")
        for rt, res in sorted(results.items()):
            name = names[rt]
            fh.write(f"target.{name}.rules = {len(res.rules)}\n")
            for key in ("p_oars", "i_oars", "u_oars", "skipped_oars",
                        "truncated"):
                fh.write(f"target.{name}.{key} = {getattr(res, key)}\n")
            # a set: written in MinerConfig field order, the same every run
            causes = [f.name for f in fields(MinerConfig)
                      if f.name in res.truncated_by]
            fh.write(f"target.{name}.truncated_by = {','.join(causes)}\n")
            fh.write(f"target.{name}.abstract_rules = {res.abstract_rules}\n")
            fh.write(f"target.{name}.approximate_rules = "
                     f"{sum(m.approximate for _, m in res.rules)}\n")
            fh.write(f"target.{name}.gen_seconds = {res.gen_seconds:.3f}\n")
            fh.write(f"target.{name}.spec_seconds = {res.spec_seconds:.3f}\n")


def cmd_learn(args) -> int:
    cfg = load_config(args.config, args.set)
    store = TripleStore.from_directory(cfg.dataset_dir)
    targets = select_targets(store, cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = _learn_all(store, cfg, targets,
                         collect_hierarchy=bool(args.emit_hierarchy))
    names = _file_names(store.relations)
    for rt, res in sorted(results.items()):
        write_rules(out_dir / f"rules_{names[rt]}.txt", res.rules,
                    store.entities, store.relations)
    _write_run_record(out_dir / "run_record.txt", cfg, names, results)
    hierarchies = [res.hierarchy for res in results.values()
                   if res.hierarchy is not None]
    if hierarchies:
        hmod.write_dot(hmod.union(*hierarchies), args.emit_hierarchy,
                       lambda r: format_rule(r, store.entities,
                                             store.relations))
    elif args.emit_hierarchy:
        print(f"warning: no hierarchy was built (prior and post pruning "
              f"off, or no rule specialized); {args.emit_hierarchy} "
              f"not written", file=sys.stderr)
    total = sum(len(r.rules) for r in results.values())
    print(f"learned {total} rules for {len(targets)} targets -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set)
    store = TripleStore.from_directory(cfg.dataset_dir)
    rules_dir = Path(args.rules or cfg.output_dir)
    rules_by_rel = {}
    for path in sorted(rules_dir.glob("rules_*.txt")):
        for rule, m in read_rules(path, store.entities, store.relations):
            rules_by_rel.setdefault(rule.head.pred, []).append((rule, m))
    if not any(rules_by_rel.values()):
        print("warning: empty rule set, MRR will be 0", file=sys.stderr)
    summary = evaluate_kgc(store, rules_by_rel, cap=cfg.eval_cap)
    log.debug("rule application: %s", summary.stats)
    if summary.stats["capped_bodies"]:
        print(f"warning: eval cap reached in {summary.stats['capped_bodies']} "
              "rule bodies; their rules' answers are partial", file=sys.stderr)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "predictions.txt", "w", encoding="utf-8") as fh:
        for q, r, top in summary.records:
            name = store.relations.name(q.rel)
            known = store.entities.name(q.known)
            qtext = f"{name}({known},?)" if q.slot == "head" \
                else f"{name}(?,{known})"
            cands = " ".join(f"{store.entities.name(e)}:{s:.6f}"
                             for e, s in top)
            fh.write(f"{qtext}\t{r if r else 'unranked'}\t{cands}\n")
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        for line in config_echo(cfg):
            fh.write(f"config.{line}\n")
        fh.write(f"mrr = {summary.mrr:.6f}\n")
        for k, v in summary.hits.items():
            fh.write(f"hits@{k} = {v:.6f}\n")
        fh.write(f"rat_seconds = {summary.rule_application_seconds:.3f}\n")
    print(f"MRR {summary.mrr:.4f} " +
          " ".join(f"H@{k} {v:.4f}" for k, v in summary.hits.items()) +
          f" RAT {summary.rule_application_seconds:.2f}s")
    return 0


def cmd_stats(args) -> int:
    totals = {"p_oars": 0, "i_oars": 0, "u_oars": 0}
    rows = {}
    with open(args.run_record, encoding="utf-8") as fh:
        for line in fh:
            m = re.match(r"target\.(.+)\.(p_oars|i_oars|u_oars) = (\d+)",
                         line.strip())
            if m:
                rows.setdefault(m.group(1), {})[m.group(2)] = int(m.group(3))
                totals[m.group(2)] += int(m.group(3))
    print(f"{'target':30s} {'P-OAR':>8s} {'I-OAR':>8s} {'U-OAR':>8s} {'total':>8s}")
    for name, row in sorted(rows.items()):
        total = sum(row.values())
        print(f"{name:30s} {row.get('p_oars', 0):8d} {row.get('i_oars', 0):8d} "
              f"{row.get('u_oars', 0):8d} {total:8d}")
    print(f"{'ALL':30s} {totals['p_oars']:8d} {totals['i_oars']:8d} "
          f"{totals['u_oars']:8d} {sum(totals.values()):8d}")
    return 0


def cmd_bench(args) -> int:
    cfg = load_config(args.config, args.set)
    store = TripleStore.from_directory(cfg.dataset_dir)
    targets = select_targets(store, cfg)
    thresholds = [int(x) for x in args.thresholds.split(",")]
    post = args.post_prune == "on"
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "bench.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["supp_h", "post_prune", "runtime_s", "mrr",
                         "n_rules", "p_oars", "i_oars", "u_oars"])
        for supp_h in thresholds:
            cfg.miner = replace(cfg.miner, supp_h=supp_h,
                                enable_post_pruning=post)
            t0 = time.monotonic()
            results = _learn_all(store, cfg, targets)
            runtime = time.monotonic() - t0
            rules_by_rel = {rt: res.rules for rt, res in results.items()}
            summary = evaluate_kgc(store, rules_by_rel, cap=cfg.eval_cap)
            writer.writerow([
                supp_h, post, f"{runtime:.3f}", f"{summary.mrr:.6f}",
                sum(len(r.rules) for r in results.values()),
                sum(r.p_oars for r in results.values()),
                sum(r.i_oars for r in results.values()),
                sum(r.u_oars for r in results.values())])
    print(f"wrote {csv_path}")
    return 0


def cmd_subsume(args) -> int:
    entities, relations = Interner(), Interner()
    p = parse_rule(args.rule1, entities, relations)
    q = parse_rule(args.rule2, entities, relations)
    for name, decider in (("theta", theta_subsumes), ("oi", oi_subsumes),
                          ("sa", sa_subsumes),
                          ("sa_complete", sa_subsumes_complete),
                          ("a", a_subsumes), ("i", i_subsumes)):
        print(f"{name:12s} {decider(p, q)}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulehier",
        description="Rule mining with hierarchical pruning and KGC evaluation")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="re-split a dataset directory")
    p.add_argument("in_dir")
    p.add_argument("out_dir")
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--same-relation-only", action="store_true",
                   help="count only same-relation reverse triples")
    p.set_defaults(func=cmd_split)

    for name, func, extra in (
            ("learn", cmd_learn, "mine rules"),
            ("eval", cmd_eval, "evaluate a rule set on KGC queries"),
            ("bench", cmd_bench, "prior-threshold sweep, CSV report")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True)
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="config override")
        if name == "learn":
            p.add_argument("--emit-hierarchy", metavar="PATH",
                           help="write the rule hierarchy as DOT")
        if name == "eval":
            p.add_argument("--rules", help="rule file directory")
        if name == "bench":
            p.add_argument("--thresholds", default="0,10")
            p.add_argument("--post-prune", choices=("on", "off"),
                           default="off")
        p.set_defaults(func=func)

    p = sub.add_parser("stats", help="OAR classification table")
    p.add_argument("run_record")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("subsume", help="print all subsumption decisions")
    p.add_argument("rule1")
    p.add_argument("rule2")
    p.set_defaults(func=cmd_subsume)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
