"""Where the benchmark probes rulehier, and the per-layer metrics it derives.

Every probe wraps a function at the name its caller looks up, not where it
is defined: ``learn`` calls ``rulehier.miner.specialization``, so that is
the name replaced. Each per-layer metric names the probes it needs; a
metric whose probe is missing at the commit under test reads ``missing``.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import BOOKKEEPING, Probe, Tracer

LEARN_CMD = "cli.learn_cmd"
EVAL_CMD = "cli.eval_cmd"


def _rules_written(tracer, args, kwargs, result):
    tracer.counters["cli.rules_written"] += len(args[1])


def _learned(tracer, args, kwargs, result):
    tracer.counters["miner.oars_pruned"] += result.p_oars


def _evaluated(tracer, args, kwargs, result):
    tracer.counters["evaluator.queries"] += len(result.records)
    tracer.counters["evaluator.unranked"] += sum(
        r is None for _, r, _ in result.records)


def _generalized(tracer, args, kwargs, result):
    tracer.counters["miner.abstract_rules"] += len(result)


def _count_visits(tracer, args, kwargs):
    counters = tracer.counters
    visit = args[1]

    def counted(rule):
        counters["hierarchy.bfs_nodes"] += 1
        return visit(rule)
    return (args[0], counted, *args[2:]), kwargs


def _bfs_done(tracer, args, kwargs, result):
    tracer.counters["hierarchy.bfs_kept"] += len(result)


def _specialized(tracer, args, kwargs, result):
    # spec_kept applies the same public filters learn() applies to the
    # returned list; the work is timed as bookkeeping, not as a layer
    from rulehier.miner import is_relevant, overfit_keep
    from rulehier.rules import kind_of
    specs, _ = result
    cfg = args[5] if len(args) > 5 else kwargs["cfg"]
    tracer.counters["miner.spec_candidates"] += len(specs)
    tracer.counters["miner.spec_kept"] += sum(
        1 for r, m in specs
        if is_relevant(m, cfg) and overfit_keep(m, cfg, kind_of(r)))


def _post_pruned(tracer, args, kwargs, result):
    tracer.counters["miner.post_pruned"] += len(args[0].nodes) - len(result)


PROBES = [
    Probe("rulehier.kgstore:TripleStore", "from_directory", "kgstore.load"),
    Probe("rulehier.kgstore:TripleStore", "instances_of",
          "kgstore.instances_of"),
    Probe("rulehier.cli", "select_targets", "cli.select_targets"),
    Probe("rulehier.cli", "write_rules", "cli.write_rules",
          after=_rules_written),
    Probe("rulehier.cli", "read_rules", "cli.read_rules"),
    Probe("rulehier.cli", "learn", "miner.learn", after=_learned),
    Probe("rulehier.cli", "evaluate_kgc", "evaluator.evaluate_kgc",
          after=_evaluated),
    Probe("rulehier.miner", "generalization", "miner.generalization",
          after=_generalized),
    Probe("rulehier.miner", "build_a_hierarchy", "hierarchy.build_a"),
    Probe("rulehier.miner", "bfs_with_pruning", "hierarchy.bfs",
          before=_count_visits, after=_bfs_done),
    Probe("rulehier.miner", "evaluate", "miner.evaluate"),
    Probe("rulehier.miner", "specialization", "miner.specialization",
          after=_specialized),
    Probe("rulehier.miner", "build_i_hierarchy", "hierarchy.build_i"),
    Probe("rulehier.miner", "post_pruning", "miner.post_pruning",
          after=_post_pruned),
    Probe("rulehier.miner", "instantiate", "rules.instantiate"),
    Probe("rulehier.miner", "ground_body", "miner.ground_body",
          generator=True, call_counter="miner.ground_body_calls",
          item_counter="miner.groundings"),
    Probe("rulehier.hierarchy", "a_subsumes", "subsumption.a_subsumes",
          true_counter="hierarchy.a_edges"),
    Probe("rulehier.hierarchy", "i_subsumes", "subsumption.i_subsumes",
          true_counter="hierarchy.i_edges"),
    Probe("rulehier.evaluator", "suggest", "evaluator.suggest"),
    Probe("rulehier.evaluator", "rank", "evaluator.rank"),
    Probe("rulehier.evaluator", "ground_body", "evaluator.ground_body",
          generator=True, call_counter="evaluator.rule_applications",
          item_counter="evaluator.bindings"),
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    needs: tuple[str, ...]      # probe span names the value depends on
    layer: str = ""             # set for self times that partition total_s


def _self(span: str, layer: str) -> Metric:
    return Metric(f"{span}_s", "s", (span,), layer)


def _count(name: str, *needs: str) -> Metric:
    return Metric(name, "count", needs)


METRICS = [
    _self("kgstore.load", "kgstore"),
    _self("kgstore.instances_of", "kgstore"),
    _count("kgstore.instances_of_calls", "kgstore.instances_of"),
    _self("cli.select_targets", "cli"),
    _self("cli.write_rules", "cli"),
    _self("cli.read_rules", "cli"),
    _count("cli.rules_written", "cli.write_rules"),
    Metric("cli.eval_io_s", "s", ("evaluator.evaluate_kgc",)),
    _self("miner.specialization", "miner"),
    _count("miner.oars_specialized", "miner.specialization"),
    _count("miner.spec_candidates", "miner.specialization"),
    _count("miner.spec_kept", "miner.specialization"),
    Metric("miner.spec_keep_ratio", "ratio", ("miner.specialization",)),
    _count("rules.instantiate_calls", "rules.instantiate"),
    _self("rules.instantiate", "miner"),
    _count("miner.ground_body_calls", "miner.ground_body"),
    _count("miner.groundings", "miner.ground_body"),
    _self("miner.generalization", "miner"),
    _count("miner.abstract_rules", "miner.generalization"),
    _self("miner.evaluate", "miner"),
    _count("miner.evaluate_calls", "miner.evaluate"),
    _count("miner.oars_pruned", "miner.learn"),
    _self("miner.post_pruning", "miner"),
    _count("miner.post_pruned", "miner.post_pruning"),
    Metric("miner.learn_self_s", "s", ("miner.learn",), "miner"),
    _self("hierarchy.build_a", "hierarchy"),
    _self("subsumption.a_subsumes", "hierarchy"),
    _count("subsumption.a_checks", "subsumption.a_subsumes"),
    _count("hierarchy.a_edges", "subsumption.a_subsumes"),
    Metric("hierarchy.a_edge_ratio", "ratio", ("subsumption.a_subsumes",)),
    _self("hierarchy.bfs", "hierarchy"),
    _count("hierarchy.bfs_nodes", "hierarchy.bfs"),
    _count("hierarchy.bfs_kept", "hierarchy.bfs"),
    _self("hierarchy.build_i", "hierarchy"),
    _self("subsumption.i_subsumes", "hierarchy"),
    _count("subsumption.i_checks", "subsumption.i_subsumes"),
    _count("hierarchy.i_edges", "subsumption.i_subsumes"),
    _self("evaluator.evaluate_kgc", "evaluator"),
    _self("evaluator.suggest", "evaluator"),
    _self("evaluator.rank", "evaluator"),
    _count("evaluator.queries", "evaluator.evaluate_kgc"),
    _count("evaluator.rule_applications", "evaluator.ground_body"),
    _count("evaluator.bindings", "evaluator.ground_body"),
    _count("evaluator.unranked", "evaluator.evaluate_kgc"),
    Metric("trace.unattributed_s", "s", (), "unattributed"),
    Metric(f"{BOOKKEEPING}_s", "s", (), "trace"),
    Metric("trace.overhead_s", "s", ()),
]

LAYERS = ("kgstore", "cli", "miner", "hierarchy", "evaluator",
          "unattributed", "trace")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, missing: set[str]) -> dict[str, float | None]:
    """Per-layer values for one traced learn + eval pass.

    Values that depend on a missing probe, or on one whose counter hook
    failed, are None. ``trace.overhead_s`` needs an untraced run and is
    filled in by the caller.
    """
    missing = missing | tracer.broken
    self_t = tracer.self_times()
    calls = tracer.calls()
    dur = tracer.durations()
    c = tracer.counters
    raw: dict[str, float] = {}
    for m in METRICS:
        if m.unit == "s" and m.needs and m.name == f"{m.needs[0]}_s":
            raw[m.name] = self_t.get(m.needs[0], 0.0)
    raw["miner.learn_self_s"] = self_t.get("miner.learn", 0.0)
    raw["trace.unattributed_s"] = (self_t.get(LEARN_CMD, 0.0)
                                   + self_t.get(EVAL_CMD, 0.0))
    raw[f"{BOOKKEEPING}_s"] = self_t.get(BOOKKEEPING, 0.0)
    raw["cli.eval_io_s"] = (dur.get(EVAL_CMD, 0.0)
                            - dur.get("evaluator.evaluate_kgc", 0.0))
    raw["kgstore.instances_of_calls"] = calls["kgstore.instances_of"]
    raw["miner.oars_specialized"] = calls["miner.specialization"]
    raw["rules.instantiate_calls"] = calls["rules.instantiate"]
    raw["miner.evaluate_calls"] = calls["miner.evaluate"]
    raw["subsumption.a_checks"] = calls["subsumption.a_subsumes"]
    raw["subsumption.i_checks"] = calls["subsumption.i_subsumes"]
    for m in METRICS:
        if m.unit == "count" and m.name not in raw:
            raw[m.name] = c[m.name]
    raw["miner.spec_keep_ratio"] = _ratio(c["miner.spec_kept"],
                                          c["miner.spec_candidates"])
    raw["hierarchy.a_edge_ratio"] = _ratio(c["hierarchy.a_edges"],
                                           calls["subsumption.a_subsumes"])
    out: dict[str, float | None] = {}
    for m in METRICS:
        if m.name == "trace.overhead_s":
            continue
        out[m.name] = None if missing & set(m.needs) else raw[m.name]
    return out


def command_times(tracer: Tracer) -> tuple[float, float]:
    """Traced wall time of the learn and the eval command."""
    dur = tracer.durations()
    return dur.get(LEARN_CMD, 0.0), dur.get(EVAL_CMD, 0.0)


def layer_shares(values: dict[str, float | None]) -> dict[str, float]:
    """Seconds per layer: the sum of its metrics' self times."""
    out = {layer: 0.0 for layer in LAYERS}
    for m in METRICS:
        if m.layer and values.get(m.name) is not None:
            out[m.layer] += values[m.name]
    return out


# Groups of self times that make up one mechanism, the caller first.
# Specialization includes the rules it instantiates, the A-hierarchy the
# checks it makes, and the evaluator the suggestion and ranking it drives.
GROUPS = {
    "specialization": ("miner.specialization_s", "rules.instantiate_s"),
    "a_hierarchy": ("hierarchy.build_a_s", "subsumption.a_subsumes_s"),
    "evaluator": ("evaluator.evaluate_kgc_s", "evaluator.suggest_s",
                  "evaluator.rank_s"),
}

# The layer each workload exists to exercise, and the layers it must leave
# alone: (group, "learn" | "total", "min" | "max", share).
FLOORS = {
    "hub-mine": [("specialization", "learn", "min", 0.75),
                 ("evaluator", "total", "max", 0.10),
                 ("a_hierarchy", "learn", "max", 0.05)],
    "query-heavy": [("evaluator", "total", "min", 0.50),
                    ("a_hierarchy", "learn", "max", 0.05)],
    "prune-wide": [("a_hierarchy", "learn", "min", 0.60),
                   ("specialization", "learn", "max", 0.15),
                   ("evaluator", "total", "max", 0.10)],
}


def check_floors(workload: str, values: dict, learn_s: float,
                 total_s: float) -> list[tuple[str, float, bool]]:
    """(description, share, met) for each floor of the workload.

    A group's first member is the caller of the others. Only a missing
    caller makes the group missing: a missing callee's time lands in its
    caller's self time, so it counts as 0.
    """
    out = []
    for group, base, kind, bound in FLOORS.get(workload, []):
        caller, *callees = GROUPS[group]
        if values.get(caller) is None:
            out.append((f"{group} (missing probe)", float("nan"), False))
            continue
        share = (values[caller] + sum(values.get(name) or 0.0
                                      for name in callees)) \
            / (learn_s if base == "learn" else total_s)
        met = share >= bound if kind == "min" else share <= bound
        sign = ">=" if kind == "min" else "<="
        out.append((f"{group} {sign} {bound:.0%} of {base}_s", share, met))
    return out
