"""Tests of the benchmark itself: generators, span arithmetic, probes
that no longer exist, and the layer each workload is there to exercise.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import dataclasses
import math
import os
import random
from pathlib import Path

import pytest

import layers
import run
from spans import Installation, Probe, Tracer
from workloads import POOL_SIZE, WORKLOADS, pareto_triples, uniform_triples


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, monkeypatch, name):
    """Same seed, same bytes, wherever the checkout is."""
    w = WORKLOADS[name]
    for where in ("x", "y"):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        w.write(Path("d"), 3)
    x, y = _files(tmp_path / "x"), _files(tmp_path / "y")
    assert set(x) == {"d/run.ini", "d/data/train.txt", "d/data/valid.txt",
                      "d/data/test.txt"}
    assert x == y
    assert b"seed = 3\n" in x["d/run.ini"]
    w.write(Path("e"), 4)
    assert _files(tmp_path / "y" / "e")["data/train.txt"] == \
        x["d/data/train.txt"]


def test_generators_take_the_seed():
    assert uniform_triples(random.Random(1), 20, 3, 50) == \
        uniform_triples(random.Random(1), 20, 3, 50)
    assert uniform_triples(random.Random(1), 20, 3, 50) != \
        uniform_triples(random.Random(2), 20, 3, 50)
    triples = pareto_triples(random.Random(1), 100, 3, 300, 1.2)
    assert len(set(triples)) == 300
    degree = {}
    for _, s, o in triples:
        degree[s] = degree.get(s, 0) + 1
        degree[o] = degree.get(o, 0) + 1
    # hubs: the top entity carries many times the mean degree
    assert max(degree.values()) > 5 * 600 / len(degree)


def test_pool_selection_depends_on_seed():
    w = WORKLOADS["query-heavy"]
    picks = {tuple(w.datasets_for(s)) for s in range(20)}
    assert all(len(p) == w.per_run and set(p) <= set(range(POOL_SIZE))
               for p in picks)
    assert len(picks) > 5
    assert w.datasets_for(7) == w.datasets_for(7)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has a1 [2, 3]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open(t.intern("root"))
    a = t.open(t.intern("a"))
    a1 = t.open(t.intern("a1"))
    t.close(a1)
    t.close(a)
    b = t.open(t.intern("b"))
    t.close(b)
    t.close(root)
    self_t = t.self_times()
    assert self_t == {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0}
    assert sum(self_t.values()) == t.durations()["root"] == 10.0
    assert list(t.parent) == [-1, root, a, root]


def test_repeated_names_accumulate():
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 5, 8]))
    root = t.open(t.intern("root"))
    for _ in range(2):
        sid = t.open(t.intern("leaf"))
        t.close(sid)
    t.close(root)
    assert t.self_times() == {"root": 5.0, "leaf": 3.0}
    assert t.calls() == {"root": 1, "leaf": 2}


def test_missing_probe_is_reported_not_zero():
    import rulehier.miner as miner
    original = miner.specialization
    probes = [Probe("rulehier.miner", "no_such_function", "miner.gone"),
              Probe("no_such_module", "f", "miner.gone_too"),
              Probe("rulehier.miner", "specialization",
                    "miner.specialization")]
    tracer = Tracer()
    with Installation(tracer, probes) as inst:
        assert inst.missing == {"miner.gone", "miner.gone_too"}
        assert miner.specialization is not original
    assert miner.specialization is original
    metrics = [layers.Metric("x_s", "s", ("miner.gone",)),
               layers.Metric("miner.specialization_s", "s",
                             ("miner.specialization",))]
    saved = layers.METRICS
    try:
        layers.METRICS = metrics
        values = layers.pass_metrics(tracer, inst.missing)
    finally:
        layers.METRICS = saved
    assert values == {"x_s": None, "miner.specialization_s": 0.0}
    line = run.result_line({
        "mismatches": [], "attempted": 1, "failed": 0,
        "per_layer": {m.name: (None if m.name == "cli.read_rules_s" else 1.0)
                      for m in layers.METRICS}})
    assert '"cli.read_rules_s": {"value": null, "unit": "s", ' \
           '"missing": true}' in line


def test_failing_counter_hook_marks_metric_missing():
    import json as target

    def bad_hook(tracer, args, kwargs, result):
        raise TypeError("signature changed")
    tracer = Tracer()
    with Installation(tracer, [Probe("json", "dumps", "x", after=bad_hook)]):
        assert target.dumps([1]) == "[1]"
    assert tracer.broken == {"x"}
    assert tracer.calls() == {"x": 1, "trace.bookkeeping": 1}


def test_generator_probe_counts_and_tolerates_a_list():
    import json as target
    tracer = Tracer()
    probe = Probe("json", "dumps", "gen", generator=True,
                  call_counter="calls", item_counter="items")
    target_fn = target.dumps
    try:
        target.dumps = lambda n: (i for i in range(n))
        with Installation(tracer, [probe]):
            assert list(target.dumps(3)) == [0, 1, 2]
        target.dumps = lambda n: list(range(n))
        with Installation(tracer, [probe]):
            assert target.dumps(2) == [0, 1]
    finally:
        target.dumps = target_fn
    assert tracer.counters == {"calls": 2, "items": 3}
    assert tracer.broken == {"gen"}


def test_floor_group_missing_only_without_its_caller():
    """An inlined callee's time lands in its caller's self time, so the
    group still counts; without the caller the floor reads missing."""
    values = {"miner.specialization_s": 8.0, "rules.instantiate_s": None,
              "evaluator.evaluate_kgc_s": 0.5, "evaluator.suggest_s": 0.2,
              "evaluator.rank_s": 0.1, "hierarchy.build_a_s": 0.1,
              "subsumption.a_subsumes_s": None}
    floors = layers.check_floors("hub-mine", values, 10.0, 20.0)
    assert [(share, met) for _, share, met in floors] == \
        [(0.8, True), (pytest.approx(0.04), True),
         (pytest.approx(0.01), True)]
    values["miner.specialization_s"] = None
    text, share, met = layers.check_floors("hub-mine", values, 10.0, 20.0)[0]
    assert "missing" in text and math.isnan(share) and not met


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_exercises_its_layer(name):
    """One traced pass per workload meets the layer-share floors, adds up,
    and leaves the outputs equal to the recorded reference."""
    os.chdir(run.ROOT)
    w = dataclasses.replace(WORKLOADS[name], eval_repeats=1)
    record = run.run(dataclasses.replace(w, per_run=1), 0, 0.0, True)
    assert record["mismatches"] == [] and record["failed"] == 0
    layer = record["per_layer"]
    total = record["traced_total_s"]
    shares = layers.layer_shares(layer)
    assert sum(shares.values()) == pytest.approx(total, rel=0.05)
    for text, share, met in layers.check_floors(
            name, layer, record["traced_learn_s"], total):
        assert met, f"{name}: {text} is {share:.1%}"


def test_hand_run_writes_the_recorded_rules(tmp_path):
    """``rulehier learn --config run.ini`` in a fresh process, from any
    directory, writes the rule files the benchmark checks against."""
    import json
    import subprocess
    import sys
    w = WORKLOADS["hub-mine"]
    os.chdir(tmp_path)
    ini = w.write(Path("d"), 0)
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run([sys.executable, "-m", "rulehier.cli", "learn",
                    "--config", str(ini)], cwd=tmp_path, env=env, check=True,
                   capture_output=True, timeout=300)
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    got = {p.name: run.sha256(p) for p in sorted((tmp_path / "d" / "out")
                                                 .glob("rules_*.txt"))}
    assert got == refs["hub-mine"]["0"]["rules"]


def test_benchmark_json_names_what_the_run_reports():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m.name, m.unit) for m in layers.METRICS]


def test_each_step_is_scaled_by_the_calibrations_around_it(monkeypatch):
    """A step timed between calibrations of 0.1 s and 0.3 s ran at
    0.08 / 0.2 of the reference speed, so its time is scaled by 0.4."""
    cals = iter([0.1, 0.3, 0.1, 0.08])
    monkeypatch.setattr(run, "calibrate", lambda: next(cals))
    monkeypatch.setattr(run, "CAL_REF_S", 0.08)
    monkeypatch.setattr(run, "measure_setup", lambda ds: [0.01, 0.02])

    class Checker:
        def command(self, ds, what, argv):
            return {"learn": 2.0, "eval": 0.5}[what]

    ds = run.Dataset(0, Path("d"), Path("d/run.ini"), None)
    w = dataclasses.replace(WORKLOADS["hub-mine"], eval_repeats=2)
    run.untraced_pass(w, ds, Checker())
    assert ds.raw == {"learn_s": [2.0], "eval_s": [0.5, 0.5],
                      "setup_s": [0.01, 0.02]}
    assert ds.ref["learn_s"] == pytest.approx([0.8])
    assert ds.ref["eval_s"] == pytest.approx([0.2, 0.2])
    assert ds.ref["setup_s"] == pytest.approx([0.01 * 8 / 9, 0.02 * 8 / 9])
    assert ds.cal == [0.3, 0.1, 0.08]
