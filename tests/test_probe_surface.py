"""The names and shapes of the package that the benchmark's probes pin.

`bench/layers.py` measures from outside: it wraps package functions at the
names their callers look up and reads their arguments and results in
counter hooks. A probed name that is gone reads as missing, and a hook
that fails on a changed signature or result marks its span broken; either
turns the probe's metrics null, which the benchmark's traced runs reject.
Until the package measures its own stages (ROADMAP item 1), these stay as
the probes find them:

- every name in `layers.PROBES`, among them some that nothing in the
  package calls any more: `miner.post_pruning`, `miner.instantiate`,
  `evaluator.suggest` and `cli.learn`. `miner.build_a_hierarchy` and
  `miner.build_i_hierarchy` have a caller, `learned_hierarchy`, which
  only `learn --emit-hierarchy` runs, so the benchmark never does;
- `specialization`'s `cfg`, passed by keyword, and its `(rules, False)`
  return, which the hook unpacks;
- `overfit_keep`'s third argument, which the hook passes;
- `ground_body`, looked up in `miner` and in `evaluator`, as a generator,
  whose yields the hooks count.

One learn and one eval run here under every probe, through
`rulehier.cli.main`; the benchmark's files are only read.
"""

import importlib
import random
from pathlib import Path

from rulehier.cli import main

from helpers import random_kg

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_probe_resolves_and_its_hooks_run_clean(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    data = tmp_path / "data"
    random_kg(random.Random(12), n_entities=12, n_relations=3, n_train=60,
              n_valid=8, n_test=8).write_directory(data)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"""[dataset]
dir = {data}

[output]
dir = {tmp_path / "out"}

[targets]
mode = all

[miner]
supp_f = 0
hc_f = 0.0
sc_f = 0.0
overfit_threshold = 0.0
max_len = 2
walks_per_instance = 8
seed = 0
""")
    tracer = spans.Tracer()
    with spans.Installation(tracer, layers.PROBES) as inst:
        for command in ("learn", "eval"):
            assert main([command, "--config", str(cfg)]) == 0
    assert not inst.missing, (
        "bench/layers.py probes names the package no longer has: "
        f"{inst.missing_names}")
    assert not tracer.broken, (
        "bench/layers.py counter hooks failed on a changed signature or "
        f"result: {sorted(tracer.broken)}")
    values = layers.pass_metrics(tracer, inst.missing)
    assert [name for name, v in values.items() if v is None] == []
    # each hook that reads an argument or a result ran
    for name in ("cli.rules_written", "miner.oars_specialized",
                 "miner.spec_kept", "miner.groundings", "hierarchy.bfs_nodes",
                 "evaluator.queries", "evaluator.bindings"):
        assert values[name] > 0, name
