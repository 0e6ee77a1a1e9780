"""Effect of the pruning knobs on a synthetic graph.

Generates a random knowledge graph, re-splits it 6:2:2, writes it and a
run config to a temporary directory, and runs `rulehier bench` over the
prior-pruning support threshold, with post-pruning off and then on. Each
row of the printed `bench.csv` gives the runtime, filtered MRR, rule count
and open-rule classification of one threshold.
Run with:  python3 demos/pruning_sweep.py
"""

import random
import tempfile
from pathlib import Path

from rulehier import SplitConfig, TripleStore, resplit
from rulehier.cli import main as rulehier

MINER = """[miner]
max_len = 2
supp_f = 1
hc_f = 0.0
sc_f = 0.0
overfit_threshold = 0.0
walks_per_instance = 6
seed = 0
"""


def synthetic_graph(seed=0, n_entities=30, n_relations=3, n_triples=260):
    rng = random.Random(seed)
    store = TripleStore()
    for i in range(n_entities):
        store.entities.intern(f"e{i}")
    for i in range(n_relations):
        store.relations.intern(f"r{i}")
    seen = set()
    while len(seen) < n_triples:
        t = (rng.randrange(n_relations), rng.randrange(n_entities),
             rng.randrange(n_entities))
        if t[1] != t[2] and t not in seen:
            seen.add(t)
            store.add_triple(*t, "train")
    return resplit(store, SplitConfig(seed=seed))


def sweep(work, thresholds="0,8,24,40", post="off"):
    """Write the graph and a run config under `work`, run `rulehier bench`
    there, and return the path of its bench.csv."""
    work = Path(work)
    data, out = work / "data", work / f"out_post_{post}"
    synthetic_graph().write_directory(data)
    config = work / "run.ini"
    config.write_text(f"[dataset]\ndir = {data}\n\n[output]\ndir = {out}\n\n"
                      f"{MINER}", encoding="utf-8")
    if rulehier(["bench", "--config", str(config), "--thresholds",
                 thresholds, "--set", f"enable_post_pruning={post}"]) != 0:
        raise RuntimeError("rulehier bench failed")
    return out / "bench.csv"


def main():
    store = synthetic_graph()
    print(f"graph: {store.size('train')} train / {store.size('valid')} valid"
          f" / {store.size('test')} test triples,"
          f" {len(store.entities)} entities")
    with tempfile.TemporaryDirectory() as work:
        for post in ("off", "on"):
            print(sweep(work, post=post).read_text(encoding="utf-8"), end="")


if __name__ == "__main__":
    main()
