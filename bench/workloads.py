"""Seeded synthetic workloads: graph generators, dataset files and run.ini.

Each workload is one generated graph plus one miner configuration, chosen
so that one layer of rulehier does most of the work (see ``WORKLOADS``).
A workload's datasets share its graph and differ in the miner's sampling
seed; the benchmark's ``--seed`` picks which of them a run measures. The
generators use only the standard library, so the program under test sees
nothing but the files they write; the same seed gives byte-identical files.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

POOL_SIZE = 8       # datasets per workload with recorded outputs
ALPHA = 1.2         # Pareto shape of the hub-mine degrees


def uniform_triples(rng: random.Random, n_entities: int, n_relations: int,
                    n_triples: int) -> list[tuple[int, int, int]]:
    """Distinct (rel, subj, obj) triples, all ids uniform, no self-loops."""
    return _draw(rng, n_relations, n_triples,
                 lambda: rng.randrange(n_entities))


def pareto_triples(rng: random.Random, n_entities: int, n_relations: int,
                   n_triples: int, alpha: float) -> list[tuple[int, int, int]]:
    """Distinct triples whose endpoints follow Pareto-distributed degrees.

    Entity weights are the rank-size law of a Pareto(alpha) sample,
    w_k = k^(-1/alpha), dealt to entities in seeded random order. Fixing
    the weights rather than drawing them keeps the hub sizes the same from
    seed to seed, so only the wiring varies.
    """
    weights = [(k + 1) ** (-1.0 / alpha) for k in range(n_entities)]
    rng.shuffle(weights)
    cum = list(itertools.accumulate(weights))
    ents = range(n_entities)
    return _draw(rng, n_relations, n_triples,
                 lambda: rng.choices(ents, cum_weights=cum)[0])


def _draw(rng, n_relations, n_triples, entity):
    seen: set[tuple[int, int, int]] = set()
    out = []
    while len(out) < n_triples:
        t = (rng.randrange(n_relations), entity(), entity())
        if t[1] != t[2] and t not in seen:
            seen.add(t)
            out.append(t)
    return out


def split(rng: random.Random, triples: list, ratios: tuple[int, int, int]):
    """Shuffle and partition; valid/test sizes floored, remainder to train."""
    triples = list(triples)
    rng.shuffle(triples)
    n = len(triples)
    n_valid = n * ratios[1] // sum(ratios)
    n_test = n * ratios[2] // sum(ratios)
    n_train = n - n_valid - n_test
    return {"train": triples[:n_train],
            "valid": triples[n_train:n_train + n_valid],
            "test": triples[n_train + n_valid:]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str                      # "uniform" | "pareto"
    n_entities: int
    n_relations: int
    n_triples: int
    ratios: tuple[int, int, int]
    targets: tuple[str, ...]        # empty = all relations
    per_run: int                    # datasets one run draws from the pool
    miner: dict = field(default_factory=dict)
    eval_repeats: int = 1           # evals timed per learn

    def datasets_for(self, seed: int) -> list[int]:
        """The pool indices a run with this seed uses."""
        rng = random.Random(f"{self.name}:pool:{seed}")
        return sorted(rng.sample(range(POOL_SIZE), self.per_run))

    def triples(self) -> dict[str, list[tuple[int, int, int]]]:
        # the graph depends on the workload's name only
        rng = random.Random(f"{self.name}:0")
        if self.graph == "pareto":
            triples = pareto_triples(rng, self.n_entities, self.n_relations,
                                     self.n_triples, ALPHA)
        else:
            triples = uniform_triples(rng, self.n_entities, self.n_relations,
                                      self.n_triples)
        return split(rng, triples, self.ratios)

    def run_ini(self, data_dir: str, out_dir: str, seed: int) -> str:
        lines = ["[dataset]", f"dir = {data_dir}", "",
                 "[output]", f"dir = {out_dir}", ""]
        if self.targets:
            lines += ["[targets]", "mode = list",
                      f"predicates = {','.join(self.targets)}", ""]
        else:
            lines += ["[targets]", "mode = all", ""]
        lines += ["[run]", "workers = 1", "", "[miner]"]
        lines += [f"{k} = {v}" for k, v in self.miner.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    def write(self, root: Path, seed: int) -> Path:
        """Write ``root/data/{train,valid,test}.txt`` and ``root/run.ini``
        with miner sampling seed ``seed``.

        ``root`` is relative to the directory commands run from; run.ini
        names paths the same way, so a hand run from there reads the same
        files and the written bytes do not depend on where the checkout is.
        """
        data = root / "data"
        data.mkdir(parents=True, exist_ok=True)
        for name, triples in self.triples().items():
            with open(data / f"{name}.txt", "w", encoding="utf-8",
                      newline="\n") as fh:
                for rel, subj, obj in triples:
                    fh.write(f"e{subj}\tr{rel}\te{obj}\n")
        ini = root / "run.ini"
        ini.write_text(self.run_ini(data.as_posix(), (root / "out").as_posix(),
                                    seed), encoding="utf-8", newline="\n")
        return ini


# Sizes keep one learn + eval pass to a few seconds on a 2-CPU machine, so
# a run times several passes of each dataset. Walk counts are high enough
# that the sampled rule set barely depends on the sampling seed, which
# keeps the figures steady from seed to seed. Short evals are repeated.
# hub-mine's eval time still differs by up to 40% between sampling seeds,
# so its runs draw seven of the eight datasets rather than a few.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="hub-mine",
        why="hub entities fan out body groundings, so specialization "
            "dominates learn",
        graph="pareto", n_entities=200, n_relations=3, n_triples=500,
        ratios=(6, 2, 2), targets=("r0",), per_run=7, eval_repeats=5,
        miner={"max_len": 2, "walks_per_instance": 12, "supp_f": 6,
               "supp_h": 0, "enable_post_pruning": "true"}),
    Workload(
        name="query-heavy",
        why="many rules meet many test queries, so rule application "
            "dominates",
        graph="uniform", n_entities=40, n_relations=4, n_triples=400,
        ratios=(5, 1, 4), targets=(), per_run=2,
        miner={"max_len": 2, "walks_per_instance": 6, "supp_f": 1,
               "overfit_threshold": 0.0, "supp_h": 0,
               "enable_post_pruning": "true"}),
    Workload(
        name="prune-wide",
        why="a wide relation vocabulary makes the A-hierarchy large, so "
            "prior pruning does the work",
        graph="uniform", n_entities=50, n_relations=8, n_triples=600,
        ratios=(6, 2, 2), targets=(), per_run=2, eval_repeats=15,
        miner={"max_len": 3, "walks_per_instance": 2, "supp_f": 1,
               "supp_h": 34, "enable_post_pruning": "true"}),
)}
