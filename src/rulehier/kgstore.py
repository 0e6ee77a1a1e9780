"""In-memory knowledge graph store with interned ids and split-aware indices.

Triples are (relation-id, subject-id, object-id) tuples partitioned into
train/valid/test splits. Only the train split is indexed for mining; the
other splits exist for validation filtering and evaluation.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")


class ParseError(ValueError):
    """A triple or rule file line that does not match the grammar."""


def decode_line(raw: bytes, path, lineno: int) -> str:
    """One line of a file read in binary, as text without its line end;
    bytes that are not UTF-8 raise ParseError naming `path:lineno`. A
    byte-order mark at the start of line 1, the file's byte 0, is dropped,
    as the utf-8-sig codec drops it; U+FEFF anywhere else is text."""
    try:
        return raw.decode("utf-8-sig" if lineno == 1 else "utf-8").rstrip(
            "\n").rstrip("\r")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}:{lineno}: {e}") from None


class EmptyStatisticError(ValueError):
    """A statistic requested over an empty triple set."""


class Interner:
    """Dense integer ids for surface names, assigned in first-seen order."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = len(self._names)
            self._ids[name] = idx
            self._names.append(name)
        return idx

    def get(self, name: str) -> int | None:
        return self._ids.get(name)

    def name(self, idx: int) -> str:
        return self._names[idx]

    def __len__(self) -> int:
        return len(self._names)

    def names(self) -> list[str]:
        return list(self._names)


@dataclass
class SplitConfig:
    """Shuffle-and-repartition configuration (default 6:2:2)."""

    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise ValueError(f"expected three split ratios, "
                             f"got {len(self.ratios)}")
        if not all(0 <= r <= 1 for r in self.ratios):   # also rejects NaN
            raise ValueError(f"split ratios must each lie in [0, 1], "
                             f"got {self.ratios!r}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")


@dataclass
class TripleStore:
    """Indexed, split-partitioned triple set.

    After loading the store is treated as immutable.
    """

    entities: Interner = field(default_factory=Interner)
    relations: Interner = field(default_factory=Interner)
    # filled by add_triple only, so the splits and their indices agree
    splits: dict[str, list[tuple[int, int, int]]] = field(
        init=False, default_factory=lambda: {s: [] for s in SPLITS})
    # train-only indices
    fwd_index: dict[tuple[int, int], list[int]] = field(
        init=False, default_factory=dict)
    bwd_index: dict[tuple[int, int], list[int]] = field(
        init=False, default_factory=dict)
    by_relation: dict[int, list[tuple[int, int]]] = field(
        init=False, default_factory=dict)
    by_entity: dict[int, list[tuple[int, int, str]]] = field(
        init=False, default_factory=dict)
    duplicate_count: int = field(init=False, default=0)

    def __post_init__(self):
        self._members = {s: set() for s in SPLITS}

    # -- loading ----------------------------------------------------------

    def add_triple(self, rel: int, subj: int, obj: int, split: str) -> bool:
        """Add one interned triple; returns False for an in-split duplicate."""
        triple = (rel, subj, obj)
        if triple in self._members[split]:
            return False
        self._members[split].add(triple)
        self.splits[split].append(triple)
        if split == "train":
            self.fwd_index.setdefault((rel, subj), []).append(obj)
            self.bwd_index.setdefault((rel, obj), []).append(subj)
            self.by_relation.setdefault(rel, []).append((subj, obj))
            self.by_entity.setdefault(subj, []).append((rel, obj, "out"))
            self.by_entity.setdefault(obj, []).append((rel, subj, "in"))
        return True

    def load_triples(self, path: str | Path, split: str) -> int:
        """Load a tab-separated triple file into one split.

        Returns the number of duplicate lines that were dropped. A
        malformed line, or one that is not UTF-8, raises ParseError naming
        `path:lineno`.
        """
        if split not in SPLITS:
            raise ValueError(f"unknown split tag {split!r}")
        dups = 0
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = decode_line(raw, path, lineno)
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ParseError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, "
                        f"got {len(fields)}")
                head, rel, tail = fields
                if not self.add_triple(self.relations.intern(rel),
                                       self.entities.intern(head),
                                       self.entities.intern(tail), split):
                    dups += 1
        if dups:
            log.warning("%s: dropped %d duplicate triples", path, dups)
        self.duplicate_count += dups
        return dups

    @classmethod
    def from_directory(cls, dataset_dir: str | Path) -> "TripleStore":
        """Load train.txt/valid.txt/test.txt from a dataset directory."""
        store = cls()
        found = False
        for split in SPLITS:
            p = Path(dataset_dir) / f"{split}.txt"
            if p.exists():
                store.load_triples(p, split)
                found = True
        if not found:
            raise FileNotFoundError(f"no split files in {dataset_dir}")
        return store

    def write_directory(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for split in SPLITS:
            with open(out / f"{split}.txt", "w", encoding="utf-8") as fh:
                for rel, subj, obj in self.splits[split]:
                    fh.write(f"{self.entities.name(subj)}\t"
                             f"{self.relations.name(rel)}\t"
                             f"{self.entities.name(obj)}\n")

    # -- queries ----------------------------------------------------------

    def size(self, split: str | None = None) -> int:
        if split is not None:
            return len(self.splits[split])
        return sum(len(t) for t in self.splits.values())

    def has_train(self, rel: int, subj: int, obj: int) -> bool:
        return (rel, subj, obj) in self._members["train"]

    def instances_of(self, rel: int, split: str = "train") -> set[tuple[int, int]]:
        """All (subject, object) pairs of a relation within one split."""
        if split == "train":
            return set(self.by_relation.get(rel, ()))
        return {(s, o) for r, s, o in self.splits[split] if r == rel}

    def neighbors(self, entity: int):
        """Incident train edges (relation, other, direction), not a copy."""
        return self.by_entity.get(entity, ())

    def reverse_triple_fraction(self, same_relation_only: bool = False) -> float:
        """Fraction of valid/test triples whose reverse is a train triple."""
        eval_triples = self.splits["valid"] + self.splits["test"]
        if not eval_triples:
            raise EmptyStatisticError("valid and test splits are empty")
        if same_relation_only:
            train = self._members["train"]
            hits = sum((r, o, s) in train for r, s, o in eval_triples)
        else:
            train_pairs = {(s, o) for _, s, o in self.splits["train"]}
            hits = sum((o, s) in train_pairs for _, s, o in eval_triples)
        return hits / len(eval_triples)


def resplit(store: TripleStore, cfg: SplitConfig) -> TripleStore:
    """Shuffle all triples and repartition them per cfg.ratios.

    Split sizes are floored; remainder triples go to train. Deterministic
    for a fixed seed.
    """
    if store.size() == 0:
        raise ValueError("cannot resplit an empty store")
    triples = [t for s in SPLITS for t in store.splits[s]]
    rng = random.Random(cfg.seed)
    rng.shuffle(triples)
    n = len(triples)
    n_valid = int(n * cfg.ratios[1])
    n_test = int(n * cfg.ratios[2])
    n_train = n - n_valid - n_test
    out = TripleStore(entities=store.entities, relations=store.relations)
    for triple in triples[:n_train]:
        out.add_triple(*triple, "train")
    for triple in triples[n_train:n_train + n_valid]:
        out.add_triple(*triple, "valid")
    for triple in triples[n_train + n_valid:]:
        out.add_triple(*triple, "test")
    return out
