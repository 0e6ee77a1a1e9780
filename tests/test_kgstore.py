import re

import pytest

from rulehier.kgstore import (EmptyStatisticError, Interner, ParseError,
                              SplitConfig, TripleStore, resplit)

from helpers import random_kg, toy_store
import random


def test_interner_dense_first_seen_order():
    it = Interner()
    assert it.intern("a") == 0
    assert it.intern("b") == 1
    assert it.intern("a") == 0
    assert it.name(1) == "b"
    assert it.get("b") == 1 and it.get("c") is None
    assert len(it) == 2
    assert it.names() == ["a", "b"]


def test_load_triples_and_indices(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("a\tr\tb\nb\tr\tc\na\tr\tb\n\na\ts\tc\n")
    store = TripleStore()
    dups = store.load_triples(p, "train")
    assert dups == 1
    assert store.duplicate_count == 1
    assert store.size("train") == 3
    a, b, c = (store.entities.get(x) for x in "abc")
    r, s = store.relations.get("r"), store.relations.get("s")
    assert store.fwd_index[(r, a)] == [b]
    assert store.bwd_index[(r, c)] == [b]
    assert store.has_train(r, a, b)
    assert not store.has_train(s, a, b)
    assert store.instances_of(r, "train") == {(a, b), (b, c)}
    for rel in (r, s, 99):
        assert store.instances_of(rel, "train") == \
            {(h, t) for q, h, t in store.splits["train"] if q == rel}
    assert (r, b, "out") in store.neighbors(a)
    assert (r, a, "in") in store.neighbors(b)
    assert [e for e in store.neighbors(a) if e[2] == "out"] == \
        [(r, b, "out"), (s, c, "out")]


def test_load_triples_rejects_malformed_line(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("a\tr\tb\na\tr\n")
    store = TripleStore()
    with pytest.raises(ParseError, match="2"):
        store.load_triples(p, "train")


BOM = b"\xef\xbb\xbf"   # U+FEFF encoded in UTF-8: a byte-order mark


def test_a_byte_order_mark_opening_a_split_file_is_dropped(tmp_path):
    # as the utf-8-sig codec drops it: a split file saved with a BOM names
    # the same entity as one saved without
    (tmp_path / "train.txt").write_bytes(BOM + b"a\tr\tb\n")
    (tmp_path / "test.txt").write_bytes(b"a\tr\tc\n")
    store = TripleStore.from_directory(tmp_path)
    assert store.entities.names() == ["a", "b", "c"]
    assert store.relations.names() == ["r"]


def test_u_feff_anywhere_but_at_byte_0_stays_in_the_name(tmp_path):
    p = tmp_path / "train.txt"
    p.write_bytes(b"a" + BOM + b"\tr\tb\n" + BOM + b"c\tr\tb\n")
    store = TripleStore()
    store.load_triples(p, "train")
    assert store.entities.names() == ["a\ufeff", "b", "\ufeffc"]
    # only one mark is dropped: a second one right after it is text
    p.write_bytes(BOM + BOM + b"d\tr\tb\n")
    store = TripleStore()
    store.load_triples(p, "train")
    assert store.entities.names() == ["\ufeffd", "b"]


def test_load_triples_names_the_file_and_line_of_bad_utf8(tmp_path):
    p = tmp_path / "train.txt"
    p.write_bytes(b"a\tr\tb\n\xff\tr\tb\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:2: .*utf-8"):
        TripleStore().load_triples(p, "train")


def test_load_triples_rejects_unknown_split(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("a\tr\tb\n")
    with pytest.raises(ValueError):
        TripleStore().load_triples(p, "dev")


def test_non_train_splits_not_indexed(tmp_path):
    p = tmp_path / "valid.txt"
    p.write_text("a\tr\tb\n")
    store = TripleStore()
    store.load_triples(p, "valid")
    assert store.size("valid") == 1
    assert not store.by_relation
    assert not store.fwd_index


@pytest.mark.parametrize("name", ["splits", "fwd_index", "bwd_index",
                                  "by_relation", "by_entity",
                                  "duplicate_count"])
def test_store_takes_only_its_interners(name):
    # splits given without their indices would be a store whose join
    # finds nothing: add_triple fills both
    with pytest.raises(TypeError):
        TripleStore(**{name: {"train": [(0, 0, 1)], "valid": [], "test": []}})
    store = TripleStore(entities=Interner(), relations=Interner())
    assert store.size() == 0 and not store.by_relation


def test_directory_round_trip(tmp_path):
    store = toy_store()
    store.add_triple(0, 0, 1, "valid")
    store.add_triple(0, 1, 0, "test")
    store.write_directory(tmp_path / "ds")
    back = TripleStore.from_directory(tmp_path / "ds")
    for split in ("train", "valid", "test"):
        orig = {(store.relations.name(r), store.entities.name(s),
                 store.entities.name(o)) for r, s, o in store.splits[split]}
        got = {(back.relations.name(r), back.entities.name(s),
                back.entities.name(o)) for r, s, o in back.splits[split]}
        assert orig == got


def test_from_directory_requires_some_split(tmp_path):
    with pytest.raises(FileNotFoundError):
        TripleStore.from_directory(tmp_path)


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(ratios=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        SplitConfig(ratios=(-0.2, 0.6, 0.6))
    # NaN fails every comparison, so each ratio must lie in [0, 1]
    for ratios in ((float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5),
                   (1.5, -0.25, -0.25)):
        with pytest.raises(ValueError, match=re.escape(repr(ratios))):
            SplitConfig(ratios=ratios)
    # exactly one ratio per split
    for ratios in ((0.5, 0.5), (0.5, 0.25, 0.25, 0.0), (1.0,)):
        with pytest.raises(ValueError, match="three"):
            SplitConfig(ratios=ratios)
    SplitConfig(ratios=(0.6, 0.2, 0.2))


def _n_triple_store(n):
    store = TripleStore()
    r = store.relations.intern("r")
    for i in range(n):
        store.add_triple(r, store.entities.intern(f"a{i}"),
                         store.entities.intern(f"b{i}"), "train")
    return store


def test_resplit_sizes_floor_remainder_to_train():
    out = resplit(_n_triple_store(10), SplitConfig())
    assert (out.size("train"), out.size("valid"), out.size("test")) == (6, 2, 2)
    out = resplit(_n_triple_store(11), SplitConfig())
    assert (out.size("train"), out.size("valid"), out.size("test")) == (7, 2, 2)
    assert out.size() == 11


def test_resplit_deterministic_and_seed_sensitive():
    a = resplit(_n_triple_store(50), SplitConfig(seed=7))
    b = resplit(_n_triple_store(50), SplitConfig(seed=7))
    c = resplit(_n_triple_store(50), SplitConfig(seed=8))
    assert a.splits == b.splits
    assert a.splits != c.splits


def test_resplit_preserves_triples_and_interners():
    store = _n_triple_store(20)
    out = resplit(store, SplitConfig())
    assert out.entities is store.entities
    before = set(store.splits["train"])
    after = {t for s in out.splits.values() for t in s}
    assert before == after


def test_resplit_empty_store_rejected():
    with pytest.raises(ValueError):
        resplit(TripleStore(), SplitConfig())


def test_reverse_triple_fraction_any_relation():
    store = TripleStore()
    r0, r1 = store.relations.intern("r0"), store.relations.intern("r1")
    a, b, c = (store.entities.intern(x) for x in "abc")
    store.add_triple(r0, a, b, "train")
    store.add_triple(r1, b, a, "test")   # reverse across relations
    store.add_triple(r0, c, a, "test")   # no reverse anywhere
    assert store.reverse_triple_fraction() == pytest.approx(0.5)
    # same-relation mode ignores the cross-relation reverse
    assert store.reverse_triple_fraction(same_relation_only=True) == 0.0
    store.add_triple(r1, a, b, "valid")  # r1(b,a) reversed in train? no;
    # but valid r1(a,b) has train pair-reverse of nothing new
    assert store.reverse_triple_fraction() == pytest.approx(1 / 3)


def test_reverse_triple_fraction_same_relation_hit():
    store = TripleStore()
    r = store.relations.intern("r")
    a, b = store.entities.intern("a"), store.entities.intern("b")
    store.add_triple(r, a, b, "train")
    store.add_triple(r, b, a, "test")
    assert store.reverse_triple_fraction(same_relation_only=True) == 1.0


def test_reverse_triple_fraction_empty_eval_split():
    with pytest.raises(EmptyStatisticError):
        toy_store().reverse_triple_fraction()


def test_random_kg_generator_sane():
    store = random_kg(random.Random(0), n_train=80, n_valid=10, n_test=10)
    assert store.size("train") == 80
    assert store.size("valid") == 10
    assert store.size("test") == 10
    for r, s, o in store.splits["train"]:
        assert s != o
