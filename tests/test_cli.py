import csv
import json
import logging
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from rulehier import hierarchy, miner
from rulehier.cli import (RunConfig, config_echo, load_config, main,
                          select_targets)
from rulehier.kgstore import TripleStore
from rulehier.miner import MinerConfig, read_rules
from rulehier.rules import format_rule

from helpers import (DOMINATED_BAR, PLANTED_CAR, PLANTED_HAR, TOY_TRIPLES,
                     planted_kg, random_kg, toy_store, walk_rules)


def write_dataset(tmp_path, store):
    ds = tmp_path / "data"
    store.write_directory(ds)
    return ds


def write_config(tmp_path, ds, out, extra=""):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"""[dataset]
dir = {ds}

[output]
dir = {out}

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
{extra}""")
    return cfg


def full_store():
    rng = random.Random(12)
    return random_kg(rng, n_entities=12, n_relations=3, n_train=60,
                     n_valid=8, n_test=8)


# ---------------------------------------------------------------------------
# config loading

def test_load_config_sections_and_overrides(tmp_path):
    ds = tmp_path / "d"
    cfg_path = write_config(tmp_path, ds, tmp_path / "o",
                            extra="supp_h = 2\nenable_post_pruning = off\n")
    cfg = load_config(cfg_path, ["eta=7.5", "target_k=3", "target_mode=random"])
    assert cfg.dataset_dir == str(ds)
    assert cfg.miner.supp_f == 0
    assert cfg.miner.supp_h == 2
    assert cfg.miner.enable_post_pruning is False
    assert cfg.miner.eta == 7.5
    assert cfg.target_k == 3
    assert cfg.target_mode == "random"


def test_load_config_reads_a_file_opening_with_a_byte_order_mark(tmp_path):
    ds = tmp_path / "d"
    cfg_path = write_config(tmp_path, ds, tmp_path / "o")
    want = load_config(cfg_path)
    cfg_path.write_bytes(b"\xef\xbb\xbf" + cfg_path.read_bytes())
    assert load_config(cfg_path) == want


def test_stats_reads_a_record_opening_with_a_byte_order_mark(tmp_path,
                                                             capsys):
    record = tmp_path / "run_record.txt"
    text = b"target.r0.p_oars = 1\ntarget.r0.i_oars = 2\n"
    record.write_bytes(text)
    assert main(["stats", str(record)]) == 0
    want = capsys.readouterr().out
    record.write_bytes(b"\xef\xbb\xbf" + text)
    assert main(["stats", str(record)]) == 0
    assert capsys.readouterr().out == want


def test_load_config_rejects_unknown_keys(tmp_path):
    for old, new, name in (
            ("seed = 0", "bogus = 1", "miner.bogus"),
            # a deleted option is an unknown one
            ("seed = 0", "overfit_instantiated_only = true",
             "miner.overfit_instantiated_only"),
            # supp_h = 0 is prior pruning that prunes nothing
            ("seed = 0", "enable_prior_pruning = true",
             "miner.enable_prior_pruning"),
            # every relevant anchoring is kept: there is no spec cap
            ("seed = 0", "max_specs_per_oar = 1", "miner.max_specs_per_oar"),
            # one config and seed give one rule set: there is no time budget
            ("seed = 0", "gen_time_budget = 1", "miner.gen_time_budget"),
            # every measure and every answer is exact: there is no cap
            ("seed = 0", "grounding_cap = 5", "miner.grounding_cap"),
            ("[output]", "[evaluator]\ncap = 3\n\n[output]", "evaluator.cap"),
            ("mode = all", "modee = list", "targets.modee"),
            ("[output]", "[evaluatr]\ncap = 3\n\n[output]", "evaluatr.cap"),
            ("[output]", "[run]\nworkerz = 8\n\n[output]", "run.workerz")):
        cfg_path = write_config(tmp_path, ".", ".")
        cfg_path.write_text(cfg_path.read_text().replace(old, new, 1))
        with pytest.raises(KeyError, match=re.escape(name)):
            load_config(cfg_path)
    cfg_path = write_config(tmp_path, ".", ".")
    # --set takes the scalar run fields and the miner fields, not a section
    for key, value in (("nope", 1), ("miner", 1), ("enable_prior_pruning", 1),
                       ("max_specs_per_oar", 1), ("gen_time_budget", 1),
                       ("grounding_cap", 5), ("eval_cap", 3)):
        with pytest.raises(KeyError, match=f"unknown override '{key}'"):
            load_config(cfg_path, [f"{key}={value}"])


def test_run_workers_accepts_only_one(tmp_path):
    text = write_config(tmp_path, ".", ".").read_text()
    cfg_path = tmp_path / "workers.ini"
    cfg_path.write_text(text.replace("[miner]", "[run]\nworkers = 1\n\n[miner]"))
    assert config_echo(load_config(cfg_path)) == config_echo(
        load_config(write_config(tmp_path, ".", ".")))
    cfg_path.write_text(text.replace("[miner]", "[run]\nworkers = 4\n\n[miner]"))
    with pytest.raises(ValueError, match=r"run\.workers.*single-threaded"):
        load_config(cfg_path)
    with pytest.raises(KeyError, match="workers"):
        load_config(write_config(tmp_path, ".", "."), ["workers=4"])


def test_load_config_range_checks_values(tmp_path):
    # an INI value and a --set override are checked after they are applied
    cfg_path = write_config(tmp_path, ".", ".")
    cfg_path.write_text(cfg_path.read_text().replace("max_len = 2",
                                                     "max_len = 0"))
    with pytest.raises(ValueError, match="max_len"):
        load_config(cfg_path)
    cfg_path = write_config(tmp_path, ".", ".")
    for item, name in (("eta=-1", "eta"), ("walks_per_instance=0",
                                            "walks_per_instance"),
                       ("target_k=-1", "target_k")):
        with pytest.raises(ValueError, match=name):
            load_config(cfg_path, [item])
    with pytest.raises(ValueError, match="target_k"):
        RunConfig(target_k=-1)
    assert load_config(cfg_path, ["target_k=0", "eta=0"]).miner.eta == 0


@pytest.mark.parametrize("kw", [
    {"target_k": 2.5}, {"target_seed": True}, {"miner": None},
    {"miner": {"max_len": 2}}, {"target_list": "r0"},
    {"target_list": ["r0"]}, {"target_list": ("r0", 1)}])
def test_run_config_rejects_wrong_types(kw):
    # a string target_list would be split into characters
    (name,) = kw
    with pytest.raises(TypeError, match=name):
        RunConfig(**kw)


def test_a_config_cannot_change_after_it_was_checked():
    # a value set after construction would skip the checks: selection
    # would sample as if a bogus mode were "random", and learn would mine
    # nothing at max_len 0
    store = full_store()
    cfg, m = RunConfig(), MinerConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.target_mode = "bogus"
    with pytest.raises(FrozenInstanceError):
        m.max_len = 0
    with pytest.raises(FrozenInstanceError):
        cfg.miner = replace(m, supp_f=5)
    assert select_targets(store, cfg) == [0, 1, 2]
    assert cfg.miner == m == MinerConfig()
    # a changed copy is checked again
    with pytest.raises(ValueError, match="unknown target mode 'bogus'"):
        replace(cfg, target_mode="bogus")
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        replace(m, max_len=0)


@pytest.mark.parametrize("word", ["ture", "", "2", "enabled"])
def test_load_config_rejects_non_boolean_words(tmp_path, word):
    cfg_path = write_config(tmp_path, ".", ".",
                            extra=f"enable_post_pruning = {word}\n")
    with pytest.raises(ValueError, match="enable_post_pruning"):
        load_config(cfg_path)
    with pytest.raises(ValueError, match="enable_post_pruning"):
        load_config(write_config(tmp_path, ".", "."),
                    [f"enable_post_pruning={word}"])


def test_load_config_accepts_configparser_boolean_words(tmp_path):
    for word, want in (("1", True), ("YES", True), ("True", True),
                       ("on", True), ("0", False), ("no", False),
                       ("FALSE", False), ("Off", False)):
        cfg_path = write_config(tmp_path, ".", ".",
                                extra=f"enable_post_pruning = {word}\n")
        assert load_config(cfg_path).miner.enable_post_pruning is want
        cfg = load_config(write_config(tmp_path, ".", "."),
                          [f"enable_post_pruning={word}"])
        assert cfg.miner.enable_post_pruning is want


def test_a_bad_number_is_an_error_naming_its_key(tmp_path, capsys):
    cfg_path = write_config(tmp_path, ".", ".")
    for item, want in (("supp_h=abc", "supp_h: expected an integer"),
                       ("target_k=1.5", "target_k: expected an integer"),
                       ("eta=fast", "eta: expected a number")):
        with pytest.raises(ValueError, match=want):
            load_config(cfg_path, [item])
    cfg_path.write_text(cfg_path.read_text().replace("max_len = 2",
                                                     "max_len = two"))
    with pytest.raises(ValueError,
                       match="miner.max_len: expected an integer"):
        load_config(cfg_path)
    cfg_path = write_config(tmp_path, ".", ".")
    assert main(["learn", "--config", str(cfg_path),
                 "--set", "supp_h=abc"]) == 1
    assert capsys.readouterr().err == \
        "error: supp_h: expected an integer, got 'abc'\n"


def test_readme_sample_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(blocks[0])
    cfg = load_config(cfg_path)
    # the sample spells out the defaults
    assert cfg.miner == MinerConfig()
    assert (cfg.target_mode, cfg.target_k) == ("all", 20)


def test_set_target_list_splits_like_the_ini_key(tmp_path):
    cfg_path = write_config(tmp_path, ".", ".")
    cfg = load_config(cfg_path, ["target_list= r0, r1 ,"])
    assert cfg.target_list == ("r0", "r1")
    ini = cfg_path.read_text().replace("mode = all",
                                       "mode = list\npredicates = r0, r1 ,")
    cfg_path.write_text(ini)
    assert load_config(cfg_path).target_list == ("r0", "r1")


def test_config_echo_lists_every_miner_field(tmp_path):
    echo = config_echo(RunConfig())
    from dataclasses import fields
    for f in fields(MinerConfig):
        assert f"miner.{f.name} = " in "\n".join(echo)
    # the echo names the keys load_config reads: it loads back unchanged
    sections = {}
    for line in echo:
        key, _, value = line.partition(" = ")
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(f"{name} = {value}")
    ini = tmp_path / "echo.ini"
    ini.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n"
                           for s, lines in sections.items()))
    assert config_echo(load_config(ini)) == echo


def test_select_targets_modes():
    store = full_store()
    cfg = RunConfig(target_mode="all")
    assert select_targets(store, cfg) == [0, 1, 2]
    cfg = replace(cfg, target_mode="list", target_list=("r1",))
    assert select_targets(store, cfg) == [1]
    cfg = replace(cfg, target_list=("zz",))
    with pytest.raises(KeyError):
        select_targets(store, cfg)
    # a target named twice would be learned twice and counted twice
    cfg = replace(cfg, target_list=("r0", "r1", "r0"))
    with pytest.raises(ValueError, match="r0"):
        select_targets(store, cfg)
    cfg = replace(cfg, target_mode="random", target_list=(), target_k=2)
    picked = select_targets(store, cfg)
    assert len(picked) == 2
    assert picked == select_targets(store, cfg)  # seeded


def test_a_target_with_no_train_instances_is_named(tmp_path, capsys):
    store = full_store()
    only = store.relations.intern("only_test")
    store.add_triple(only, 0, 1, "test")
    cfg = write_config(tmp_path, write_dataset(tmp_path, store),
                       tmp_path / "out")
    for command in ("learn", "bench"):
        assert main([command, "--config", str(cfg), "--set",
                     "target_mode=list", "--set",
                     "target_list=only_test"]) == 1
        assert capsys.readouterr().err == \
            "error: relation 'only_test' has no train instances\n"


def test_an_unknown_target_mode_is_an_error(tmp_path, capsys):
    # a config error, found before any mining or evaluation starts
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    rules = {p.name: p.read_bytes() for p in out.iterdir()}
    bad = tmp_path / "bad.ini"
    bad.write_text(cfg.read_text().replace("mode = all", "mode = bogus"))
    for command in ("learn", "eval"):
        for args in (["--config", str(bad)],
                     ["--config", str(cfg), "--set", "target_mode=bogus"]):
            assert main([command, *args]) == 1
            assert capsys.readouterr().err == \
                "error: unknown target mode 'bogus'\n"
    # eval wrote no summary, and learn left the rule files as they were
    assert {p.name: p.read_bytes() for p in out.iterdir()} == rules
    with pytest.raises(ValueError, match="bogus"):
        RunConfig(target_mode="bogus")


# ---------------------------------------------------------------------------
# commands

def test_split_command(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    lines = [f"a{i}\tr\tb{i}" for i in range(9)] + ["x\tr\ty"]
    (src / "all.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["split", str(src), str(out), "--seed", "1"]) == 0
    msg = capsys.readouterr().out
    assert "train=6" in msg and "valid=2" in msg and "test=2" in msg
    store = TripleStore.from_directory(out)
    assert store.size() == 10
    # deterministic: the same invocation reproduces the same files
    out2 = tmp_path / "out2"
    main(["split", str(src), str(out2), "--seed", "1"])
    for name in ("train.txt", "valid.txt", "test.txt"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_split_command_no_files(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["split", str(empty), str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_split_command_rejects_wrong_ratio_count(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "all.txt").write_text("".join(f"a{i}\tr\tb{i}\n" for i in range(9)))
    for ratios in ("0.5,0.5", "0.5,0.25,0.25,0", "nan,0.5,0.5",
                   "0.5,nan,0.5"):
        out = tmp_path / ratios
        assert main(["split", str(src), str(out), "--ratios", ratios]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_learn_and_eval_commands(tmp_path, capsys):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    rule_files = sorted(out.glob("rules_*.txt"))
    assert rule_files
    record = (out / "run_record.txt").read_text()
    assert "config.miner.supp_f = 0" in record
    assert "config.dataset.dir" in record
    assert ".rules = " in record

    assert main(["eval", "--config", str(cfg)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "mrr = " in summary
    assert "hits@10 = " in summary
    assert "rat_seconds = " in summary
    assert (out / "predictions.txt").exists()
    assert "MRR" in capsys.readouterr().out


def test_learn_writes_every_target_when_file_names_collide(tmp_path, capsys):
    # "a/b" and "a_b" make one file-safe name, and "A_B" makes it again on
    # a case-insensitive file system; "r3" collides with nothing
    rng = random.Random(12)
    store = random_kg(rng, n_entities=12, n_relations=4, n_train=80,
                      n_valid=8, n_test=8)
    ds = write_dataset(tmp_path, store)
    for split in ("train", "valid", "test"):
        path = ds / f"{split}.txt"
        text = path.read_text()
        for old, new in (("r0", "a/b"), ("r1", "a_b"), ("r2", "A_B")):
            text = text.replace(f"\t{old}\t", f"\t{new}\t")
        path.write_text(text)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    learned = int(re.search(r"learned (\d+) rules",
                            capsys.readouterr().out).group(1))
    files = sorted(out.glob("rules_*.txt"))
    assert len({f.name.lower() for f in files}) == len(files) == 4
    assert out / "rules_r3.txt" in files
    back = TripleStore.from_directory(ds)
    heads = Counter()
    for f in files:
        heads.update(back.relations.name(rule.head.pred) for rule, _ in
                     read_rules(f, back.entities, back.relations))
    assert set(heads) == {"a/b", "a_b", "A_B", "r3"}
    assert sum(heads.values()) == learned
    record = (out / "run_record.txt").read_text()
    keys = re.findall(r"^target\.(.+)\.rules = (\d+)$", record, re.M)
    assert len({k.lower() for k, _ in keys}) == 4
    assert sorted(int(n) for _, n in keys) == sorted(heads.values())


def test_learn_and_bench_mine_every_target_in_one_traversal(tmp_path,
                                                            monkeypatch):
    traversals = []
    bfs = miner.bfs_with_pruning
    monkeypatch.setattr(miner, "bfs_with_pruning",
                        lambda *a: traversals.append(a) or bfs(*a))
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    assert len(traversals) == 1
    assert main(["bench", "--config", str(cfg), "--thresholds", "0,2"]) == 0
    assert len(traversals) == 3   # one per threshold
    # each target's rule file holds what it mines alone
    store = TripleStore.from_directory(ds)
    config = load_config(cfg).miner
    for name in ("r0", "r1", "r2"):
        back = read_rules(out / f"rules_{name}.txt", store.entities,
                          store.relations)
        alone = miner.learn(store, store.relations.get(name), config)
        assert back and [r for r, _ in back] == [r for r, _ in alone.rules]


def test_learn_with_no_target_writes_no_rule_file(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, write_dataset(tmp_path, full_store()), out)
    assert main(["learn", "--config", str(cfg), "--set", "target_mode=random",
                 "--set", "target_k=0"]) == 0
    assert "learned 0 rules for 0 targets" in capsys.readouterr().out
    assert not list(out.glob("rules_*.txt"))


def test_learn_leaves_only_its_own_rule_files(tmp_path):
    # a second learn into the same directory, over one target, removes the
    # first run's other rule files, so eval ranks only that target's
    # queries; a file that is not a rule file stays
    out = tmp_path / "out"
    cfg = write_config(tmp_path, write_dataset(tmp_path, full_store()), out)
    assert main(["learn", "--config", str(cfg)]) == 0
    assert sorted(f.name for f in out.glob("rules_*.txt")) \
        == ["rules_r0.txt", "rules_r1.txt", "rules_r2.txt"]
    (out / "notes.txt").write_text("kept\n")
    assert main(["learn", "--config", str(cfg), "--set", "target_mode=list",
                 "--set", "target_list=r0"]) == 0
    assert [f.name for f in out.glob("rules_*.txt")] == ["rules_r0.txt"]
    assert (out / "notes.txt").read_text() == "kept\n"
    assert main(["eval", "--config", str(cfg)]) == 0
    queries = (out / "predictions.txt").read_text().splitlines()
    assert queries and all(q.startswith("r0(") for q in queries)


def test_eval_reads_back_the_rules_of_any_entity_names(tmp_path, capsys):
    # names that a bare rule text would read as a variable or a skolem, or
    # that hold the grammar's characters
    awkward = ["Paris_(band)", "Washington,_D.C.", "X", "Y", "V0", "sk0",
               " padded ", 'say "hi"', "a <- b", "x | y", "back\\slash"]
    base = full_store()
    store = TripleStore()
    for split, triples in base.splits.items():
        for rel, subj, obj in triples:
            store.add_triple(
                store.relations.intern(base.relations.name(rel)),
                *(store.entities.intern(awkward[e] if e < len(awkward)
                                        else base.entities.name(e))
                  for e in (subj, obj)), split)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, write_dataset(tmp_path, store), out)
    assert main(["learn", "--config", str(cfg)]) == 0
    learned = int(re.search(r"learned (\d+) rules",
                            capsys.readouterr().out).group(1))
    texts = "".join(f.read_text(encoding="utf-8")
                    for f in out.glob("rules_*.txt"))
    assert '"Paris_(band)"' in texts and ',"X")' in texts
    assert main(["eval", "--config", str(cfg)]) == 0
    back = TripleStore.from_directory(tmp_path / "data")
    assert learned == sum(len(read_rules(f, back.entities, back.relations))
                          for f in out.glob("rules_*.txt"))


# a predictions.txt name: a JSON string, or bare
_PRED_NAME = r'"(?:[^"\\]|\\.)*"|[^"(),]+'
_PRED_QUERY = re.compile(rf"({_PRED_NAME})\(({_PRED_NAME}),({_PRED_NAME})\)")


def _read_name(text: str) -> str:
    return json.loads(text) if text.startswith('"') else text


def _read_predictions(path) -> list[tuple[str, str, list[str]]]:
    """Each line of a predictions.txt read back: the query's relation, its
    known entity and its candidates' names."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        qtext, rank, cands = line.split("\t")
        assert rank == "unranked" or int(rank) >= 1
        rel, subj, obj = _PRED_QUERY.fullmatch(qtext).groups()
        # the bare ? marks the asked slot
        assert [subj, obj].count("?") == 1
        fields = re.findall(r'"(?:[^"\\]|\\.)*"[^ ]*|[^ ]+', cands)
        assert " ".join(fields) == cands
        names = []
        for field in fields:
            name, _, score = field.rpartition(":")
            float(score)
            names.append(_read_name(name))
        out.append((_read_name(rel), _read_name(obj if subj == "?" else subj),
                    names))
    return out


def test_predictions_read_back_any_entity_names(tmp_path):
    # a space would split a candidate, and a parenthesis, a comma or a ?
    # the query; a dataset's names hold no tab or line break
    awkward = ["a b", "Paris_(band)", "x:1", 'say "hi"', "c,d", "?"]
    base = full_store()
    store = TripleStore()
    for split, triples in base.splits.items():
        for rel, subj, obj in triples:
            store.add_triple(
                store.relations.intern(base.relations.name(rel)),
                *(store.entities.intern(awkward[e] if e < len(awkward)
                                        else base.entities.name(e))
                  for e in (subj, obj)), split)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, write_dataset(tmp_path, store), out)
    assert main(["learn", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 0
    names = set(store.entities.names())
    candidates, known = set(), set()
    for rel, k, cands in _read_predictions(out / "predictions.txt"):
        assert rel in store.relations.names()
        known.add(k)
        candidates.update(cands)
    assert candidates <= names and set(awkward) <= candidates
    assert known == {store.entities.name(e) for _, s, o in store.splits["test"]
                     for e in (s, o)}
    assert {"Paris_(band)", "c,d", "?"} <= known


def _rules_by_text(out, store) -> dict:
    """Every rule file in `out`, read back: each rule's text -> measures."""
    ents, rels = store.entities, store.relations
    return {format_rule(r, ents, rels): m
            for path in sorted(out.glob("rules_*.txt"))
            for r, m in read_rules(path, ents, rels)}


def test_planted_rules_through_learn_and_eval(tmp_path):
    # the planted-rule graph through the command line, with pruning off,
    # with post pruning, and with prior pruning at a supp_h above the rare
    # relation's open rule and below every planted rule
    planted = planted_kg()
    supp_h = planted.rare_supp + 1
    assert supp_h <= min(planted.supp.values())
    ds = write_dataset(tmp_path, planted.store)
    cfg = write_config(tmp_path, ds, tmp_path / "out")
    store = TripleStore.from_directory(ds)
    runs = {"off": ("supp_h=0", "enable_post_pruning=off"),
            "post": ("supp_h=0", "enable_post_pruning=on"),
            "prior": (f"supp_h={supp_h}", "enable_post_pruning=off")}
    rules, records = {}, {}
    for name, sets in runs.items():
        out = tmp_path / name
        args = [a for s in (*sets, f"output_dir={out}") for a in ("--set", s)]
        assert main(["learn", "--config", str(cfg), *args]) == 0
        assert main(["eval", "--config", str(cfg), *args]) == 0
        rules[name] = _rules_by_text(out, store)
        records[name] = (out / "run_record.txt").read_text(encoding="utf-8")
        # every query of a planted target's test fact, each name read back
        preds = _read_predictions(out / "predictions.txt")
        assert {(rel, k) for rel, k, _ in preds} == {
            (store.relations.name(r), store.entities.name(e))
            for r, s, o in store.splits["test"] for e in (s, o)}
        assert all(set(c) <= set(store.entities.names())
                   for _, _, c in preds)

    def count(name: str, key: str) -> int:
        return int(re.search(rf"^target\.nat\.{key} = (\d+)$",
                             records[name], re.M).group(1))
    # pruning off: each planted rule with the support the graph gives
    assert {t: rules["off"][t].supp for t in planted.supp} == planted.supp
    assert count("off", "post_pruned") == count("off", "p_oars") == 0
    assert any("<- rare(X," in t for t in rules["off"])
    # post pruning drops rules, the dominated BAR among them
    assert count("post", "post_pruned") >= 1
    assert DOMINATED_BAR not in rules["post"]
    assert rules["post"].keys() < rules["off"].keys()
    assert {PLANTED_CAR, PLANTED_HAR} <= rules["post"].keys()
    # prior pruning skips the rare relation's subtree, not a planted rule
    assert count("prior", "p_oars") > 0
    assert not any("<- rare(X," in t for t in rules["prior"])
    assert {t: rules["prior"][t].supp for t in planted.supp} == planted.supp


def _record_values(record: str, key: str) -> list[str]:
    return re.findall(rf"^target\.[^.]+\.{key} = (.*)$", record, re.M)


def test_learn_record_lists_each_targets_counts_and_timings(tmp_path):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    record = (out / "run_record.txt").read_text()
    keys = re.findall(r"^target\.r0\.(\w+) = ", record, re.M)
    assert keys == ["rules", "p_oars", "i_oars", "u_oars", "abstract_rules",
                    "post_pruned", "gen_seconds", "spec_seconds"]
    assert len(re.findall(r"^target\.", record, re.M)) == 3 * len(keys)
    assert all(int(n) > 1 for n in _record_values(record, "abstract_rules"))


def test_verbose_learn_logs_each_target(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="rulehier.miner")
    ds = write_dataset(tmp_path, full_store())
    cfg = write_config(tmp_path, ds, tmp_path / "out")
    assert main(["-v", "learn", "--config", str(cfg)]) == 0
    # one line per target: mode = all learns each of the three relations
    lines = [r.getMessage() for r in caplog.records
             if r.name == "rulehier.miner"]
    found = [re.fullmatch(
        r"relation (\d+): \d+ walk keys, \d+ visited, \d+ kept; "
        r"OARs p/i/u \d+/\d+/\d+; \d+ rules; gen [\d.]+ s, spec [\d.]+ s",
        line) for line in lines]
    assert all(found), lines
    assert [m.group(1) for m in found] == ["0", "1", "2"]


def test_verbose_eval_logs_its_counters(tmp_path, capsys, caplog):
    caplog.set_level(logging.DEBUG, logger="rulehier.cli")
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["-v", "eval", "--config", str(cfg)]) == 0
    assert "warning" not in capsys.readouterr().err
    stats = re.search(r"rule application: (\{.*\})", caplog.text).group(1)
    assert re.findall(r"'(\w+)': \d+", stats) == [
        "queries", "bodies_grounded", "groundings"]
    # the summary holds the metrics, not the counters
    summary = (out / "summary.txt").read_text()
    assert "groundings" not in summary


def test_eval_rejects_a_missing_rules_directory(tmp_path, capsys):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    nope = tmp_path / "nope"
    # --rules, then the output.dir fallback; neither directory exists
    for extra, missing in ((["--rules", str(nope)], nope), ([], out)):
        assert main(["eval", "--config", str(cfg), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert "MRR" not in capsys.readouterr().out
        assert not out.exists()
    # a directory with no rule files is an empty rule set
    nope.mkdir()
    assert main(["eval", "--config", str(cfg), "--rules", str(nope)]) == 0
    assert "warning: empty rule set" in capsys.readouterr().err
    assert (out / "summary.txt").exists()


def test_learn_emit_hierarchy(tmp_path, monkeypatch):
    calls = []
    union = hierarchy.union
    monkeypatch.setattr(hierarchy, "union",
                        lambda *hs: calls.append(hs) or union(*hs))

    def unbuilt(self):
        raise AssertionError("a hierarchy built its child and parent lists")
    # uniting and writing DOT read only the nodes and edges
    monkeypatch.setattr(hierarchy.Hierarchy, "_children_parents", unbuilt)
    ds = write_dataset(tmp_path, toy_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    dot = tmp_path / "h.dot"
    assert main(["learn", "--config", str(cfg),
                 "--emit-hierarchy", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "style=solid" in text
    # post pruning is on: one union, of the three targets' A-hierarchy
    # with their I-hierarchy
    assert [len(hs) for hs in calls] == [2]


def test_learn_emit_hierarchy_under_pruning_equals_the_builders(tmp_path,
                                                               monkeypatch):
    # learn builds only the abstract rules prior pruning reaches, yet the
    # DOT file holds every one: the builders' A-hierarchy over all walk
    # rules, united with the I-hierarchy of each specialized OAR
    specs_of = []
    specialize = miner.specialization

    def recorded(*a, **kw):
        specs, flag = specialize(*a, **kw)
        specs_of.append(specs)
        return specs, flag
    monkeypatch.setattr(miner, "specialization", recorded)
    store = random_kg(random.Random(17), n_entities=14, n_relations=3,
                      n_train=70, n_valid=25)
    ds = write_dataset(tmp_path, store)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    dot = tmp_path / "h.dot"
    sets = ["supp_f=1", "supp_h=8"]
    assert main(["learn", "--config", str(cfg), *(
        arg for item in sets for arg in ("--set", item)),
        "--emit-hierarchy", str(dot)]) == 0
    monkeypatch.undo()
    record = (out / "run_record.txt").read_text()
    assert sum(int(n) for n in re.findall(r"\.p_oars = (\d+)", record)) > 0
    run = load_config(cfg, sets)
    store = TripleStore.from_directory(run.dataset_dir)
    oracle = hierarchy.union(
        *(hierarchy.build_a_hierarchy(walk_rules(store, rt, run.miner))
          for rt in select_targets(store, run)),
        *(hierarchy.build_i_hierarchy([r for r, _ in s]) for s in specs_of))
    want = tmp_path / "oracle.dot"
    hierarchy.write_dot(oracle, want, lambda r: format_rule(
        r, store.entities, store.relations))
    assert dot.read_text() == want.read_text()
    assert "style=dashed" in want.read_text()


def test_learn_emit_hierarchy_without_post_pruning_is_the_a_hierarchy(
        tmp_path):
    # post pruning off: only solid edges, the builders' A-hierarchy over
    # each target's walk rules; on, the same graph gives dashed ones too
    store = random_kg(random.Random(17), n_entities=14, n_relations=3,
                      n_train=70, n_valid=25)
    ds = write_dataset(tmp_path, store)
    cfg = write_config(tmp_path, ds, tmp_path / "out")
    sets, dots = ["supp_f=1", "supp_h=8"], {}
    for post in ("on", "off"):
        sets[2:] = [f"enable_post_pruning={post}"]
        dots[post] = tmp_path / f"{post}.dot"
        assert main(["learn", "--config", str(cfg), *(
            arg for item in sets for arg in ("--set", item)),
            "--emit-hierarchy", str(dots[post])]) == 0
    run = load_config(cfg, sets)   # post pruning off
    store = TripleStore.from_directory(run.dataset_dir)
    oracle = hierarchy.union(
        *(hierarchy.build_a_hierarchy(walk_rules(store, rt, run.miner))
          for rt in select_targets(store, run)))
    want = tmp_path / "oracle.dot"
    hierarchy.write_dot(oracle, want, lambda r: format_rule(
        r, store.entities, store.relations))
    assert dots["off"].read_text() == want.read_text()
    assert "style=dashed" not in want.read_text()
    assert "style=dashed" in dots["on"].read_text()


def test_learn_emit_hierarchy_does_not_change_what_it_mines(tmp_path):
    store = random_kg(random.Random(17), n_entities=14, n_relations=3,
                      n_train=70, n_valid=25)
    ds = write_dataset(tmp_path, store)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    runs = {}
    for emit in ([], ["--emit-hierarchy", str(tmp_path / "h.dot")]):
        assert main(["learn", "--config", str(cfg), "--set", "supp_f=1",
                     "--set", "supp_h=8", *emit]) == 0
        record = (out / "run_record.txt").read_text(encoding="utf-8")
        runs[bool(emit)] = (
            {p.name: p.read_bytes() for p in out.glob("rules_*.txt")},
            [line for line in record.splitlines()
             if "_seconds = " not in line])
    assert runs[True] == runs[False]
    rules, counts = runs[False]
    assert len(rules) == 3 and any(rules.values())
    # prior pruning skips rules and post pruning drops some
    for key in ("p_oars", "post_pruned"):
        assert any(re.fullmatch(rf"target\.\w+\.{key} = [1-9]\d*", line)
                   for line in counts)


def test_learn_set_override_changes_output(tmp_path):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg), "--set", "supp_f=999"]) == 0
    for f in out.glob("rules_*.txt"):
        assert f.read_text() == ""


def test_stats_command(tmp_path, capsys):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    main(["learn", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["stats", str(out / "run_record.txt")]) == 0
    table = capsys.readouterr().out
    assert "P-OAR" in table and "ALL" in table
    assert "r0" in table


@pytest.mark.parametrize("bad", [b"x", b"-2", b" 3", b"3.0", b"1_000", b"",
                                 b"\xff"])
def test_stats_rejects_a_count_it_cannot_read(tmp_path, capsys, bad):
    # learn writes each OAR count as ASCII digits; any other value is an
    # error naming the line, not a 0 in the table
    record = tmp_path / "run_record.txt"
    record.write_bytes(b"config.seed = 0\ntarget.r0.p_oars = 1\n"
                       b"target.r0.i_oars = " + bad + b"\n"
                       b"target.r0.u_oars = 2\n")
    assert main(["stats", str(record)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {record}:3: ")
    assert captured.out == ""


def test_bench_command(tmp_path, capsys):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["bench", "--config", str(cfg), "--thresholds", "0,3",
                 "--set", "enable_post_pruning=off"]) == 0
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["supp_h"] == "0"
    assert rows[1]["supp_h"] == "3"
    assert rows[0]["post_prune"] == "False"
    assert int(rows[0]["n_rules"]) >= int(rows[1]["n_rules"])
    float(rows[0]["mrr"])  # parses
    # bench follows the config as learn does: post pruning is on by default
    assert main(["bench", "--config", str(cfg), "--thresholds", "0"]) == 0
    with open(out / "bench.csv", newline="") as fh:
        assert [row["post_prune"] for row in csv.DictReader(fh)] == ["True"]
    with pytest.raises(SystemExit):
        main(["bench", "--config", str(cfg), "--post-prune", "off"])


def test_subsume_command(capsys):
    assert main(["subsume", "rt(X,Y) <- r0(X,V0)",
                 "rt(X,Y) <- r0(X,V0), r1(V0,V1)"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    got = dict(line.split() for line in out)
    assert got == {"theta": "True", "oi": "True", "sa": "True",
                   "sa_complete": "True", "a": "True", "i": "False"}


def test_main_reports_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "missing", tmp_path / "o")
    assert main(["learn", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err
    # a config error is an error line, not a traceback
    assert main(["learn", "--config", str(cfg), "--set", "miner=1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # so is an out-of-range value, before any mining starts
    cfg = write_config(tmp_path, write_dataset(tmp_path, full_store()),
                       tmp_path / "o")
    for item in ("eta=-1", "max_len=0", "target_k=-1"):
        assert main(["learn", "--config", str(cfg), "--set", item]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["bench", "--config", str(cfg), "--thresholds", "0,-1"]) == 1
    assert "supp_h" in capsys.readouterr().err
    # a KeyError's message is printed as it reads, without repr quotes
    assert main(["learn", "--config", str(cfg), "--set", "bogus=1"]) == 1
    assert capsys.readouterr().err == "error: unknown override 'bogus'\n"


@pytest.mark.parametrize("broken", ["dir = data\n",
                                    "[miner]\nseed = 0\nseed = 1\n"],
                         ids=["no-section-header", "repeated-key"])
def test_malformed_config_file_is_an_error_line(tmp_path, capsys, broken):
    cfg = tmp_path / "broken.ini"
    cfg.write_text(broken)
    with pytest.raises(ValueError, match=re.escape(str(cfg))):
        load_config(cfg)
    assert main(["learn", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err
    assert err.count("\n") == 1   # one line, no traceback
