import csv
import os
import random

import pytest

from rulehier import hierarchy
from rulehier.cli import (RunConfig, config_echo, load_config, main,
                          select_targets, _workers)
from rulehier.kgstore import TripleStore
from rulehier.miner import MinerConfig

from helpers import TOY_TRIPLES, random_kg, toy_store


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
    cfg = load_config(cfg_path, ["eta=7.5", "workers=3", "target_mode=random"])
    assert cfg.dataset_dir == str(ds)
    assert cfg.miner.supp_f == 0
    assert cfg.miner.supp_h == 2
    assert cfg.miner.enable_post_pruning is False
    assert cfg.miner.eta == 7.5
    assert cfg.workers == 3
    assert cfg.target_mode == "random"


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_path = write_config(tmp_path, ".", ".", extra="bogus = 1\n")
    with pytest.raises(KeyError):
        load_config(cfg_path)
    cfg_path2 = write_config(tmp_path, ".", ".")
    with pytest.raises(KeyError):
        load_config(cfg_path2, ["nope=1"])


def test_config_echo_lists_every_miner_field():
    echo = "\n".join(config_echo(RunConfig()))
    from dataclasses import fields
    for f in fields(MinerConfig):
        assert f"miner.{f.name} = " in echo


def test_select_targets_modes():
    store = full_store()
    cfg = RunConfig()
    cfg.target_mode = "all"
    assert select_targets(store, cfg) == [0, 1, 2]
    cfg.target_mode = "list"
    cfg.target_list = ("r1",)
    assert select_targets(store, cfg) == [1]
    cfg.target_list = ("zz",)
    with pytest.raises(KeyError):
        select_targets(store, cfg)
    cfg.target_mode = "random"
    cfg.target_list = ()
    cfg.target_k = 2
    picked = select_targets(store, cfg)
    assert len(picked) == 2
    assert picked == select_targets(store, cfg)  # seeded


def test_workers_env_cap(monkeypatch):
    cfg = RunConfig()
    cfg.workers = 8
    monkeypatch.setenv("RULEHIER_THREADS", "2")
    assert _workers(cfg) == 2
    monkeypatch.delenv("RULEHIER_THREADS")
    assert _workers(cfg) == 8


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


def test_learn_emit_hierarchy(tmp_path, monkeypatch):
    calls = []
    union = hierarchy.union
    monkeypatch.setattr(hierarchy, "union",
                        lambda *hs: calls.append(hs) or union(*hs))
    ds = write_dataset(tmp_path, toy_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    dot = tmp_path / "h.dot"
    assert main(["learn", "--config", str(cfg),
                 "--emit-hierarchy", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "style=solid" in text
    # one merge over the three targets' hierarchies
    assert [len(hs) for hs in calls] == [3]


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


def test_bench_command(tmp_path, capsys):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["bench", "--config", str(cfg),
                 "--thresholds", "0,3", "--post-prune", "off"]) == 0
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["supp_h"] == "0"
    assert rows[1]["supp_h"] == "3"
    assert rows[0]["post_prune"] == "False"
    assert int(rows[0]["n_rules"]) >= int(rows[1]["n_rules"])
    float(rows[0]["mrr"])  # parses


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


def test_learn_parallel_matches_serial(tmp_path):
    ds = write_dataset(tmp_path, full_store())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg1 = write_config(tmp_path, ds, out1)
    main(["learn", "--config", str(cfg1)])
    cfg2 = write_config(tmp_path, ds, out2, extra="")
    main(["learn", "--config", str(cfg2), "--set", "workers=4"])
    files1 = sorted(out1.glob("rules_*.txt"))
    files2 = sorted(out2.glob("rules_*.txt"))
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()
