import csv
import importlib
import logging
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from rulehier import hierarchy
from rulehier.cli import (RunConfig, config_echo, load_config, main,
                          select_targets)
from rulehier.kgstore import TripleStore
from rulehier.miner import MinerConfig, read_rules

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
    cfg = load_config(cfg_path, ["eta=7.5", "eval_cap=3", "target_mode=random"])
    assert cfg.dataset_dir == str(ds)
    assert cfg.miner.supp_f == 0
    assert cfg.miner.supp_h == 2
    assert cfg.miner.enable_post_pruning is False
    assert cfg.miner.eta == 7.5
    assert cfg.eval_cap == 3
    assert cfg.target_mode == "random"


def test_load_config_rejects_unknown_keys(tmp_path):
    for old, new, name in (
            ("seed = 0", "bogus = 1", "miner.bogus"),
            ("mode = all", "modee = list", "targets.modee"),
            ("[output]", "[evaluatr]\ncap = 3\n\n[output]", "evaluatr.cap"),
            ("[output]", "[run]\nworkerz = 8\n\n[output]", "run.workerz")):
        cfg_path = write_config(tmp_path, ".", ".")
        cfg_path.write_text(cfg_path.read_text().replace(old, new, 1))
        with pytest.raises(KeyError, match=re.escape(name)):
            load_config(cfg_path)
    cfg_path = write_config(tmp_path, ".", ".")
    # --set takes the scalar run fields and the miner fields, not a section
    for key in ("nope", "miner"):
        with pytest.raises(KeyError, match=key):
            load_config(cfg_path, [f"{key}=1"])


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
                       ("grounding_cap=-1", "grounding_cap"),
                       ("max_specs_per_oar=-1", "max_specs_per_oar"),
                       ("eval_cap=-1", "eval_cap"),
                       ("target_k=-1", "target_k")):
        with pytest.raises(ValueError, match=name):
            load_config(cfg_path, [item])
    for name in ("eval_cap", "target_k"):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: -1})
    assert load_config(cfg_path, ["eval_cap=0", "eta=0"]).miner.eta == 0


@pytest.mark.parametrize("word", ["ture", "", "2", "enabled"])
def test_load_config_rejects_non_boolean_words(tmp_path, word):
    cfg_path = write_config(tmp_path, ".", ".",
                            extra=f"enable_post_pruning = {word}\n")
    with pytest.raises(ValueError, match="enable_post_pruning"):
        load_config(cfg_path)
    with pytest.raises(ValueError, match="enable_prior_pruning"):
        load_config(write_config(tmp_path, ".", "."),
                    [f"enable_prior_pruning={word}"])


def test_load_config_accepts_configparser_boolean_words(tmp_path):
    for word, want in (("1", True), ("YES", True), ("True", True),
                       ("on", True), ("0", False), ("no", False),
                       ("FALSE", False), ("Off", False)):
        cfg_path = write_config(tmp_path, ".", ".",
                                extra=f"enable_post_pruning = {word}\n")
        cfg = load_config(cfg_path, [f"enable_prior_pruning={word}"])
        assert cfg.miner.enable_post_pruning is want
        assert cfg.miner.enable_prior_pruning is want


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
    for ratios in ("0.5,0.5", "0.5,0.25,0.25,0"):
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


def test_benchmark_probes_run_clean_around_learn_and_eval(tmp_path,
                                                          monkeypatch):
    # bench/layers.py wraps rulehier functions and reads their arguments
    # and results in counter hooks; a hook that breaks on a changed
    # signature or return value turns its metrics to null. One learn and
    # one eval run here under every probe, and no probe may be missing or
    # broken. The benchmark's files are only read.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "bench"))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    cfg = write_config(tmp_path, write_dataset(tmp_path, full_store()),
                       tmp_path / "out")
    tracer = spans.Tracer()
    with spans.Installation(tracer, layers.PROBES) as inst:
        for command in ("learn", "eval"):
            assert main([command, "--config", str(cfg)]) == 0
    assert inst.missing == set()
    assert tracer.broken == set()
    values = layers.pass_metrics(tracer, inst.missing)
    assert [name for name, v in values.items() if v is None] == []
    for name in ("cli.rules_written", "miner.oars_specialized",
                 "miner.spec_kept", "miner.groundings", "hierarchy.bfs_nodes",
                 "evaluator.queries"):
        assert values[name] > 0, name


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


def _record_values(record: str, key: str) -> list[str]:
    return re.findall(rf"^target\.[^.]+\.{key} = (.*)$", record, re.M)


def test_learn_record_reports_approximations(tmp_path):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    record = (out / "run_record.txt").read_text()
    assert _record_values(record, "truncated") == ["False"] * 3
    assert all(int(n) > 1 for n in _record_values(record, "abstract_rules"))
    assert _record_values(record, "approximate_rules") == ["0"] * 3

    assert main(["learn", "--config", str(cfg),
                 "--set", "grounding_cap=5"]) == 0
    record = (out / "run_record.txt").read_text()
    assert sum(int(n) for n in _record_values(record,
                                              "approximate_rules")) > 0

    assert main(["learn", "--config", str(cfg),
                 "--set", "gen_time_budget=1e-9"]) == 0
    record = (out / "run_record.txt").read_text()
    assert _record_values(record, "truncated") == ["True"] * 3
    assert _record_values(record, "abstract_rules") == ["1"] * 3


@pytest.mark.parametrize("cause, value", [("gen_time_budget", "1e-9"),
                                          ("spec_time_budget", "1e-9"),
                                          ("max_specs_per_oar", "1")])
def test_learn_record_names_what_truncated_each_target(tmp_path, cause,
                                                       value):
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    record = (out / "run_record.txt").read_text()
    assert _record_values(record, "truncated_by") == [""] * 3

    assert main(["learn", "--config", str(cfg),
                 "--set", f"{cause}={value}"]) == 0
    record = (out / "run_record.txt").read_text()
    causes = _record_values(record, "truncated_by")
    assert set(causes) <= {"", cause} and cause in causes
    assert [c == cause for c in causes] == \
        [t == "True" for t in _record_values(record, "truncated")]


def test_eval_warns_only_when_the_cap_truncates_a_body(tmp_path, capsys,
                                                      caplog):
    caplog.set_level(logging.DEBUG, logger="rulehier.cli")
    ds = write_dataset(tmp_path, full_store())
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ds, out)
    assert main(["learn", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["-v", "eval", "--config", str(cfg)]) == 0
    assert "warning" not in capsys.readouterr().err
    exact = (out / "summary.txt").read_text()
    assert "capped_bodies': 0" in caplog.text
    assert "bodies_grounded" in caplog.text
    assert main(["eval", "--config", str(cfg), "--set", "eval_cap=1"]) == 0
    err = capsys.readouterr().err
    assert re.search(r"^warning: eval cap reached in [1-9]\d* rule bodies",
                     err, re.M)
    capped = (out / "summary.txt").read_text()
    # the summary format is unchanged: same keys, no counters
    assert [line.split(" = ")[0] for line in capped.splitlines()] == \
        [line.split(" = ")[0] for line in exact.splitlines()]


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


def test_learn_emit_hierarchy_without_prior_pruning(tmp_path, capsys):
    ds = write_dataset(tmp_path, toy_store())
    cfg = write_config(tmp_path, ds, tmp_path / "out",
                       extra="enable_prior_pruning = false\n")
    dot = tmp_path / "h.dot"
    assert main(["learn", "--config", str(cfg),
                 "--emit-hierarchy", str(dot)]) == 0
    text = dot.read_text()
    assert "style=dashed" in text  # the I-edges of post pruning
    assert "style=solid" not in text  # no A-hierarchy was built
    assert capsys.readouterr().err == ""


def test_learn_emit_hierarchy_warns_when_none_is_built(tmp_path, capsys):
    ds = write_dataset(tmp_path, toy_store())
    cfg = write_config(tmp_path, ds, tmp_path / "out",
                       extra="enable_prior_pruning = false\n"
                             "enable_post_pruning = false\n")
    dot = tmp_path / "h.dot"
    assert main(["learn", "--config", str(cfg),
                 "--emit-hierarchy", str(dot)]) == 0
    assert not dot.exists()
    assert "no hierarchy" in capsys.readouterr().err


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
    # a config error is an error line, not a traceback
    assert main(["learn", "--config", str(cfg), "--set", "miner=1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # so is an out-of-range value, before any mining starts
    cfg = write_config(tmp_path, write_dataset(tmp_path, full_store()),
                       tmp_path / "o")
    for item in ("eta=-1", "max_len=0", "eval_cap=-1"):
        assert main(["learn", "--config", str(cfg), "--set", item]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["bench", "--config", str(cfg), "--thresholds", "0,-1"]) == 1
    assert "supp_h" in capsys.readouterr().err

