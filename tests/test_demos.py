import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_demos_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    toy = subprocess.run([sys.executable, str(DEMOS / "academic_toy.py")],
                         env=env, capture_output=True, text=True)
    assert toy.returncode == 0, toy.stderr
    # one point of the sweep; the demo's own main sweeps eight
    spec = importlib.util.spec_from_file_location(
        "pruning_sweep", DEMOS / "pruning_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    with open(sweep.sweep(tmp_path, "0", "off"), newline="") as fh:
        [row] = csv.DictReader(fh)
    assert int(row["n_rules"]) > 0 and 0 < float(row["mrr"]) <= 1
