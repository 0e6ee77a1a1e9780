import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_demos_run():
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
    row = sweep.sweep(sweep.synthetic_graph(), 0, False)
    assert row["rules"] > 0 and 0 < row["mrr"] <= 1
