import importlib
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# modules already loaded at interpreter start-up (site hooks, .pth files)
# are not the package's; only what the imports add is checked
PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import rulehier, rulehier.cli
for name in sorted(set(sys.modules) - before):
    print(name.split(".")[0])
"""


def test_package_imports_only_the_standard_library():
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert "rulehier" in loaded
    assert loaded - {"rulehier"} - sys.stdlib_module_names == set()


def test_every_benchmark_probe_resolves_to_a_callable(monkeypatch):
    # bench/layers.py wraps each probed name where its caller looks it up;
    # a name that stops resolving turns its per-layer metrics to null
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    layers = importlib.import_module("layers")
    assert layers.PROBES
    for probe in layers.PROBES:
        module, _, cls = probe.owner.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        assert callable(getattr(owner, probe.attr, None)), probe
