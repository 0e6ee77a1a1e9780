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
