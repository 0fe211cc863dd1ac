"""The runtime is standard-library only: importing the package and its
command line loads no third-party module."""

import subprocess
import sys
from pathlib import Path

import kordered

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import kordered, kordered.cli
for name in sorted({m.partition(".")[0] for m in set(sys.modules) - before}):
    print(name)
"""


def test_package_imports_only_the_standard_library():
    src = str(Path(kordered.__file__).resolve().parents[1])
    # -I keeps PYTHONPATH and the user site out; the site .pth hooks that
    # still run load before the probe records the module set
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, src],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = done.stdout.split()
    assert "kordered" in loaded
    outside = [m for m in loaded if m != "kordered" and m not in sys.stdlib_module_names]
    assert outside == [], outside
