"""The installed package needs only the standard library: every module
under `submine` imports with the test-only dependencies unimportable."""

import subprocess
import sys
from pathlib import Path

import submine

_IMPORT_ALL = """
import importlib.abc, pkgutil, sys

BLOCKED = {"numpy", "networkx", "pytest"}

class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Block())
sys.path.insert(0, sys.argv[1])
import submine

def fail(name):
    raise SystemExit(f"cannot import {name}")

names = [m.name for m in pkgutil.walk_packages(submine.__path__, "submine.",
                                               onerror=fail)]
for name in names:
    __import__(name)
print("\\n".join(names))
"""


def test_every_module_imports_without_test_dependencies():
    src = str(Path(submine.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ALL, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    assert {"submine.cli", "submine.engine", "submine.apps.quasiclique",
            "submine.kernels.pure"} <= names
    assert "submine.testkit" not in names
