"""Shared pytest wiring.

The acceptance tests record one verdict line per criterion here; the
terminal-summary hook replays them after capture ends so the verdicts
are visible in every run, not just on failure.

The `compiled` fixture hands the kernel tests the compiled module,
building it from its C file when it is not built in place.
"""

import importlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXTENSION = "submine.kernels._compiled"
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def _c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0])


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel module, built from its C file if need be."""
    try:
        return importlib.import_module(EXTENSION)
    except ImportError:
        pass
    if _c_compiler() is None:
        pytest.skip("no C compiler found to build the compiled kernels")
    out = tmp_path_factory.mktemp("compiled")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = list((out / "submine" / "kernels").glob("_compiled*" + suffix))
    if build.returncode != 0 or not built:
        # setup.py marks the extension optional, so a failed compile
        # still exits 0: the missing module is the signal
        pytest.fail("building _compiled failed:\n" + build.stdout
                    + build.stderr)
    spec = importlib.util.spec_from_file_location(EXTENSION, built[0])
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
