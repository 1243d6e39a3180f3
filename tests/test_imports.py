"""Each rantwin module imports alone in a fresh interpreter, so no module
leans on another having been imported first, and the simulator loads
without the dataset code: the fault model lives in ran_sim."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rantwin

SRC = str(Path(rantwin.__file__).resolve().parents[1])
MODULES = sorted(m.name for m in pkgutil.iter_modules(rantwin.__path__))


def run_fresh(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = run_fresh(f"import rantwin.{module}")
    assert done.returncode == 0, done.stderr


def test_ran_sim_does_not_load_anomaly():
    done = run_fresh(
        "import sys\n"
        "import rantwin.ran_sim\n"
        "assert 'rantwin.anomaly' not in sys.modules, sorted(sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr
