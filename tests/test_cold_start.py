"""Which SciPy modules a command loads, each run in a fresh interpreter.

Importing the package loads NumPy and no SciPy module: `scipy.special`
loads on the first kernel evaluation, and `scipy.integrate` only when the
kernel oracle `kernel_triple` runs, which no command reaches; truncation
tails are closed forms.  pytest has imported `scipy.integrate` by the
time a test runs (its `filterwarnings` entry names a SciPy warning), so
each check starts its own interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the CLI on its arguments, then prints the exit code and which of
# SciPy's special functions and integrators were loaded
RUN_AND_LIST = """
import sys
from meridian.cli import main
code = main(sys.argv[1:])
print(code, *[m for m in ("scipy.special", "scipy.integrate")
              if m in sys.modules])
"""


def fresh(code, *args, block_scipy=False):
    """stdout of `code` in a new interpreter with the package on its path;
    with `block_scipy`, every SciPy import there raises ImportError."""
    if block_scipy:
        code = "import sys; sys.modules['scipy'] = None\n" + code
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


def test_importing_the_package_loads_no_scipy():
    out = fresh("import sys, meridian, meridian.cli\n"
                "print(*sorted(m for m in sys.modules if 'scipy' in m))")
    assert out[0] == ""


@pytest.mark.parametrize("command", ["bmo", "feasibility", "print-config"])
def test_rate_and_norm_commands_run_without_scipy(tmp_path, command):
    out = fresh(RUN_AND_LIST, command, "--out", str(tmp_path),
                block_scipy=True)
    assert out[-2] == "0"


@pytest.mark.parametrize("command, config", [
    ("kernel-scan", "scan.n_r = 2\nscan.n_ratio = 4\nscan.n_zeta = 2\n"
                    "scan.refine = false\n"),
    ("roundtrip", "roundtrip.kind = pure_swirl\nroundtrip.n_r = 1\n"
                  "roundtrip.n_z = 1\n"),
    ("decay", "decay.n_points = 5\n"),
])
def test_kernel_commands_load_special_functions_only(tmp_path, command,
                                                     config):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    out = fresh(RUN_AND_LIST, command, "--config", str(path), "--out",
                str(tmp_path / "out"), "--workers", "1")
    assert out[-2].split() == ["0", "scipy.special"]
