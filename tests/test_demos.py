import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("demo", ["01_simulator_tour.py", "02_parameter_shift.py",
                                  "03_stock_forecast.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # From the repo root: demo 03 opens data/axis_bank_2000.csv by a relative path.
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
