"""Importing corrdet loads numpy and scipy.special, and no other scipy
subpackage that would cost start-up time in every CLI process."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.spatial", "scipy.fft")

# run in a fresh interpreter: tests/oracles.py has already loaded
# scipy.integrate into this one
CHILD = f"""
import json, sys
import corrdet, corrdet.cli
loaded = [m for m in {UNUSED!r} if m in sys.modules]
import scipy.integrate
print(json.dumps({{"loaded": loaded, "quad": corrdet.extended.quad is scipy.integrate.quad}}))
"""


def test_import_loads_no_unused_scipy_subpackage():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    assert found["loaded"] == []
    # the name corrbench/tracer.py wraps still resolves, on first use
    assert found["quad"]
