"""corrdet runs on numpy alone: importing it and running its CLI commands
loads no scipy module and, for the commands that use no special function,
not numpy.ma either, which would cost start-up time in every CLI process."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

UNIFORM = {"type": "uniform", "z0": 1.0}
BUDGET = {"p_w": 1.0, "var_n": 1.0}
COMMANDS = {
    "extended": {"model": UNIFORM, "budget": BUDGET, "joint": {"atoms": [[1.0, 1.0, 0.5], [-1.0, -1.0, 0.5]]},
                 "theta": 0.3, "extended": {"kind": "abs", "alpha": 0.25}},
    "simulate": {"model": {"type": "laplacian", "q": 2.0}, "budget": BUDGET, "theta": 0.4,
                 "simulate": {"n_values": [20, 40], "trials": 1000, "tilt_lambda": 0.33, "seed": 3,
                              "w_pattern": [1.0, 0.6], "s_pattern": [1.0, 0.8]}},
    "joint": {"model": {"type": "binary_symmetric", "z0": 7.0},
              "budget": {"p_w": 1.0, "var_n": 1.0, "p_s": 1.0}, "theta": 0.5, "p_cap": 1e8},
    "quantize": {"model": {"type": "laplacian", "q": 1.0}, "budget": BUDGET, "theta": 0.2, "k": 4,
                 "signal": {"atoms": [[-1.0, 0.25], [-0.5, 0.25], [0.5, 0.25], [1.0, 0.25]]}},
}

# run in a fresh interpreter: tests/oracles.py has already loaded scipy
# into this one
CHILD = """
import json, sys, tempfile
from pathlib import Path

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

import corrdet, corrdet.cli
found = {"import": loaded("scipy")}
with tempfile.TemporaryDirectory() as tmp:
    for command, cfg in json.loads(sys.argv[1]).items():
        path = Path(tmp, command + ".json")
        path.write_text(json.dumps(cfg))
        status = corrdet.cli.main([command, "--config", str(path), "--out", str(Path(tmp, command + ".out"))])
        found[command] = {"status": status, "scipy": loaded("scipy"), "numpy.ma": loaded("numpy.ma")}
import scipy.integrate
found["quad"] = corrdet.extended.quad is scipy.integrate.quad
print(json.dumps(found))
"""


def test_import_loads_no_unused_scipy_subpackage():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    assert found["import"] == []
    for command in COMMANDS:
        assert found[command]["status"] == 0, command
        assert found[command]["scipy"] == [], command
    # joint and quantize use no special function, and no numpy.ma
    assert found["joint"]["numpy.ma"] == []
    assert found["quantize"]["numpy.ma"] == []
    # the name corrbench/tracer.py wraps still resolves, on first use
    assert found["quad"]
