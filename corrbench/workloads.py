"""The benchmark's workloads: fixed lists of corrdet operations.

Each builder takes the workload seed and an output directory, writes
the JSON configs a user would write, and returns the operations of one
round.  An operation runs ``corrdet.cli.main`` on its config where the
CLI can express the case, and otherwise calls the public library
function that the CLI command would run, writing its result as JSON.
Names are looked up on the corrdet modules at call time, so the tracer's
wrappers see every call.

The seed moves thresholds by a few percent and picks the Monte Carlo
stream; it never changes the shape of the work or the inputs of the
operations that are expected to fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import corrdet
import corrdet.cli

BUDGET = {"p_w": 1.0, "var_n": 1.0}
JOINT_BUDGET = {"p_w": 1.0, "var_n": 1.0, "p_s": 1.0}

GAUSSIAN = {"type": "gaussian", "var_z": 1.0}
BINARY7 = {"type": "binary_symmetric", "z0": 7.0}
MIX_POLE = {"type": "mixture_binary_laplace", "delta": 0.95, "z0": 0.5, "q": 5.0}

FOURASK_A = 4.0
FOURASK_POINTS = 12
SWEEP_POINTS = 6
SWEEP_CHECK_INDEX = 2  # the sweep row that a single-theta design repeats
SIGNAL_POINTS = 64

# Monte Carlo: model, weight pattern, signal pattern, tilt.  The tilts sit
# near each model's Chernoff-optimal tilt at SIM_THETA.  The binary case
# keeps a constant weight so its miss probability is a binomial sum.
SIM_THETA = 0.4
SIM_TRIALS = 10_000
SIM_N = [50, 100, 200, 400]
SIM_CASES = [
    ("gaussian", GAUSSIAN, [1.0, 0.6], [1.0, 0.8], 0.25),
    ("laplacian", {"type": "laplacian", "q": 2.0}, [1.0, 0.6], [1.0, 0.8], 0.33),
    ("binary", {"type": "binary_symmetric", "z0": 1.5}, [1.0], [1.0], 0.19),
    ("uniform", {"type": "uniform", "z0": 2.0}, [1.0, 0.6], [1.0, 0.8], 0.22),
    ("mixture", {"type": "mixture_binary_laplace", "delta": 0.8, "z0": 1.0, "q": 3.0},
     [1.0, 0.6], [1.0, 0.8], 0.27),
]


class Op:
    """One operation of a round.

    ``run`` returns True on success and leaves its result in ``out``;
    ``check`` names the function in checks.py that verifies that result
    against ``spec``.  ``may_fail`` marks a known fault: the operation is
    counted as failed, and checked like any other once it succeeds.
    """

    def __init__(self, name, run, out, check, spec, may_fail=False):
        self.name, self.run, self.out = name, run, out
        self.check, self.spec, self.may_fail = check, spec, may_fail
        self.error = None


def _cli_op(outdir, name, command, cfg, check, ext="json", may_fail=False, **spec_extra):
    cfg_path = outdir / "cfg" / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    out = outdir / f"{name}.{ext}"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = corrdet.cli.main(argv)
        if status != 0:
            op.error = f"exit status {status}: {err.getvalue().strip()}"
        return status == 0

    op = Op(name, run, out, check, {**cfg, **spec_extra}, may_fail)
    return op


def _lib_op(outdir, name, fn, check, spec):
    out = outdir / f"{name}.json"

    def run():
        out.write_text(json.dumps(fn()))
        return True

    return Op(name, run, out, check, spec)


def _model(cfg):
    return corrdet.model_from_config(cfg)


def _budget(cfg):
    return corrdet.PowerBudget(**cfg)


def _uniform_signal(points, lo=-2.0, hi=2.0):
    step = (hi - lo) / points
    return [[lo + (i + 0.5) * step, 1.0 / points] for i in range(points)]


# ---------------------------------------------------------------------------

def theta_sweep(seed, outdir):
    rng = random.Random(f"theta-sweep:{seed}")
    shift = rng.random()
    ops = []
    grid = {"start": 0.4 + 0.1 * shift, "stop": 3.6 + 0.1 * shift, "points": SWEEP_POINTS}
    base = {"model": BINARY7, "budget": BUDGET, "signal": {"atoms": [[4.0, 0.5], [-4.0, 0.5]]}}
    ops.append(_cli_op(outdir, "design-sweep-binary7", "design", {**base, "theta_grid": grid},
                       "design_sweep", ext="csv", point_op="design-point-binary7",
                       point_index=SWEEP_CHECK_INDEX))
    # one of the sweep's thresholds, exactly as the CLI's grid computes it
    theta = float(np.linspace(grid["start"], grid["stop"], grid["points"])[SWEEP_CHECK_INDEX])
    ops.append(_cli_op(outdir, "design-point-binary7", "design", {**base, "theta": theta},
                       "design_point"))

    top = FOURASK_A * math.sqrt(5.0 * BUDGET["p_w"])
    thetas = [(i + shift) * top / FOURASK_POINTS for i in range(FOURASK_POINTS)]
    for label, model_cfg in (("binary7", BINARY7), ("laplacian0.1", {"type": "laplacian", "q": 0.1}),
                             ("gaussian", GAUSSIAN)):
        spec = {"model": model_cfg, "budget": BUDGET, "a": FOURASK_A, "thetas": thetas}
        ops.append(_lib_op(outdir, f"fourask-{label}", _fourask_sweep(spec), "fourask_sweep", spec))
    return ops


def _fourask_sweep(spec):
    model, budget, a = _model(spec["model"]), _budget(spec["budget"]), spec["a"]
    alpha_m = math.sqrt(budget.p_w / 5.0)
    beta_m = math.sqrt(2.0 * budget.p_w - alpha_m * alpha_m)

    def sweep():
        # the computation of `corrdet figure --id 1|3`, on a shorter theta grid
        matched = corrdet.JointAtoms([alpha_m, beta_m], [a, 3.0 * a], [0.5, 0.5])
        rows = []
        for th in spec["thetas"]:
            e_cl = corrdet.md_exponent(matched, th, budget, model)
            alpha, e_opt = corrdet.design_4ask(model, a, th, budget)
            rows.append([th, alpha, e_opt.value, e_opt.lambda_star, e_cl.value, e_cl.lambda_star])
        return rows

    return sweep


# ---------------------------------------------------------------------------

POINT_MODELS = [
    ("gaussian", GAUSSIAN),
    ("laplacian1", {"type": "laplacian", "q": 1.0}),
    ("binary2", {"type": "binary_symmetric", "z0": 2.0}),
    ("uniform2", {"type": "uniform", "z0": 2.0}),
    ("mixture", {"type": "mixture_binary_laplace", "delta": 0.5, "z0": 1.0, "q": 2.0}),
]

EXT_ATOMS = [[1.0, 1.0, 0.5], [-1.0, -1.0, 0.5]]
EXT_ALPHA = 0.25
EXT_CASES = [
    ("gaussian", GAUSSIAN, ("energy", "abs")),
    ("binary1", {"type": "binary_symmetric", "z0": 1.0}, ("energy", "abs")),
    ("uniform1", {"type": "uniform", "z0": 1.0}, ("energy", "abs")),
    ("mixture", {"type": "mixture_binary_laplace", "delta": 0.5, "z0": 1.0, "q": 2.0}, ("abs",)),
]
# The transform quadrature misses the peak of its integrand near the tilt
# cap and raises QuadratureFailure on these; the inputs stay fixed.
EXT_POLE_CASES = [
    ("laplacian2", {"type": "laplacian", "q": 2.0}, "energy"),
    ("laplacian2", {"type": "laplacian", "q": 2.0}, "abs"),
    ("mixture", {"type": "mixture_binary_laplace", "delta": 0.5, "z0": 1.0, "q": 2.0}, "energy"),
]
EXT_POLE_THETA = 0.3


def point_design(seed, outdir):
    rng = random.Random(f"point-design:{seed}")
    theta = 0.2 * (1.0 + 0.02 * rng.random())
    signal = {"atoms": _uniform_signal(SIGNAL_POINTS)}
    ops = []
    cfg = {"model": {"type": "laplacian", "q": 1.0}, "budget": BUDGET, "signal": signal,
           "theta": theta, "k": 4}
    ops.append(_cli_op(outdir, "quantize-k4-laplacian1", "quantize", cfg, "quantize",
                       continuous_op="design-laplacian1"))
    for label, model_cfg in POINT_MODELS:
        cfg = {"model": model_cfg, "budget": BUDGET, "signal": signal, "theta": theta}
        ops.append(_cli_op(outdir, f"design-{label}", "design", cfg, "design_point"))

    ext_theta = 0.3 * (1.0 + 0.05 * rng.random())
    for label, model_cfg, kinds in EXT_CASES:
        for kind in kinds:
            ops.append(_extended_op(outdir, label, model_cfg, kind, ext_theta, False))
    for label, model_cfg, kind in EXT_POLE_CASES:
        ops.append(_extended_op(outdir, label, model_cfg, kind, EXT_POLE_THETA, True))
    return ops


def _extended_op(outdir, label, model_cfg, kind, theta, may_fail):
    cfg = {"model": model_cfg, "budget": BUDGET, "joint": {"atoms": EXT_ATOMS},
           "theta": theta, "extended": {"kind": kind, "alpha": EXT_ALPHA}}
    return _cli_op(outdir, f"extended-{kind}-{label}", "extended", cfg, "extended",
                   may_fail=may_fail)


# ---------------------------------------------------------------------------

def joint_design(seed, outdir):
    rng = random.Random(f"joint-design:{seed}")
    theta = 0.5 * (1.0 + 0.02 * rng.random())
    ops = []
    for label, model_cfg in (("mixture", MIX_POLE), ("binary7", BINARY7), ("gaussian", GAUSSIAN)):
        cfg = {"model": model_cfg, "budget": JOINT_BUDGET, "theta": theta, "p_cap": 1e8}
        ops.append(_cli_op(outdir, f"joint-{label}", "joint", cfg, "joint"))

    for label, model_cfg, lam, kappa in (("mixture", MIX_POLE, 1.0, 0.13),
                                         ("binary7", BINARY7, 0.1, 1.0)):
        spec = {"model": model_cfg, "lambda": lam, "kappa": kappa * (1.0 + 0.02 * rng.random())}
        ops.append(_lib_op(outdir, f"roots-{label}", _roots(spec), "roots", spec))

    for label, model_cfg, lam, p_cap in (("mixture", MIX_POLE, 1.0, 20.0),
                                         ("binary7", BINARY7, 0.1, 50.0)):
        spec = {"model": model_cfg, "lambda": lam, "p": 1.0 + rng.random(), "p_cap": p_cap}
        ops.append(_lib_op(outdir, f"envelope-{label}", _envelope(spec), "envelope", spec))
    return ops


def _roots(spec):
    model = _model(spec["model"])

    def run():
        levels = corrdet.stationary_levels(model, spec["lambda"], spec["kappa"])
        return {"roots": list(levels.roots), "continuum": levels.continuum}

    return run


def _envelope(spec):
    model = _model(spec["model"])

    def run():
        env = corrdet.c_tilde(model, spec["lambda"], spec["p"], spec["p_cap"])
        return {"value": env.value, "p0": env.p0, "p1": env.p1, "alpha": env.alpha}

    return run


# ---------------------------------------------------------------------------

def monte_carlo(seed, outdir):
    rng = random.Random(f"monte-carlo:{seed}")
    sim_seed = rng.getrandbits(48)
    ops = []
    for label, model_cfg, w, s, tilt in SIM_CASES:
        cfg = {"model": model_cfg, "budget": BUDGET, "theta": SIM_THETA,
               "simulate": {"n_values": SIM_N, "trials": SIM_TRIALS, "tilt_lambda": tilt,
                            "seed": sim_seed, "w_pattern": w, "s_pattern": s}}
        ops.append(_cli_op(outdir, f"simulate-{label}", "simulate", cfg, "simulate", ext="csv"))
    return ops


WORKLOADS = {
    "theta-sweep": theta_sweep,
    "point-design": point_design,
    "joint-design": joint_design,
    "monte-carlo": monte_carlo,
}


def build(name, seed, outdir: Path):
    (outdir / "cfg").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, outdir)
