"""Command-line front end: design runs, sweeps, figure data, simulation.

All commands read a JSON config (--config) and write CSV or JSON
(--out).  Outputs are deterministic for identical configs and seeds;
CSV floats carry 12 significant digits under a single header row.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .cgf import DomainError, model_from_config
from .design import (
    DegenerateSignal,
    SignalAtoms,
    _fourask_joint,
    design_4ask,
    design_classical,
    design_optimal,
    design_quantized,
)
from .exponents import JointAtoms, PowerBudget, fa_exponent, md_exponent
from .extended import (
    ExtendedDetectorSpec,
    Infeasible,
    fa_exponent_abs,
    fa_exponent_energy,
    md_exponent_abs,
    md_exponent_energy,
)
from .joint import joint_md_exponent, stationary_levels
from .montecarlo import DegenerateTilt, InsufficientData, SimConfig, md_probability
from . import cgf as _cgf


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_NUMERIC_ERRORS = (
    DomainError,
    DegenerateSignal,
    DegenerateTilt,
    InsufficientData,
    Infeasible,
    ArithmeticError,
)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing '{key}'")
    return cfg[key]


def _model(cfg):
    try:
        return model_from_config(_require(cfg, "model"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _budget(cfg) -> PowerBudget:
    raw = _require(cfg, "budget")
    try:
        return PowerBudget(
            p_w=float(raw["p_w"]),
            var_n=float(raw["var_n"]),
            p_s=float(raw["p_s"]) if "p_s" in raw else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad budget: {exc}") from exc


def _grid(raw) -> np.ndarray:
    try:
        pts = int(raw["points"])
        if pts < 1:
            raise ValueError("points must be >= 1")
        return np.linspace(float(raw["start"]), float(raw["stop"]), pts)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def _signal(cfg) -> SignalAtoms:
    raw = _require(cfg, "signal")
    try:
        atoms = np.asarray(raw["atoms"], dtype=float)
        return SignalAtoms(atoms[:, 0], atoms[:, 1])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad signal atoms: {exc}") from exc


def _joint(cfg) -> JointAtoms:
    raw = _require(cfg, "joint")
    try:
        if "csv" in raw:
            return JointAtoms.from_csv(raw["csv"])
        return JointAtoms.from_pairs(raw["atoms"])
    except FileNotFoundError as exc:
        raise ConfigError(f"joint csv not found: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad joint atoms: {exc}") from exc


def cmd_cgf(cfg, out):
    model = _model(cfg)
    grid = _grid(_require(cfg, "v_grid"))
    rows = [(v, _cgf.cgf_eval(model, v), _cgf.cgf_deriv(model, v)) for v in grid]
    _write_csv(out, ["v", "c", "cdot"], rows)


def cmd_fa(cfg, out):
    budget = _budget(cfg)
    grid = _grid(_require(cfg, "theta_grid"))
    rows = [(th, fa_exponent(th, budget)) for th in grid]
    _write_csv(out, ["theta", "e_fa"], rows)


def cmd_md(cfg, out):
    model = _model(cfg)
    budget = _budget(cfg)
    joint = _joint(cfg)
    grid = _grid(_require(cfg, "theta_grid"))
    rows = []
    for th in grid:
        res = md_exponent(joint, th, budget, model)
        rows.append((th, res.value, res.lambda_star))
    _write_csv(out, ["theta", "e_md", "lambda_star"], rows)


def cmd_design(cfg, out):
    model = _model(cfg)
    budget = _budget(cfg)
    signal = _signal(cfg)
    if "theta_grid" in cfg:
        # curve sweep: optimal vs matched weights across thresholds
        classical = design_classical(signal, budget)
        rows = []
        for th in _grid(cfg["theta_grid"]):
            d = design_optimal(model, signal, th, budget)
            e_cl = md_exponent(classical, th, budget, model).value
            rows.append((th, d.e_fa, e_cl, d.e_md.value))
        _write_csv(out, ["theta", "e_fa", "e_md_classical", "e_md_optimal"], rows)
        return
    theta = float(_require(cfg, "theta"))
    design = design_optimal(model, signal, theta, budget)
    _write_text(out, design.to_json())


def cmd_quantize(cfg, out):
    model = _model(cfg)
    budget = _budget(cfg)
    signal = _signal(cfg)
    theta = float(_require(cfg, "theta"))
    k = int(_require(cfg, "k"))
    design = design_quantized(model, signal, k, theta, budget)
    joint = design.apply(signal)
    res = md_exponent(joint, theta, budget, model)
    payload = json.loads(design.to_json())
    payload["e_md"] = res.value
    payload["e_fa"] = fa_exponent(theta, budget)
    _write_text(out, json.dumps(payload, sort_keys=True))


def cmd_joint(cfg, out):
    model = _model(cfg)
    budget = _budget(cfg)
    theta = float(_require(cfg, "theta"))
    p_cap = float(cfg["p_cap"]) if "p_cap" in cfg else None
    if budget.p_s is None:
        raise ConfigError("joint design needs budget.p_s")
    if theta < 0:
        raise ConfigError("joint design needs theta >= 0")
    result = joint_md_exponent(model, budget, theta, p_cap)
    _write_text(out, result.to_json())


def cmd_roots(cfg, out):
    model = _model(cfg)
    try:
        lam = float(_require(cfg, "lambda"))
        kappa = float(_require(cfg, "kappa"))
        points = int(cfg.get("w_points", 1000))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad roots config: {exc}") from exc
    levels = stationary_levels(model, lam, kappa)
    edge = _cgf._pole(model)
    if edge < math.inf:
        w_hi = 0.999 * edge / lam
    else:
        w_hi = 1.5 * model.amplitude / kappa
    grid = np.linspace(0.0, w_hi, points)
    rows = [(w, _cgf.cgf_deriv(model, lam * w), kappa * w) for w in grid]
    _write_csv(out, ["w", "cdot", "linear"], rows)
    print(json.dumps({"continuum": levels.continuum, "roots": list(levels.roots)}))


def cmd_extended(cfg, out):
    model = _model(cfg)
    budget = _budget(cfg)
    joint = _joint(cfg)
    theta = float(_require(cfg, "theta"))
    raw = _require(cfg, "extended")
    try:
        kind = raw["kind"]
        alpha = float(raw["alpha"])
        spec = ExtendedDetectorSpec(joint, alpha, theta, kind)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad extended config: {exc}") from exc
    if kind == "energy":
        e_fa = fa_exponent_energy(theta, budget, alpha)
        e_md = md_exponent_energy(spec, budget, model)
    else:
        e_fa = fa_exponent_abs(theta, budget, alpha, joint)
        e_md = md_exponent_abs(spec, budget, model)
    _write_text(
        out,
        json.dumps(
            {
                "alpha": alpha,
                "e_fa": e_fa.value,
                "e_md": e_md.value,
                "kind": kind,
                "lambda_fa": e_fa.lambda_star,
                "lambda_md": e_md.lambda_star,
                "theta": theta,
            },
            sort_keys=True,
        ),
    )


def cmd_simulate(cfg, out, seed_override=None):
    model = _model(cfg)
    budget = _budget(cfg)
    theta = float(_require(cfg, "theta"))
    raw = _require(cfg, "simulate")
    try:
        sim = SimConfig(
            n_values=tuple(int(n) for n in raw["n_values"]),
            trials=int(raw.get("trials", 100000)),
            seed=int(seed_override if seed_override is not None else raw.get("seed", 0)),
            tilt_lambda=float(raw.get("tilt_lambda", 0.0)),
        )
        w_pattern = [float(x) for x in raw["w_pattern"]]
        s_pattern = [float(x) for x in raw["s_pattern"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulate config: {exc}") from exc
    est = md_probability(model, w_pattern, s_pattern, theta, sim, budget)
    rows = [
        (e["n"], e["prob_estimate"], e["prob_estimate"] * e["rel_stderr"], est.slope)
        for e in est.per_n
    ]
    _write_csv(out, ["n", "prob", "stderr", "slope"], rows)


_FIGURE_MODELS = {
    1: {"type": "binary_symmetric", "z0": 7.0},
    2: {"type": "uniform", "z0": 7.0},
    3: {"type": "laplacian", "q": 0.1},
}


def cmd_figure(fig_id: int, out):
    """Emit the bundled comparison scenarios: 1-3 sweep the matched vs
    optimized four-level correlator (binary, uniform, Laplacian
    interference); 4 traces the stationary-level crossing for the
    binary/Laplacian mixture."""
    if fig_id == 4:
        q = 5.0
        model = model_from_config(
            {"type": "mixture_binary_laplace", "delta": 0.95, "z0": 0.5, "q": q}
        )
        lam, kappa = 1.0, 0.13
        grid = np.linspace(0.0, 0.999 * q / lam, 1000)
        rows = [(w, _cgf.cgf_deriv(model, lam * w), kappa * w) for w in grid]
        _write_csv(out, ["w", "cdot_curve", "linear_line"], rows)
        return
    if fig_id not in _FIGURE_MODELS:
        raise ConfigError("figure id must be one of 1, 2, 3, 4")
    model = model_from_config(_FIGURE_MODELS[fig_id])
    budget = PowerBudget(p_w=1.0, var_n=1.0)
    a = 4.0
    alpha_classical = math.sqrt(budget.p_w / 5.0)
    thetas = np.linspace(0.0, a * math.sqrt(5.0 * budget.p_w), 200)
    rows = []
    for th in thetas:
        e_cl = md_exponent(
            _fourask_joint(a, alpha_classical, budget.p_w), th, budget, model
        ).value
        _, e_opt = design_4ask(model, a, th, budget)
        rows.append((th, e_cl, e_opt.value))
    _write_csv(out, ["theta", "e_md_classical", "e_md_optimal"], rows)


_COMMANDS = {
    "cgf": cmd_cgf,
    "fa": cmd_fa,
    "md": cmd_md,
    "design": cmd_design,
    "quantize": cmd_quantize,
    "joint": cmd_joint,
    "roots": cmd_roots,
    "extended": cmd_extended,
    "simulate": cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdet",
        description="Design and evaluate mismatched correlation detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    fig = sub.add_parser("figure")
    fig.add_argument("--id", type=int, required=True)
    fig.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "figure":
            cmd_figure(args.id, args.out)
        elif args.command == "simulate":
            cfg = _load_config(args.config)
            cmd_simulate(cfg, args.out, seed_override=args.seed)
        else:
            cfg = _load_config(args.config)
            _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
