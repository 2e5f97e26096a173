"""The benchmark's oracles agree with first principles, and every check
rejects a perturbed output.

    python3 -m pytest corrbench/test_checks.py -q

Outputs are built from the oracle alone (no corrdet import), in the
formats the CLI writes, so each test shows one check passing a correct
output and failing the same output with one number moved.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import checks
import oracle as O

GAUSS = {"type": "gaussian", "var_z": 1.0}
LAPLACE = {"type": "laplacian", "q": 2.0}
BINARY = {"type": "binary_symmetric", "z0": 1.5}
UNIFORM = {"type": "uniform", "z0": 2.0}
MIXTURE = {"type": "mixture_binary_laplace", "delta": 0.95, "z0": 0.5, "q": 5.0}
MODELS = [GAUSS, LAPLACE, BINARY, UNIFORM, MIXTURE]
BUDGET = {"p_w": 1.0, "var_n": 1.0}


# -- the oracle itself -----------------------------------------------------------

@pytest.mark.parametrize("model", MODELS, ids=lambda m: m["type"])
def test_cgf_derivative_is_slope_of_cgf(model):
    v = np.array([-1.3, -0.2, 1e-4, 0.4, 1.7])
    h = 1e-6
    fd = (O.cgf(model, v + h) - O.cgf(model, v - h)) / (2 * h)
    assert np.allclose(O.cgf_deriv(model, v), fd, rtol=1e-6, atol=1e-8)
    assert float(O.cgf(model, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_sup_of_gaussian_matched_design_is_closed_form():
    s = np.array([2.0, -1.0, 0.5])
    p = np.array([0.2, 0.5, 0.3])
    w = math.sqrt(1.0 / float(np.dot(p, s * s))) * s
    _, e = O.md_exponent(GAUSS, w, s, p, 0.3, 1.0)
    assert e == pytest.approx(O.gaussian_design_exponent(float(np.dot(p, s * s)), 0.3, 1.0, 1.0, 1.0),
                              rel=1e-10)


def test_binary_miss_probability_matches_sampling():
    rng = np.random.default_rng(3)
    n, trials, theta = 12, 400_000, 0.2
    s = np.ones(n)
    z = np.where(rng.random((trials, n)) < 0.5, -1.5, 1.5)
    x = (s + z + rng.standard_normal((trials, n))).sum(axis=1)
    hits = x <= theta * n
    est, se = hits.mean(), hits.std() / math.sqrt(trials)
    exact = O.miss_probability_binary(1.0, s, theta, 1.0, 1.5, n)
    assert abs(est - exact) < 5 * se
    assert exact <= math.exp(O.chernoff_log_bound(BINARY, np.ones(n), s, theta, 1.0))


@pytest.mark.parametrize("model", [{"type": "uniform", "z0": 1e-4}, {"type": "laplacian", "q": 1e4},
                                   {"type": "binary_symmetric", "z0": 1e-4}], ids=lambda m: m["type"])
def test_quadrature_over_z_reduces_to_noise_alone(model):
    # with vanishing interference, X = N and both transforms are closed form
    lam, alpha = 0.8, 0.25
    want = O._log_gauss_energy(-lam * 1.2, alpha * lam, 0.0, 1.0)
    assert O.energy_log_mgf(model, 1.2, lam, alpha, 1.0) == pytest.approx(want, abs=1e-7)
    want = lam * 1.0 * -0.5 + O._log_gauss_abs(-lam, alpha * lam, -0.5, 1.0)
    assert O.abs_log_mgf(model, 1.0, -0.5, lam, alpha, 1.0) == pytest.approx(want, abs=1e-7)


def test_quadrature_over_z_matches_gaussian_closed_form():
    # Gaussian Z: the closed form over X = Z + N equals the noise-only
    # closed form integrated over Z by quadrature
    from scipy.integrate import quad

    lam, alpha, u = 0.7, 0.25, 1.1
    a, c = -lam * u, alpha * lam
    direct = quad(lambda z: math.exp(-z * z / 2 + O._log_gauss_energy(a, c, z, 1.0)) / math.sqrt(2 * math.pi),
                  -12, 12, epsabs=0, epsrel=1e-12)[0]
    assert O.energy_log_mgf(GAUSS, u, lam, alpha, 1.0) == pytest.approx(math.log(direct), rel=1e-10)


# -- each check passes a correct output and rejects a perturbed one ---------------

def _passes(fn, spec, text, outputs=None):
    return fn(spec, text, outputs or {}) == []


def _csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(f"{x:.12g}" for x in r) for r in rows]) + "\n"


def test_design_point_rejects_scaled_exponent_and_excess_power():
    s = np.linspace(-1.5, 1.5, 8)
    p = np.full(8, 1 / 8)
    theta = 0.2
    spec = {"model": GAUSS, "budget": BUDGET, "theta": theta,
            "signal": {"atoms": [[si, pi] for si, pi in zip(s, p)]}}
    w = math.sqrt(1.0 / float(np.dot(p, s * s))) * s
    lam, e = O.md_exponent(GAUSS, w, s, p, theta, 1.0)

    def out(w, e):
        return json.dumps({"atoms": [[wi, si, pi] for wi, si, pi in zip(w, s, p)], "e_md": e,
                           "lambda_star": lam, "e_fa": O.fa_exponent(theta, 1.0, 1.0)})

    assert _passes(checks.design_point, spec, out(w, e))
    assert not _passes(checks.design_point, spec, out(w, 1.01 * e))
    assert not _passes(checks.design_point, spec, out(1.01 * w, e))


def test_design_sweep_rejects_scaled_exponents_and_a_row_off_the_single_theta_design():
    spec = {"model": BINARY, "budget": BUDGET, "signal": {"atoms": [[4.0, 0.5], [-4.0, 0.5]]},
            "theta_grid": {"start": 0.5, "stop": 3.0, "points": 4},
            "point_op": "point", "point_index": 1}
    thetas = np.linspace(0.5, 3.0, 4)
    w, s, p = np.array([1.0, -1.0]), np.array([4.0, -4.0]), np.array([0.5, 0.5])
    e_cl = [O.md_exponent(BINARY, w, s, p, th, 1.0)[1] for th in thetas]
    free = [O.interference_free_exponent(16.0, th, 1.0, 1.0) for th in thetas]
    # any optimum between the matched and the interference-free exponent passes
    e_opt = [1.02 * e for e in e_cl]
    assert all(o < f for o, f in zip(e_opt, free))
    header = ["theta", "e_fa", "e_md_classical", "e_md_optimal"]

    def run(scale_cl=1.0, opt=e_opt, point=None):
        text = _csv(header, [[th, th * th / 2, scale_cl * e, o] for th, e, o in zip(thetas, e_cl, opt)])
        point = opt[1] if point is None else point
        return checks.design_sweep(spec, text, {"point": json.dumps({"e_md": point})})

    assert run() == []
    assert run(scale_cl=1.01)
    assert run(opt=[0.99 * e for e in e_cl])  # below the matched design
    assert run(opt=[1.01 * f for f in free])  # above the interference-free bound
    assert run(point=1.01 * e_opt[1])  # the sweep row differs from the single-theta design


def test_fourask_sweep_rejects_scaled_exponent():
    a, thetas = 4.0, [1.0, 4.0]
    spec = {"model": GAUSS, "budget": BUDGET, "a": a, "thetas": thetas}
    alpha = math.sqrt(0.2)
    w, s, p = np.array([alpha, 3 * alpha]), np.array([a, 3 * a]), np.array([0.5, 0.5])
    rows = []
    for th in thetas:
        lam, e = O.md_exponent(GAUSS, w, s, p, th, 1.0)
        rows.append([th, alpha, e, lam, e, lam])
    assert _passes(checks.fourask_sweep, spec, json.dumps(rows))
    rows[1][2] *= 1.01
    assert not _passes(checks.fourask_sweep, spec, json.dumps(rows))


def test_quantize_rejects_scaled_exponent_and_beating_the_continuous_optimum():
    s = np.linspace(-1.5, 1.5, 8)
    spec = {"model": LAPLACE, "budget": BUDGET, "theta": 0.2, "k": 2,
            "signal": {"atoms": [[si, 1 / 8] for si in s]}, "continuous_op": "design"}
    levels = [-1.0, 1.0]
    w = np.where(s < 0, -1.0, 1.0)
    _, e = O.md_exponent(LAPLACE, w, s, np.full(8, 1 / 8), 0.2, 1.0)

    def run(e_q, e_cont):
        text = json.dumps({"boundaries": [0.0], "levels": levels, "e_md": e_q, "e_fa": 0.02})
        return checks.quantize(spec, text, {"design": json.dumps({"e_md": e_cont})})

    assert run(e, 1.1 * e) == []
    assert run(1.01 * e, 1.1 * e)
    assert run(e, 0.99 * e)


@pytest.mark.parametrize("kind", ["energy", "abs"])
def test_extended_rejects_scaled_exponent(kind):
    atoms = [[1.0, 1.0, 0.5], [-1.0, -1.0, 0.5]]
    spec = {"model": BINARY, "budget": BUDGET, "joint": {"atoms": atoms}, "theta": 0.3,
            "extended": {"kind": kind, "alpha": 0.25}}
    w, s, p = np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.array([0.5, 0.5])
    lam, e = O.extended_md_exponent(BINARY, kind, w, s, p, 0.25, 0.3, 1.0)
    if kind == "energy":
        _, fa = O.energy_fa_exponent(0.3, 1.0, 1.0, 0.25)
    else:
        _, fa = O.abs_fa_exponent(0.3, w, p, 1.0, 0.25)

    def text(e_md, e_fa=fa):
        return json.dumps({"e_md": e_md, "lambda_md": lam, "e_fa": e_fa})

    assert _passes(checks.extended, spec, text(e))
    assert not _passes(checks.extended, spec, text(1.01 * e))
    assert not _passes(checks.extended, spec, text(e, 1.01 * fa))


def test_joint_rejects_scaled_exponent_and_wrong_power():
    spec = {"model": GAUSS, "budget": {"p_w": 1.0, "var_n": 1.0, "p_s": 1.0}, "theta": 0.5}
    e = O.gaussian_design_exponent(1.0, 0.5, 1.0, 1.0, 1.0)
    lam = 0.5 / 2.0  # (sqrt(p_w p_s) - theta) / ((var_z + var_n) p_w)

    def text(e_md, p_star=1.0):
        return json.dumps({"e_md": e_md, "lambda_star": lam, "p_star": p_star,
                           "levels": {"a": 1.0, "b": 1.0, "mix_alpha": 1.0}})

    assert _passes(checks.joint, spec, text(e))
    assert not _passes(checks.joint, spec, text(1.01 * e))
    assert not _passes(checks.joint, spec, text(e, p_star=0.98))


def test_roots_rejects_moved_and_missing_roots():
    model = {"type": "binary_symmetric", "z0": 7.0}
    spec = {"model": model, "lambda": 0.1, "kappa": 1.0}
    root = brentq(lambda w: float(O.cgf_deriv(model, 0.1 * w)) - w, 1.0, 10.0, xtol=1e-14)

    def text(rs):
        return json.dumps({"roots": rs, "continuum": False})

    assert _passes(checks.roots, spec, text([0.0, root]))
    assert not _passes(checks.roots, spec, text([0.0, 1.01 * root]))
    assert not _passes(checks.roots, spec, text([0.0]))


def test_envelope_rejects_a_value_off_the_chord():
    model = {"type": "binary_symmetric", "z0": 7.0}
    lam, p = 0.1, 1.0
    hp = float(O.cgf(model, lam * math.sqrt(p)))
    spec = {"model": model, "lambda": lam, "p": p, "p_cap": 50.0}
    # for this concave h the envelope is the chord from 0 to p_cap
    h_cap = float(O.cgf(model, lam * math.sqrt(50.0)))
    a = p / 50.0
    good = {"value": a * h_cap, "p0": 0.0, "p1": 50.0, "alpha": a}
    assert good["value"] < hp
    assert _passes(checks.envelope, spec, json.dumps(good))
    assert not _passes(checks.envelope, spec, json.dumps({**good, "value": 1.01 * good["value"]}))
    # the graph point itself is above the chord, so it is no envelope value
    assert not _passes(checks.envelope, spec, json.dumps({"value": hp, "p0": p, "p1": p, "alpha": 0.0}))


@pytest.mark.parametrize("model,w", [(GAUSS, [1.0, 0.6]), (BINARY, [1.0]), (LAPLACE, [1.0, 0.6])],
                         ids=["gaussian", "binary", "laplacian"])
def test_simulate_rejects_an_estimate_ten_stderr_off(model, w):
    s_pat = [1.0, 0.8] if len(w) == 2 else [1.0]
    ns = [20, 40]
    spec = {"model": model, "budget": BUDGET, "theta": 0.4,
            "simulate": {"n_values": ns, "w_pattern": w, "s_pattern": s_pat}}

    def reference(n):
        wn, sn = np.resize(w, n), np.resize(s_pat, n)
        if model is GAUSS:
            return O.miss_probability_gaussian(wn, sn, 0.4, 1.0, 1.0)
        if model is BINARY:
            return O.miss_probability_binary(1.0, sn, 0.4, 1.0, 1.5, n)
        return 0.5 * math.exp(O.chernoff_log_bound(model, wn, sn, 0.4, 1.0))

    header = ["n", "prob", "stderr", "slope"]
    probs = [reference(n) for n in ns]
    if model is LAPLACE:
        # no exact value: an estimate far above the Chernoff bound is caught
        rows = [[n, 4 * pr, 0.01 * pr, 0.05] for n, pr in zip(ns, probs)]
        assert not _passes(checks.simulate, spec, _csv(header, rows))
        rows = [[n, pr, 0.01 * pr, 0.05] for n, pr in zip(ns, probs)]
        assert _passes(checks.simulate, spec, _csv(header, rows))
        return
    rows = [[n, pr, 0.01 * pr, 0.05] for n, pr in zip(ns, probs)]
    assert _passes(checks.simulate, spec, _csv(header, rows))
    rows[1][1] += 10 * rows[1][2]
    assert not _passes(checks.simulate, spec, _csv(header, rows))
