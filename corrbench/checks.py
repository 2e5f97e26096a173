"""Checks of each operation's output against oracle.py.

A check takes the operation's spec (the config the CLI read, or the
arguments of the library call), its output text and the outputs of the
whole round by operation name, and returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracle as O

SUP_RTOL = 1e-7  # an exponent against the oracle's own supremum
CSV_RTOL = 1e-9  # the CLI prints CSV floats with 12 significant digits
ATOL = 1e-10
Z_STDERR = 5.0


def _close(a, b, rtol, atol=ATOL):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in r] for r in rows[1:] if r]


def _tile(pattern, n):
    return np.resize(np.asarray(pattern, dtype=float), n)


class Problems(list):
    def need(self, ok, message):
        if not ok:
            self.append(message)


def _check_md(problems, label, model, w, s, p, theta, var_n, value, lam=None, rtol=SUP_RTOL):
    """value is the supremum over the tilt of the MD objective for (w, s, p):
    it matches the oracle's supremum, the objective at the reported tilt,
    and no tilt on a grid beats it."""
    keep = np.asarray(p) > 0
    w, s, p = np.asarray(w)[keep], np.asarray(s)[keep], np.asarray(p)[keep]
    lam_o, sup = O.md_exponent(model, w, s, p, theta, var_n)
    problems.need(_close(value, sup, rtol), f"{label}: E_md {value!r} != oracle supremum {sup!r}")

    def f(x):
        return O.md_objective(model, w, s, p, x, theta, var_n)

    if lam is not None and lam > 0:
        problems.need(_close(f(lam), value, rtol),
                      f"{label}: objective at reported tilt {lam!r} is {f(lam)!r}, not {value!r}")
    hi = min(4.0 * max(lam_o, lam or 0.0, 1e-3), O.md_cap(model, w) * (1.0 - 1e-9))
    top = O.grid_max(f, hi)
    problems.need(top <= value + ATOL + rtol * abs(value),
                  f"{label}: a grid tilt reaches {top!r} > E_md {value!r}")


# ---------------------------------------------------------------------------

def design_sweep(spec, text, outputs):
    problems = Problems()
    header, rows = _csv_rows(text)
    problems.need(header == ["theta", "e_fa", "e_md_classical", "e_md_optimal"], f"header {header}")
    grid = spec["theta_grid"]
    thetas = np.linspace(grid["start"], grid["stop"], grid["points"])
    problems.need(len(rows) == thetas.size, f"{len(rows)} rows for {thetas.size} thresholds")
    model, b = spec["model"], spec["budget"]
    atoms = np.asarray(spec["signal"]["atoms"], dtype=float)
    s, p = atoms[:, 0], atoms[:, 1] / atoms[:, 1].sum()
    e_s2 = float(np.dot(p, s * s))
    w_matched = math.sqrt(b["p_w"] / e_s2) * s
    for th_want, (th, e_fa, e_cl, e_opt) in zip(thetas, rows):
        label = f"theta={th:.6g}"
        problems.need(_close(th, th_want, CSV_RTOL), f"{label}: grid point {th_want!r}")
        problems.need(_close(e_fa, O.fa_exponent(th, b["p_w"], b["var_n"]), CSV_RTOL),
                      f"{label}: e_fa {e_fa!r}")
        _check_md(problems, f"{label} matched", model, w_matched, s, p, th, b["var_n"], e_cl,
                  rtol=CSV_RTOL)
        problems.need(e_opt >= e_cl - ATOL - CSV_RTOL * abs(e_cl),
                      f"{label}: optimal {e_opt!r} below matched {e_cl!r}")
        # C(v) >= 0 for symmetric Z, so no correlator beats the
        # interference-free matched detector at full power
        free = O.interference_free_exponent(e_s2, th, b["p_w"], b["var_n"])
        problems.need(e_opt <= free + ATOL + CSV_RTOL * free,
                      f"{label}: optimal {e_opt!r} above the interference-free {free!r}")
    # the single-theta design at one grid point gives the same optimum
    i = spec["point_index"]
    point = outputs.get(spec["point_op"])
    if point is None:
        problems.append(f"no output from {spec['point_op']} to compare with")
    elif i < len(rows):
        e_point = json.loads(point)["e_md"]
        problems.need(_close(rows[i][3], e_point, CSV_RTOL),
                      f"theta={rows[i][0]:.6g}: optimal {rows[i][3]!r} != single-theta {e_point!r}")
    return problems


def fourask_sweep(spec, text, outputs):
    problems = Problems()
    rows = json.loads(text)
    model, b, a = spec["model"], spec["budget"], spec["a"]
    p_w, var_n = b["p_w"], b["var_n"]
    problems.need(len(rows) == len(spec["thetas"]), f"{len(rows)} rows")
    s = np.array([a, 3.0 * a])
    p = np.array([0.5, 0.5])
    alpha_m = math.sqrt(p_w / 5.0)
    w_matched = np.array([alpha_m, math.sqrt(2.0 * p_w - alpha_m ** 2)])
    for th, alpha, e_opt, lam_opt, e_cl, lam_cl in rows:
        label = f"theta={th:.6g}"
        problems.need(0.0 <= alpha <= math.sqrt(2.0 * p_w) * (1 + 1e-12), f"{label}: alpha {alpha!r}")
        w = np.array([alpha, math.sqrt(max(2.0 * p_w - alpha * alpha, 0.0))])
        _check_md(problems, f"{label} optimal", model, w, s, p, th, var_n, e_opt, lam_opt)
        _check_md(problems, f"{label} matched", model, w_matched, s, p, th, var_n, e_cl, lam_cl)
        problems.need(e_opt >= e_cl - ATOL, f"{label}: optimal {e_opt!r} below matched {e_cl!r}")
        if model["type"] == "gaussian":
            want = O.gaussian_design_exponent(5.0 * a * a, th, p_w, var_n, model["var_z"])
            problems.need(_close(e_opt, want, 1e-6), f"{label}: {e_opt!r} != closed form {want!r}")
    return problems


def _signal(spec):
    atoms = np.asarray(spec["signal"]["atoms"], dtype=float)
    return atoms[:, 0], atoms[:, 1] / atoms[:, 1].sum()


def design_point(spec, text, outputs):
    problems = Problems()
    out = json.loads(text)
    model, b, theta = spec["model"], spec["budget"], spec["theta"]
    s_sig, p_sig = _signal(spec)
    atoms = np.asarray(out["atoms"], dtype=float)
    w, s, p = atoms[:, 0], atoms[:, 1], atoms[:, 2]
    problems.need(np.array_equal(s, s_sig) and np.allclose(p, p_sig, rtol=1e-12),
                  "returned atoms do not carry the input signal")
    power = float(np.dot(p, w * w))
    problems.need(power <= b["p_w"] * (1 + 1e-6), f"correlator power {power!r} > p_w")
    problems.need(_close(out["e_fa"], O.fa_exponent(theta, b["p_w"], b["var_n"]), 1e-12),
                  f"e_fa {out['e_fa']!r}")
    e_md = out["e_md"]
    _check_md(problems, "design", model, w, s, p, theta, b["var_n"], e_md, out["lambda_star"])
    w_matched = math.sqrt(b["p_w"] / float(np.dot(p, s * s))) * s
    _, e_cl = O.md_exponent(model, w_matched, s, p, theta, b["var_n"])
    problems.need(e_md >= e_cl - ATOL, f"optimal {e_md!r} below matched {e_cl!r}")
    if model["type"] == "gaussian":
        want = O.gaussian_design_exponent(float(np.dot(p, s * s)), theta, b["p_w"], b["var_n"],
                                          model["var_z"])
        problems.need(_close(e_md, want, 1e-6), f"{e_md!r} != closed form {want!r}")
    return problems


def quantize(spec, text, outputs):
    problems = Problems()
    out = json.loads(text)
    model, b, theta, k = spec["model"], spec["budget"], spec["theta"], spec["k"]
    s, p = _signal(spec)
    bnds, levels = np.asarray(out["boundaries"]), np.asarray(out["levels"])
    problems.need(levels.size <= k and bnds.size == levels.size - 1, "cell count")
    problems.need(bool(np.all(np.diff(bnds) > 0)) and bool(np.all(np.diff(levels) > 0)),
                  "boundaries and levels must increase")
    w = levels[np.searchsorted(bnds, s, side="right")]
    power = float(np.dot(p, w * w))
    problems.need(power <= b["p_w"] * (1 + 1e-6), f"correlator power {power!r} > p_w")
    problems.need(_close(out["e_fa"], O.fa_exponent(theta, b["p_w"], b["var_n"]), 1e-12), "e_fa")
    e_md = out["e_md"]
    _check_md(problems, "quantizer", model, w, s, p, theta, b["var_n"], e_md)
    optimum = outputs.get(spec["continuous_op"])
    if optimum is None:
        problems.append(f"no output from {spec['continuous_op']} to compare with")
    else:
        e_cont = json.loads(optimum)["e_md"]
        problems.need(e_md <= e_cont + ATOL + 1e-9 * abs(e_cont),
                      f"k-level {e_md!r} above the continuous optimum {e_cont!r}")
    return problems


def extended(spec, text, outputs):
    problems = Problems()
    out = json.loads(text)
    model, b, theta = spec["model"], spec["budget"], spec["theta"]
    kind, alpha = spec["extended"]["kind"], spec["extended"]["alpha"]
    atoms = np.asarray(spec["joint"]["atoms"], dtype=float)
    w, s, p = atoms[:, 0], atoms[:, 1], atoms[:, 2] / atoms[:, 2].sum()
    var_n = b["var_n"]
    if kind == "energy":
        _, fa = O.energy_fa_exponent(theta, float(np.dot(p, w * w)), var_n, alpha)
    else:
        _, fa = O.abs_fa_exponent(theta, w, p, var_n, alpha)
    problems.need(_close(out["e_fa"], fa, SUP_RTOL), f"e_fa {out['e_fa']!r} != oracle {fa!r}")

    obj = O.energy_md_objective if kind == "energy" else O.abs_md_objective

    def f(lam):
        return obj(model, w, s, p, lam, alpha, theta, var_n)

    lam_o, sup = O.extended_md_exponent(model, kind, w, s, p, alpha, theta, var_n)
    e_md, lam = out["e_md"], out["lambda_md"]
    rtol = 1e-6  # both sides integrate numerically
    problems.need(_close(e_md, sup, rtol, 1e-9), f"E_md {e_md!r} != oracle supremum {sup!r}")
    if lam > 0:
        problems.need(_close(f(lam), e_md, rtol, 1e-9), f"objective at {lam!r} is {f(lam)!r}")
    cap = O.extended_md_cap(model, kind, w, alpha)
    hi = min(3.0 * max(lam_o, lam, 1e-3), cap * (1.0 - 1e-6))
    top = O.grid_max(f, hi, points=40)
    problems.need(top <= e_md + 1e-9 + rtol * abs(e_md), f"a grid tilt reaches {top!r} > {e_md!r}")
    return problems


def joint(spec, text, outputs):
    problems = Problems()
    out = json.loads(text)
    model, b, theta = spec["model"], spec["budget"], spec["theta"]
    p_w, p_s, var_n = b["p_w"], b["p_s"], b["var_n"]
    e_md, lam, p_star = out["e_md"], out["lambda_star"], out["p_star"]
    lv = out["levels"]
    problems.need(0.0 < p_star <= p_w * (1 + 1e-9), f"p_star {p_star!r} outside (0, p_w]")
    mix = lv["mix_alpha"]
    problems.need(0.0 <= mix <= 1.0, f"mix_alpha {mix!r}")
    w = np.array([lv["a"], lv["b"]])
    p = np.array([1.0 - mix, mix])
    keep = p > 0
    w, p = w[keep], p[keep]
    power = float(np.dot(p, w * w))
    problems.need(_close(power, p_star, 1e-6), f"levels give power {power!r}, not p_star {p_star!r}")
    problems.need(power <= p_w * (1 + 1e-6), f"correlator power {power!r} > p_w")
    s = math.sqrt(p_s / p_star) * w
    at_lam = O.md_objective(model, w, s, p, lam, theta, var_n)
    problems.need(_close(at_lam, e_md, 1e-6, 1e-9),
                  f"two-level design gives {at_lam!r} at lambda*, not e_md {e_md!r}")
    _, sup = O.md_exponent(model, w, s, p, theta, var_n)
    problems.need(_close(sup, e_md, 1e-6, 1e-9),
                  f"two-level design's own supremum {sup!r} != e_md {e_md!r}")
    if model["type"] == "gaussian":
        # the matched design at full power with E[S^2] = p_s
        want = O.gaussian_design_exponent(p_s, theta, p_w, var_n, model["var_z"])
        problems.need(_close(e_md, want, 1e-6), f"{e_md!r} != closed form {want!r}")
    return problems


def roots(spec, text, outputs):
    problems = Problems()
    out = json.loads(text)
    model, lam, kappa = spec["model"], spec["lambda"], spec["kappa"]
    rs = out["roots"]
    problems.need(rs[:1] == [0.0] and rs == sorted(rs), f"roots {rs}")
    problems.need(out["continuum"] is False, "continuum flagged for a non-Gaussian model")
    for r in rs[1:]:
        d = float(O.cgf_deriv(model, lam * r)) - kappa * r
        problems.need(abs(d) <= 1e-7 * (1.0 + kappa * r), f"root {r!r} leaves residual {d!r}")
    # every sign change of Cdot(lam w) - kappa w on a fine grid is a root
    q = O.pole(model)
    w_hi = (q / lam if q < math.inf else 1.01 * model["z0"] / kappa) * (1 - 1e-9)
    grid = np.linspace(w_hi * 1e-6, w_hi, 200_001)
    d = O.cgf_deriv(model, lam * grid) - kappa * grid
    changes = int(np.count_nonzero(np.diff(np.sign(d)) != 0))
    problems.need(len(rs) - 1 == changes, f"{len(rs) - 1} positive roots, {changes} sign changes")
    return problems


def envelope(spec, text, outputs):
    problems = Problems()
    out = json.loads(text)
    model, lam, p, p_cap = spec["model"], spec["lambda"], spec["p"], spec["p_cap"]

    def h(x):
        return O.cgf(model, lam * np.sqrt(x))

    v, p0, p1, a = out["value"], out["p0"], out["p1"], out["alpha"]
    problems.need(0.0 <= p0 <= p <= p1 <= p_cap * (1 + 1e-12) and 0.0 <= a <= 1.0,
                  f"support {p0!r}..{p1!r} (alpha {a!r}) does not bracket p={p!r}")
    problems.need(_close((1 - a) * p0 + a * p1, p, 1e-9), "mixture of p0, p1 misses p")
    chord = (1 - a) * float(h(p0)) + a * float(h(p1))
    problems.need(_close(v, chord, 1e-9, 1e-12), f"value {v!r} != chord {chord!r}")
    hp = float(h(p))
    problems.need(v <= hp + 1e-9 * (1 + abs(hp)), f"envelope {v!r} above the graph {hp!r}")
    if p1 > p0:
        xs = np.linspace(p0, p1, 2001)
        line = float(h(p0)) + (float(h(p1)) - float(h(p0))) * (xs - p0) / (p1 - p0)
        gap = float(np.max(line - h(xs)))
        problems.need(gap <= 1e-9 * (1 + abs(hp)), f"chord rises {gap!r} above the graph")
    # the envelope is the lowest chord through p: none on a grid is lower
    frac = np.concatenate([np.linspace(0.0, 1.0, 300), np.logspace(-9.0, 0.0, 300)])
    left = p - p * frac
    right = p + (p_cap * (1 - 1e-12) - p) * frac
    hl, hr = h(left)[:, None], h(right)[None, :]
    span = right[None, :] - left[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        chords = np.where(span > 0, hl + (hr - hl) * (p - left[:, None]) / span, hp)
    lowest = float(np.min(chords))
    problems.need(v <= lowest + 1e-9 * (1 + abs(hp)), f"value {v!r} above the chord {lowest!r}")
    return problems


def simulate(spec, text, outputs):
    problems = Problems()
    header, rows = _csv_rows(text)
    problems.need(header == ["n", "prob", "stderr", "slope"], f"header {header}")
    model, b, theta = spec["model"], spec["budget"], spec["theta"]
    sim = spec["simulate"]
    problems.need([int(r[0]) for r in rows] == sim["n_values"], "n values")
    for n, prob, stderr, _ in rows:
        n = int(n)
        label = f"n={n}"
        problems.need(prob > 0 and stderr > 0, f"{label}: prob {prob!r} stderr {stderr!r}")
        w, s = _tile(sim["w_pattern"], n), _tile(sim["s_pattern"], n)
        bound = math.exp(O.chernoff_log_bound(model, w, s, theta, b["var_n"]))
        problems.need(prob - Z_STDERR * stderr <= bound,
                      f"{label}: estimate {prob!r} above the Chernoff bound {bound!r}")
        exact = None
        if model["type"] == "gaussian":
            exact = O.miss_probability_gaussian(w, s, theta, b["var_n"], model["var_z"])
        elif model["type"] == "binary_symmetric" and len(set(sim["w_pattern"])) == 1:
            exact = O.miss_probability_binary(sim["w_pattern"][0], s, theta, b["var_n"],
                                              model["z0"], n)
        if exact is not None:
            problems.need(abs(prob - exact) <= Z_STDERR * stderr,
                          f"{label}: estimate {prob!r} +- {stderr!r} vs exact {exact!r}")
    return problems
