"""Independent oracles shared by the test modules.

Everything here computes expectations directly (enumeration, Gaussian
tail integrals, quadrature over the noise density, or fresh Monte Carlo)
without touching the transform-domain code paths under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import log_ndtr, ndtr, ndtri

import corrdet as cd
from corrdet._kernels import _uniform_z


def expect_over_z(model, fn):
    """E[fn(Z)] by enumeration or quadrature against the model density."""
    if isinstance(model, cd.BinarySymmetric):
        return 0.5 * fn(model.z0) + 0.5 * fn(-model.z0)
    if isinstance(model, cd.Gaussian):
        s = math.sqrt(model.var_z)
        return quad(
            lambda z: math.exp(-z * z / (2 * model.var_z))
            / math.sqrt(2 * math.pi * model.var_z)
            * fn(z),
            -10 * s,
            10 * s,
            limit=300,
        )[0]
    if isinstance(model, cd.Uniform):
        return quad(lambda z: fn(z) / (2 * model.z0), -model.z0, model.z0, limit=300)[0]
    if isinstance(model, cd.Laplacian):
        q = model.q
        return quad(
            lambda z: 0.5 * q * math.exp(-q * abs(z)) * fn(z), -80 / q, 80 / q, limit=500
        )[0]
    if isinstance(model, cd.MixtureBinaryLaplace):
        bi = 0.5 * fn(model.z0) + 0.5 * fn(-model.z0)
        q = model.q
        la = quad(
            lambda z: 0.5 * q * math.exp(-q * abs(z)) * fn(z), -80 / q, 80 / q, limit=500
        )[0]
        return model.delta * bi + (1 - model.delta) * la
    raise TypeError(model)


def c_alpha_energy_direct(model, v, alpha, lam, var_n):
    """ln E exp(-v X - alpha lam X^2) - var_n v^2/2 with X = Z + N.

    The inner Gaussian integral over N is a complete-the-square closed
    form; the outer expectation over Z is direct.
    """
    c = alpha * lam

    def inner(z):
        a_coef = 1.0 / (2 * var_n) + c
        b_coef = z / var_n - v
        d_coef = z * z / (2 * var_n)
        return (1.0 / math.sqrt(1 + 2 * c * var_n)) * math.exp(
            b_coef * b_coef / (4 * a_coef) - d_coef
        )

    return math.log(expect_over_z(model, inner)) - 0.5 * var_n * v * v


def c_alpha_abs_direct(model, w, s, alpha, lam, var_n):
    """ln E exp(-lam w X - alpha lam |s+X|) - var_n (lam w)^2/2, X = Z + N.

    The |.| splits the inner integral over N into two Gaussian tails.
    """
    sig = math.sqrt(var_n)
    a = alpha * lam
    v = lam * w

    def inner(z):
        c = s + z

        def tail_hi(t, b):  # E[e^{tN} 1{N > b}]
            return math.exp(0.5 * t * t * var_n + log_ndtr((t * var_n - b) / sig))

        def tail_lo(t, b):  # E[e^{tN} 1{N < b}]
            return math.exp(0.5 * t * t * var_n + log_ndtr((b - t * var_n) / sig))

        hi = math.exp(-v * z - a * c) * tail_hi(-(v + a), -c)
        lo = math.exp(-v * z + a * c) * tail_lo(-(v - a), -c)
        return hi + lo

    return math.log(expect_over_z(model, inner)) - 0.5 * var_n * v * v


def extended_md_direct(model, kind, joint, alpha, theta, var_n, lam_hi):
    """MD exponent of an extended detector by bounded Brent on [0, lam_hi]
    over the objective built from the direct transforms above.

    Returns (value, lambda_star); the value is clipped at 0 like an
    exponent.  lam_hi must keep the objective finite (below the abs
    kind's tilt cap) and should lie well past the maximizer.
    """
    w, s, p = joint.w, joint.s, joint.weight

    def objective(lam):
        if kind == "energy":
            u = w + 2 * alpha * s
            drift = float(np.dot(p, s * u)) - alpha * float(np.dot(p, s * s)) - theta
            quad_term = float(np.dot(p, u * u))
            c_sum = sum(
                pi * c_alpha_energy_direct(model, lam * ui, alpha, lam, var_n)
                for pi, ui in zip(p, u)
            )
        else:
            drift = float(np.dot(p, w * s)) - theta
            quad_term = float(np.dot(p, w * w))
            c_sum = sum(
                pi * c_alpha_abs_direct(model, wi, si, alpha, lam, var_n)
                for pi, wi, si in zip(p, w, s)
            )
        return lam * drift - 0.5 * lam * lam * var_n * quad_term - c_sum

    res = minimize_scalar(
        lambda lam: -objective(lam), bounds=(1e-9, lam_hi), method="bounded",
        options={"xatol": 1e-10},
    )
    return max(-float(res.fun), 0.0), float(res.x)


def md_probability_exhaustive_binary(model, w, s, theta, var_n):
    """Exact miss probability for binary interference at small n:
    enumerate all sign patterns and fold the Gaussian part into a tail."""
    w = np.asarray(w, float)
    s = np.asarray(s, float)
    n = w.size
    norm = float(np.linalg.norm(w)) * math.sqrt(var_n)
    total = 0.0
    for mask in range(2 ** n):
        z = np.where([(mask >> t) & 1 for t in range(n)], model.z0, -model.z0)
        mean = float(np.dot(w, s + z))
        total += float(ndtr((theta * n - mean) / norm))
    return total / 2 ** n


def energy_detector_mc_slope(model, w_pat, s_pat, alpha, theta, var_n, lam, n_values, trials, seed):
    """Tilted Monte Carlo slope for the correlation+energy statistic with
    Gaussian interference: X = Z+N is sampled from the quadratic-tilted
    Gaussian in closed form, so the estimator is exact and independent of
    the transform-domain implementation."""
    assert isinstance(model, cd.Gaussian)
    s2 = model.var_z + var_n
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_values:
        reps = -(-n // len(w_pat))
        w = np.tile(w_pat, reps)[:n]
        s = np.tile(s_pat, reps)[:n]
        u = w + 2 * alpha * s
        shrink = 1.0 + 2 * alpha * lam * s2
        var_t = s2 / shrink
        mean_t = -lam * u * var_t
        # per-index log normalizer ln E exp(-lam(u X + alpha X^2))
        log_g = -0.5 * math.log(shrink) + lam * lam * u * u * s2 / (2 * shrink)
        x = rng.normal(mean_t, math.sqrt(var_t), size=(trials, n))
        stat = (w * (s + x) + alpha * (s + x) ** 2).sum(axis=1)
        logw = lam * (x @ u) + alpha * lam * (x * x).sum(axis=1) + log_g.sum()
        vals = np.where(stat < theta * n, np.exp(logw), 0.0)
        prob = vals.mean()
        rel = vals.std(ddof=1) / math.sqrt(trials) / prob if prob > 0 else math.inf
        rows.append({"n": n, "prob_estimate": prob, "rel_stderr": rel})
    return cd.estimate_slope(rows)


def abs_detector_mc_slope(model, w_pat, s_pat, alpha, theta, var_n, lam, n_values, trials, seed):
    """Tilted Monte Carlo slope for the correlation+|.| statistic with
    Gaussian interference, via a two-piece truncated-Gaussian tilt."""
    assert isinstance(model, cd.Gaussian)
    s2 = model.var_z + var_n
    sig = math.sqrt(s2)
    a = alpha * lam
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_values:
        reps = -(-n // len(w_pat))
        w = np.tile(w_pat, reps)[:n]
        s = np.tile(s_pat, reps)[:n]
        v = lam * w
        # piece '+': x > -s with linear tilt -(v+a); piece '-': x < -s, -(v-a)
        m_hi = -(v + a) * s2
        m_lo = -(v - a) * s2
        log_mass_hi = -a * s + 0.5 * (v + a) ** 2 * s2 + log_ndtr((m_hi + s) / sig)
        log_mass_lo = a * s + 0.5 * (v - a) ** 2 * s2 + log_ndtr(-(m_lo + s) / sig)
        log_g = np.logaddexp(log_mass_hi, log_mass_lo)
        p_hi = np.exp(log_mass_hi - log_g)
        u1 = rng.uniform(size=(trials, n))
        u2 = rng.uniform(size=(trials, n))
        take_hi = u1 < p_hi
        lo_edge_hi = ndtr((-s - m_hi) / sig)
        hi_edge_lo = ndtr((-s - m_lo) / sig)
        x_hi = m_hi + sig * ndtri(lo_edge_hi + u2 * (1 - lo_edge_hi))
        x_lo = m_lo + sig * ndtri(u2 * hi_edge_lo)
        x = np.where(take_hi, x_hi, x_lo)
        stat = (w * (s + x) + alpha * np.abs(s + x)).sum(axis=1)
        logw = (v * x + a * np.abs(s + x) + log_g).sum(axis=1)
        vals = np.where(stat < theta * n, np.exp(logw), 0.0)
        prob = vals.mean()
        rel = vals.std(ddof=1) / math.sqrt(trials) / prob if prob > 0 else math.inf
        rows.append({"n": n, "prob_estimate": prob, "rel_stderr": rel})
    return cd.estimate_slope(rows)


def sample_z_per_index(model_id, a0, a1, a2, tau, u0, u1, u2):
    """One tilted draw of Z per entry of tau from the uniforms u0, u1,
    u2, by the model's ``kernel_id`` and cgf.kernel_args parameters."""
    if model_id == 0:  # gaussian
        bm = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        return tau * a0 + math.sqrt(a0) * bm
    if model_id == 1:  # laplacian
        right = u1 < (a0 + tau) / (2.0 * a0)
        return np.where(right, -np.log(u2) / (a0 - tau), np.log(u2) / (a0 + tau))
    if model_id == 2:  # binary
        x = 2.0 * tau * a0
        ex = np.exp(-np.abs(x))
        p_plus = np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        return np.where(u1 < p_plus, a0, -a0)
    if model_id == 3:  # uniform
        return _uniform_z(a0, tau, u1)
    # mixture: a0=delta, a1=z0, a2=q
    x = tau * a1
    ax = np.abs(x)
    em = np.exp(-ax)
    em2 = np.exp(-2.0 * ax)
    lap = 1.0 / (1.0 - (tau / a2) ** 2)
    cb = a0 * 0.5 * (1.0 + em2)
    cl = (1.0 - a0) * lap * em
    p_bin = cb / (cb + cl)
    xb = 2.0 * tau * a1
    exb = np.exp(-np.abs(xb))
    p_plus = np.where(xb >= 0.0, 1.0 / (1.0 + exb), exb / (1.0 + exb))
    z_bin = np.where(u1 < p_plus, a1, -a1)
    right = u1 < (a2 + tau) / (2.0 * a2)
    z_lap = np.where(right, -np.log(u2) / (a2 - tau), np.log(u2) / (a2 + tau))
    return np.where(u0 < p_bin, z_bin, z_lap)


def md_weights_full_noise(
    model_id, a0, a1, a2, w, lam, var_n, thresh, log_norm, seed, n_tag, trials,
    chunk=2048,
):
    """Per-trial importance weights (0 outside the miss event), sampling
    both Z and the noise N from the tilted law, one draw per index from
    numpy's own generator: the weight of a trial is
    1{x <= thresh} e^{lam x + log_norm} with x = sum_i w_i (Z_i + N_i).

    It shares no stream with corrdet's kernel, whose weight is the
    conditional expectation of this one given Z."""
    n = w.shape[0]
    sig = math.sqrt(var_n)
    tau = -lam * w
    rng = np.random.default_rng([seed, n_tag])
    out = np.empty(trials)
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        u0, u1, u2, u3, u4 = 1.0 - rng.random((5, m, n))  # in (0, 1]
        z = sample_z_per_index(model_id, a0, a1, a2, tau[None, :], u0, u1, u2)
        noise = tau[None, :] * var_n + sig * np.sqrt(-2.0 * np.log(u3)) * np.cos(
            2.0 * math.pi * u4
        )
        x = (z + noise) @ w
        out[done : done + m] = np.where(
            x <= thresh, np.exp(lam * x + log_norm), 0.0
        )
        done += m
    return out


def lower_hull_stack(x, y):
    """Indices of the lower convex hull of a graph (x sorted ascending),
    by the monotone-chain stack: pop while the last two kept points and
    the new one do not turn left (cross product <= 0)."""
    n = x.shape[0]
    stack = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        while top >= 2:
            o = stack[top - 2]
            a = stack[top - 1]
            cross = (x[a] - x[o]) * (y[i] - y[o]) - (y[a] - y[o]) * (x[i] - x[o])
            if cross <= 0.0:
                top -= 1
            else:
                break
        stack[top] = i
        top += 1
    return stack[:top].copy()


def g_inverse_brentq(model, s, rho, lam, var_n):
    """Scalar w with Cdot(lam*w) + (rho/lam + var_n*lam)*w = s, by brentq.

    Cdot >= 0 on w >= 0, so g(w) >= slope*w and [0, |s|/slope] brackets
    the root, cut just inside the CGF pole where the model has one.
    """
    if s == 0.0:
        return 0.0
    slope = rho / lam + var_n * lam
    target = abs(s)
    hi = min(target / slope, cd.cgf_domain(model)[1] * (1.0 - 2e-9) / lam)

    def excess(w):
        return cd.cgf_deriv(model, lam * w) + slope * w - target

    w = brentq(excess, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
    return math.copysign(w, s)


def md_exponent_brent(model, w, s, p, theta, var_n):
    """MD exponent sup_lam [lam (E[WS]-theta) - E[C(lam W)] - lam^2 var_n E[W^2]/2]
    by bounded Brent, with C from the model's closed form.

    W Cdot(lam W) >= 0, so the objective's slope is at most
    (E[WS]-theta) - lam var_n E[W^2] and [0, (E[WS]-theta)/(var_n E[W^2])]
    holds the maximizer, cut just inside the CGF pole where the model has
    one.  Returns (value, lambda_star), the value clipped at 0.
    """
    w, s, p = (np.asarray(a, dtype=float) for a in (w, s, p))
    live = p > 0
    w, s, p = w[live], s[live], p[live]
    slope0 = float(np.dot(p, w * s)) - theta
    e_w2 = float(np.dot(p, w * w))
    if slope0 <= 0.0 or e_w2 == 0.0:
        return 0.0, 0.0
    hi = slope0 / (var_n * e_w2)
    radius = cd.cgf_domain(model)[1]
    if radius < math.inf:
        hi = min(hi, radius * (1.0 - 2e-9) / float(np.max(np.abs(w))))

    def objective(lam):
        return lam * slope0 - float(np.dot(p, model.c(lam * w))) - 0.5 * lam * lam * var_n * e_w2

    res = minimize_scalar(
        lambda lam: -objective(lam), bounds=(0.0, hi), method="bounded",
        options={"xatol": 1e-14 * hi},
    )
    return max(-float(res.fun), 0.0), float(res.x)
