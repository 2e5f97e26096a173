"""Joint optimization of the signal and the correlator.

With both waveforms free (under power budgets) the optimal weight
magnitudes live in the solution set of a stationary-level equation, and
the interference penalty E[C(lam W)] collapses to a restricted lower
convex envelope of p -> C(lam*sqrt(p)).  The resulting designs carry at
most two distinct magnitudes, with the signal proportional to the
correlator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import cgf as _cgf
from ._kernels import lower_hull
from ._optim import golden_max
from .cgf import DomainError, Gaussian, NoiseModel
from .exponents import JointAtoms, PowerBudget, md_exponent


@dataclass(frozen=True)
class StationaryLevels:
    """Roots of Cdot(lam*w) = kappa*w for w >= 0 (0 is always a root).

    ``continuum`` flags the Gaussian coincidence where the equation holds
    identically and every level is stationary.
    """

    slope_kappa: float
    roots: tuple
    continuum: bool = False


@dataclass(frozen=True)
class EnvelopeValue:
    """Restricted-envelope value at power p, realized by a two-point mixture."""

    value: float
    p0: float
    p1: float
    alpha: float


@dataclass(frozen=True)
class JointDesignResult:
    e_md: float
    lambda_star: float
    p_star: float
    level_a: float
    level_b: float
    mix_alpha: float
    curvature: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "curvature": self.curvature,
                "e_md": self.e_md,
                "lambda_star": self.lambda_star,
                "levels": {
                    "a": self.level_a,
                    "b": self.level_b,
                    "mix_alpha": self.mix_alpha,
                },
                "p_star": self.p_star,
            },
            sort_keys=True,
        )


def _h(model: NoiseModel, x):
    """H(x) = C(sqrt(x)), so that C(lam*sqrt(p)) = H(lam^2 p) for every tilt."""
    return _cgf.cgf_eval(model, np.sqrt(x))


def classify_curvature(model: NoiseModel, lam: float, p_max: float) -> str:
    """Sign pattern of the curvature of p -> C(lam*sqrt(p)) on (0, p_max].

    A law with a proven shape (``h_shape`` in ``cgf``) returns it at every
    scale.  The mixture is classified by the sign of
    v C''(v) - Cdot(v) = 4 v^3 H''(v^2) on 10,000 points v = lam*sqrt(p),
    counting only values beyond a few ulps of v C''(v).
    """
    if lam <= 0 or p_max <= 0:
        raise ValueError("lam and p_max must be > 0")
    edge = _cgf._pole(model)
    if lam * math.sqrt(p_max) >= edge:
        raise DomainError("lam*sqrt(p_max) reaches the CGF pole")
    if model.h_shape is not None:
        return model.h_shape
    v = lam * np.sqrt(np.linspace(0.0, p_max, 10_000)[1:])
    vc2 = v * model.cddot(v)
    d = vc2 - model.cdot(v)
    tol = 8.0 * np.finfo(float).eps * vc2
    has_pos = bool(np.any(d > tol))
    has_neg = bool(np.any(d < -tol))
    if has_pos and has_neg:
        return "mixed"
    if has_neg:
        return "concave"
    return "convex"


def stationary_levels(model: NoiseModel, lam: float, kappa: float) -> StationaryLevels:
    """All non-negative roots of Cdot(lam*w) = kappa*w, by scan + bisection."""
    if lam <= 0 or kappa <= 0:
        raise ValueError("lam and kappa must be > 0")
    if isinstance(model, Gaussian):
        cont = abs(model.var_z * lam - kappa) <= 1e-12 * max(kappa, 1.0)
        return StationaryLevels(kappa, (0.0,), continuum=cont)

    w_max = _cgf.tilt_cap(model, lam)
    if w_max == math.inf:
        # Cdot is bounded by the amplitude z0 for the bounded-support
        # models, so every positive root satisfies w <= z0/kappa
        w_max = 1.01 * model.amplitude / kappa

    def d(w):
        return _cgf.cgf_deriv(model, lam * w) - kappa * w

    grid = np.linspace(w_max * 1e-9, w_max, 20_001)
    vals = d(grid)
    roots = [0.0]
    sign = np.sign(vals)
    crossings = np.flatnonzero(np.diff(sign) != 0)
    for j in crossings:
        a, b = grid[j], grid[j + 1]
        fa = d(a)
        for _ in range(100):
            m = 0.5 * (a + b)
            fm = d(m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        root = 0.5 * (a + b)
        if abs(d(root)) <= 1e-8 * (1.0 + kappa * root) and root > 1e-9 * w_max:
            roots.append(float(root))
    # drop near-duplicates from tangential grid hits
    dedup = [roots[0]]
    for r in roots[1:]:
        if r - dedup[-1] > 1e-7 * w_max:
            dedup.append(r)
    return StationaryLevels(kappa, tuple(dedup), continuum=False)


def _envelope_grid(model: NoiseModel, x_hi: float):
    """Lower convex hull of (x, H(x)) on [0, x_hi]: read at x = lam^2 p,
    the envelope of p -> C(lam*sqrt(p)) on [0, x_hi/lam^2].

    Mixed log+linear abscissae resolve both the relative structure near
    zero and the chord end at x_hi.
    """
    if isinstance(model, Gaussian):  # H is linear
        return np.array([0.0, x_hi]), np.array([0.0, 0.5 * model.var_z * x_hi])
    logs = x_hi * np.logspace(-12.0, 0.0, 6000)
    lins = np.linspace(0.0, x_hi, 4000)
    x = np.unique(np.concatenate([[0.0, x_hi], logs, lins]))
    h = _h(model, x)
    idx = lower_hull(x, h)
    return x[idx], h[idx]


def _hull(model, lam, p_cap, hulls):
    """The hull that serves tilt lam, kept in ``hulls`` by its end x_hi."""
    # the pole's bound is written without lam, so that every pole-bound
    # tilt gets the same float and shares one hull
    x_hi = min(lam * lam * p_cap, (_cgf._pole(model) * _cgf.TILT_SHRINK) ** 2)
    if not x_hi < math.inf:
        raise DomainError("lam^2 * p_cap must be finite")
    if x_hi not in hulls:
        hulls[x_hi] = _envelope_grid(model, x_hi)
    return hulls[x_hi]


def c_tilde(model: NoiseModel, lam: float, p: float, p_cap: float) -> EnvelopeValue:
    """Lower convex envelope of x -> C(lam*sqrt(x)) on [0, p_cap] at x = p,
    realized as the best two-point mixture of power levels."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if not 0.0 <= p <= p_cap:
        raise ValueError("need 0 <= p <= p_cap")
    edge = _cgf._pole(model)
    if lam * math.sqrt(p_cap) >= edge:
        raise DomainError("lam*sqrt(p_cap) reaches the CGF pole")
    return _chord(model, lam, p, p_cap, _envelope_grid(model, lam * lam * p_cap))


def _chord(model, lam, p, p_hi, hull):
    """c_tilde at p from the hull in x = lam^2 p that ends at lam^2 p_hi."""
    hx, hy = hull
    j = int(np.searchsorted(hx, lam * lam * p, side="right"))
    j = min(max(j, 1), hx.size - 1)
    # the last vertex is p_hi itself: x/lam^2 can miss it by an ulp
    p0 = float(hx[j - 1]) / (lam * lam)
    p1 = p_hi if j == hx.size - 1 else float(hx[j]) / (lam * lam)
    y0, y1 = float(hy[j - 1]), float(hy[j])
    if p1 == p0:
        alpha = 0.0
        val = y0
    else:
        alpha = (p - p0) / (p1 - p0)
        val = (1.0 - alpha) * y0 + alpha * y1
    h_p = _cgf.cgf_eval(model, lam * math.sqrt(p))
    if val >= h_p - 1e-9 * (1.0 + abs(h_p)):
        # the envelope touches the graph here: locally convex
        return EnvelopeValue(h_p, float(p), float(p), 0.0)
    return EnvelopeValue(float(val), p0, p1, float(alpha))


def _envelope_values(model, lam, p_query, p_cap, hulls):
    """Envelope values at an array of powers, +inf past the hull's end."""
    hx, hy = _hull(model, lam, p_cap, hulls)
    x = lam * lam * p_query
    return np.where(x <= hx[-1], np.interp(x, hx, hy), np.inf)


def _joint_objective_grid(model, lams, p_grid, theta, p_s, var_n, p_cap, hulls):
    out = np.empty((lams.size, p_grid.size))
    root_ps = np.sqrt(p_s * p_grid)
    for i, lam in enumerate(lams):
        env = _envelope_values(model, lam, p_grid, p_cap, hulls)
        out[i] = lam * (root_ps - theta) - env - 0.5 * lam * lam * var_n * p_grid
    return out


def joint_md_exponent(
    model: NoiseModel,
    budget: PowerBudget,
    theta: float,
    p_cap: float | None = None,
) -> JointDesignResult:
    """Optimal MD exponent over jointly designed signal and correlator.

    Searches the (tilt, power) plane on a log grid with local refinement;
    the envelope support at the optimum gives the two weight magnitudes
    and their mixing weight.  ``p_cap`` bounds the power spike used by
    the concave regime (default 1e6 * p_w).
    """
    if budget.p_s is None:
        raise ValueError("budget.p_s is required for joint design")
    p_s, p_w, var_n = budget.p_s, budget.p_w, budget.var_n
    if p_cap is None:
        p_cap = 1e6 * p_w

    if theta > 0:
        lam_hi = 1.05 * p_s / (2.0 * var_n * theta)
    else:
        lam_hi = 2.0 * math.sqrt(p_s / (p_w * 1e-8)) / var_n
    lam_hi = max(lam_hi, 1e-6)
    lams = np.geomspace(lam_hi * 1e-8, lam_hi, 100)
    ps = np.geomspace(p_w * 1e-8, p_w, 100)

    hulls = {}  # hull vertices by x_hi, for this call only (see _hull)
    vals = _joint_objective_grid(model, lams, ps, theta, p_s, var_n, p_cap, hulls)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = float(vals[i, j])

    for _ in range(3):
        lam_lo = lams[max(i - 1, 0)]
        lam_hi2 = lams[min(i + 1, lams.size - 1)]
        p_lo = ps[max(j - 1, 0)]
        p_hi2 = ps[min(j + 1, ps.size - 1)]
        lams = np.geomspace(lam_lo, lam_hi2, 30)
        ps = np.unique(np.append(np.geomspace(p_lo, p_hi2, 30), min(p_hi2, p_w)))
        vals = _joint_objective_grid(model, lams, ps, theta, p_s, var_n, p_cap, hulls)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = max(best, float(vals[i, j]))

    lam_star, p_star = float(lams[i]), float(ps[j])

    # coordinate golden polish in the final refined window
    def f_lam(lam):
        env = float(_envelope_values(model, lam, np.array([p_star]), p_cap, hulls)[0])
        return lam * (math.sqrt(p_s * p_star) - theta) - env - 0.5 * lam * lam * var_n * p_star

    lam_star, v1, _ = golden_max(
        f_lam, lams[max(i - 1, 0)], lams[min(i + 1, lams.size - 1)], rel_tol=1e-11
    )

    def f_p(p):
        env = float(_envelope_values(model, lam_star, np.array([p]), p_cap, hulls)[0])
        return lam_star * (math.sqrt(p_s * p) - theta) - env - 0.5 * lam_star ** 2 * var_n * p

    p_star, v2, _ = golden_max(
        f_p, ps[max(j - 1, 0)], min(ps[min(j + 1, ps.size - 1)], p_w), rel_tol=1e-11
    )
    best = max(best, v1, v2)

    if best <= 0.0:
        root = math.sqrt(p_w)
        return JointDesignResult(0.0, 0.0, p_w, root, root, 1.0, _safe_curvature(model, 1.0, p_w))

    p_hi = min(p_cap, _cgf.tilt_cap(model, lam_star) ** 2)
    env = _chord(model, lam_star, p_star, p_hi, _hull(model, lam_star, p_cap, hulls))
    return JointDesignResult(
        e_md=float(best),
        lambda_star=float(lam_star),
        p_star=float(p_star),
        level_a=math.sqrt(env.p0),
        level_b=math.sqrt(env.p1) if env.p1 > 0 else math.sqrt(max(env.p0, p_star)),
        mix_alpha=float(env.alpha),
        curvature=_safe_curvature(model, lam_star, p_hi),
    )


def _safe_curvature(model, lam, p_max):
    try:
        return classify_curvature(model, lam, p_max * (1.0 - 1e-9))
    except (DomainError, ValueError):
        return "mixed"


def result_atoms(result: JointDesignResult, budget: PowerBudget) -> JointAtoms:
    """Materialize a joint design as weight/signal atoms with S proportional to W."""
    if budget.p_s is None:
        raise ValueError("budget.p_s is required")
    ratio = math.sqrt(budget.p_s / result.p_star) if result.p_star > 0 else 0.0
    a, b, al = result.level_a, result.level_b, result.mix_alpha
    if a == b or al in (0.0, 1.0):
        w = np.array([b if al >= 0.5 else a])
        p = np.array([1.0])
    else:
        w = np.array([a, b])
        p = np.array([1.0 - al, al])
    return JointAtoms(w, ratio * w, p)


def two_level_direct(model: NoiseModel, budget: PowerBudget, theta: float) -> JointDesignResult:
    """Direct maximization over two weight magnitudes (a, b), their mixing
    weight, and the tilt, with the signal proportional to the correlator.

    Serves as an independent oracle for joint_md_exponent: no envelope is
    involved, only the exact two-atom MD objective under the constraint
    (1-alpha) a^2 + alpha b^2 = p_w.
    """
    if budget.p_s is None:
        raise ValueError("budget.p_s is required for joint design")
    p_w, p_s = budget.p_w, budget.p_s
    root_pw = math.sqrt(p_w)
    ratio = math.sqrt(p_s / p_w)

    def value(a, b):
        if b <= a:
            a2 = min(a, root_pw * (1.0 - 1e-12))
            b2 = max(b, root_pw * (1.0 + 1e-12))
        else:
            a2, b2 = a, b
        denom = b2 * b2 - a2 * a2
        alpha = (p_w - a2 * a2) / denom if denom > 0 else 1.0
        alpha = min(max(alpha, 0.0), 1.0)
        atoms = JointAtoms([a2, b2], [ratio * a2, ratio * b2], [1.0 - alpha, alpha])
        return md_exponent(atoms, theta, budget, model), alpha

    a_grid = np.linspace(0.0, root_pw, 41)
    b_grid = np.geomspace(root_pw, 40.0 * root_pw, 61)
    best_val, best = -math.inf, None
    # single-level candidate
    single = JointAtoms([root_pw], [ratio * root_pw], [1.0])
    res = md_exponent(single, theta, budget, model)
    best_val, best = res.value, (root_pw, root_pw, 1.0, res)
    for a in a_grid:
        for b in b_grid:
            if b <= a:
                continue
            res, alpha = value(a, b)
            if res.value > best_val:
                best_val, best = res.value, (a, b, alpha, res)

    a_star, b_star, alpha_star, res = best
    span_a = a_grid[1] - a_grid[0]
    for _ in range(3):
        a_star, _, _ = golden_max(
            lambda a: value(a, b_star)[0].value,
            max(a_star - span_a, 0.0),
            min(a_star + span_a, root_pw),
            rel_tol=1e-10,
            max_iter=60,
        )
        b_lo = max(b_star / 1.6, root_pw)
        b_hi_ = b_star * 1.6
        b_star, _, _ = golden_max(
            lambda b: value(a_star, b)[0].value, b_lo, b_hi_, rel_tol=1e-10, max_iter=60
        )
        span_a *= 0.25
    res, alpha_star = value(a_star, b_star)
    if res.value <= 0.0:
        return JointDesignResult(
            0.0, 0.0, p_w, root_pw, root_pw, 1.0, _safe_curvature(model, 1.0, p_w)
        )
    # collapse numerically-equal levels to the single-level description
    if alpha_star >= 1.0 - 1e-9 or b_star - a_star < 1e-9 * root_pw:
        a_star = b_star = root_pw
        alpha_star = 1.0
        res = md_exponent(single, theta, budget, model)
    lam_ref = res.lambda_star if res.lambda_star > 0 else 1.0
    return JointDesignResult(
        e_md=float(res.value),
        lambda_star=float(res.lambda_star),
        p_star=p_w,
        level_a=float(a_star),
        level_b=float(b_star),
        mix_alpha=float(alpha_star),
        curvature=_safe_curvature(model, lam_ref, p_w),
    )
