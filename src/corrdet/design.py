"""Correlator design for a given signal.

The per-tilt optimal weight is w = g^{-1}(s) where
g(w) = Cdot(lam*w) + (rho/lam + var_n*lam)*w is strictly increasing,
with rho >= 0 tuned to meet the correlator power constraint.  The design
value V(lam), the MD objective at those weights, has the slope
V'(lam) = E[WS] - theta - E[W Cdot(lam W)] - lam var_n E[W^2] by the
envelope theorem, so the best tilt is the root of V' after a grid
search.  On top of that sit the sign (binary) design, the k-level
quantized design found by alternating quantizer-style boundary/level
updates, and a direct 4-ASK level optimization whose per-level tilt
suprema share md_exponent's safeguarded Newton.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import cgf as _cgf
from ._optim import golden_max
from .cgf import NoiseModel
from .exponents import (
    ExponentResult,
    JointAtoms,
    PowerBudget,
    _tilt_newton,
    fa_exponent,
    md_exponent,
    md_objective,
)


class DegenerateSignal(ValueError):
    """Signal with zero power cannot drive a correlator design."""


class GInverseNotConverged(ArithmeticError):
    """The inverse of the correlator weight map g missed its tolerance."""


class EmptyCell(RuntimeError):
    """A quantizer interval lost all probability mass and could not be repaired."""


class SignalAtoms:
    """Finite weighted list of signal levels, normalized to total mass one."""

    __slots__ = ("s", "weight")

    def __init__(self, s, weight):
        s = np.atleast_1d(np.asarray(s, dtype=float)).copy()
        p = np.atleast_1d(np.asarray(weight, dtype=float)).copy()
        if s.shape != p.shape or s.ndim != 1 or s.size == 0:
            raise ValueError("s and weight must be equal-length 1-D arrays")
        if np.any(p < 0):
            raise ValueError("weights must be non-negative")
        total = p.sum()
        if not math.isfinite(total) or abs(total - 1.0) > 1e-6:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        p /= total
        s.setflags(write=False)
        p.setflags(write=False)
        self.s, self.weight = s, p

    @classmethod
    def uniform_grid(cls, lo: float, hi: float, points: int) -> "SignalAtoms":
        """Midpoint-rule atoms for a uniform density on [lo, hi]."""
        edges = np.linspace(lo, hi, points + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        return cls(mid, np.full(points, 1.0 / points))

    @property
    def e_s2(self) -> float:
        return float(np.dot(self.weight, self.s * self.s))

    @property
    def e_abs(self) -> float:
        return float(np.dot(self.weight, np.abs(self.s)))

    def __repr__(self):
        return f"SignalAtoms(n={self.s.size}, e_s2={self.e_s2:.6g})"


@dataclass(frozen=True)
class QuantizerDesign:
    """k-level correlator: cell boundaries, output levels, and the
    multiplier/tilt at which they were designed."""

    boundaries: np.ndarray
    levels: np.ndarray
    rho: float
    lam: float

    def apply(self, signal: SignalAtoms) -> JointAtoms:
        """Map signal atoms through the quantizer to a joint distribution."""
        idx = np.searchsorted(self.boundaries, signal.s, side="right")
        return JointAtoms(self.levels[idx], signal.s, signal.weight)

    def to_json(self) -> str:
        return json.dumps(
            {
                "boundaries": [float(a) for a in self.boundaries],
                "levels": [float(x) for x in self.levels],
                "rho": self.rho,
                "lambda": self.lam,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class DetectorDesign:
    """A designed detector with its achieved exponents.

    ``lambda_star``/``rho_star`` are the tilt and power multiplier the
    weights were designed at; ``e_md.lambda_star`` is the fresh supremum
    for the fixed returned weights.
    """

    joint: JointAtoms
    theta: float
    alpha: float
    e_fa: float
    e_md: ExponentResult
    rho_star: float
    lambda_star: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "atoms": [
                    [float(w), float(s), float(p)]
                    for w, s, p in zip(self.joint.w, self.joint.s, self.joint.weight)
                ],
                "e_fa": self.e_fa,
                "e_md": self.e_md.value,
                "lambda_design": self.lambda_star,
                "lambda_star": self.e_md.lambda_star,
                "rho_star": self.rho_star,
                "theta": self.theta,
            },
            sort_keys=True,
        )


def g_eval(model: NoiseModel, w, rho: float, lam: float, var_n: float):
    """g(w) = Cdot(lam*w) + (rho/lam + var_n*lam)*w; strictly increasing."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    arr = np.asarray(w, dtype=float)
    out = _cgf.cgf_deriv(model, lam * arr) + (rho / lam + var_n * lam) * arr
    return float(out) if np.ndim(w) == 0 else out


def _g_inverse_arr(model, s, rho, lam, var_n, max_iter=160):
    """Vectorized inverse of g; rho and lam broadcast against s.

    Safeguarded Newton on the monotone g, with g' = lam*Cddot(lam*w) +
    rho/lam + var_n*lam > 0: each element starts at the linearised root
    s/g'(0), every probe shrinks its bisection bracket, a Newton step
    that leaves the open bracket is replaced by the bracket midpoint, and
    an element stops moving once |g(w)-s| <= 1e-10*(1+|s|).  g is odd,
    so only |s| is solved and the sign is restored afterwards;
    g_inverse(0) = 0 exactly.  Raises GInverseNotConverged when some
    element is still outside the tolerance after max_iter probes.
    """
    s = np.asarray(s, dtype=float)
    rho = np.asarray(rho, dtype=float)
    lam = np.asarray(lam, dtype=float)
    sign = np.where(s < 0, -1.0, 1.0)
    target = np.abs(s)

    shape = np.broadcast_shapes(s.shape, rho.shape, lam.shape)
    target = np.broadcast_to(target, shape).copy()
    sign = np.broadcast_to(sign, shape)

    lo = np.zeros(shape)
    cap = _cgf.tilt_cap(model, lam)
    if np.all(np.isinf(cap)):
        # g(w) >= var_n*lam*w for w >= 0, so this upper end always brackets
        hi = np.broadcast_to(target / (var_n * lam) + 1.0, shape).copy()
    else:
        hi = np.broadcast_to(cap, shape).copy()
    # every probe stays in [0, hi] with hi <= cap, so lam*w is inside the
    # CGF domain and the model is called without the per-call domain check
    slope = rho / lam + var_n * lam

    tol = 1e-10 * (1.0 + target)
    w = np.clip(target / (lam * model.cddot(0.0) + slope), lo, hi)
    for _ in range(max_iter):
        v = lam * w
        resid = model.cdot(v) + slope * w - target
        done = np.abs(resid) <= tol
        if done.all():
            break
        high = resid > 0
        np.copyto(hi, w, where=high)
        np.copyto(lo, w, where=~high)
        step = w - resid / (lam * model.cddot(v) + slope)
        inside = (step > lo) & (step < hi)
        # converged elements stay put: their Newton step lands on the
        # bracket end they just set, which would send them to bisection
        w = np.where(done, w, np.where(inside, step, 0.5 * (lo + hi)))
    else:
        worst = float(np.max(np.abs(resid) / (1.0 + target)))
        raise GInverseNotConverged(
            f"g_inverse did not converge in {max_iter} probes for {model!r}: "
            f"worst residual |g(w)-s|/(1+|s|) = {worst:.3g}, tolerance 1e-10"
        )
    out = sign * w
    return np.where(target == 0.0, 0.0, out)


def g_inverse(model: NoiseModel, s, rho: float, lam: float, var_n: float):
    """Unique w with g(w) = s, to |g(w)-s| <= 1e-10*(1+|s|).

    Raises GInverseNotConverged rather than return a w outside that band.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    arr = np.asarray(s, dtype=float)
    out = _g_inverse_arr(model, arr, np.asarray(rho, float), np.asarray(lam, float), var_n)
    return float(out) if np.ndim(s) == 0 else out


def _power_of_inverse(model, s, p, rho, lam, var_n):
    """E[g^{-1}(S)^2] for column-stacked rho/lam against atom rows."""
    w = _g_inverse_arr(model, s, rho, lam, var_n)
    return np.sum(p * w * w, axis=-1)


def _tune_rho_arr(model, s, p, lam_col, p_w, var_n, rho_hint=None, max_iter=200):
    """Vectorized power-constraint multiplier for a column of tilts.

    Returns rho >= 0 per tilt: zero when the unconstrained inverse already
    meets the power budget, otherwise the root of
    E[g^{-1}(S|rho)^2] = p_w to 5e-10 absolute (relative when p_w < 1),
    found by false position inside a bisection-safe bracket.
    """
    L = lam_col.shape[0]
    zeros = np.zeros((L, 1))
    pow0 = _power_of_inverse(model, s, p, zeros, lam_col, var_n)
    rho = np.zeros(L)
    need = pow0 > p_w
    if not np.any(need):
        return rho

    hi = np.ones(L)
    if rho_hint is not None:
        hi = np.maximum(hi, 2.0 * np.asarray(rho_hint, float))
    # expand until the power at rho=hi dips below the budget
    pw_hi = _power_of_inverse(model, s, p, hi[:, None], lam_col, var_n)
    for _ in range(120):
        still = need & (pw_hi > p_w)
        if not np.any(still):
            break
        hi = np.where(still, hi * 4.0, hi)
        pw_hi = _power_of_inverse(model, s, p, hi[:, None], lam_col, var_n)
    lo = np.where(need, hi / 4.0, 0.0)
    pw_lo = _power_of_inverse(model, s, p, lo[:, None], lam_col, var_n)
    keep = pw_lo > p_w
    lo = np.where(keep, lo, 0.0)

    # Illinois false position on the power excess, which is positive at lo
    # and not positive at hi; the endpoint kept twice running has its
    # excess halved, so the bracket closes superlinearly on both sides
    f_lo = np.where(keep, pw_lo, pow0) - p_w
    f_hi = pw_hi - p_w
    tol = 5e-10 * min(p_w, 1.0)
    done = ~need | (np.abs(f_hi) <= tol)
    x = np.where(done, hi, lo)
    side = np.zeros(L)
    for _ in range(max_iter):
        if np.all(done):
            break
        act = ~done  # a done tilt may have f_hi == f_lo
        x[act] = hi[act] - f_hi[act] * (hi[act] - lo[act]) / (f_hi[act] - f_lo[act])
        err = _power_of_inverse(model, s, p, x[:, None], lam_col, var_n) - p_w
        done = done | (np.abs(err) <= tol)
        low_side = ~done & (err > 0)  # power too high -> raise rho
        high_side = ~done & ~low_side
        f_hi = np.where(low_side & (side > 0), 0.5 * f_hi, f_hi)
        f_lo = np.where(high_side & (side < 0), 0.5 * f_lo, f_lo)
        lo = np.where(low_side, x, lo)
        f_lo = np.where(low_side, err, f_lo)
        hi = np.where(high_side, x, hi)
        f_hi = np.where(high_side, err, f_hi)
        side = np.where(low_side, 1.0, np.where(high_side, -1.0, side))
    return np.where(need, x, 0.0)


def tune_rho(model: NoiseModel, signal: SignalAtoms, lam: float, budget: PowerBudget) -> float:
    """Power multiplier for a single tilt (0 when the constraint is slack)."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    rho = _tune_rho_arr(
        model, signal.s, signal.weight, np.array([[lam]]), budget.p_w, budget.var_n
    )
    return float(rho[0])


def _objective_for_lams(model, signal, lams, theta, budget):
    """Per-tilt design value V(lam): the MD objective at the tilt's own
    optimal weights w(lam), and its slope V'(lam).

    rho multiplies the power constraint, which does not involve lam, so by
    the envelope theorem V'(lam) is the partial lam-derivative of the
    objective at fixed w: E[WS] - theta - E[W Cdot(lam W)] - lam var_n E[W^2].
    """
    lam_col = lams[:, None]
    rho = _tune_rho_arr(model, signal.s, signal.weight, lam_col, budget.p_w, budget.var_n)
    w = _g_inverse_arr(model, signal.s, rho[:, None], lam_col, budget.var_n)
    p, v = signal.weight, lam_col * w
    e_ws = np.sum(p * w * signal.s, axis=-1)
    e_w2 = np.sum(p * w * w, axis=-1)
    e_c = np.sum(p * _cgf.cgf_eval(model, v), axis=-1)
    e_wcdot = np.sum(p * w * model.cdot(v), axis=-1)
    vals = lams * (e_ws - theta) - e_c - 0.5 * lams * lams * budget.var_n * e_w2
    slopes = e_ws - theta - e_wcdot - lams * budget.var_n * e_w2
    return vals, slopes


def _lambda_grid(signal: SignalAtoms, theta: float, budget: PowerBudget, points=200):
    scale = math.sqrt(budget.p_w * signal.e_s2)
    lam_ref = max(scale - theta, 0.05 * scale) / (budget.var_n * budget.p_w)
    return lam_ref * np.logspace(-3.0, 3.0, points)


def design_optimal(
    model: NoiseModel,
    signal: SignalAtoms,
    theta: float,
    budget: PowerBudget,
) -> DetectorDesign:
    """Best correlator for the given signal under the power budget.

    Scans a log-spaced tilt grid and three zoomed grids around the best
    point.  In the last zoom the design tilt is the root of V' (the
    envelope-theorem slope from _objective_for_lams), by linear
    interpolation in the cell where V' changes sign; the grid winner is
    kept when no cell does.  The returned exponent is re-evaluated as a
    clean supremum over the tilt for the final (fixed) weights.
    """
    if signal.e_s2 <= 0:
        raise DegenerateSignal("signal has zero power")

    grid = _lambda_grid(signal, theta, budget)
    vals, _ = _objective_for_lams(model, signal, grid, theta, budget)
    i = int(np.argmax(vals))

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    for _ in range(3):
        sub = np.geomspace(lo, hi, 40)
        svals, slopes = _objective_for_lams(model, signal, sub, theta, budget)
        j = int(np.argmax(svals))
        lo = sub[max(j - 1, 0)]
        hi = sub[min(j + 1, sub.size - 1)]

    lam_star = sub[j]
    cells = np.flatnonzero((slopes[:-1] > 0.0) & (slopes[1:] <= 0.0))
    if cells.size:
        k = int(cells[np.argmin(np.abs(cells - j))])
        d0, d1 = slopes[k], slopes[k + 1]
        lam_star = sub[k] + d0 * (sub[k + 1] - sub[k]) / (d0 - d1)

    rho_star = tune_rho(model, signal, lam_star, budget)
    w = _g_inverse_arr(
        model, signal.s, np.asarray(rho_star), np.asarray(lam_star), budget.var_n
    )
    joint = JointAtoms(w, signal.s, signal.weight)
    e_md = md_exponent(joint, theta, budget, model)
    return DetectorDesign(
        joint=joint,
        theta=theta,
        alpha=0.0,
        e_fa=fa_exponent(theta, budget),
        e_md=e_md,
        rho_star=rho_star,
        lambda_star=float(lam_star),
    )


def design_classical(signal: SignalAtoms, budget: PowerBudget) -> JointAtoms:
    """Matched weights w = sqrt(p_w / E[S^2]) * s (power exactly p_w)."""
    e_s2 = signal.e_s2
    if e_s2 <= 0:
        raise DegenerateSignal("signal has zero power")
    scale = math.sqrt(budget.p_w / e_s2)
    return JointAtoms(scale * signal.s, signal.s, signal.weight)


def design_binary(signal: SignalAtoms, budget: PowerBudget) -> JointAtoms:
    """Sign weights w = sqrt(p_w) * sgn(s), with sgn(0) taken as +1."""
    root = math.sqrt(budget.p_w)
    w = np.where(signal.s < 0, -root, root)
    return JointAtoms(w, signal.s, signal.weight)


def _quantile_boundaries(signal: SignalAtoms, k: int) -> np.ndarray:
    """Initial boundaries at the i/k quantiles of the atom distribution."""
    order = np.argsort(signal.s, kind="stable")
    s_sorted = signal.s[order]
    cum = np.cumsum(signal.weight[order])
    bnds = []
    for i in range(1, k):
        # tolerance absorbs cumsum rounding at exact quantile ties
        j = int(np.searchsorted(cum, i / k - 1e-12))
        j = min(j, s_sorted.size - 2)
        bnds.append(0.5 * (s_sorted[j] + s_sorted[j + 1]))
    bnds = np.array(bnds)
    # strictly sorted start, nudging ties apart
    span = s_sorted[-1] - s_sorted[0] or 1.0
    for i in range(1, bnds.size):
        if bnds[i] <= bnds[i - 1]:
            bnds[i] = bnds[i - 1] + 1e-9 * span
    return bnds


def _cells(signal: SignalAtoms, boundaries: np.ndarray):
    idx = np.searchsorted(boundaries, signal.s, side="right")
    k = boundaries.size + 1
    probs = np.zeros(k)
    means = np.zeros(k)
    np.add.at(probs, idx, signal.weight)
    np.add.at(means, idx, signal.weight * signal.s)
    occupied = probs > 0
    means[occupied] /= probs[occupied]
    return idx, probs, means, occupied


def _repair_empty_cells(signal: SignalAtoms, boundaries: np.ndarray) -> np.ndarray:
    """Drop boundaries of empty cells and re-split the widest occupied cell."""
    s_min, s_max = float(signal.s.min()), float(signal.s.max())
    for _ in range(boundaries.size + 1):
        _, probs, _, occupied = _cells(signal, boundaries)
        if np.all(occupied):
            return boundaries
        empty = int(np.flatnonzero(~occupied)[0])
        # remove one edge of the empty cell
        drop = empty if empty < boundaries.size else boundaries.size - 1
        trimmed = np.delete(boundaries, drop)
        # re-split the widest occupied cell (by atom span) at its midpoint
        edges = np.concatenate(([s_min], trimmed, [s_max]))
        widths = np.diff(edges)
        wide = int(np.argmax(widths))
        new_b = 0.5 * (edges[wide] + edges[wide + 1])
        boundaries = np.sort(np.append(trimmed, new_b))
    raise EmptyCell("could not repair empty quantizer cells")


def _lloyd_sweeps(model, signal, boundaries, lam, budget, max_sweeps=500, tol=1e-9):
    """Alternate level and boundary updates at a fixed tilt.

    Levels come from the power-constrained inverse map applied to cell
    conditional means; boundaries from the equal-cost crossing condition.
    """
    var_n = budget.var_n
    levels = None
    rho = 0.0
    for _ in range(max_sweeps):
        boundaries = _repair_empty_cells(signal, boundaries)
        _, probs, means, _ = _cells(signal, boundaries)
        rho_arr = _tune_rho_arr(
            model, means, probs, np.array([[lam]]), budget.p_w, var_n,
            rho_hint=np.array([rho]),
        )
        rho = float(rho_arr[0])
        new_levels = _g_inverse_arr(
            model, means, np.asarray(rho), np.asarray(lam), var_n
        )
        diff = np.diff(new_levels)
        if np.any(diff <= 0):
            # merged levels: collapse the offending boundary and restart sweep
            j = int(np.flatnonzero(diff <= 0)[0])
            boundaries = np.delete(boundaries, min(j, boundaries.size - 1))
            edges = np.concatenate(([signal.s.min()], boundaries, [signal.s.max()]))
            widths = np.diff(edges)
            wide = int(np.argmax(widths))
            boundaries = np.sort(
                np.append(boundaries, 0.5 * (edges[wide] + edges[wide + 1]))
            )
            levels = None
            continue
        c = _cgf.cgf_eval(model, lam * new_levels)
        num = (c[1:] - c[:-1]) + 0.5 * (rho + lam * lam * var_n) * (
            new_levels[1:] ** 2 - new_levels[:-1] ** 2
        )
        new_boundaries = num / (lam * diff)
        new_boundaries = np.clip(
            np.sort(new_boundaries), signal.s.min(), signal.s.max()
        )
        delta = np.max(np.abs(new_boundaries - boundaries))
        if levels is not None:
            delta = max(delta, float(np.max(np.abs(new_levels - levels))))
        boundaries, levels = new_boundaries, new_levels
        if delta < tol:
            break
    return boundaries, levels, rho


def design_quantized(
    model: NoiseModel,
    signal: SignalAtoms,
    k: int,
    theta: float,
    budget: PowerBudget,
    init_boundaries=None,
) -> QuantizerDesign:
    """k-level correlator designed by alternating boundary/level updates,
    wrapped in the same outer tilt search as design_optimal."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if signal.e_s2 <= 0:
        raise DegenerateSignal("signal has zero power")
    distinct = np.unique(signal.s).size
    if distinct < k:
        k = distinct

    if init_boundaries is not None:
        bnds0 = np.sort(np.asarray(init_boundaries, dtype=float))
        if bnds0.size != k - 1:
            raise ValueError("init_boundaries must have k-1 entries")
    else:
        bnds0 = _quantile_boundaries(signal, k)

    state = {"bnds": bnds0}

    def value_at(lam):
        bnds, levels, rho = _lloyd_sweeps(model, signal, state["bnds"], lam, budget)
        state["bnds"] = bnds  # warm start the next tilt
        idx = np.searchsorted(bnds, signal.s, side="right")
        joint = JointAtoms(levels[idx], signal.s, signal.weight)
        return md_objective(joint, lam, theta, budget, model), (bnds, levels, rho)

    grid = _lambda_grid(signal, theta, budget)
    best = (-math.inf, None, None)
    for lam in grid:
        val, payload = value_at(lam)
        if val > best[0]:
            best = (val, lam, payload)
    _, lam_best, _ = best
    i = int(np.argmin(np.abs(grid - lam_best)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]

    def f(lam):
        return value_at(lam)[0]

    lam_star, _, _ = golden_max(f, lo, hi, rel_tol=1e-10, max_iter=50)
    _, (bnds, levels, rho) = value_at(lam_star)
    return QuantizerDesign(boundaries=bnds, levels=levels, rho=rho, lam=float(lam_star))


def _fourask_joint(a: float, alpha: float, p_w: float) -> JointAtoms:
    beta = math.sqrt(max(2.0 * p_w - alpha * alpha, 0.0))
    return JointAtoms([alpha, beta], [a, 3.0 * a], [0.5, 0.5])


def design_4ask(
    model: NoiseModel,
    a: float,
    theta: float,
    budget: PowerBudget,
    alpha_points: int = 2001,
) -> tuple[float, ExponentResult]:
    """Optimal two-magnitude weights for the four-level signal {+-a, +-3a}.

    The small-level weight alpha is swept on a dense grid (the matched
    choice sqrt(p_w/5) is always included), with the tilt supremum of
    every alpha taken at once by md_exponent's safeguarded Newton; a
    golden-section pass over md_exponent then refines alpha around the
    grid winner.
    """
    if a <= 0:
        raise ValueError("a must be > 0")
    p_w = budget.p_w
    amax = math.sqrt(2.0 * p_w)
    alphas = np.unique(
        np.concatenate([np.linspace(0.0, amax, alpha_points), [math.sqrt(p_w / 5.0)]])
    )
    betas = np.sqrt(np.maximum(2.0 * p_w - alphas * alphas, 0.0))
    w = np.stack([alphas, betas], axis=-1)
    e_ws = 0.5 * a * alphas + 1.5 * a * betas
    caps = _cgf.tilt_cap(model, np.maximum(alphas, betas))
    lams, _, _ = _tilt_newton(model, w, 0.5, e_ws, theta, budget.var_n, caps)
    c = 0.5 * np.sum(_cgf.cgf_eval(model, lams[:, None] * w), axis=-1)
    vals = lams * (e_ws - theta) - c - 0.5 * lams * lams * budget.var_n * p_w
    vals = np.maximum(vals, 0.0)

    i = int(np.argmax(vals))
    lo_a = alphas[max(i - 1, 0)]
    hi_a = alphas[min(i + 1, alphas.size - 1)]

    def exponent_at(alpha):
        return md_exponent(_fourask_joint(a, alpha, p_w), theta, budget, model).value

    alpha_star, _, _ = golden_max(exponent_at, lo_a, hi_a, rel_tol=1e-11, max_iter=60)
    candidates = [alpha_star, alphas[i]]
    best_alpha = min(candidates, key=lambda x: (-exponent_at(x), x))
    result = md_exponent(_fourask_joint(a, best_alpha, p_w), theta, budget, model)
    return float(best_alpha), result
