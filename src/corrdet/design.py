"""Correlator design for a given signal.

The per-tilt optimal weight is w = g^{-1}(s) where
g(w) = Cdot(lam*w) + (rho/lam + var_n*lam)*w is strictly increasing,
with rho >= 0 the power multiplier.  In u = lam*w the tilt drops out:
the design is U = h^{-1}(S), h(u) = Cdot(u) + (kappa + var_n)*u with
kappa = rho/lam^2 the single root of a monotone equation (_power_root),
and W = U/lam at full power (_full_power, which returns the matched filter
past the reach).  tune_rho and _objective_for_lams keep the per-tilt view
-- rho(lam) by safeguarded Newton in a closed-form bracket, and the design
value V(lam) with its envelope-theorem slope -- as an independent
reference.  On top of that sit the sign (binary) design, the k-level
quantized design, and the four-level design, which is the optimal design
on the signal's two magnitudes.  A k-level quantizer splits the sorted
distinct signal values into k contiguous non-empty runs (_split); Lloyd-
and Max-style sweeps alternate the full-power levels on the runs' means
with cost-equality thresholds until the split repeats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import cgf as _cgf
from .cgf import NoiseModel
from .exponents import (
    ExponentResult,
    JointAtoms,
    PowerBudget,
    fa_exponent,
    md_exponent,
)


class DegenerateSignal(ValueError):
    """Signal with zero power cannot drive a correlator design."""


class GInverseNotConverged(ArithmeticError):
    """The inverse of the correlator weight map g missed its tolerance."""


class QuantizerCycle(ArithmeticError):
    """The quantizer's level/boundary sweeps did not reach a fixed split."""


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


def _power_and_slope(model, s, p, rho_col, lam_col, var_n):
    """P(rho) = E[g^{-1}(S)^2] and dP/drho = -2 E[W^2 / (lam g'(W))] for
    column-stacked rho/lam against atom rows; g^{-1} moves as
    dW/drho = -W / (lam g'(W))."""
    w = _g_inverse_arr(model, s, rho_col, lam_col, var_n)
    gp = lam_col * model.cddot(lam_col * w) + rho_col / lam_col + var_n * lam_col
    pw2 = p * w * w
    return pw2.sum(axis=-1), -2.0 * (pw2 / (lam_col * gp)).sum(axis=-1)


def _tune_rho_arr(model, s, p, lam_col, p_w, var_n, max_iter=200):
    """Vectorized power-constraint multiplier for a column of tilts.

    Returns rho >= 0 per tilt: zero when the unconstrained inverse already
    meets the power budget, otherwise the root of P(rho) = p_w,
    P(rho) = E[g^{-1}(S|rho)^2], to 5e-10 absolute (relative when p_w < 1).
    Cdot(v) v >= 0 gives g(w) >= (rho/lam + var_n lam) w for w >= 0, so the
    root lies in [0, lam max(sqrt(E[S^2]/p_w) - var_n lam, 0)].  Inside
    it, safeguarded Newton from rho = 0 on the secular equation
    psi(rho) = P^{-1/2} - p_w^{-1/2} (More & Sorensen 1983), which is
    linear in rho for Gaussian interference: each probe shrinks the
    bracket, a step that leaves it becomes the midpoint, and a tilt stays
    put once it meets the tolerance or its bracket collapses.  A
    converged tilt finally takes the Newton step of its last probe,
    unprobed, which squares its power error.
    """
    lam = lam_col[:, 0]
    e_s2 = float(np.dot(p, s * s))
    lo = np.zeros_like(lam)
    hi = lam * np.maximum(math.sqrt(e_s2 / p_w) - var_n * lam, 0.0)
    rho = np.zeros_like(lam)
    power, slope = _power_and_slope(model, s, p, rho[:, None], lam_col, var_n)
    tol = 5e-10 * min(p_w, 1.0)
    done = power - p_w <= tol  # slack, or already met at rho = 0

    def newton(i):
        return rho[i] + 2.0 * power[i] * (1.0 - np.sqrt(power[i] / p_w)) / slope[i]

    for _ in range(max_iter):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        step = newton(act)
        inside = (step > lo[act]) & (step < hi[act])
        rho[act] = np.where(inside, step, 0.5 * (lo[act] + hi[act]))
        power[act], slope[act] = _power_and_slope(
            model, s, p, rho[act, None], lam_col[act], var_n
        )
        high = power[act] > p_w
        lo[act] = np.where(high, rho[act], lo[act])
        hi[act] = np.where(high, hi[act], rho[act])
        done[act] = (np.abs(power[act] - p_w) <= tol) | (hi[act] - lo[act] <= 4e-16 * hi[act])
    bound = np.flatnonzero(rho > 0.0)
    rho[bound] = np.clip(newton(bound), lo[bound], hi[bound])
    return rho


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


def _power_root(model, s, p, t, var_n):
    """U = h^{-1}(S), h(u) = Cdot(u) + (kappa + var_n) u, at the kappa >= 0
    with kappa r = t, r = sqrt(E[U^2]); returns (U, kappa, r).

    With u = lam w the design value is V(lam) = -lam theta + G(lam sqrt(p_w)),
    G(r) the best E[US - C(U) - var_n U^2/2] over E[U^2] <= r^2.  G is
    concave with G'(r) = kappa r, so the best tilt solves kappa r = t =
    theta/sqrt(p_w), 0 <= t < sqrt(E[S^2]), whose left side increases in
    kappa.  Safeguarded Newton on 1/r - kappa/t, linear under Gaussian
    interference, with dE[U^2]/dkappa = -2 E[U^2/h'(U)], from the Gaussian
    root at C''(0).  Cdot(u) u >= 0 bounds the root below by
    t var_n/(sqrt(E[S^2]) - t); a step outside the bracket becomes its
    midpoint, or doubles kappa while no probe has overshot.  Stops once
    |kappa r - t| <= 1e-10 t or the bracket collapses.
    """
    gap = math.sqrt(float(np.dot(p, s * s))) - t
    lo, hi = t * var_n / gap, math.inf
    kappa = t * (float(model.cddot(0.0)) + var_n) / gap
    for _ in range(100):
        u = _g_inverse_arr(model, s, np.asarray(kappa), np.asarray(1.0), var_n)
        pu2 = p * u * u
        power = float(pu2.sum())
        r = math.sqrt(power)
        if abs(kappa * r - t) <= 1e-10 * t or hi - lo <= 4e-16 * lo:
            break
        lo, hi = (kappa, hi) if kappa * r < t else (lo, kappa)
        dphi = float((pu2 / (model.cddot(u) + kappa + var_n)).sum()) / (power * r) - 1.0 / t
        step = kappa - (1.0 / r - kappa / t) / dphi
        kappa = step if lo < step < hi else (0.5 * (lo + hi) if hi < math.inf else 2.0 * lo)
    return u, kappa, r


def _full_power(model, s, p, theta, budget):
    """Best full-power weights W on atoms (s, p): returns (W, rho, lam, U,
    kappa) with U = lam W and rho = kappa lam^2 (_power_root).  Past the
    reach, theta >= sqrt(p_w E[S^2]), no weights make a miss rare; the
    kappa -> inf limit is the matched filter, returned with lam = rho = 0
    and U = kappa = None.
    """
    root_p = math.sqrt(budget.p_w)
    t = theta / root_p
    e_s2 = float(np.dot(p, s * s))
    if t >= math.sqrt(e_s2):
        return math.sqrt(budget.p_w / e_s2) * s, 0.0, 0.0, None, None
    u, kappa, r = _power_root(model, s, p, t, budget.var_n)
    lam = r / root_p
    return u / lam, kappa * lam * lam, lam, u, kappa


def design_optimal(
    model: NoiseModel,
    signal: SignalAtoms,
    theta: float,
    budget: PowerBudget,
) -> DetectorDesign:
    """Best correlator for the given signal under the power budget.

    W = U/lam* at full power (_full_power), with U and kappa from
    _power_root, lam* = sqrt(E[U^2]/p_w) and rho* = kappa lam*^2, so that
    g(W; rho*, lam*) = S; past the reach the matched filter with lam* =
    rho* = 0.  The exponent is the supremum over the tilt for the returned
    (fixed) weights.
    """
    if signal.e_s2 <= 0:
        raise DegenerateSignal("signal has zero power")
    e_fa = fa_exponent(theta, budget)  # raises for theta < 0
    w, rho_star, lam_star, _, _ = _full_power(model, signal.s, signal.weight, theta, budget)
    joint = JointAtoms(w, signal.s, signal.weight)
    return DetectorDesign(
        joint=joint,
        theta=theta,
        alpha=0.0,
        e_fa=e_fa,
        e_md=md_exponent(joint, theta, budget, model),
        rho_star=rho_star,
        lambda_star=lam_star,
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


# a split that still changes after this many sweeps is taken to cycle
_MAX_SWEEPS = 500


def _split(vals, boundaries, k):
    """Cut indices of the sorted distinct values into k runs, run j being
    vals[cuts[j-1]:cuts[j]], each holding at least one value.

    A boundary cuts before the first value above it, clipped so that no run
    is empty; repeated cuts count once.  While fewer than k-1 cuts remain,
    the run with the widest value span is cut at the value gap holding its
    midpoint.
    """
    cuts = np.sort(np.clip(np.searchsorted(vals, boundaries, side="right"), 1, vals.size - 1))
    cuts = cuts[np.diff(cuts, prepend=0) > 0]
    while cuts.size < k - 1:
        lo, hi = np.append(0, cuts), np.append(cuts, vals.size) - 1
        j = int(np.argmax(vals[hi] - vals[lo]))
        cut = np.searchsorted(vals, 0.5 * (vals[lo[j]] + vals[hi[j]]), side="right")
        cuts = np.insert(cuts, j, np.clip(cut, lo[j] + 1, hi[j]))
    return cuts


def _lloyd_sweeps(model, signal, vals, cuts, theta, budget):
    """Alternate level and boundary updates until the split repeats.

    The cells are the runs of the sorted distinct values vals cut at cuts
    (_split), so each holds mass and the cell means strictly increase.
    Levels are the full-power optimal design on the cell means
    (_full_power), so they strictly increase too.  A threshold is where two
    levels cost the same, [C(u_{j+1}) - C(u_j) + (kappa + var_n)(u_{j+1}^2
    - u_j^2)/2]/(u_{j+1} - u_j) in u = lam w, or the midpoint of the means
    past the reach.  Once the thresholds split the values as before, levels
    and thresholds repeat exactly; a split that has not repeated after
    _MAX_SWEEPS sweeps raises QuantizerCycle.  A reported boundary is its
    threshold where that falls inside its cut's value gap, otherwise the
    gap's midpoint.  Returns (boundaries, levels, rho, lam).
    """
    for _ in range(_MAX_SWEEPS):
        idx = np.searchsorted(vals[cuts], signal.s, side="right")
        probs = np.bincount(idx, weights=signal.weight, minlength=cuts.size + 1)
        means = np.bincount(idx, weights=signal.weight * signal.s, minlength=cuts.size + 1) / probs
        levels, rho, lam, u, kappa = _full_power(model, means, probs, theta, budget)
        if lam == 0.0:
            thresholds = 0.5 * (means[1:] + means[:-1])
        else:
            c, u2 = _cgf.cgf_eval(model, u), u * u
            thresholds = (np.diff(c) + 0.5 * (kappa + budget.var_n) * np.diff(u2)) / np.diff(u)
        new_cuts = _split(vals, thresholds, cuts.size + 1)
        if np.array_equal(new_cuts, cuts):
            break
        cuts = new_cuts
    else:
        raise QuantizerCycle(
            f"quantizer split still changing after {_MAX_SWEEPS} level/boundary sweeps for {model!r}"
        )
    lo, hi = vals[cuts - 1], vals[cuts]
    inside = (lo < thresholds) & (thresholds < hi)
    return np.where(inside, thresholds, 0.5 * (lo + hi)), levels, rho, lam


def design_quantized(
    model: NoiseModel,
    signal: SignalAtoms,
    k: int,
    theta: float,
    budget: PowerBudget,
    init_boundaries=None,
) -> QuantizerDesign:
    """k-level correlator designed by alternating boundary/level updates
    (_lloyd_sweeps), from the i/k quantiles or from init_boundaries.  k is
    capped at the number of distinct signal values that carry weight."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if signal.e_s2 <= 0:
        raise DegenerateSignal("signal has zero power")
    order = np.argsort(signal.s, kind="stable")
    s_sorted, p_sorted = signal.s[order], signal.weight[order]
    # np.unique would import numpy.ma on first use
    vals = s_sorted[p_sorted > 0]
    vals = vals[np.append(True, vals[1:] != vals[:-1])]
    k = min(k, vals.size)

    if init_boundaries is not None:
        bnds0 = np.asarray(init_boundaries, dtype=float).ravel()
        if bnds0.size != k - 1:
            raise ValueError("init_boundaries must have k-1 entries")
    else:
        # tolerance absorbs cumsum rounding at exact quantile ties
        bnds0 = s_sorted[np.searchsorted(np.cumsum(p_sorted), np.arange(1, k) / k - 1e-12)]

    cuts = _split(vals, bnds0, k)
    bnds, levels, rho, lam = _lloyd_sweeps(model, signal, vals, cuts, theta, budget)
    return QuantizerDesign(boundaries=bnds, levels=levels, rho=rho, lam=lam)


def _fourask_joint(a: float, alpha: float, p_w: float) -> JointAtoms:
    beta = math.sqrt(max(2.0 * p_w - alpha * alpha, 0.0))
    return JointAtoms([alpha, beta], [a, 3.0 * a], [0.5, 0.5])


def design_4ask(
    model: NoiseModel,
    a: float,
    theta: float,
    budget: PowerBudget,
) -> tuple[float, ExponentResult]:
    """Optimal two-magnitude weights for the four-level signal {+-a, +-3a}.

    This is design_optimal on the magnitudes {a, 3a} (g^{-1} is odd, so
    -a and -3a get the negated weights), whose weights sit at full power.
    Returns the small-level weight alpha and the MD exponent of
    _fourask_joint(a, alpha).
    """
    if a <= 0:
        raise ValueError("a must be > 0")
    d = design_optimal(model, SignalAtoms([a, 3.0 * a], [0.5, 0.5]), theta, budget)
    alpha = float(d.joint.w[0])
    return alpha, md_exponent(_fourask_joint(a, alpha, budget.p_w), theta, budget, model)
