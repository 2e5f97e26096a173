"""Detectors combining correlation with energy or absolute-value terms.

The statistic is sum_t w_t Y_t + alpha * sum_t Y_t^2 (kind="energy") or
sum_t w_t Y_t + alpha * sum_t |Y_t| (kind="abs"), with Y = s + X and
X = Z + N.  Per atom the Chernoff bounds need ln E exp(-v X - c X^2)
(energy) or ln E exp(-v X - c |s + X|) (abs), with v = lam*w (lam*u for
energy) and c = alpha*lam.  Both are closed form.  The expectation over
the Gaussian N completes the square (energy) or splits at s + X = 0
into two Gaussian tails (abs).  What is left is one expectation over Z
that each model class in ``cgf`` carries next to its CGF:

    log_mgf_quad(a, b)     = ln E e^{aZ - bZ^2},  b > 0   (energy)
    log_mgf_ndtr(a, c, d)  = ln E e^{aZ} Phi(cZ + d)      (abs)

=========  =====================================  ========================================
law        E e^{aZ - bZ^2}                        E e^{aZ} Phi(cZ + d)
=========  =====================================  ========================================
Gaussian   e^{a^2 var_z / 2D} / sqrt(D),          e^{a^2 var_z / 2}
           D = 1 + 2 b var_z                      Phi((d + a c var_z) / sqrt(1 + c^2 var_z))
binary     e^{-b z0^2} cosh(a z0)                 [e^{a z0} Phi(d + c z0)
                                                  + e^{-a z0} Phi(d - c z0)] / 2
uniform    sqrt(pi/b) e^{a^2/4b}                  [F(z0) - F(-z0)] / 2z0, F(z) = e^{az}
           [erf(x0) - erf(x1)] / 4z0              H(a, -c, cz + d); or [G(-z0) - G(z0)]
                                                  / 2z0, G(z) = e^{az} H(-a, c, cz + d)
Laplacian  q sqrt(pi) [erfcx((q-a) / 2 sqrt(b))   q [H(q-a, c, d) + H(q+a, -c, d)] / 2
           + erfcx((q+a) / 2 sqrt(b))] / 4 sqrt(b)
mixture    delta binary + (1-delta) Laplacian     delta binary + (1-delta) Laplacian
=========  =====================================  ========================================

For the uniform, x1, x0 = (|a| -+ 2b z0) / 2 sqrt(b) are the scaled
distances from the peak of e^{|a|z - bz^2} to z0 and -z0; once x1 > 1 the
erf difference is taken as e^{|a| z0 - b z0^2 - a^2/4b} [erfcx(x1) -
e^{-2|a| z0} erfcx(x0)].  F integrates up from -inf and G down from +inf
(G needs a < 0 when c > 0); the one whose outer part is smaller is
subtracted.  H(k, c, d) is the integral of e^{-kt} Phi(ct + d) over t > 0:
[Phi(d) + phi(d) R(d + k/c)] / k for c > 0, and phi(d) [R(-d) - R(-d +
k/|c|)] / k for c < 0 (any k), with R = (1 - Phi) / phi the Mills ratio.
Every form is evaluated in log space, with erfcx and log_ndtr for the
tails, so nothing overflows.

The energy objective is finite for every tilt lam >= 0, since -c X^2
outweighs any exponential tail of Z.  The abs objective is finite while
lam (max|w| - alpha) stays below the model's CGF radius q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cgf as _cgf
from ._optim import brent_max, expand_bracket_max
from ._special import log_ndtr
from .cgf import DomainError, NoiseModel
from .exponents import ExponentResult, JointAtoms, PowerBudget, fa_exponent, md_exponent

# Below this coefficient the quadratic/absolute kernels degenerate; fall
# back to the plain-correlator code path.
ALPHA_PLAIN = 1e-8


def __getattr__(name):
    """``quad`` is scipy's, imported on first lookup: nothing here calls it,
    but corrbench/tracer.py wraps the name.  Importing scipy.integrate with
    the module would load scipy.optimize, sparse and linalg into every
    process that imports corrdet."""
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Infeasible(ValueError):
    """No correlator power attains the requested FA exponent."""


@dataclass(frozen=True)
class ExtendedDetectorSpec:
    """An extended detector: atoms, mixing coefficient, threshold, kind."""

    joint: JointAtoms
    alpha: float
    theta: float
    kind: str

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.kind not in ("energy", "abs"):
            raise ValueError("kind must be 'energy' or 'abs'")


def fa_exponent_energy(theta: float, budget: PowerBudget, alpha: float) -> ExponentResult:
    """FA exponent of the correlation+energy detector.

    The objective f(lam) = lam theta - lam^2 var_n p_w/(2(1 - 2a lam))
    + ln(1 - 2a lam)/2, a = alpha var_n, is concave on [0, 1/(2a)) and
    falls to -inf at the pole.  f'(lam) (1 - 2a lam)^2 = 0 is the quadratic
    (4 theta a^2 + var_n p_w a) lam^2 - (4 theta a + var_n p_w - 2a^2) lam
    + (theta - a) = 0, positive at 0 and -var_n p_w/(4a) at the pole, so
    for theta > a the tilt is its smaller root, taken in the stable form
    2c/(-b + sqrt(b^2 - 4ac)); for theta <= a, f'(0) <= 0 and the exponent
    is 0.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    var_n, p_w = budget.var_n, budget.p_w
    if alpha <= ALPHA_PLAIN:
        lam = theta / (var_n * p_w)
        return ExponentResult(fa_exponent(theta, budget), lam, {"bracket": (0.0, lam)})
    a = alpha * var_n
    pole = 1.0 / (2.0 * a)
    if theta <= a:
        return ExponentResult(0.0, 0.0, {"bracket": (0.0, pole)})
    qa = (4.0 * theta * a + var_n * p_w) * a
    qb = -(4.0 * theta * a + var_n * p_w - 2.0 * a * a)
    qc = theta - a
    lam = 2.0 * qc / (-qb + math.sqrt(qb * qb - 4.0 * qa * qc))
    shrink = 1.0 - 2.0 * a * lam
    val = lam * theta - 0.5 * lam * lam * var_n * p_w / shrink + 0.5 * math.log1p(-2.0 * a * lam)
    return ExponentResult(float(val), float(lam), {"bracket": (0.0, pole)})


def _check_lam_alpha(lam, alpha):
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")


def _as_output(out, *inputs):
    return out if any(np.ndim(x) for x in inputs) else float(out)


def c_alpha_energy(model: NoiseModel, v, alpha: float, lam: float, var_n: float):
    """CGF replacing C(v) when an energy term is present.

    Satisfies ln E exp(-v X - alpha lam X^2) = C_alpha(v) + var_n v^2 / 2
    for X = Z + N with v = lam*u, which is the identity used to test it.
    Finite for every v.  Scalars give a float, arrays an array.
    """
    _check_lam_alpha(lam, alpha)
    if alpha <= ALPHA_PLAIN:
        return _cgf.cgf_eval(model, v)
    v = np.asarray(v, dtype=float)
    c = alpha * lam
    d = 1.0 + 2.0 * c * var_n
    # E over N: (-v z - c z^2 + var_n v^2 / 2) / d - ln(d) / 2 at Z = z
    out = (
        model.log_mgf_quad(-v / d, c / d)
        - c * var_n * var_n * v * v / d
        - 0.5 * math.log1p(2.0 * c * var_n)
    )
    return _as_output(out, v)


def _sup_concave(f, cap=math.inf, rel_tol=1e-11, max_iter=140):
    hi, _ = expand_bracket_max(f, hi0=min(1.0, cap), hi_cap=cap)
    lam_star, val, it = brent_max(f, 0.0, hi, rel_tol=rel_tol, max_iter=max_iter)
    diag = {
        "iterations": it,
        "bracket": (0.0, hi),
        "edge_hit": bool(hi >= cap and lam_star >= hi * (1.0 - 1e-8)),
    }
    if val <= 0.0:
        return ExponentResult(0.0, 0.0, diag)
    return ExponentResult(float(val), float(lam_star), diag)


def _unbounded():
    # the statistic cannot fall below theta: the miss probability is 0 and
    # the objective grows without bound in lam
    diag = {"iterations": 0, "bracket": (0.0, math.inf), "edge_hit": False, "unbounded": True}
    return ExponentResult(math.inf, math.inf, diag)


def md_exponent_energy(
    spec: ExtendedDetectorSpec, budget: PowerBudget, model: NoiseModel
) -> ExponentResult:
    """MD exponent of the correlation+energy detector on the given atoms.

    The objective is finite for every tilt, so the search has no cap.
    Per index w Y + alpha Y^2 >= -w^2 / (4 alpha), so for theta <=
    -E[W^2] / (4 alpha) a miss is impossible and the exponent is +inf,
    flagged ``unbounded`` in the diagnostics.
    """
    if spec.kind != "energy":
        raise ValueError("spec.kind must be 'energy'")
    if spec.alpha <= ALPHA_PLAIN:
        return md_exponent(spec.joint, spec.theta, budget, model)
    joint, alpha = spec.joint, spec.alpha
    live = joint.weight > 0
    w, s, p = joint.w[live], joint.s[live], joint.weight[live]
    u = w + 2.0 * alpha * s
    e_su = float(np.dot(p, s * u))
    e_s2 = float(np.dot(p, s * s))
    e_u2 = float(np.dot(p, u * u))
    drift = e_su - alpha * e_s2 - spec.theta
    if spec.theta <= -float(np.dot(p, w * w)) / (4.0 * alpha):
        return _unbounded()
    var_n = budget.var_n

    def f(lam):
        if lam <= 0.0:
            return 0.0
        c_sum = float(np.dot(p, c_alpha_energy(model, lam * u, alpha, lam, var_n)))
        return lam * drift - 0.5 * lam * lam * var_n * e_u2 - c_sum

    return _sup_concave(f, rel_tol=1e-10, max_iter=120)


def fa_exponent_abs(
    theta: float, budget: PowerBudget, alpha: float, w_atoms: JointAtoms
) -> ExponentResult:
    """FA exponent of the correlation+|.| detector.

    Unlike the energy variant this depends on the whole weight
    distribution, not just its power: each atom contributes the log-MGF
    of w*N + alpha*|N|, assembled from Gaussian tail integrals.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    live = w_atoms.weight > 0
    w, p = w_atoms.w[live], w_atoms.weight[live]
    var_n = budget.var_n
    sig = math.sqrt(var_n)
    e_w2 = float(np.dot(p, w * w))

    def f(lam):
        if lam <= 0.0:
            return 0.0
        shift = lam * lam * var_n * alpha * w
        up, down = log_ndtr(lam * sig * np.stack([w + alpha, alpha - w]))
        return float(
            lam * theta
            - 0.5 * lam * lam * var_n * (e_w2 + alpha * alpha)
            - np.dot(p, np.logaddexp(shift + up, -shift + down))
        )

    return _sup_concave(f, rel_tol=1e-12)


def c_alpha_abs(model: NoiseModel, v, s, alpha: float, lam: float, var_n: float):
    """CGF replacing C(v) when an |.| term is present.

    Satisfies ln E exp(-lam w X - alpha lam |s + X|) = C_alpha(lam w, s)
    + var_n (lam w)^2 / 2 for X = Z + N.  Finite while |v| - alpha lam
    stays below the model's CGF radius; raises DomainError past the pole
    margin.  Scalars give a float, arrays an array.
    """
    _check_lam_alpha(lam, alpha)
    if alpha <= ALPHA_PLAIN:
        return _cgf.cgf_eval(model, v)
    v, s = np.asarray(v, dtype=float), np.asarray(s, dtype=float)
    c = alpha * lam
    edge = _cgf._pole(model)
    if edge < math.inf and np.any(np.abs(v) - c >= edge):
        raise DomainError(
            f"|v| - alpha*lam must stay below {edge!r} (pole margin "
            f"{_cgf.POLE_MARGIN}) for {model!r}"
        )
    sig = math.sqrt(var_n)
    # E over N at Z = z: Y = s + z + N carries the tilt -(v + c) above 0
    # (sign +1) and -(v - c) below (sign -1); both tails in one call
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * np.ndim(v * s))
    t = -(v + sign * c)
    up, dn = (
        -sign * c * s
        + 0.5 * var_n * c * (c + 2.0 * sign * v)
        + model.log_mgf_ndtr(t, sign / sig, sign * (s + t * var_n) / sig)
    )
    return _as_output(np.logaddexp(up, dn), v, s)


def md_exponent_abs(
    spec: ExtendedDetectorSpec, budget: PowerBudget, model: NoiseModel
) -> ExponentResult:
    """MD exponent of the correlation+|.| detector on the given atoms.

    The search is capped where lam (max|w| - alpha) reaches the pole, if
    the model has one and max|w| > alpha.  With every |w| <= alpha,
    w Y + alpha |Y| >= 0, with equality only at Y = 0 where |w| < alpha.
    A miss is then impossible for theta < 0, and for theta = 0 once some
    |w| < alpha: the exponent is +inf, flagged ``unbounded``.
    """
    if spec.kind != "abs":
        raise ValueError("spec.kind must be 'abs'")
    if spec.alpha <= ALPHA_PLAIN:
        return md_exponent(spec.joint, spec.theta, budget, model)
    joint, alpha = spec.joint, spec.alpha
    live = joint.weight > 0
    w, s, p = joint.w[live], joint.s[live], joint.weight[live]
    e_ws = float(np.dot(p, w * s))
    e_w2 = float(np.dot(p, w * w))
    var_n = budget.var_n
    abs_w = np.abs(w)
    if np.all(abs_w <= alpha) and (
        spec.theta < 0.0 or (spec.theta == 0.0 and np.any(abs_w < alpha))
    ):
        return _unbounded()

    cap = _cgf.tilt_cap(model, max(float(np.max(abs_w)) - alpha, 0.0))

    def f(lam):
        if lam <= 0.0:
            return 0.0
        c_sum = float(np.dot(p, c_alpha_abs(model, lam * w, s, alpha, lam, var_n)))
        return lam * (e_ws - spec.theta) - 0.5 * lam * lam * var_n * e_w2 - c_sum

    return _sup_concave(f, cap=cap, rel_tol=1e-10, max_iter=120)


@dataclass(frozen=True)
class AlphaSweepEntry:
    alpha: float
    p_w: float
    e_md: float


@dataclass(frozen=True)
class AlphaSweepResult:
    alpha: float
    p_w: float
    e_md: float
    entries: tuple


def _classical_atoms(signal_s, signal_p, p_w):
    e_s2 = float(np.dot(signal_p, signal_s * signal_s))
    scale = math.sqrt(p_w / e_s2) if e_s2 > 0 else 0.0
    return JointAtoms(scale * signal_s, signal_s, signal_p)


def sweep_alpha_fixed_fa(
    model: NoiseModel,
    signal,
    e_fa_target: float,
    kind: str,
    theta: float,
    budget: PowerBudget,
    alphas=None,
) -> AlphaSweepResult:
    """Among (alpha, p_w) pairs hitting the same FA exponent, pick the pair
    that maximizes the MD exponent (weights follow the matched shape).

    Grid over alpha; per alpha the correlator power solving the FA target
    is found by bisection (the FA exponent decreases in p_w).  Alphas for
    which no power attains the target are skipped.
    """
    if e_fa_target <= 0:
        raise ValueError("e_fa_target must be > 0")
    if kind not in ("energy", "abs"):
        raise ValueError("kind must be 'energy' or 'abs'")
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 41)
    s, p = signal.s, signal.weight
    var_n = budget.var_n
    s_zero = float(np.dot(p, s * s)) == 0.0

    def fa_at(p_w, alpha):
        b = PowerBudget(p_w, var_n)
        if kind == "energy":
            return fa_exponent_energy(theta, b, alpha).value
        return fa_exponent_abs(theta, b, alpha, _classical_atoms(s, p, p_w)).value

    def md_at(p_w, alpha):
        b = PowerBudget(p_w, var_n)
        atoms = _classical_atoms(s, p, p_w)
        spec = ExtendedDetectorSpec(atoms, alpha, theta, kind)
        if kind == "energy":
            return md_exponent_energy(spec, b, model).value
        return md_exponent_abs(spec, b, model).value

    entries = []
    for alpha in np.asarray(alphas, dtype=float):
        lo, hi = 1e-12, 1.0
        if fa_at(lo, alpha) < e_fa_target:
            continue  # even vanishing power cannot reach the target
        for _ in range(200):
            if fa_at(hi, alpha) < e_fa_target:
                break
            hi *= 2.0
        else:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = fa_at(mid, alpha)
            if abs(val - e_fa_target) <= 1e-6:
                lo = hi = mid
                break
            if val > e_fa_target:
                lo = mid
            else:
                hi = mid
        p_w = 0.5 * (lo + hi)
        if s_zero and alpha <= ALPHA_PLAIN:
            e_md = 0.0  # pure correlation with no signal is useless
        else:
            e_md = md_at(p_w, alpha)
        entries.append(AlphaSweepEntry(float(alpha), float(p_w), float(e_md)))

    if not entries:
        raise Infeasible("no alpha admits the requested FA exponent")
    best = max(entries, key=lambda e: (e.e_md, -e.alpha))
    return AlphaSweepResult(best.alpha, best.p_w, best.e_md, tuple(entries))
