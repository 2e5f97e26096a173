"""Detectors combining correlation with energy or absolute-value terms.

The statistic is sum_t w_t Y_t + alpha * sum_t Y_t^2 (kind="energy") or
sum_t w_t Y_t + alpha * sum_t |Y_t| (kind="abs").  The quadratic/absolute
terms enter the Chernoff bounds through transform-domain integrals
(Gaussian and Lorentzian kernels respectively), evaluated here by
adaptive quadrature over the transform variable; the inner expectation
over the interference uses the closed-form complex-argument MGF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import log_ndtr

from . import cgf as _cgf
from ._optim import expand_bracket_max, golden_max
from .cgf import NoiseModel
from .exponents import ExponentResult, JointAtoms, PowerBudget, fa_exponent, md_exponent

# Below this coefficient the quadratic/absolute kernels degenerate; fall
# back to the plain-correlator code path.
ALPHA_PLAIN = 1e-8


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature could not reach the requested accuracy."""


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

    The tilt runs over [0, 1/(2 alpha var_n)); the objective is concave
    and diverges to -inf at the pole, so golden-section search suffices.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    var_n, p_w = budget.var_n, budget.p_w
    if alpha <= ALPHA_PLAIN:
        lam = theta / (var_n * p_w)
        return ExponentResult(fa_exponent(theta, budget), lam, {"bracket": (0.0, lam)})
    pole = 1.0 / (2.0 * alpha * var_n)

    def f(lam):
        shrink = 1.0 - 2.0 * alpha * lam * var_n
        if shrink <= 0:
            return -math.inf
        return (
            lam * theta
            - 0.5 * lam * lam * var_n * p_w / shrink
            + 0.5 * math.log(shrink)
        )

    lam_star, val, it = golden_max(f, 0.0, pole * _cgf.TILT_SHRINK, rel_tol=1e-13)
    if val <= 0.0:
        return ExponentResult(0.0, 0.0, {"iterations": it, "bracket": (0.0, pole)})
    return ExponentResult(float(val), float(lam_star), {"iterations": it, "bracket": (0.0, pole)})


def _quad_or_fail(f, lo, hi, limit):
    # scipy may warn about roundoff near machine accuracy; the returned
    # error bound is the gate that matters here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=limit)
    if not math.isfinite(val) or err > 1e-9 * (1.0 + abs(val)):
        raise QuadratureFailure(f"quadrature error {err!r} for value {val!r}")
    return val


def c_alpha_energy(model: NoiseModel, v: float, alpha: float, lam: float, var_n: float) -> float:
    """Transform-domain CGF replacing C(v) when an energy term is present.

    Satisfies ln E exp(-v X - alpha lam X^2) = C_alpha(v) + var_n v^2 / 2
    for X = Z + N with v = lam*u, which is the identity used to test it.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha <= ALPHA_PLAIN:
        return _cgf.cgf_eval(model, v)
    _cgf._check_domain(model, np.asarray(float(v)))
    kappa = 0.5 * var_n + 1.0 / (4.0 * alpha * lam)
    q_max = math.sqrt(80.0 / kappa)

    def integrand(q):
        inner = _cgf.mgf_complex(model, -v + 1j * q) * np.exp(-1j * var_n * v * q)
        return inner.real * math.exp(-kappa * q * q)

    val = 2.0 * _quad_or_fail(integrand, 0.0, q_max, limit=300)
    if val <= 0.0:
        raise QuadratureFailure("non-positive transform integral")
    return math.log(val) - 0.5 * math.log(4.0 * math.pi * alpha * lam)


def _sup_concave(f, cap=math.inf, rel_tol=1e-11, max_iter=140):
    hi, _ = expand_bracket_max(f, hi0=min(1.0, cap), hi_cap=cap)
    lam_star, val, it = golden_max(f, 0.0, hi, rel_tol=rel_tol, max_iter=max_iter)
    if val <= 0.0:
        return ExponentResult(0.0, 0.0, {"iterations": it, "bracket": (0.0, hi)})
    return ExponentResult(float(val), float(lam_star), {"iterations": it, "bracket": (0.0, hi)})


def md_exponent_energy(
    spec: ExtendedDetectorSpec, budget: PowerBudget, model: NoiseModel
) -> ExponentResult:
    """MD exponent of the correlation+energy detector on the given atoms."""
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
    var_n = budget.var_n

    cap = _cgf.tilt_cap(model, float(np.max(np.abs(u))))

    def f(lam):
        if lam <= 0.0:
            return 0.0
        c_sum = sum(
            pi * c_alpha_energy(model, lam * ui, alpha, lam, var_n)
            for pi, ui in zip(p, u)
        )
        return lam * drift - 0.5 * lam * lam * var_n * e_u2 - c_sum

    return _sup_concave(f, cap=cap, rel_tol=1e-10, max_iter=120)


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
        t1 = lam * lam * var_n * alpha * w + log_ndtr(lam * sig * (w + alpha))
        t2 = -lam * lam * var_n * alpha * w + log_ndtr(-lam * sig * (w - alpha))
        return float(
            lam * theta
            - 0.5 * lam * lam * var_n * (e_w2 + alpha * alpha)
            - np.dot(p, np.logaddexp(t1, t2))
        )

    return _sup_concave(f, rel_tol=1e-12)


def c_alpha_abs(
    model: NoiseModel, v: float, s: float, alpha: float, lam: float, var_n: float
) -> float:
    """Transform-domain CGF replacing C(v) when an |.| term is present.

    Satisfies ln E exp(-lam w X - alpha lam |s + X|) = C_alpha(lam w, s)
    + var_n (lam w)^2 / 2 for X = Z + N.  The Lorentzian kernel is
    flattened by a tangent substitution; the Gaussian factor truncates
    the range with tail mass below 1e-12.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha <= ALPHA_PLAIN:
        return _cgf.cgf_eval(model, v)
    _cgf._check_domain(model, np.asarray(float(v)))
    a = alpha * lam
    q_max = math.sqrt(160.0 / var_n)
    u_max = math.atan(q_max / a)
    phase = s - var_n * v

    def integrand(u):
        q = a * math.tan(u)
        inner = _cgf.mgf_complex(model, -v + 1j * q) * np.exp(1j * q * phase)
        return inner.real * math.exp(-0.5 * var_n * q * q)

    val = (2.0 / math.pi) * _quad_or_fail(integrand, 0.0, u_max, limit=400)
    if val <= 0.0:
        raise QuadratureFailure("non-positive transform integral")
    return math.log(val)


def md_exponent_abs(
    spec: ExtendedDetectorSpec, budget: PowerBudget, model: NoiseModel
) -> ExponentResult:
    """MD exponent of the correlation+|.| detector on the given atoms."""
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

    cap = _cgf.tilt_cap(model, float(np.max(np.abs(w))))

    def f(lam):
        if lam <= 0.0:
            return 0.0
        c_sum = sum(
            pi * c_alpha_abs(model, lam * wi, si, alpha, lam, var_n)
            for pi, wi, si in zip(p, w, s)
        )
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
