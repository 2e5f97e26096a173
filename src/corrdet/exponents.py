"""False-alarm and missed-detection error exponents of correlation detectors.

The detector compares sum_t w_t Y_t against theta*n.  Under the null the
statistic is Gaussian, so the FA exponent is a one-liner.  The MD exponent
is the supremum over the tilt lam of the concave Chernoff objective

    f(lam) = lam (E[WS] - theta) - E[C(lam W)] - lam^2 var_n E[W^2] / 2

on a finite weight/signal atom distribution.  Its derivatives come from
each model's closed-form Cdot and C'':

    f'(lam)  = E[WS] - theta - E[W Cdot(lam W)] - lam var_n E[W^2]
    f''(lam) = -E[W^2 C''(lam W)] - var_n E[W^2] < 0

so the supremum is the root of f', found by safeguarded Newton
(``_tilt_newton``).  W Cdot(lam W) >= 0, so the root lies in
[0, min(cap, (E[WS] - theta) / (var_n E[W^2]))], cap being the tilt cap of
a finite CGF domain.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cgf as _cgf
from .cgf import DomainError, NoiseModel


@dataclass(frozen=True)
class PowerBudget:
    """Power constraints: correlator power p_w, noise variance var_n,
    and (for joint designs) signal power p_s."""

    p_w: float
    var_n: float
    p_s: Optional[float] = None

    def __post_init__(self):
        if not self.p_w > 0:
            raise ValueError("p_w must be > 0")
        if not self.var_n > 0:
            raise ValueError("var_n must be > 0")
        if self.p_s is not None and not self.p_s > 0:
            raise ValueError("p_s must be > 0 when given")


class JointAtoms:
    """Finite weighted list of (w, s) pairs: the empirical joint
    distribution of correlator weight and signal level.

    Weights are normalized to sum to one at construction.
    """

    __slots__ = ("w", "s", "weight")

    def __init__(self, w, s, weight):
        w = np.atleast_1d(np.asarray(w, dtype=float)).copy()
        s = np.atleast_1d(np.asarray(s, dtype=float)).copy()
        p = np.atleast_1d(np.asarray(weight, dtype=float)).copy()
        if not (w.shape == s.shape == p.shape) or w.ndim != 1:
            raise ValueError("w, s, weight must be 1-D arrays of equal length")
        if w.size == 0:
            raise ValueError("at least one atom required")
        if np.any(p < 0):
            raise ValueError("weights must be non-negative")
        total = p.sum()
        if not math.isfinite(total) or abs(total - 1.0) > 1e-6:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        p /= total
        for a in (w, s, p):
            a.setflags(write=False)
        self.w, self.s, self.weight = w, s, p

    @classmethod
    def from_pairs(cls, atoms) -> "JointAtoms":
        """Build from an iterable of (w, s, weight) triples."""
        arr = np.asarray(list(atoms), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("expected (w, s, weight) triples")
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    @property
    def e_ws(self) -> float:
        return float(np.dot(self.weight, self.w * self.s))

    @property
    def e_w2(self) -> float:
        return float(np.dot(self.weight, self.w * self.w))

    @property
    def e_s2(self) -> float:
        return float(np.dot(self.weight, self.s * self.s))

    def max_abs_w(self) -> float:
        live = self.weight > 0
        return float(np.max(np.abs(self.w[live]))) if np.any(live) else 0.0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["w", "s", "weight"])
            for wi, si, pi in zip(self.w, self.s, self.weight):
                writer.writerow([f"{wi:.12g}", f"{si:.12g}", f"{pi:.12g}"])

    @classmethod
    def from_csv(cls, path) -> "JointAtoms":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return cls(
            [float(r["w"]) for r in rows],
            [float(r["s"]) for r in rows],
            [float(r["weight"]) for r in rows],
        )

    def __repr__(self):
        return f"JointAtoms(n={self.w.size}, e_ws={self.e_ws:.6g}, e_w2={self.e_w2:.6g})"


@dataclass(frozen=True)
class ExponentResult:
    """An exponent value together with its maximizing tilt."""

    value: float
    lambda_star: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"value": self.value, "lambda_star": self.lambda_star})


def fa_exponent(theta: float, budget: PowerBudget) -> float:
    """FA exponent theta^2 / (2 var_n p_w) of the plain correlator."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return theta * theta / (2.0 * budget.var_n * budget.p_w)


def theta_for_fa(e_fa: float, budget: PowerBudget) -> float:
    """Threshold slope achieving a prescribed FA exponent."""
    if e_fa < 0:
        raise ValueError("e_fa must be >= 0")
    return math.sqrt(budget.var_n) * math.sqrt(2.0 * budget.p_w * e_fa)


def md_objective(
    joint: JointAtoms,
    lam: float,
    theta: float,
    budget: PowerBudget,
    model: NoiseModel,
) -> float:
    """Chernoff objective lam*(E[WS]-theta) - E[C(lam W)] - lam^2 var_n E[W^2]/2."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0.0:
        return 0.0
    live = joint.weight > 0
    w, p = joint.w[live], joint.weight[live]
    c_terms = _cgf.cgf_eval(model, lam * w)
    return float(
        lam * (joint.e_ws - theta)
        - np.dot(p, c_terms)
        - 0.5 * lam * lam * budget.var_n * joint.e_w2
    )


def _tilt_newton(model, w, p, e_ws, theta, var_n, cap):
    """Maximizing tilt of the Chernoff objective, one per row of atoms.

    w holds one row of atoms per problem (the last axis), p their
    probabilities; e_ws and cap broadcast against the rows.  Safeguarded
    Newton on f' (module docstring) inside [0, min(cap, slope0/(var_n
    E[W^2]))], slope0 = e_ws - theta: it starts at the linearised root
    slope0 / (E[W^2] (C''(0) + var_n)), every probe shrinks the bracket,
    a start or step outside it becomes the midpoint, and a row stops once
    |f'| <= 8 eps times the summed magnitudes of the terms of f', or its
    bracket has collapsed.  A row with f'(cap) > 0 stops at the cap.

    Returns (lam, edge_hit, probes); rows with slope0 <= 0 give lam = 0.
    md_exponent, with one row, is the only caller.
    """
    e_ws = np.asarray(e_ws, dtype=float)
    slope0 = e_ws - theta
    pw = p * w
    pw2 = pw * w
    quad = var_n * pw2.sum(axis=-1)
    live = slope0 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.where(live, np.minimum(cap, slope0 / quad), 0.0)
        start = slope0 / (quad * (1.0 + model.cddot(0.0) / var_n))
    lo = np.zeros_like(hi)
    tol = 8.0 * np.finfo(float).eps
    scale = np.abs(e_ws) + abs(theta)

    # the supremum sits at the cap where f' is still rising there
    capped = live & (hi == cap)
    edge = np.zeros_like(capped)
    probes = 0
    if capped.any():
        probes = 1
        b = (pw * model.cdot(hi[..., None] * w)).sum(axis=-1)
        edge = capped & (slope0 - b - hi * quad > 0.0)
    done = ~live | edge
    lam = np.where(done, hi, np.where(start < hi, start, 0.5 * hi))
    for _ in range(100):
        if done.all():
            break
        probes += 1
        v = lam[..., None] * w
        b = (pw * model.cdot(v)).sum(axis=-1)  # E[W Cdot(lam W)] >= 0
        c = lam * quad
        resid = slope0 - b - c
        rising = resid > 0.0
        lo = np.where(rising, lam, lo)
        hi = np.where(rising, hi, lam)
        done = done | (np.abs(resid) <= tol * (scale + b + c)) | (hi - lo <= tol * hi)
        if done.all():
            break
        step = lam + resid / ((pw2 * model.cddot(v)).sum(axis=-1) + quad)
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        lam = np.where(done, lam, step)
    return lam, edge, probes


def md_exponent(
    joint: JointAtoms,
    theta: float,
    budget: PowerBudget,
    model: NoiseModel,
) -> ExponentResult:
    """MD exponent: supremum of md_objective over the tilt lam >= 0.

    The maximizing tilt is the root of f' by ``_tilt_newton``, inside a
    bracket clipped to the CGF-feasible range for finite-domain models;
    the value is one md_objective call at that tilt.  ``diagnostics``
    records the f' probes (``iterations``), the starting ``bracket`` and
    ``edge_hit``: whether the supremum sits at the tilt cap.
    """
    slope0 = joint.e_ws - theta
    if slope0 <= 0:
        return ExponentResult(
            0.0, 0.0, {"iterations": 0, "bracket": (0.0, 0.0), "edge_hit": False}
        )
    if joint.e_w2 <= 0.0:
        # all-zero weights make E[WS] = 0, so theta < 0: the objective -lam*theta
        raise ValueError("objective unbounded: zero weights with negative theta")

    cap = _cgf.tilt_cap(model, joint.max_abs_w())
    live = joint.weight > 0
    hi = min(cap, slope0 / (budget.var_n * joint.e_w2))
    lam, edge, probes = _tilt_newton(
        model, joint.w[live], joint.weight[live], joint.e_ws, theta, budget.var_n, cap
    )
    lam_star = float(lam)
    val = md_objective(joint, lam_star, theta, budget, model)
    diag = {"iterations": probes, "bracket": (0.0, hi), "edge_hit": bool(edge)}
    if val <= 0.0:
        return ExponentResult(0.0, 0.0, diag)
    return ExponentResult(float(val), lam_star, diag)
