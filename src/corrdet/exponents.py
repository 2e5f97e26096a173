"""False-alarm and missed-detection error exponents of correlation detectors.

The detector compares sum_t w_t Y_t against theta*n.  Under the null the
statistic is Gaussian, so the FA exponent is a one-liner; the MD exponent
is the supremum over the tilt of a concave objective built from the
interference CGF evaluated on a finite weight/signal atom distribution.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cgf as _cgf
from ._optim import expand_bracket_max, golden_max
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


def md_exponent(
    joint: JointAtoms,
    theta: float,
    budget: PowerBudget,
    model: NoiseModel,
) -> ExponentResult:
    """MD exponent: supremum of md_objective over the tilt lam >= 0.

    The objective is concave (C is convex), so a doubling bracket followed
    by golden-section search locates the supremum; the bracket is clipped
    to the CGF-feasible range for finite-domain models.
    """
    slope0 = joint.e_ws - theta
    if slope0 <= 0:
        return ExponentResult(0.0, 0.0, {"iterations": 0, "bracket": (0.0, 0.0)})
    if joint.e_w2 <= 0.0:
        # all-zero weights: objective is -lam*theta
        if theta < 0:
            raise ValueError("objective unbounded: zero weights with negative theta")
        return ExponentResult(0.0, 0.0, {"iterations": 0, "bracket": (0.0, 0.0)})

    cap = _cgf.tilt_cap(model, joint.max_abs_w())

    def f(lam):
        return md_objective(joint, lam, theta, budget, model)

    hi, n_expand = expand_bracket_max(f, hi0=min(1.0, cap), hi_cap=cap)
    lam_star, val, n_golden = golden_max(f, 0.0, hi)
    if val <= 0.0:
        return ExponentResult(
            0.0, 0.0, {"iterations": n_expand + n_golden, "bracket": (0.0, hi)}
        )
    return ExponentResult(
        float(val),
        float(lam_star),
        {"iterations": n_expand + n_golden, "bracket": (0.0, hi)},
    )
