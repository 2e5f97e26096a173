"""Finite-n simulation of detector error probabilities.

Under the null the correlation statistic is Gaussian, so the FA
probability is exact.  The MD probability is estimated by importance
sampling with per-index exponential tilting matched to the Chernoff
optimizer; regressing -ln(prob) on n yields an empirical exponent slope
to compare against the analytic one.

Only the interference Z is sampled.  The Gaussian noise enters the
statistic linearly, so given Z its part is normal and each trial's
weight is its conditional expectation given Z, in closed form
(conditional Monte Carlo, or Rao-Blackwellization).  That keeps the
estimator unbiased and cannot raise its variance.  Z enters only
through a = sum_i w_i Z_i, and the indices that share a weight share a
tilt, so a trial draws one sum per distinct weight from its exact law:
a normal (Gaussian), a binomial count of +z0 (binary), a difference of
two Gamma sums (Laplacian), or a trinomial count and a Laplacian pair
(mixture).  The uniform law has no closed-form sum and keeps one draw
per index; see ``_kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import cgf as _cgf
from ._kernels import md_weights
from .cgf import NoiseModel
from .exponents import PowerBudget


class DegenerateTilt(ValueError):
    """The requested tilt leaves the CGF domain for some index."""


class InsufficientData(ValueError):
    """Too few usable probability estimates for a slope regression."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation plan: block lengths, trials per block, seed, tilt."""

    n_values: tuple
    trials: int
    seed: int
    tilt_lambda: float = 0.0

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if not ns or any(n <= 0 for n in ns) or list(ns) != sorted(ns):
            raise ValueError("n_values must be positive and ascending")
        object.__setattr__(self, "n_values", ns)
        if self.trials < 1000:
            raise ValueError("trials must be >= 1000")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.tilt_lambda < 0:
            raise ValueError("tilt_lambda must be >= 0")


@dataclass(frozen=True)
class SlopeEstimate:
    slope: float
    stderr: float
    per_n: tuple = field(default_factory=tuple)


def _tile(pattern, n: int) -> np.ndarray:
    arr = np.asarray(pattern, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty pattern")
    reps = -(-n // arr.size)
    return np.tile(arr, reps)[:n]


def fa_probability_exact(w, theta: float, n: int, var_n: float) -> float:
    """Exact FA probability Q(theta*n / (sigma ||w||)) of the correlator."""
    w_n = _tile(w, n)
    norm = float(np.linalg.norm(w_n))
    if norm == 0.0:
        return 0.5 if theta <= 0 else 0.0
    return float(ndtr(-theta * n / (math.sqrt(var_n) * norm)))


def md_probability(
    model: NoiseModel,
    w,
    s,
    theta: float,
    config: SimConfig,
    budget: PowerBudget,
) -> SlopeEstimate:
    """Tilted-importance-sampling estimate of the MD probability per block
    length, with the regression slope of -ln(prob) on n attached.

    ``w`` and ``s`` are atom patterns tiled to each n.  A tilt of zero is
    plain Monte Carlo over Z; the per-index likelihood normalizers make
    the estimator unbiased for any feasible tilt.  The noise is integrated
    out per trial.
    """
    lam = config.tilt_lambda
    var_n = budget.var_n
    kernel = _cgf.kernel_args(model)
    per_n = []
    for n in config.n_values:
        w_n = _tile(w, n)
        s_n = _tile(s, n)
        if lam > 0 and lam * float(np.max(np.abs(w_n))) >= _cgf._pole(model):
            raise DegenerateTilt(f"tilt {lam} leaves the CGF domain at n={n}")
        log_norm = float(
            np.sum(_cgf.cgf_eval(model, lam * w_n))
            + 0.5 * lam * lam * var_n * float(np.dot(w_n, w_n))
        )
        thresh = theta * n - float(np.dot(w_n, s_n))
        weights = md_weights(
            *kernel, w_n, lam, var_n, thresh, log_norm, config.seed, n, config.trials
        )
        prob = float(np.sum(weights)) / config.trials
        second = float(np.sum(weights * weights)) / config.trials
        var_est = max(second - prob * prob, 0.0) / config.trials
        stderr = math.sqrt(var_est)
        rel = stderr / prob if prob > 0 else math.inf
        per_n.append({"n": n, "prob_estimate": prob, "rel_stderr": rel})
    try:
        fit = estimate_slope(per_n)
        slope, sl_err = fit.slope, fit.stderr
    except InsufficientData:
        slope, sl_err = math.nan, math.nan
    return SlopeEstimate(slope, sl_err, tuple(per_n))


def estimate_slope(per_n, min_points: int = 3, max_rel_stderr: float = 0.2) -> SlopeEstimate:
    """Weighted least-squares slope of -ln(prob) against n.

    The intercept absorbs subexponential prefactors; weights follow the
    delta-method variance of ln(prob).  Entries with zero probability or
    relative stderr above ``max_rel_stderr`` are discarded.
    """
    rows = []
    for entry in per_n:
        n = float(entry["n"])
        prob = float(entry["prob_estimate"])
        rel = float(entry["rel_stderr"])
        if prob > 0 and rel < max_rel_stderr:
            rows.append((n, -math.log(prob), rel))
    if len(rows) < min_points:
        raise InsufficientData(
            f"need {min_points} usable points, got {len(rows)}"
        )
    ns = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    weights = 1.0 / (np.array([r[2] for r in rows]) ** 2 + 1e-24)
    sw = weights.sum()
    nbar = float(np.dot(weights, ns)) / sw
    ybar = float(np.dot(weights, ys)) / sw
    sxx = float(np.dot(weights, (ns - nbar) ** 2))
    if sxx <= 0:
        raise InsufficientData("degenerate abscissae")
    slope = float(np.dot(weights, (ns - nbar) * (ys - ybar))) / sxx
    stderr = math.sqrt(1.0 / sxx)
    kept = tuple(
        {"n": int(n), "prob_estimate": math.exp(-y), "rel_stderr": r}
        for n, y, r in rows
    )
    return SlopeEstimate(slope, stderr, kept)
