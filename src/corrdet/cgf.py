"""Noise models for the non-Gaussian interference component.

Each model class carries everything the rest of the package needs to
know about its law: the closed-form cumulant generating function C(v)
(``c``), its first and second derivatives (``cdot``, ``cddot``), the two
expectations the extended detectors need (``log_mgf_quad``,
``log_mgf_ndtr``; their closed forms are tabled in ``extended``), the
complex-argument MGF (``mgf``), the half-width ``radius`` of the open
interval on which C is finite, its config name, and the id of its Monte
Carlo sampler.  The laws with an entire CGF also give an ``amplitude``
of Z that sizes w ranges where no pole does.  The closed forms, with
x = z0*v where the law has a z0:

==============  ========================  ==========================================
law             C(v)                      C''(v)
==============  ========================  ==========================================
Gaussian        var_z v^2 / 2             var_z
Laplacian       -ln(1 - v^2/q^2)          2 (q^2 + v^2) / (q^2 - v^2)^2
binary          ln cosh x                 z0^2 sech^2 x
uniform         ln(sinh x / x)            z0^2 (1/x^2 - csch^2 x)
mixture         ln M, M = delta cosh x    M''/M - (M'/M)^2
                + (1-delta)/(1-v^2/q^2)
==============  ========================  ==========================================

Every form is evaluated without overflow for any v in the domain: the
hyperbolic ones through e^{-2|x|}, the mixture with both parts scaled by
e^{-|x|}.

Each law also declares ``h_shape``, the curvature of H(x) = C(sqrt(x))
that the joint design's envelope follows.  H'(x) = Cdot(v) / 2v at
v = sqrt(x), and v grows with x, so H is concave exactly where Cdot(v)/v
is non-increasing in v > 0 and convex where it is non-decreasing:

==============  ==================================  ===========================
law             Cdot(v) / v                         H (``h_shape``)
==============  ==================================  ===========================
Gaussian        var_z                               linear ("convex")
Laplacian       2 / (q^2 - v^2), increasing         convex
binary          z0^2 tanh(x) / x, decreasing        concave
uniform         z0^2 L(x) / x, decreasing           concave
mixture         neither in general                  None: tested numerically
==============  ==================================  ===========================

Here L(x) = coth x - 1/x is the Langevin function.  tanh and L are
concave on x > 0 and vanish at 0, so their chord slopes tanh(x)/x and
L(x)/x from the origin decrease.  The functions below are model-agnostic
and accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Union

import numpy as np
from scipy.special import erf, erfcx, log_ndtr

LN2 = math.log(2.0)
LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
LN_SQRT_HALF_PI = 0.5 * math.log(0.5 * math.pi)
SQRT2 = math.sqrt(2.0)

# Relative margin kept away from a finite CGF pole.  Evaluation closer
# than this is rejected so that optimizers see a clean feasibility edge
# instead of huge finite values.
POLE_MARGIN = 1e-9

# Relative shrink of the largest tilt below the pole, so that objectives
# are evaluated strictly inside the feasible slab.
TILT_SHRINK = 1.0 - 1e-12


class DomainError(ValueError):
    """Evaluation point outside (or too close to the edge of) the CGF domain."""


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # |x| + log((1 + e^{-2|x|}) / 2): overflow-free for any x, but it
    # cancels below |x| = 1, where cosh x = 1 + 2 sinh^2(x/2) does not
    ax = np.abs(x)
    sh = np.sinh(0.5 * np.minimum(ax, 1.0))
    return np.where(ax < 1.0, np.log1p(2.0 * sh * sh), ax + np.log1p(np.exp(-2.0 * ax)) - LN2)


def _log_sinh_over_x(x: np.ndarray) -> np.ndarray:
    # log(sinh(x)/x), even in x, with the removable singularity at 0.
    ax = np.abs(x)
    small = ax < 1e-4
    xs = np.where(small, 1.0, ax)
    big = xs + np.log1p(-np.exp(-2.0 * xs)) - LN2 - np.log(xs)
    x2 = ax * ax
    series = x2 / 6.0 - x2 * x2 / 180.0
    return np.where(small, series, big)


def _log_erfc_min(x):
    # ln erfcx(x) - min(x, 0)^2, which is ln erfc(x) below 0 where erfcx overflows
    neg = x < 0.0
    return np.where(neg, LN2 + log_ndtr(-SQRT2 * x), np.log(erfcx(np.where(neg, 0.0, x))))


def _log_erfcx(x):
    m = np.minimum(x, 0.0)
    return _log_erfc_min(x) + m * m


def _log_npdf(x):
    return -0.5 * x * x - LN_SQRT_2PI


def _log_mills(u):
    # Mills ratio R(u) = (1 - Phi(u)) / phi(u) = sqrt(pi/2) erfcx(u / sqrt(2))
    return LN_SQRT_HALF_PI + _log_erfcx(u / SQRT2)


# 1 - u R(u) ~ sum_n (-1)^{n+1} (2n-1)!! / u^{2n}; past u = 30 the next term is < 5e-15
_SLOPE_SERIES = (1.0, -3.0, 15.0, -105.0, 945.0, -10395.0, 135135.0)


def _log_neg_mills_slope(u):
    # ln(-R'(u)) = ln(1 - u R(u)); the product cancels for large u, where
    # the asymptotic series takes over
    neg, big = u < 0.0, u > 30.0
    left = np.logaddexp(0.0, np.log(np.where(neg, -u, 1.0)) + _log_mills(np.minimum(u, 0.0)))
    mid = np.clip(u, 0.0, 30.0)
    centre = np.log1p(-mid * math.exp(LN_SQRT_HALF_PI) * erfcx(mid / SQRT2))
    r = 1.0 / np.where(big, u, 30.0) ** 2
    tail = 0.0
    for coef in reversed(_SLOPE_SERIES):
        tail = (tail + coef) * r
    return np.where(neg, left, np.where(big, np.log(tail), centre))


def _log_mills_ddiff(y, h):
    """ln[(R(y) - R(y + h)) / h] for the Mills ratio R, any real y and h.

    R is decreasing, so the divided difference is positive; at h = 0 it
    is -R'(y).  Where ln R(y) - ln R(y + h) < 1e-5 the difference would
    cancel, and the midpoint slope -R'(y + h/2) replaces it; both are
    good to about 5e-11 relative at the switch.
    """
    y = np.where(h < 0.0, y + h, y)
    h = np.abs(h)
    x0, x1 = y / SQRT2, (y + h) / SQRT2
    # min(x1, 0) - min(x0, 0), from h rather than the rounded y + h
    m0, step = np.minimum(x0, 0.0), np.minimum(h, np.maximum(-y, 0.0)) / SQRT2
    gap = _log_erfc_min(x0) - _log_erfc_min(x1) - step * (2.0 * m0 + step)
    wide = gap > 1e-5
    diff = (
        _log_mills(y)
        + np.log(-np.expm1(-np.where(wide, gap, 1.0)))
        - np.log(np.where(wide, h, 1.0))
    )
    return np.where(wide, diff, _log_neg_mills_slope(y + 0.5 * h))


def _log_half_line_ndtr(k, c, d):
    """ln of the integral over t > 0 of e^{-k t} Phi(c t + d), for c != 0.

    Falling Phi (c < 0) is finite for every k: phi(d) D(-d, k/|c|) / |c|,
    D the Mills divided difference.  Rising Phi (c > 0) needs k > 0:
    [Phi(d) + phi(d) R(d + k/c)] / k; it is +inf for k <= 0.
    """
    g = np.abs(c)
    kap = k / g
    rising = c > 0.0
    ok = kap > 0.0
    kp = np.where(ok, kap, 1.0)
    up = np.logaddexp(log_ndtr(d), _log_npdf(d) + _log_mills(d + kp)) - np.log(kp)
    up = np.where(ok, up, math.inf)
    down = _log_npdf(d) + _log_mills_ddiff(-d, kap)
    return np.where(rising, up, down) - np.log(g)


def _log_diff_exp(a, b):
    # ln(e^a - e^b) for a > b
    return a + np.log(-np.expm1(b - a))


@dataclass(frozen=True)
class Gaussian:
    """Zero-mean Gaussian interference with variance ``var_z``."""

    var_z: float

    config_name = "gaussian"
    kernel_id = 0
    h_shape = "convex"  # H is linear, which counts as convex
    radius = math.inf

    def __post_init__(self):
        if not self.var_z > 0:
            raise ValueError("var_z must be > 0")

    @property
    def amplitude(self):
        return math.sqrt(self.var_z)

    def c(self, v):
        return 0.5 * self.var_z * v * v

    def cdot(self, v):
        return self.var_z * v

    def cddot(self, v):
        return np.full(np.shape(v), float(self.var_z))

    def log_mgf_quad(self, a, b):
        d = 1.0 + 2.0 * b * self.var_z
        return 0.5 * a * a * self.var_z / d - 0.5 * np.log(d)

    def log_mgf_ndtr(self, a, c, d):
        s2 = self.var_z
        return 0.5 * a * a * s2 + log_ndtr((d + a * c * s2) / np.sqrt(1.0 + c * c * s2))

    def mgf(self, w):
        return np.exp(0.5 * self.var_z * w * w)


@dataclass(frozen=True)
class Laplacian:
    """Two-sided exponential with rate ``q``: density (q/2) exp(-q|z|)."""

    q: float

    config_name = "laplacian"
    kernel_id = 1
    h_shape = "convex"

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError("q must be > 0")

    @property
    def radius(self):
        return self.q

    def c(self, v):
        return -np.log1p(-(v / self.q) ** 2)

    def cdot(self, v):
        return 2.0 * v / (self.q ** 2 - v * v)

    def cddot(self, v):
        v2 = v * v
        return 2.0 * (self.q ** 2 + v2) / (self.q ** 2 - v2) ** 2

    def log_mgf_quad(self, a, b):
        q, r = self.q, 2.0 * np.sqrt(b)
        half_lines = np.logaddexp(_log_erfcx((q - a) / r), _log_erfcx((q + a) / r))
        return np.log(0.5 * q * math.sqrt(math.pi) / r) + half_lines

    def log_mgf_ndtr(self, a, c, d):
        a, c, d = np.broadcast_arrays(a, c, d)
        pos, neg = _log_half_line_ndtr(self.q - np.stack([a, -a]), np.stack([c, -c]), d)
        return math.log(0.5 * self.q) + np.logaddexp(pos, neg)

    def mgf(self, w):
        return 1.0 / (1.0 - (w / self.q) ** 2)


@dataclass(frozen=True)
class BinarySymmetric:
    """Equiprobable two-point interference on {-z0, +z0}."""

    z0: float

    config_name = "binary_symmetric"
    kernel_id = 2
    h_shape = "concave"
    radius = math.inf

    def __post_init__(self):
        if not self.z0 > 0:
            raise ValueError("z0 must be > 0")

    @property
    def amplitude(self):
        return self.z0

    def c(self, v):
        return _log_cosh(self.z0 * v)

    def cdot(self, v):
        return self.z0 * np.tanh(self.z0 * v)

    def cddot(self, v):
        # z0^2 sech^2(x) = 4 z0^2 e^{-2|x|} / (1 + e^{-2|x|})^2
        e = np.exp(-2.0 * np.abs(self.z0 * v))
        return 4.0 * self.z0 ** 2 * e / (1.0 + e) ** 2

    def log_mgf_quad(self, a, b):
        return _log_cosh(a * self.z0) - b * self.z0 ** 2

    def log_mgf_ndtr(self, a, c, d):
        x, y = a * self.z0, c * self.z0
        return np.logaddexp(x + log_ndtr(d + y), -x + log_ndtr(d - y)) - LN2

    def mgf(self, w):
        return np.cosh(self.z0 * w)


@dataclass(frozen=True)
class Uniform:
    """Uniform interference on [-z0, +z0]."""

    z0: float

    config_name = "uniform"
    kernel_id = 3
    h_shape = "concave"
    radius = math.inf

    def __post_init__(self):
        if not self.z0 > 0:
            raise ValueError("z0 must be > 0")

    @property
    def amplitude(self):
        return self.z0

    def c(self, v):
        return _log_sinh_over_x(self.z0 * v)

    def cdot(self, v):
        # z0*coth(z0 v) - 1/v, with the odd series z0^2 v/3 - z0^4 v^3/45 near 0.
        z0 = self.z0
        x = z0 * v
        small = np.abs(x) < 1e-4
        xs = np.where(small, 1.0, x)
        big = z0 / np.tanh(xs) - 1.0 / np.where(small, 1.0, v)
        series = z0 * (x / 3.0 - x ** 3 / 45.0)
        return np.where(small, series, big)

    def cddot(self, v):
        # z0^2 (1/x^2 - csch^2 x), csch^2 x = 4 e^{-2|x|} / (1 - e^{-2|x|})^2,
        # with the even series 1/3 - x^2/15 + 2x^4/189 where it cancels
        ax = np.abs(self.z0 * v)
        small = ax < 1e-2
        xs = np.where(small, 1.0, ax)
        e = np.exp(-2.0 * xs)
        big = (1.0 / xs) ** 2 - 4.0 * e / np.expm1(-2.0 * xs) ** 2
        x2 = np.where(small, ax, 0.0) ** 2
        series = 1.0 / 3.0 - x2 / 15.0 + 2.0 * x2 * x2 / 189.0
        return self.z0 ** 2 * np.where(small, series, big)

    def log_mgf_quad(self, a, b):
        # the Gaussian e^{az - bz^2}, even in a, peaks at a/2b; x1 and x0 are
        # the scaled distances from that peak to +z0 and -z0
        z0, a = self.z0, np.abs(a)
        r = 2.0 * np.sqrt(b)
        x1, x0 = (a - 2.0 * b * z0) / r, (a + 2.0 * b * z0) / r
        base = 0.5 * np.log(math.pi / b) - math.log(4.0 * z0)
        far = x1 > 1.0
        an = np.where(far, 0.0, a)
        erf_gap = erf(np.where(far, 1.0, x0)) - erf(np.where(far, 0.0, x1))
        near = an * an / (r * r) + np.log(erf_gap)
        tail = a * z0 - b * z0 * z0 + _log_diff_exp(
            _log_erfcx(np.where(far, x1, 2.0)), -2.0 * a * z0 + _log_erfcx(np.where(far, x0, 3.0))
        )
        return base + np.where(far, tail, near)

    def log_mgf_ndtr(self, a, c, d):
        # the integral over [-z0, z0] is F(z0) - F(-z0) with F integrating up
        # from -inf, or G(-z0) - G(z0) with G down from +inf; subtract the
        # smaller outer part
        z0 = self.z0
        a, c, d = np.broadcast_arrays(a, c, d)
        up, lo = c * z0 + d, d - c * z0
        # F(z0), F(-z0), G(-z0), G(z0) in one call
        f1, f0, g0, g1 = np.stack([a, -a, -a, a]) * z0 + _log_half_line_ndtr(
            np.stack([a, a, -a, -a]), np.stack([-c, -c, c, c]), np.stack([up, lo, lo, up])
        )
        use_f = f0 <= g1
        inner = _log_diff_exp(np.where(use_f, f1, g0), np.where(use_f, f0, g1))
        return inner - math.log(2.0 * z0)

    def mgf(self, w):
        x = self.z0 * w
        tiny = np.abs(x) < 1e-8
        xs = np.where(tiny, 1.0, x)
        return np.where(tiny, 1.0 + x * x / 6.0, np.sinh(xs) / xs)


@dataclass(frozen=True)
class MixtureBinaryLaplace:
    """Mixture of the two-point and Laplacian densities.

    Weight ``delta`` on the binary component must lie strictly inside
    (0, 1); the degenerate endpoints reduce to the pure models.
    """

    delta: float
    z0: float
    q: float

    config_name = "mixture_binary_laplace"
    kernel_id = 4
    h_shape = None  # mixed in general; see classify_curvature

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.z0 > 0:
            raise ValueError("z0 must be > 0")
        if not self.q > 0:
            raise ValueError("q must be > 0")

    @property
    def radius(self):
        return self.q

    def _parts(self, v):
        # Both parts scaled by e^{-|x|} so the binary term never overflows.
        x = self.z0 * v
        ax = np.abs(x)
        em = np.exp(-ax)
        em2 = np.exp(-2.0 * ax)
        lap = 1.0 / (1.0 - (v / self.q) ** 2)
        den = self.delta * 0.5 * (1.0 + em2) + (1.0 - self.delta) * lap * em
        return x, ax, em, em2, den

    def c(self, v):
        _, ax, _, _, den = self._parts(v)
        return ax + np.log(den)

    def cdot(self, v):
        x, _, em, em2, den = self._parts(v)
        q2 = self.q ** 2
        lap_d = 2.0 * v * q2 / (q2 - v * v) ** 2
        num = self.delta * self.z0 * np.sign(x) * 0.5 * (1.0 - em2) + (
            1.0 - self.delta
        ) * lap_d * em
        return num / den

    def cddot(self, v):
        # M''/M - (M'/M)^2 for M = E e^{vZ}, M'' on the e^{-|x|}-scaled parts
        _, _, em, em2, den = self._parts(v)
        q2 = self.q ** 2
        lap_dd = 2.0 * q2 * (q2 + 3.0 * v * v) / (q2 - v * v) ** 3
        num = self.delta * self.z0 ** 2 * 0.5 * (1.0 + em2) + (
            1.0 - self.delta
        ) * lap_dd * em
        return num / den - self.cdot(v) ** 2

    def _mix(self, binary, laplace):
        return np.logaddexp(math.log(self.delta) + binary, math.log1p(-self.delta) + laplace)

    def log_mgf_quad(self, a, b):
        return self._mix(
            BinarySymmetric(self.z0).log_mgf_quad(a, b), Laplacian(self.q).log_mgf_quad(a, b)
        )

    def log_mgf_ndtr(self, a, c, d):
        return self._mix(
            BinarySymmetric(self.z0).log_mgf_ndtr(a, c, d),
            Laplacian(self.q).log_mgf_ndtr(a, c, d),
        )

    def mgf(self, w):
        return self.delta * np.cosh(self.z0 * w) + (1.0 - self.delta) / (
            1.0 - (w / self.q) ** 2
        )


NoiseModel = Union[Gaussian, Laplacian, BinarySymmetric, Uniform, MixtureBinaryLaplace]

_MODELS = (Gaussian, Laplacian, BinarySymmetric, Uniform, MixtureBinaryLaplace)


def cgf_domain(model: NoiseModel) -> tuple[float, float]:
    """Open interval of v on which C(v) is finite."""
    return (-model.radius, model.radius)


def _pole(model: NoiseModel) -> float:
    """Half-width of the usable domain (inf for entire-function CGFs)."""
    return model.radius * (1.0 - POLE_MARGIN)


def tilt_cap(model: NoiseModel, scale):
    """Largest tilt t with t*scale kept a relative 1e-12 inside the usable
    domain, for scale >= 0; inf where C is entire or scale is 0.

    Scalars give a float, arrays an array of the same shape.
    """
    s = np.asarray(scale, dtype=float)
    with np.errstate(divide="ignore"):
        cap = np.where(s == 0.0, math.inf, _pole(model) * TILT_SHRINK / s)
    return float(cap) if cap.ndim == 0 else cap


def _check_domain(model: NoiseModel, v: np.ndarray) -> None:
    edge = _pole(model)
    if edge < math.inf and np.any(np.abs(v) >= edge):
        raise DomainError(
            f"|v| must stay below {edge!r} (pole margin {POLE_MARGIN}) for {model!r}"
        )


def cgf_eval(model: NoiseModel, v):
    """C(v) = ln E exp(vZ), via the model's closed form."""
    arr = np.asarray(v, dtype=float)
    _check_domain(model, arr)
    out = model.c(arr)
    return float(out) if np.ndim(v) == 0 else out


def cgf_deriv(model: NoiseModel, v):
    """dC/dv in closed form (odd function; 0 at the origin)."""
    arr = np.asarray(v, dtype=float)
    _check_domain(model, arr)
    out = model.cdot(arr)
    return float(out) if np.ndim(v) == 0 else out


def mgf_complex(model: NoiseModel, w):
    """E exp(wZ) for complex w with |Re w| inside the CGF domain.

    No corrdet code calls it.  It stays, with each model's ``mgf``,
    because corrbench/tracer.py wraps this name without a default.
    """
    arr = np.asarray(w, dtype=complex)
    _check_domain(model, arr.real)
    out = model.mgf(arr)
    return complex(out) if np.ndim(w) == 0 else out


def kernel_args(model: NoiseModel) -> tuple:
    """Sampler id and its three parameters: the model's fields in
    declaration order, padded with zeros."""
    fields = [float(x) for x in astuple(model)]
    return (model.kernel_id, *fields, *[0.0] * (3 - len(fields)))


def model_from_config(cfg: dict) -> NoiseModel:
    """Build a model from a JSON-style dict, e.g. {"type": "gaussian", "var_z": 2.0}."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValueError("model config must be an object with a 'type' field")
    kind = cfg["type"]
    fields = {k: v for k, v in cfg.items() if k != "type"}
    for cls in _MODELS:
        if kind == cls.config_name:
            try:
                return cls(**fields)
            except TypeError as exc:
                raise ValueError(f"bad fields for model '{kind}': {exc}") from exc
    raise ValueError(f"unknown model type '{kind}'")


def model_to_config(model: NoiseModel) -> dict:
    cfg = {"type": model.config_name}
    for field in model.__dataclass_fields__:
        cfg[field] = getattr(model, field)
    return cfg
