"""Noise models for the non-Gaussian interference component.

Each model class carries everything the rest of the package needs to
know about its law: the closed-form cumulant generating function C(v)
(``c``), its first and second derivatives (``cdot``, ``cddot``), the
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
e^{-|x|}.  The functions below are model-agnostic and accept scalars or
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Union

import numpy as np

LN2 = math.log(2.0)

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
    # |x| + log((1 + e^{-2|x|}) / 2): overflow-free for any x.
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - LN2


def _log_sinh_over_x(x: np.ndarray) -> np.ndarray:
    # log(sinh(x)/x), even in x, with the removable singularity at 0.
    ax = np.abs(x)
    small = ax < 1e-4
    xs = np.where(small, 1.0, ax)
    big = xs + np.log1p(-np.exp(-2.0 * xs)) - LN2 - np.log(xs)
    x2 = ax * ax
    series = x2 / 6.0 - x2 * x2 / 180.0
    return np.where(small, series, big)


@dataclass(frozen=True)
class Gaussian:
    """Zero-mean Gaussian interference with variance ``var_z``."""

    var_z: float

    config_name = "gaussian"
    kernel_id = 0
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

    def mgf(self, w):
        return np.exp(0.5 * self.var_z * w * w)


@dataclass(frozen=True)
class Laplacian:
    """Two-sided exponential with rate ``q``: density (q/2) exp(-q|z|)."""

    q: float

    config_name = "laplacian"
    kernel_id = 1

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

    def mgf(self, w):
        return 1.0 / (1.0 - (w / self.q) ** 2)


@dataclass(frozen=True)
class BinarySymmetric:
    """Equiprobable two-point interference on {-z0, +z0}."""

    z0: float

    config_name = "binary_symmetric"
    kernel_id = 2
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

    def mgf(self, w):
        return np.cosh(self.z0 * w)


@dataclass(frozen=True)
class Uniform:
    """Uniform interference on [-z0, +z0]."""

    z0: float

    config_name = "uniform"
    kernel_id = 3
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

    Used by the extended-detector transforms, where the characteristic
    direction enters as an imaginary offset of the exponential tilt.
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
