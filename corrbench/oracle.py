"""Reference computations for checking corrdet's outputs.

Nothing here imports corrdet.  Noise models are the JSON config dicts
the CLI reads ({"type": "laplacian", "q": 2.0}, ...), every cumulant
generating function is written out again from its definition, suprema
over the tilt use scipy's bounded Brent search instead of corrdet's
golden-section helpers, and the extended-detector transforms are direct
expectations over Z (closed form over the Gaussian noise N, enumeration
or quadrature over Z) rather than corrdet's Fourier-side integrals.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, log_ndtr, ndtr

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# cumulant generating functions of the interference Z
# ---------------------------------------------------------------------------

def pole(model: dict) -> float:
    """Half-width of the open interval on which C(v) is finite."""
    if model["type"] in ("laplacian", "mixture_binary_laplace"):
        return float(model["q"])
    return math.inf


def _log_cosh(x):
    return np.logaddexp(x, -x) - LN2


def _log_sinhc(x):
    # log(sinh(x)/x) for x >= 0, with the Taylor series near 0
    x = np.abs(np.asarray(x, dtype=float))
    small = x < 1e-3
    xs = np.where(small, 1.0, x)
    big = xs + np.log(-np.expm1(-2.0 * xs)) - LN2 - np.log(xs)
    return np.where(small, x * x / 6.0 - x ** 4 / 180.0, big)


def cgf(model: dict, v):
    """C(v) = ln E exp(vZ)."""
    v = np.asarray(v, dtype=float)
    kind = model["type"]
    if kind == "gaussian":
        return 0.5 * model["var_z"] * v * v
    if kind == "laplacian":
        return -np.log1p(-(v / model["q"]) ** 2)
    if kind == "binary_symmetric":
        return _log_cosh(model["z0"] * v)
    if kind == "uniform":
        return _log_sinhc(model["z0"] * v)
    if kind == "mixture_binary_laplace":
        d = model["delta"]
        return np.logaddexp(
            math.log(d) + _log_cosh(model["z0"] * v),
            math.log1p(-d) - np.log1p(-(v / model["q"]) ** 2),
        )
    raise ValueError(f"unknown model {kind!r}")


def cgf_deriv(model: dict, v):
    """C'(v), the tilted mean of Z."""
    v = np.asarray(v, dtype=float)
    kind = model["type"]
    if kind == "gaussian":
        return model["var_z"] * v
    if kind == "laplacian":
        q = model["q"]
        return 2.0 * v / (q * q - v * v)
    if kind == "binary_symmetric":
        return model["z0"] * np.tanh(model["z0"] * v)
    if kind == "uniform":
        z0 = model["z0"]
        x = z0 * v
        small = np.abs(x) < 1e-3
        xs = np.where(small, 1.0, x)
        return np.where(small, z0 * (x / 3.0 - x ** 3 / 45.0), z0 * (1.0 / np.tanh(xs) - 1.0 / xs))
    if kind == "mixture_binary_laplace":
        # C' = M'/M with M = d cosh(z0 v) + (1-d)/(1-(v/q)^2); the binary
        # weight of the tilted law is d cosh(z0 v) / M
        d, z0, q = model["delta"], model["z0"], model["q"]
        w_bin = np.exp(math.log(d) + _log_cosh(z0 * v) - cgf(model, v))
        lap = np.exp(math.log1p(-d) - np.log1p(-(v / q) ** 2) - cgf(model, v))
        return w_bin * z0 * np.tanh(z0 * v) + lap * 2.0 * v / (q * q - v * v)
    raise ValueError(f"unknown model {kind!r}")


# ---------------------------------------------------------------------------
# suprema of concave functions of the tilt
# ---------------------------------------------------------------------------

def sup_concave(f, cap=math.inf):
    """(lam*, sup) of a concave f on [0, cap) with f(0) = 0.

    Brackets by doubling (for an infinite cap), then runs a bounded Brent
    search; the answer is never below f(0) = 0.
    """
    h = 1e-7 * min(1.0, cap)
    if not f(h) > 0.0:
        return 0.0, 0.0
    hi = cap * (1.0 - 1e-12) if cap < math.inf else 1.0
    if cap == math.inf:
        while f(2.0 * hi) > f(hi):
            hi *= 2.0
        hi *= 2.0
    res = minimize_scalar(
        lambda x: -f(x), bounds=(0.0, hi), method="bounded",
        options={"xatol": 1e-11 * hi, "maxiter": 500},
    )
    lam, val = float(res.x), float(-res.fun)
    # the bounded search never evaluates the bracket ends; the edge at
    # the cap is where a pole-limited supremum can sit
    if cap < math.inf and f(hi) > val:
        lam, val = hi, float(f(hi))
    return (lam, val) if val > 0.0 else (0.0, 0.0)


def grid_max(f, lam_hi, points=400):
    """Largest value of f on a grid over (0, lam_hi]."""
    lams = np.linspace(lam_hi / points, lam_hi, points)
    return max(float(f(x)) for x in lams)


# ---------------------------------------------------------------------------
# correlation detector: FA/MD exponents and miss probabilities
# ---------------------------------------------------------------------------

def fa_exponent(theta, p_w, var_n):
    return theta * theta / (2.0 * var_n * p_w)


def md_objective(model, w, s, p, lam, theta, var_n):
    """lam (E[WS] - theta) - E[C(lam W)] - lam^2 var_n E[W^2] / 2."""
    w, s, p = (np.asarray(a, dtype=float) for a in (w, s, p))
    e_ws = float(np.dot(p, w * s))
    e_w2 = float(np.dot(p, w * w))
    return lam * (e_ws - theta) - float(np.dot(p, cgf(model, lam * w))) - 0.5 * lam * lam * var_n * e_w2


def md_cap(model, w):
    """Largest tilt at which every C(lam w) is finite."""
    wmax = float(np.max(np.abs(w)))
    return pole(model) / wmax if wmax > 0 else math.inf


def md_exponent(model, w, s, p, theta, var_n):
    """(lam*, E_md) of the correlation detector for the atoms (w, s, p)."""
    return sup_concave(lambda lam: md_objective(model, w, s, p, lam, theta, var_n), md_cap(model, w))


def interference_free_exponent(e_s2, theta, p_w, var_n):
    """MD exponent of the matched correlator at full power with no
    interference, (sqrt(p_w E[S^2]) - theta)_+^2 / (2 var_n p_w): an upper
    bound on every design's exponent when Z is symmetric, as C >= 0 then."""
    gap = max(math.sqrt(p_w * e_s2) - theta, 0.0)
    return gap * gap / (2.0 * var_n * p_w)


def gaussian_design_exponent(e_s2, theta, p_w, var_n, var_z):
    """Optimal-design MD exponent for Gaussian interference: the matched
    correlator at full power, (sqrt(p_w E[S^2]) - theta)_+^2 / (2 (var_z+var_n) p_w)."""
    return interference_free_exponent(e_s2, theta, p_w, var_z + var_n)


def miss_probability_gaussian(w, s, theta, var_n, var_z):
    """P(sum w (s + Z + N) <= theta n) for Gaussian Z, exactly."""
    w, s = np.asarray(w, float), np.asarray(s, float)
    n = w.size
    sd = math.sqrt((var_n + var_z) * float(np.dot(w, w)))
    return float(ndtr((theta * n - float(np.dot(w, s))) / sd))


def miss_probability_binary(w0, s, theta, var_n, z0, n):
    """P(sum w0 (s + Z + N) <= theta n) for the constant weight w0 > 0 and
    binary Z = +-z0: a binomial sum over the number of +z0 draws."""
    s = np.asarray(s, float)
    slack = (theta * n - w0 * float(np.sum(s))) / w0
    k = np.arange(n + 1)
    log_pk = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * LN2
    z_sum = z0 * (2.0 * k - n)
    return float(np.sum(np.exp(log_pk) * ndtr((slack - z_sum) / math.sqrt(var_n * n))))


def chernoff_log_bound(model, w, s, theta, var_n):
    """ln of min_lam E exp(-lam (sum w X - thresh)): a bound on the miss
    probability for any symmetric Z, with X = Z + N and thresh = theta n - w.s."""
    w, s = np.asarray(w, float), np.asarray(s, float)
    thresh = theta * w.size - float(np.dot(w, s))

    def g(lam):
        return -lam * thresh - float(np.sum(cgf(model, lam * w))) - 0.5 * lam * lam * var_n * float(np.dot(w, w))

    _, val = sup_concave(g, md_cap(model, w))
    return -val


# ---------------------------------------------------------------------------
# extended detectors: direct expectations over Z
# ---------------------------------------------------------------------------

def _log_expect_z(model, log_inner, kinks=(), decay=None, quad_span=None):
    """ln E[exp(log_inner(Z))] by enumeration, closed form or quadrature.

    ``decay`` is a lower bound on how fast log_inner(z) - q|z| falls
    along each half-line (Laplace part); ``quad_span`` caps the range.
    """
    kind = model["type"]
    if kind == "binary_symmetric":
        z0 = model["z0"]
        return float(np.logaddexp(log_inner(z0), log_inner(-z0))) - LN2
    if kind == "uniform":
        z0 = model["z0"]
        return _log_quad(log_inner, -z0, z0, kinks) - math.log(2.0 * z0)
    if kind == "laplacian":
        return _log_laplace(model["q"], log_inner, kinks, decay, quad_span)
    if kind == "mixture_binary_laplace":
        d = model["delta"]
        b = _log_expect_z({"type": "binary_symmetric", "z0": model["z0"]}, log_inner)
        lap = _log_laplace(model["q"], log_inner, kinks, decay, quad_span)
        return float(np.logaddexp(math.log(d) + b, math.log1p(-d) + lap))
    raise ValueError(f"no quadrature for model {kind!r}")


def _log_quad(log_f, a, b, points):
    points = sorted({x for x in points if a < x < b})
    zs = np.concatenate([np.linspace(a, b, 801), points])
    shift = max(float(log_f(z)) for z in zs)
    with warnings.catch_warnings():
        # roundoff warnings near the requested 1e-12 are harmless here
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda z: math.exp(float(log_f(z)) - shift), a, b,
            points=points or None, epsabs=0.0, epsrel=1e-12, limit=400,
        )
    return math.log(val) + shift


def _log_laplace(q, log_inner, kinks, decay, span):
    rate = q if decay is None else decay
    half = span + 60.0 / rate
    # breakpoints on the density's own scale 1/q, so a narrow peak at 0
    # is not lost inside a wide interval
    scale = [sign * k / q for k in (1.0, 5.0, 20.0) for sign in (-1.0, 1.0)]
    return _log_quad(
        lambda z: math.log(0.5 * q) - q * abs(z) + log_inner(z), -half, half,
        [0.0, *kinks, *scale],
    )


def _log_gauss_energy(a, c, m, var):
    """ln E exp(a x - c x^2) for x ~ N(m, var), c >= 0."""
    d = 1.0 + 2.0 * c * var
    return (a * m - c * m * m + 0.5 * a * a * var) / d - 0.5 * math.log(d)


def _log_gauss_abs(b, a, m, var):
    """ln E exp(b y - a |y|) for y ~ N(m, var): two Gaussian tails."""
    sd = math.sqrt(var)
    up = (b - a) * m + 0.5 * (b - a) ** 2 * var + float(log_ndtr((m + (b - a) * var) / sd))
    dn = (b + a) * m + 0.5 * (b + a) ** 2 * var + float(log_ndtr(-(m + (b + a) * var) / sd))
    return float(np.logaddexp(up, dn))


def energy_log_mgf(model, u, lam, alpha, var_n):
    """ln E exp(-lam u X - alpha lam X^2), X = Z + N."""
    a, c = -lam * u, alpha * lam
    if model["type"] == "gaussian":
        return _log_gauss_energy(a, c, 0.0, model["var_z"] + var_n)
    d = 1.0 + 2.0 * c * var_n
    peak = a / (2.0 * c)  # vertex of the Gaussian factor in z
    span = abs(peak) + math.sqrt(80.0 * d / c)
    return _log_expect_z(
        model, lambda z: _log_gauss_energy(a, c, z, var_n), kinks=(peak,), quad_span=span
    )


def abs_log_mgf(model, w, s, lam, alpha, var_n):
    """ln E exp(-lam w X - alpha lam |s + X|), X = Z + N."""
    b, a = -lam * w, alpha * lam
    if model["type"] == "gaussian":
        return lam * w * s + _log_gauss_abs(b, a, s, model["var_z"] + var_n)
    # the Laplace-weighted integrand falls like exp(-(q - |b| + a)|z|)
    # along the slower half-line; this is > 0 inside extended_md_cap
    q = pole(model)
    decay = q - abs(b) + a if q < math.inf else None
    span = abs(s) + 12.0 * math.sqrt(var_n) + abs(b + a) * var_n + abs(b - a) * var_n
    return lam * w * s + _log_expect_z(
        model, lambda z: _log_gauss_abs(b, a, s + z, var_n), kinks=(-s,), decay=decay, quad_span=span
    )


def energy_md_objective(model, w, s, p, lam, alpha, theta, var_n):
    w, s, p = (np.asarray(x, dtype=float) for x in (w, s, p))
    if lam == 0.0:
        return 0.0
    u = w + 2.0 * alpha * s
    drift = float(np.dot(p, w * s)) + alpha * float(np.dot(p, s * s)) - theta
    return lam * drift - sum(pi * energy_log_mgf(model, ui, lam, alpha, var_n) for pi, ui in zip(p, u))


def abs_md_objective(model, w, s, p, lam, alpha, theta, var_n):
    w, s, p = (np.asarray(x, dtype=float) for x in (w, s, p))
    if lam == 0.0:
        return 0.0
    drift = float(np.dot(p, w * s)) - theta
    return lam * drift - sum(
        pi * abs_log_mgf(model, wi, si, lam, alpha, var_n) for pi, wi, si in zip(p, w, s)
    )


def extended_md_cap(model, kind, w, alpha):
    """Largest tilt at which the extended MD objective is finite."""
    q = pole(model)
    if q == math.inf or kind == "energy":
        return math.inf  # the X^2 term keeps every Laplace integral finite
    reach = float(np.max(np.abs(w))) - alpha
    return q / reach if reach > 0 else math.inf


def extended_md_exponent(model, kind, w, s, p, alpha, theta, var_n):
    obj = energy_md_objective if kind == "energy" else abs_md_objective
    return sup_concave(
        lambda lam: obj(model, w, s, p, lam, alpha, theta, var_n),
        extended_md_cap(model, kind, w, alpha),
    )


def energy_fa_exponent(theta, p_w, var_n, alpha):
    """FA exponent of sum w N + alpha sum N^2 against theta n."""
    cap = 1.0 / (2.0 * alpha * var_n)

    def f(lam):
        d = 1.0 - 2.0 * alpha * lam * var_n
        return lam * theta - 0.5 * lam * lam * var_n * p_w / d + 0.5 * math.log(d)

    return sup_concave(f, cap)


def abs_fa_exponent(theta, w, p, var_n, alpha):
    """FA exponent of sum w N + alpha sum |N| against theta n."""
    w, p = np.asarray(w, float), np.asarray(p, float)

    def f(lam):
        return lam * theta - sum(
            pi * _log_gauss_abs(lam * wi, -lam * alpha, 0.0, var_n) for pi, wi in zip(p, w)
        )

    return sup_concave(f)
