"""The Gaussian-tail special functions corrdet needs, in numpy and ``math``.

=============  =========================================================
function       method
=============  =========================================================
erf, erfcx     W. J. Cody, Math. Comp. 23 (1969), rational approximations
               on |x| <= 1/2 (erf), 1/2 < |x| <= 4 and |x| > 4 (erfcx);
               coefficients as in his CALERF
log_ndtr       ln Phi from one erfcx, t = x / sqrt 2: ln(erfcx(-t) / 2) - t^2
               for x < 0, log1p(-erfcx(t) e^{-t^2} / 2) else
ndtri          M. J. Wichura, Appl. Statist. 37 (1988), AS241 (PPND16)
ndtr           0.5 erfc(-x / sqrt 2) by ``math.erfc``, for scalars
gammaln_table  ``math.lgamma`` at the integers
=============  =========================================================

Each element's value depends on that element alone, in the same
operations whatever array it sits in: the range that holds most
arguments is evaluated by Horner's rule on every element, and each other
range on its own elements alone.  So no result depends on the size of
the array or on its other elements, and no range meets an argument
outside it.  e^{+-x^2} is taken as e^{+-xs^2} e^{+-(x - xs)(x + xs)}
with xs = x rounded towards 0 to a multiple of 1/16, whose square is
exact, so the rounding of x^2 does not enter the exponent.  log_ndtr
does not split: it rounds t^2 as scipy's log_ndtr does, so the two agree
to 1e-15 where both lose up to 2.3e-13 (x near 37, where ln Phi is
about -1e-300) to that rounding.  Arrays give arrays; scalars and 0-d
arrays give numpy scalars.
"""

from __future__ import annotations

import math

import numpy as np

_RSQRTPI = 1.0 / math.sqrt(math.pi)
_SQRT1_2 = math.sqrt(0.5)


def _horner(coef, t):
    """numerator / denominator at the array t, from a pair of coefficient
    tuples of one length, highest power first.  The two polynomials run
    apart with scalar coefficients, so that each pass is over one array of
    t's size: passes over stacked (2, n) arrays took twice as long."""
    num, den = coef
    p = num[0] * t + num[1]
    q = den[0] * t + den[1]
    for a, b in zip(num[2:], den[2:]):
        p *= t
        p += a
        q *= t
        q += b
    return p / q


# Cody's erf in y^2 (y <= 1/2), erfcx in y (1/2 < y <= 4) and erfcx in
# 1/y^2 (y > 4)
_CODY_LOW = (
    (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
     3.77485237685302021e2, 3.20937758913846947e3),
    (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
     2.84423683343917062e3),
)
_CODY_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
     6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
     1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
    (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
     1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
     3.43936767414372164e3, 1.23033935480374942e3),
)
_CODY_HIGH = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)


def _cody(y):
    """erf(y) where y <= 1/2 (0 elsewhere) and erfcx(y), for y >= 0.

    The middle range, which holds most arguments, is evaluated on every
    element (at min(y, 4)), the other two ranges on their own elements
    alone: erf(y) = y q(y^2) up to 1/2, and erfcx(y) = (1/sqrt(pi) -
    t q(t)) / y, t = 1/y^2, past 4.
    """
    flat = np.ravel(y)
    e = _horner(_CODY_MID, np.minimum(flat, 4.0))
    erf_low = np.zeros_like(e)
    low = np.flatnonzero(flat <= 0.5)
    if low.size:
        yl = flat[low]
        erf_low[low] = yl * _horner(_CODY_LOW, yl * yl)
        e[low] = np.exp(yl * yl) * (1.0 - erf_low[low])
    high = np.flatnonzero(flat > 4.0)
    if high.size:
        yh = flat[high]
        th = (1.0 / yh) ** 2
        e[high] = (_RSQRTPI - th * _horner(_CODY_HIGH, th)) / yh
    return erf_low.reshape(np.shape(y)), e.reshape(np.shape(y))


def _exp_sq(x, c):
    """e^{c x^2} for c = +-1, with x^2 split as in the module
    docstring."""
    xs = np.trunc(16.0 * x) / 16.0
    return np.exp(c * xs * xs) * np.exp(c * (x - xs) * (x + xs))


def _erfcx_abs(x):
    """erfcx(|x|), finite for every finite x."""
    return _cody(np.abs(x))[1]


def _scalar(out):
    return out[()] if out.ndim == 0 else out


def erfcx(x):
    """e^{x^2} erfc(x); +inf where x < -26.6, below which it overflows
    (e^{x^2} is taken at -27 past -27)."""
    x = np.asarray(x, dtype=float)
    e = _erfcx_abs(x)
    neg = x < 0.0
    if neg.any():
        with np.errstate(over="ignore"):
            e = np.where(neg, 2.0 * _exp_sq(np.clip(x, -27.0, 0.0), 1.0) - e, e)
    return _scalar(e)


def erf(x):
    """erf(x); past |x| = 6 it rounds to +-1, so e^{-x^2} is taken there
    at 6."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    erf_low, e = _cody(y)
    big = (0.5 - _exp_sq(np.minimum(y, 6.0), -1.0) * e) + 0.5
    return _scalar(np.copysign(np.where(y <= 0.5, erf_low, big), x))


def log_ndtr(x):
    """ln Phi(x), to relative accuracy for x >> 0 as well.  Where |x| is
    past about 1.9e154, t^2 overflows and erfcx(|t|) reaches 0, which
    give the limits -inf and 0 without a warning."""
    x = np.asarray(x, dtype=float)
    t = _SQRT1_2 * x
    e = _erfcx_abs(t)
    with np.errstate(over="ignore", divide="ignore"):
        tt = t * t
        return _scalar(np.where(x < 0.0, np.log(0.5 * e) - tt, np.log1p(-0.5 * e * np.exp(-tt))))


def ndtr(x: float) -> float:
    """Phi(x) for a scalar x."""
    return 0.5 * math.erfc(-x * _SQRT1_2)


# Wichura's AS241: the central range |q| <= 0.425 in 0.180625 - q^2,
# q = p - 1/2, and the tail ranges r <= 5 and r > 5 in r - 1.6 and r - 5,
# with r = sqrt(-ln min(p, 1 - p))
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def ndtri(p):
    """Phi^{-1}(p) for p in (0, 1).

    The central range, which holds 85% of uniform draws, is evaluated on
    every element, the range r <= 5 on the other 15% and r > 5 on its own
    elements alone."""
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    q = flat - 0.5
    out = q * _horner(_AS241_CENTRAL, 0.180625 - q * q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    pt = flat[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    val = _horner(_AS241_NEAR, r - 1.6)
    far = np.flatnonzero(r > 5.0)
    if far.size:
        val[far] = _horner(_AS241_FAR, r[far] - 5.0)
    out[tail] = np.copysign(val, q[tail])
    return _scalar(out.reshape(p.shape))


def gammaln_table(top: int) -> np.ndarray:
    """ln Gamma(k) at k = 0, 1, ..., top, with ln Gamma(0) = +inf."""
    return np.array([math.inf] + [math.lgamma(k) for k in range(1, top + 1)])
