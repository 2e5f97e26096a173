"""Small bracketed scalar/vector optimization helpers."""

from __future__ import annotations

import math

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT_EPS = math.sqrt(2.0 ** -52)


def golden_max(f, lo, hi, rel_tol=1e-12, max_iter=200):
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns (x, f(x), iterations).  Endpoint values are checked so the
    best point seen is returned even when the maximum sits on an edge.
    """
    a, b = float(lo), float(hi)
    if b <= a:
        return a, f(a), 0
    x1 = b - INVPHI * (b - a)
    x2 = a + INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    span0 = b - a
    while it < max_iter and (b - a) > rel_tol * span0:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVPHI * (b - a)
            f2 = f(x2)
        it += 1
    xm = 0.5 * (a + b)
    fm = f(xm)
    best_x, best_f = xm, fm
    for x, fx in ((x1, f1), (x2, f2), (float(lo), f(float(lo))), (float(hi), f(float(hi)))):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f, it


def brent_max(f, lo, hi, rel_tol=1e-12, max_iter=200):
    """Brent's maximization of a unimodal f on [lo, hi] (Brent 1973, ch. 5).

    Each step fits a parabola through the three best points seen and
    takes its vertex, or takes a golden-section step where the parabola
    would leave the bracket or not halve the step before last.  It stops
    once the bracket around the best point x is within sqrt(eps) |x| +
    rel_tol (hi - lo) / 3 of it on both sides, as scipy's fminbound does.
    Returns (x, f(x), iterations); as in golden_max the endpoints are
    checked, so an edge maximum is returned exactly.
    """
    a, b = float(lo), float(hi)
    if b <= a:
        return a, f(a), 0
    abs_tol = rel_tol * (b - a) / 3.0
    # g = -f is minimized: x the best point, w the second best, v the previous w
    x = w = v = a + (1.0 - INVPHI) * (b - a)
    gx = gw = gv = -f(x)
    d = e = 0.0
    it = 0
    while it < max_iter:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + abs_tol
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, m - x)
        if golden:
            e = (a if x >= m else b) - x
            d = (1.0 - INVPHI) * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        gu = -f(u)
        if gu <= gx:
            if u >= x:
                a = x
            else:
                b = x
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            if u < x:
                a = u
            else:
                b = u
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu
        it += 1
    best_x, best_f = x, -gx
    for end in (float(lo), float(hi)):
        f_end = f(end)
        if f_end > best_f:
            best_x, best_f = end, f_end
    return best_x, best_f, it


def golden_max_vec(f, lo, hi, iters=90):
    """Componentwise golden-section maximization over array brackets.

    f maps an array of abscissae to an array of values; every component
    is treated as an independent unimodal problem on [lo_i, hi_i].

    No corrdet code calls it.  It stays because corrbench/tracer.py wraps
    this name without a default.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    x1 = b - INVPHI * (b - a)
    x2 = a + INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 >= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x1n = np.where(left, b - INVPHI * (b - a), x2)
        x2n = np.where(left, x1, a + INVPHI * (b - a))
        probe = np.where(left, x1n, x2n)
        fprobe = f(probe)
        f1, f2 = np.where(left, fprobe, f2), np.where(left, f1, fprobe)
        x1, x2 = x1n, x2n
    xm = 0.5 * (a + b)
    return xm, f(xm)


def expand_bracket_max(f, hi0=1.0, hi_cap=math.inf, max_doublings=200):
    """Doubling bracket for a concave f with f(0)=0 and f'(0+)>0.

    Starting from hi0, doubles until f stops increasing at the right edge
    or the cap is reached.  Returns (hi, evaluations).
    """
    hi = min(hi0, hi_cap)
    f_hi = f(hi)
    evals = 1
    while evals < max_doublings:
        if hi >= hi_cap:
            break
        nxt = min(2.0 * hi, hi_cap)
        f_nxt = f(nxt)
        evals += 1
        if f_nxt <= f_hi:
            hi = nxt
            break
        hi, f_hi = nxt, f_nxt
    return hi, evals

