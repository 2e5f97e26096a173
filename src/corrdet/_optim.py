"""Small bracketed scalar/vector optimization helpers."""

from __future__ import annotations

import math

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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

