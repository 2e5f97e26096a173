"""Hot numeric kernels: tilted Monte Carlo sampling and lower convex hulls.

Both are plain numpy.  The sampler draws from SplitMix64 streams keyed
by (seed, n, trial, index): every (trial, index) pair has its own
counter-derived streams j = 0, 1, 2, and each trial's sum over indices
runs in a fixed order, so estimates do not depend on how the trials are
chunked or split between workers.  It is the one place that branches on
the noise model, by the ``kernel_id`` each model class declares, with
the parameters that cgf.kernel_args lists.

Only the interference Z is sampled.  Under the tilted measure the
Gaussian noise part of the statistic is exactly normal given Z, so it is
integrated out in closed form (conditional Monte Carlo).  Each sampler
draws only the streams it reads:

==========  =======  ======================================
model       streams  use
==========  =======  ======================================
Gaussian    1, 2     Box-Muller
Laplacian   1, 2     side of zero, exponential magnitude
binary      1        sign
uniform     1        inverse CDF of the tilted law
mixture     0, 1, 2  component, then binary or Laplacian
==========  =======  ======================================

The Gaussian Z stays sampled although Z + N is Gaussian too, so the
estimate keeps a sampling error like every other model's.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def _sm_fin(x):
    """SplitMix64 output function on uint64 scalars/arrays (wrapping mul)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> _S30)) * _M1
        x = (x ^ (x >> _S27)) * _M2
        return x ^ (x >> _S31)


def _unit(x):
    return ((x >> _S11).astype(np.float64) + 0.5) * _U53


def _stream_base(seed, n_tag, trial_col, t_row):
    with np.errstate(over="ignore"):
        h = _sm_fin(np.uint64(seed) + _GAMMA)
        h = _sm_fin(h ^ np.uint64(n_tag))
        h = _sm_fin(h ^ trial_col)
        return _sm_fin(h ^ t_row)


def _draw(base, j):
    with np.errstate(over="ignore"):
        return _unit(_sm_fin(base + np.uint64(j + 1) * _GAMMA))


def _sample_z(model_id, a0, a1, a2, tau, u0, u1, u2):
    if model_id == 0:  # gaussian
        bm = np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)
        return tau * a0 + math.sqrt(a0) * bm
    if model_id == 1:  # laplacian
        right = u1 < (a0 + tau) / (2.0 * a0)
        return np.where(right, -np.log(u2) / (a0 - tau), np.log(u2) / (a0 + tau))
    if model_id == 2:  # binary
        x = 2.0 * tau * a0
        ex = np.exp(-np.abs(x))
        p_plus = np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        return np.where(u1 < p_plus, a0, -a0)
    if model_id == 3:  # uniform
        g = tau * a0
        safe = np.where(np.abs(g) < 1e-8, 1.0, tau)
        tilted = -a0 + np.log1p(u1 * np.expm1(2.0 * g)) / safe
        return np.where(np.abs(g) < 1e-8, -a0 + 2.0 * a0 * u1, tilted)
    # mixture: a0=delta, a1=z0, a2=q
    x = tau * a1
    ax = np.abs(x)
    em = np.exp(-ax)
    em2 = np.exp(-2.0 * ax)
    lap = 1.0 / (1.0 - (tau / a2) ** 2)
    cb = a0 * 0.5 * (1.0 + em2)
    cl = (1.0 - a0) * lap * em
    p_bin = cb / (cb + cl)
    xb = 2.0 * tau * a1
    exb = np.exp(-np.abs(xb))
    p_plus = np.where(xb >= 0.0, 1.0 / (1.0 + exb), exb / (1.0 + exb))
    z_bin = np.where(u1 < p_plus, a1, -a1)
    right = u1 < (a2 + tau) / (2.0 * a2)
    z_lap = np.where(right, -np.log(u2) / (a2 - tau), np.log(u2) / (a2 + tau))
    return np.where(u0 < p_bin, z_bin, z_lap)


# Stream indices each sampler reads, by kernel_id.
_STREAMS = ((1, 2), (1, 2), (1,), (1,), (0, 1, 2))

# Elements (trials x indices) per chunk: small enough that every
# temporary stays in cache, whatever the block length.
_CHUNK_ELEMS = 2 ** 15


def md_weights(model_id, a0, a1, a2, w, lam, var_n, thresh, log_norm, seed, n_tag, trials):
    """Per-trial importance weights of the miss event, noise integrated out.

    ``log_norm`` is sum_i C(lam w_i) + lam^2 var_n ||w||^2 / 2, the log
    normalizer of the tilt on X = Z + N.  Under the tilt, given
    a = sum_i w_i Z_i the noise term of x = a + sum_i w_i N_i is normal
    with mean -lam var_n ||w||^2 and variance sd^2 = var_n ||w||^2, so
    E[1{x <= thresh} e^{lam x + log_norm} | Z] is

        exp(lam a + sum_i C(lam w_i) + log Phi((thresh - a) / sd)),

    where sum_i C(lam w_i) = log_norm - lam^2 sd^2 / 2.

    With ||w|| = 0 the statistic is a itself and the weight is the
    indicator times e^{lam a + log_norm}.
    """
    n = w.shape[0]
    var_sum = var_n * float(np.dot(w, w))
    sd = math.sqrt(var_sum)
    c_sum = log_norm - 0.5 * lam * lam * var_sum
    tau = -lam * w
    uses = _STREAMS[model_id]
    out = np.empty(trials)
    t_row = np.arange(n, dtype=np.uint64)[None, :]
    m = max(1, _CHUNK_ELEMS // n)
    for done in range(0, trials, m):
        stop = min(done + m, trials)
        trial_col = np.arange(done, stop, dtype=np.uint64)[:, None]
        base = _stream_base(seed, n_tag, trial_col, t_row)
        u = [_draw(base, j) if j in uses else None for j in range(3)]
        z = _sample_z(model_id, a0, a1, a2, tau[None, :], *u)
        a = np.einsum("ij,j->i", z, w)
        if sd > 0.0:
            out[done:stop] = np.exp(lam * a + c_sum + log_ndtr((thresh - a) / sd))
        else:
            out[done:stop] = np.where(a <= thresh, np.exp(lam * a + log_norm), 0.0)
    return out


def lower_hull(x, y):
    """Indices of the lower convex hull of the graph (x sorted ascending).

    Each pass drops every interior point on or above the chord of its
    current neighbours (cross product <= 0), which is never a hull
    vertex, until a pass drops nothing: the strict vertices remain.
    """
    idx = np.arange(x.shape[0])
    while idx.size > 2:
        o, a, i = idx[:-2], idx[1:-1], idx[2:]
        turn = (x[a] - x[o]) * (y[i] - y[o]) - (y[a] - y[o]) * (x[i] - x[o]) > 0.0
        if turn.all():
            break
        idx = idx[np.concatenate([[True], turn, [True]])]
    return idx
