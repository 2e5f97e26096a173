"""Hot numeric kernels: tilted Monte Carlo sampling and lower convex hulls.

Both are plain numpy.  The sampler draws from SplitMix64 streams keyed
by (seed, n, trial, group): every (trial, group) pair has its own
counter-derived streams j = 0, 1, 2, ..., and each trial's sum over
groups runs in a fixed order, so estimates do not depend on how the
trials are chunked or split between workers.  It is the one place that
branches on the noise model, by the ``kernel_id`` each model class
declares, with the parameters that cgf.kernel_args lists.

Only the interference Z is sampled, and only through a = sum_i w_i Z_i:
under the tilted measure the Gaussian noise part of the statistic is
exactly normal given Z, so it is integrated out in closed form
(conditional Monte Carlo).  Indices that share a weight value v share
the tilt tau = -lam v, so a = sum_v v A_v, where the group sum A_v adds
m_v i.i.d. tilted draws of Z and has an exact law of its own:

==========  ==============================================  ==========
model       group sum A of m tilted draws                   streams
==========  ==============================================  ==========
Gaussian    normal, mean m tau var_z, variance m var_z       0
binary      z0 (2K - m), K ~ Binomial(m, p+)                 0
Laplacian   G1 / (q - tau) - G2 / (q + tau), G ~ Gamma(m)    0-19
mixture     K_L ~ Binomial(m, p_L) Laplacian draws, then     0, 1, 2-21
            K+ ~ Binomial(m - K_L, r) of the m - K_L
            binary ones: z0 (2K+ - m + K_L) plus a
            Laplacian pair with G ~ Gamma(K_L)
==========  ==============================================  ==========

Binomials are drawn by inverting CDF tables built once per call, each
cut to the entries a uniform draw can select (about 9 sqrt(m) of them);
the mixture's (K_L, K+) is a trinomial draw in two binomial steps, with
a table row of K+ for every K_L the first step can give.  A Gamma(k) is
an exponential -log u plus, for k >= 2, a Gamma(k - 1) by Marsaglia &
Tsang (2000, ACM TOMS 26(3)): a fixed budget of candidates, then, for
the entries all of them rejected, candidates from a sub-stream keyed by
a last stream until each is accepted, which keeps the draw exact.  The
uniform law has no closed-form sum: it keeps one inverse-CDF draw per
index, from stream 1 of streams keyed by (seed, n, trial, index).

The Gaussian Z stays sampled although Z + N is Gaussian too, so the
estimate keeps a sampling error like every other model's.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._special import gammaln_table, log_ndtr, ndtri

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U53 = 2.0 ** -53


def _sm_fin(x, tmp=None):
    """SplitMix64 output function on uint64 scalars/arrays (wrapping mul),
    in place on an array x, with ``tmp`` (x's shape) as scratch."""
    tmp = np.empty_like(x) if tmp is None else tmp
    with np.errstate(over="ignore"):
        x ^= np.right_shift(x, _S30, out=tmp)
        x *= _M1
        x ^= np.right_shift(x, _S27, out=tmp)
        x *= _M2
        x ^= np.right_shift(x, _S31, out=tmp)
        return x


def _unit(x, out=None):
    """(i + 1/2) 2^-53 from the top 53 bits i of x, in [2^-54, 1 - 2^-53]:
    the sum rounds to even above 2^52, and the top value would reach 1.
    x is overwritten."""
    x >>= _S11
    u = np.add(x, 0.5, out=out)
    u *= _U53
    return np.minimum(u, 1.0 - _U53, out=u)


@functools.lru_cache(maxsize=64)
def _stream_key(seed, n_tag):
    """The hash of (seed, n_tag) that every stream of one md_weights call
    starts from; kept, since each of its chunks asks for it again."""
    with np.errstate(over="ignore"):
        return _sm_fin(_sm_fin(np.uint64(seed) + _GAMMA) ^ np.uint64(n_tag))


def _stream_base(seed, n_tag, trial_col, t_row, out=None, tmp=None):
    with np.errstate(over="ignore"):
        h = _sm_fin(_stream_key(seed, n_tag) ^ trial_col)
        return _sm_fin(np.bitwise_xor(h, t_row, out=out), tmp)


def _draw(base, j, out=None, tmp=None):
    """Uniforms from stream j of every base.  With a float64 ``out`` and a
    uint64 ``tmp`` of base's shape it allocates nothing, and base is
    hashed in place: its other streams are lost."""
    with np.errstate(over="ignore"):
        x = np.add(base, np.uint64(j + 1) * _GAMMA, out=None if out is None else base)
        return _unit(_sm_fin(x, tmp), out)


def _uniform_z(z0, tau, u, out=None):
    """Inverse CDF of the uniform law on [-z0, z0] tilted by tau, written
    to ``out`` (which may be u): -z0 + log1p(u (e^{2g} - 1)) / tau with
    g = tau z0.  Where g > 1 the factor e^{2g}, which overflows past
    g ~ 354, comes out of the log: z0 + log(u + (1 - u) e^{-2g}) / tau;
    where |g| < 1e-8 the law is taken as untilted."""
    g = tau * z0
    small, high = np.abs(g) < 1e-8, g > 1.0
    safe = np.where(small, 1.0, tau)
    fixes = []  # computed before out overwrites u
    if high.any():
        fixes.append((high, z0 + np.log(u + (1.0 - u) * np.exp(-2.0 * np.maximum(g, 1.0))) / safe))
    if small.any():
        fixes.append((small, -z0 + 2.0 * z0 * u))
    z = np.multiply(u, np.expm1(2.0 * np.minimum(g, 1.0)), out=out)
    np.log1p(z, out=z)
    z /= safe
    z += -z0
    for where, value in fixes:
        np.copyto(z, value, where=where)
    return z


# Marsaglia-Tsang candidates per gamma draw on its own streams, and the
# streams one gamma draw owns: an exponential's, a normal and a uniform
# per candidate, then the one that keys the sub-stream of later candidates.
_TRIES = 4
_GAMMA_SPAN = 2 + 2 * _TRIES


def _gamma(k, base, j):
    """Gamma(k) draws for non-negative integer shapes k (broadcast to
    base's shape) from streams j, j + 1, ...: an exponential -log u where
    k >= 1, plus where k >= 2 a Marsaglia-Tsang Gamma(k - 1).  Candidate
    t < _TRIES reads streams j + 1 + 2t and j + 2 + 2t; from candidate
    _TRIES on, the entries still rejected read streams 0, 1, 2, ... of a
    sub-stream keyed by stream j + 1 + 2 _TRIES.  Later candidates are
    evaluated only on the entries still rejected, so an entry's draw
    depends on its streams alone."""
    shape = np.broadcast_to(k, base.shape).ravel()
    flat = base.ravel()
    out = np.where(shape > 0, -np.log(_draw(flat, j)), 0.0)
    todo = np.flatnonzero(shape > 1)
    keys, stream, tries = flat[todo], j + 1, 0
    while todo.size:
        if tries == _TRIES:
            with np.errstate(over="ignore"):
                keys = _sm_fin(keys + np.uint64(stream + 1) * _GAMMA)
            stream = 0
        d = shape[todo] - 4.0 / 3.0
        x = ndtri(_draw(keys, stream))
        v = 1.0 + x / np.sqrt(9.0 * d)
        v *= v * v
        log_u = np.log(_draw(keys, stream + 1))
        log_v = np.log(np.where(v > 0.0, v, 1.0))
        ok = (v > 0.0) & (log_u < 0.5 * x * x + d - d * v + d * log_v)
        out[todo[ok]] += d[ok] * v[ok]
        todo, keys, stream, tries = todo[~ok], keys[~ok], stream + 2, tries + 1
    return out.reshape(base.shape)


def _laplace_pair(k, q, tau, base, j):
    """Sum of k i.i.d. Laplacian(q) draws tilted by tau: the asymmetric
    Laplace law E1 / (q - tau) - E2 / (q + tau), summed."""
    a = _gamma(k, base, j)
    a /= q - tau
    a -= _gamma(k, base, j + _GAMMA_SPAN) / (q + tau)
    return a


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def _table_width(m):
    """A power of two no shorter than the part of a Binomial(m', p) CDF
    table, m' <= m, that a uniform in [2^-54, 1 - 2^-53] can select: by
    Hoeffding's inequality K stays within 4.6 sqrt(m') of m' p but for a
    mass below 2^-60 on each side."""
    length = min(m + 1, 2 * math.ceil(4.6 * math.sqrt(m)) + 3)
    return 1 << (length - 1).bit_length()


def _binom_rows(lg, m, lp, lq, width):
    """CDF tables of Binomial(m[i], p[i]) from ln p and ln(1 - p), with
    lg[k] = ln Gamma(k) for k <= max(m) + 1: row i holds the entries from
    k = lo[i] on that a uniform u in [2^-54, 1 - 2^-53] can select (the
    first above 2^-54 up to the first equal to 1), padded with 2.  The
    rows are built in blocks of about _CHUNK_ELEMS pmf entries."""
    m = np.asarray(m)
    lp, lq = np.asarray(lp, dtype=float)[:, None], np.asarray(lq, dtype=float)[:, None]
    rows = np.empty((m.size, width))
    lo = np.empty(m.size, dtype=np.intp)
    k = np.arange(m.max() + 1)
    j = np.arange(width)
    step = max(1, _CHUNK_ELEMS // k.size)
    for s in range(0, m.size, step):
        mi = m[s : s + step, None]
        # k > m[i] reads lg[0] = inf: no mass, and the CDF stays at 1
        log_pmf = lg[mi + 1] - lg[k + 1] - lg[np.maximum(mi - k + 1, 0)] + k * lp[s : s + step]
        log_pmf += (mi - k) * lq[s : s + step]
        cdf = np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True))
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        first = np.count_nonzero(cdf <= 0.5 * _U53, axis=1)
        size = np.count_nonzero(cdf < 1.0, axis=1) + 1 - first
        at = np.minimum(first[:, None] + j, k.size - 1)
        rows[s : s + step] = np.where(j < size[:, None], np.take_along_axis(cdf, at, axis=1), 2.0)
        lo[s : s + step] = first
    return rows, lo


def _invert(tables, row, u):
    """Inverse CDF, per entry of u, of its row of the tables from
    _binom_rows, by a binary search run on all entries at once: the
    width is a power of two and every row ends above u."""
    table, lo = tables
    width = table.shape[1]
    at = row * width - 1  # table[row, k + step - 1] is flat[at + k + step]
    flat = table.ravel()
    step = width >> 1
    k = (np.take(flat, at + step) <= u) * step
    while step > 1:
        step >>= 1
        k += (np.take(flat, k + (at + step)) <= u) * step
    return k + lo[row]


def _mixture_split(delta, z0, q, tau):
    """ln p_L, ln(1 - p_L) and [ln r, ln(1 - r)]: a draw of the mixture
    tilted by tau is Laplacian with probability p_L, else binary, and
    then +z0 with probability r.  The tilted component weights are
    delta cosh(tau z0) and (1 - delta) q^2 / (q^2 - tau^2)."""
    x = tau * z0
    ax = np.abs(x)
    log_bin = math.log(delta) + ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)
    log_lap = math.log1p(-delta) - np.log1p(-((tau / q) ** 2))
    log_tot = np.logaddexp(log_bin, log_lap)
    return log_lap - log_tot, log_bin - log_tot, _log_sigmoid(np.array([2.0 * x, -2.0 * x]))


def _group_sampler(model_id, a0, a1, a2, tau, m):
    """The group sums A (trials x groups) as a function of the stream
    base; group g adds m[g] >= 1 i.i.d. draws of Z tilted by tau[g]."""
    if m.size == 0:  # every weight is zero
        return lambda base: np.zeros(base.shape)
    if model_id == 0:  # gaussian, a0 = var_z
        mean, sd = m * tau * a0, np.sqrt(m * a0)
        return lambda base: mean + sd * ndtri(_draw(base, 0))
    if model_id == 1:  # laplacian, a0 = q
        return lambda base: _laplace_pair(m, a0, tau, base, 0)
    lg = gammaln_table(int(m.max()) + 2)
    width = _table_width(int(m.max()))
    group = np.arange(m.size)
    if model_id == 2:  # binary, a0 = z0
        x = 2.0 * tau * a0
        tables = _binom_rows(lg, m, _log_sigmoid(x), _log_sigmoid(-x), width)
        return lambda base: 2.0 * a0 * _invert(tables, group, _draw(base, 0)) - a0 * m
    # mixture, a0 = delta, a1 = z0, a2 = q: K_L ~ Binomial(m, p_L), and
    # of the m - K_L binary draws K+ ~ Binomial(m - K_L, r) are +z0.  The
    # K+ tables hold one row for each K_L the K_L table can select, group
    # by group: row plus_at[g] + K_L.
    log_lap, log_bin, log_r = _mixture_split(a0, a1, a2, tau)
    lap_tables = _binom_rows(lg, m, log_lap, log_bin, width)
    kept = np.count_nonzero(lap_tables[0] <= 1.0, axis=1)
    plus_at = np.cumsum(kept) - kept - lap_tables[1]
    g = np.repeat(group, kept)
    k_lap = np.arange(g.size) - plus_at[g]
    plus_tables = _binom_rows(lg, m[g] - k_lap, *log_r[:, g], width)

    def mixture(base):
        k_lap = _invert(lap_tables, group, _draw(base, 0))
        k_plus = _invert(plus_tables, plus_at + k_lap, _draw(base, 1))
        a = a1 * (2.0 * k_plus - (m - k_lap))
        a += _laplace_pair(k_lap, a2, tau, base, 2)
        return a

    return mixture


# Elements (trials x groups; trials x indices for the uniform law) per
# chunk, and pmf entries per block of a table build.  The chunk loop
# reuses one set of buffers, so the uniform law's per-index draws
# allocate no chunk-sized array per chunk, and their speed no longer
# depends on glibc's mmap threshold, which earlier frees in the process
# move.  The benchmark's five simulate operations in a fresh process
# (medians of 8, 2-core Xeon) took 218 ms at 2^13, 190 ms at 2^14 and
# 180 ms at 2^15, of which the uniform law took 148, 116 and 104 ms.
_CHUNK_ELEMS = 2 ** 15


def _tilted_sums(model_id, a0, a1, a2, w, lam, seed, n_tag, trials):
    """a = sum_i w_i Z_i for each trial, the Z_i drawn under the tilt lam:
    sum_v v A_v over the distinct non-zero weights v, A_v drawn from its
    exact law, or for the uniform law the sum of its n per-index draws."""
    if model_id == 3:  # uniform, a0 = z0
        vals, tau = w, -lam * w

        def sample(base, tmp, z):
            # stream 1 is the only one read: hash it in place, into z
            return _uniform_z(a0, tau, _draw(base, 1, z, tmp), z)

    else:
        vals, m = np.unique(w[w != 0.0], return_counts=True)
        group_sums = _group_sampler(model_id, a0, a1, a2, -lam * vals, m)

        def sample(base, tmp, z):
            return group_sums(base)

    a = np.empty(trials)
    col = np.arange(vals.size, dtype=np.uint64)[None, :]
    rows = max(1, _CHUNK_ELEMS // max(vals.size, 1))
    # one set of chunk buffers for every chunk, so that the chunk loop
    # allocates no (trials x columns) arrays of its own
    base = np.empty((min(rows, trials), vals.size), dtype=np.uint64)
    tmp, z = np.empty_like(base), np.empty(base.shape)
    for done in range(0, trials, rows):
        stop = min(done + rows, trials)
        k = stop - done
        trial_col = np.arange(done, stop, dtype=np.uint64)[:, None]
        b = _stream_base(seed, n_tag, trial_col, col, base[:k], tmp[:k])
        np.einsum("ij,j->i", sample(b, tmp[:k], z[:k]), vals, out=a[done:stop])
    return a


def md_weights(model_id, a0, a1, a2, w, lam, var_n, thresh, log_norm, seed, n_tag, trials):
    """Per-trial importance weights of the miss event, noise integrated out.

    ``log_norm`` is sum_i C(lam w_i) + lam^2 var_n ||w||^2 / 2, the log
    normalizer of the tilt on X = Z + N.  Under the tilt, given
    a = sum_i w_i Z_i (from _tilted_sums) the noise term of
    x = a + sum_i w_i N_i is normal with mean -lam var_n ||w||^2 and
    variance sd^2 = var_n ||w||^2, so E[1{x <= thresh} e^{lam x + log_norm}
    | Z] is

        exp(lam a + sum_i C(lam w_i) + log Phi((thresh - a) / sd)),

    where sum_i C(lam w_i) = log_norm - lam^2 sd^2 / 2.  With ||w|| = 0
    the statistic is a itself and the weight is the indicator times
    e^{lam a + log_norm}.
    """
    var_sum = var_n * float(np.dot(w, w))
    sd = math.sqrt(var_sum)
    a = _tilted_sums(model_id, a0, a1, a2, w, lam, seed, n_tag, trials)
    if sd > 0.0:
        c_sum = log_norm - 0.5 * lam * lam * var_sum
        return np.exp(lam * a + c_sum + log_ndtr((thresh - a) / sd))
    return np.where(a <= thresh, np.exp(lam * a + log_norm), 0.0)


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
