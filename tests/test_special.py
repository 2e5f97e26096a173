"""corrdet's numpy special functions against scipy.special, the independent
reference, to 1e-13 relative."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from corrdet import _special

RTOL = 1e-13
TINY = np.finfo(float).tiny


def _grid(lo, hi, n=20001, seed=0):
    # an even grid, uniform draws and the ends
    rng = np.random.default_rng(seed)
    return np.concatenate([np.linspace(lo, hi, n), rng.uniform(lo, hi, n), [lo, hi]])


def _assert_rel(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


CASES = {
    "erfcx": (_special.erfcx, special.erfcx,
              np.concatenate([_grid(-26.0, 1e3), _grid(-26.0, 30.0), _grid(-1.0, 1.0), [0.5, 4.0]])),
    "erf": (_special.erf, special.erf,
            np.concatenate([_grid(-7.0, 7.0), _grid(-1.0, 1.0), _grid(-1e-6, 1e-6), [0.5, -0.5, 4.0]])),
    "log_ndtr": (_special.log_ndtr, special.log_ndtr,
                 np.concatenate([_grid(-1e3, 40.0), _grid(-10.0, 10.0), _grid(5.0, 40.0)])),
    # the range that SplitMix64 uniforms (i + 1/2) 2^-53 cover
    "ndtri": (_special.ndtri, special.ndtri, np.clip(np.concatenate([
        np.exp(np.random.default_rng(1).uniform(math.log(2.0 ** -54), 0.0, 20001)),
        1.0 - np.exp(np.random.default_rng(2).uniform(math.log(2.0 ** -53), 0.0, 20001)),
        _grid(0.0, 1.0)[1:-1], [2.0 ** -54, 1.0 - 2.0 ** -53, 0.5, 0.075, 0.925]]),
        2.0 ** -54, 1.0 - 2.0 ** -53)),
}


@pytest.mark.parametrize("name", CASES)
def test_matches_scipy(name):
    ours, ref, x = CASES[name]
    got, want = ours(x), ref(x)
    # past x ~ 37.5, ln Phi(x) falls below the smallest normal double:
    # both are then 0 or subnormal
    normal = np.abs(want) >= TINY
    _assert_rel(got[normal], want[normal])
    assert np.all(np.abs(got[~normal]) < TINY)


@pytest.mark.parametrize("name", ["erfcx", "erf", "log_ndtr"])
def test_infinite_and_huge_arguments_give_the_limits_without_warnings(name):
    ours, ref, _ = CASES[name]
    x = np.array([-np.inf, -1e308, -1e200, -30.0, 30.0, 1e200, 1e308, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ours(x)
    _assert_rel(got, ref(x))


@pytest.mark.parametrize("name", CASES)
def test_scalars_zero_d_and_empty_arrays(name):
    ours, ref, x = CASES[name]
    v = float(x[len(x) // 3])
    for arg in (v, np.float64(v), np.array(v)):
        got = ours(arg)
        assert isinstance(got, np.float64)
        _assert_rel(got, ref(v))
    empty = ours(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    # a 2-d array keeps its shape
    assert ours(x[:6].reshape(2, 3)).shape == (2, 3)


@pytest.mark.parametrize("name", CASES)
def test_each_value_depends_on_its_element_alone(name):
    ours, _, x = CASES[name]
    x = x[:: max(1, len(x) // 300)]
    whole = ours(x)
    alone = np.array([ours(v) for v in x])
    assert whole.tobytes() == alone.tobytes()


def test_ndtr():
    x = _grid(-37.0, 8.0)
    _assert_rel([_special.ndtr(float(v)) for v in x], special.ndtr(x))


def test_gammaln_table():
    table = _special.gammaln_table(25_000)
    assert table[0] == math.inf and table.size == 25_001
    _assert_rel(table[1:], special.gammaln(np.arange(1.0, 25_001.0)))
