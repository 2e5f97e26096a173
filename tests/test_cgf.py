"""Noise model CGFs: closed forms, symmetry, convexity, sampling oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import log_ndtr

import corrdet as cd
from corrdet.cgf import DomainError, _log_mills_ddiff, mgf_complex

ALL_MODELS = [
    cd.Gaussian(2.0),
    cd.Laplacian(2.0),
    cd.BinarySymmetric(5.0),
    cd.Uniform(3.0),
    cd.MixtureBinaryLaplace(0.95, 0.5, 5.0),
]


def domain_points(model, rng, count=100):
    lo, hi = cd.cgf_domain(model)
    if math.isinf(hi):
        return rng.normal(scale=3.0, size=count)
    return rng.uniform(-0.95 * hi, 0.95 * hi, size=count)


class TestClosedForms:
    def test_gaussian_value(self):
        assert cd.cgf_eval(cd.Gaussian(2.0), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_binary_at_zero(self):
        assert cd.cgf_eval(cd.BinarySymmetric(5.0), 0.0) == 0.0

    def test_laplacian_value(self):
        got = cd.cgf_eval(cd.Laplacian(2.0), 1.0)
        assert got == pytest.approx(math.log(4.0 / 3.0), abs=1e-14)

    def test_uniform_removable_singularity(self):
        assert abs(cd.cgf_eval(cd.Uniform(3.0), 1e-12)) < 1e-9

    def test_gaussian_derivative(self):
        assert cd.cgf_deriv(cd.Gaussian(2.0), 3.0) == pytest.approx(6.0, abs=1e-13)

    def test_derivative_zero_at_origin(self):
        for model in ALL_MODELS:
            assert cd.cgf_deriv(model, 0.0) == 0.0

    def test_log_cosh_large_argument(self):
        # ln cosh(x) ~ |x| - ln 2 without overflow
        got = cd.cgf_eval(cd.BinarySymmetric(5.0), 400.0)
        assert got == pytest.approx(2000.0 - math.log(2.0), rel=1e-12)

    def test_log_cosh_small_argument(self):
        # ln cosh x = x^2/2 - x^4/12 + x^6/45 - ..., the next term below an
        # ulp for |x| <= 1e-3; |x| + log1p(e^{-2|x|}) - ln 2 cancels here
        x = np.concatenate([-np.geomspace(1e-3, 1e-12, 60), np.geomspace(1e-12, 1e-3, 60)])
        series = x ** 2 / 2.0 - x ** 4 / 12.0 + x ** 6 / 45.0
        got = cd.BinarySymmetric(1.0).c(x)
        assert np.max(np.abs(got - series) / series) <= 4.0 * np.finfo(float).eps

    def test_uniform_small_argument_against_mpmath(self):
        # log(sinh(x)/x) and coth x - 1/x subtract terms of size |x| or
        # ln|x| to get values near x^2/6 and x/3; the series below |x| = 1 do not
        mp = pytest.importorskip("mpmath")
        x = np.geomspace(1e-8, 1.0, 300)
        model = cd.Uniform(1.0)
        with mp.workdps(40):
            ref_c = np.array([float(mp.log(mp.sinh(mp.mpf(v)) / mp.mpf(v))) for v in x])
            ref_cdot = np.array([float(mp.coth(mp.mpf(v)) - 1 / mp.mpf(v)) for v in x])
        assert np.max(np.abs(model.c(x) - ref_c) / ref_c) <= 1e-14
        assert np.max(np.abs(model.cdot(x) - ref_cdot) / ref_cdot) <= 1e-14
        assert np.array_equal(model.cdot(-x), -model.cdot(x))

    @pytest.mark.parametrize(
        "model, v_hi",
        [
            (cd.MixtureBinaryLaplace(0.95, 0.5, 5.0), 1.0),
            (cd.MixtureBinaryLaplace(0.5, 0.1, 2.0), 1.99),
        ],
    )
    def test_mixture_small_argument_against_mpmath(self, model, v_hi):
        # |x| + ln den and 1 - e^{-2|x|} cancel for small |x| = z0 |v|; the
        # second law keeps |x| < 1 up to next to the pole
        mp = pytest.importorskip("mpmath")
        v = np.geomspace(1e-8, v_hi, 200)
        with mp.workdps(40):
            d, z0, q = (mp.mpf(a) for a in (model.delta, model.z0, model.q))

            def parts(t):
                lap = 1 / (1 - t * t / q ** 2)
                m = d * mp.cosh(z0 * t) + (1 - d) * lap
                return m, d * z0 * mp.sinh(z0 * t) + (1 - d) * 2 * t / q ** 2 * lap ** 2

            ref = [parts(mp.mpf(t)) for t in v]
            ref_c = np.array([float(mp.log(m)) for m, _ in ref])
            ref_cdot = np.array([float(dm / m) for m, dm in ref])
        assert np.max(np.abs(model.c(v) - ref_c) / ref_c) <= 1e-14
        assert np.max(np.abs(model.cdot(v) - ref_cdot) / ref_cdot) <= 1e-14
        assert np.array_equal(model.c(-v), model.c(v))

    def test_log_sinh_large_argument(self):
        got = cd.cgf_eval(cd.Uniform(3.0), 300.0)
        assert got == pytest.approx(900.0 - math.log(2.0) - math.log(900.0), rel=1e-12)


class TestDomains:
    def test_laplacian_interval(self):
        assert cd.cgf_domain(cd.Laplacian(0.1)) == (-0.1, 0.1)

    def test_gaussian_unbounded(self):
        lo, hi = cd.cgf_domain(cd.Gaussian(1.0))
        assert math.isinf(lo) and math.isinf(hi)

    def test_mixture_interval(self):
        assert cd.cgf_domain(cd.MixtureBinaryLaplace(0.95, 0.5, 5.0)) == (-5.0, 5.0)

    @pytest.mark.parametrize("model", [cd.Laplacian(2.0), cd.MixtureBinaryLaplace(0.5, 1.0, 2.0)])
    def test_near_pole_rejected(self, model):
        with pytest.raises(DomainError):
            cd.cgf_eval(model, 2.0 * (1.0 - 1e-10))
        with pytest.raises(DomainError):
            cd.cgf_deriv(model, -2.0 * (1.0 - 1e-10))

    def test_just_inside_ok(self):
        cd.cgf_eval(cd.Laplacian(2.0), 2.0 * (1.0 - 1e-8))


class TestValidation:
    def test_mixture_weight_must_be_interior(self):
        with pytest.raises(ValueError):
            cd.MixtureBinaryLaplace(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            cd.MixtureBinaryLaplace(1.0, 1.0, 2.0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            cd.Gaussian(0.0)
        with pytest.raises(ValueError):
            cd.Laplacian(-1.0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_tilt_cap(model):
    scale = 1.7
    cap = cd.cgf.tilt_cap(model, scale)
    caps = cd.cgf.tilt_cap(model, np.array([scale, 0.0]))
    assert caps.shape == (2,) and caps[0] == cap and caps[1] == math.inf
    assert cd.cgf.tilt_cap(model, 0.0) == math.inf
    lo, hi = cd.cgf_domain(model)
    if math.isinf(hi):
        assert cap == math.inf
        return
    assert 0.0 < cap * scale < hi
    for v in (cap * scale, -cap * scale):
        assert math.isfinite(cd.cgf_eval(model, v))
        assert math.isfinite(cd.cgf_deriv(model, v))
    for v in (hi, cd.cgf._pole(model)):
        with pytest.raises(DomainError):
            cd.cgf_eval(model, v)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_symmetry(model):
    rng = np.random.default_rng(42)
    v = domain_points(model, rng)
    left = cd.cgf_eval(model, v)
    right = cd.cgf_eval(model, -v)
    assert np.max(np.abs(left - right)) < 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_convexity_second_differences(model):
    rng = np.random.default_rng(7)
    lo, hi = cd.cgf_domain(model)
    cap = 3.0 if math.isinf(hi) else 0.9 * hi
    for _ in range(100):
        v = rng.uniform(-cap, cap)
        h = rng.uniform(1e-4, 0.05 * cap)
        if abs(v) + h >= cap:
            continue
        d2 = (
            cd.cgf_eval(model, v + h)
            + cd.cgf_eval(model, v - h)
            - 2.0 * cd.cgf_eval(model, v)
        )
        assert d2 >= -1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_derivative_matches_finite_difference(model):
    lo, hi = cd.cgf_domain(model)
    cap = 3.0 if math.isinf(hi) else 0.8 * hi
    for v in np.linspace(-cap, cap, 17):
        h = 1e-6 * max(1.0, abs(v))
        fd = (cd.cgf_eval(model, v + h) - cd.cgf_eval(model, v - h)) / (2 * h)
        an = cd.cgf_deriv(model, v)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_mixture_derivative_spec_point():
    model = cd.MixtureBinaryLaplace(0.95, 0.5, 5.0)
    h = 1e-6
    fd = (cd.cgf_eval(model, 1.0 + h) - cd.cgf_eval(model, 1.0 - h)) / (2 * h)
    assert cd.cgf_deriv(model, 1.0) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_derivative_monotone(model):
    lo, hi = cd.cgf_domain(model)
    cap = 4.0 if math.isinf(hi) else 0.9 * hi
    grid = np.linspace(-cap, cap, 401)
    d = cd.cgf_deriv(model, grid)
    assert np.all(np.diff(d) >= -1e-12)


def _even_moments(model):
    """E[Z^2] and E[Z^4] of each law."""
    if isinstance(model, cd.Gaussian):
        return model.var_z, 3.0 * model.var_z ** 2
    if isinstance(model, cd.Laplacian):
        return 2.0 / model.q ** 2, 24.0 / model.q ** 4
    if isinstance(model, cd.BinarySymmetric):
        return model.z0 ** 2, model.z0 ** 4
    if isinstance(model, cd.Uniform):
        return model.z0 ** 2 / 3.0, model.z0 ** 4 / 5.0
    d, z0, q = model.delta, model.z0, model.q
    return d * z0 ** 2 + (1 - d) * 2.0 / q ** 2, d * z0 ** 4 + (1 - d) * 24.0 / q ** 4


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_second_derivative_matches_finite_difference(model):
    lo, hi = cd.cgf_domain(model)
    cap = 3.0 if math.isinf(hi) else 0.9 * hi
    # the last three put the uniform's z0*v on both sides of its series switch
    for v in np.concatenate([np.linspace(-cap, cap, 17), [3e-3, 3.4e-3, -3.3e-3]]):
        h = 1e-6 * max(1.0, abs(v))
        fd = (model.cdot(v + h) - model.cdot(v - h)) / (2 * h)
        assert model.cddot(v) == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_second_derivative_small_argument_series(model):
    # C''(v) = k2 + k4 v^2 / 2 + O(v^4), with the cumulants of the law
    m2, m4 = _even_moments(model)
    k4 = m4 - 3.0 * m2 * m2
    assert model.cddot(0.0) == pytest.approx(m2, rel=1e-14)
    for v in (1e-5, -2e-4, 1e-3):
        assert model.cddot(v) == pytest.approx(m2 + 0.5 * k4 * v * v, rel=1e-9)
    assert np.shape(model.cddot(np.zeros((2, 3)))) == (2, 3)


def test_uniform_second_derivative_across_series_switch():
    # z0^2 (1/3 - x^2/15 + 2x^4/189 - x^6/675) on both sides of |x| = 1e-2
    model = cd.Uniform(2.0)
    for x in (1e-6, 9.9e-3, 1e-2, 1.01e-2, 3e-2):
        series = 1.0 / 3.0 - x ** 2 / 15.0 + 2.0 * x ** 4 / 189.0 - x ** 6 / 675.0
        assert model.cddot(x / 2.0) == pytest.approx(4.0 * series, rel=1e-11)


@pytest.mark.parametrize(
    "model",
    [cd.BinarySymmetric(5.0), cd.Uniform(3.0), cd.MixtureBinaryLaplace(0.5, 200.0, 5.0)],
    ids=lambda m: type(m).__name__,
)
def test_second_derivative_large_argument(model):
    # |z0 v| from 400 up, where cosh and sinh overflow
    v = np.array([400.0, 1e3, 1e5, 1e300]) / model.z0
    v = v[v < cd.cgf_domain(model)[1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.cddot(np.concatenate([v, -v]))
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)


@pytest.mark.parametrize(
    "model", [cd.Laplacian(2.0), cd.MixtureBinaryLaplace(0.95, 0.5, 5.0)],
    ids=lambda m: type(m).__name__,
)
def test_second_derivative_near_pole(model):
    q = model.q
    v = q * (1.0 - np.array([1e-6, 1e-9, 1e-12]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.cddot(np.concatenate([v, -v]))
    assert np.all(np.isfinite(got))
    # the Laplace part dominates there: 2 (q^2 + v^2) / (q^2 - v^2)^2
    lap = cd.Laplacian(q).cddot(np.concatenate([v, -v]))
    assert got == pytest.approx(lap, rel=1e-3)


def _sample(model, rng, size):
    if isinstance(model, cd.Gaussian):
        return rng.normal(scale=math.sqrt(model.var_z), size=size)
    if isinstance(model, cd.Laplacian):
        return rng.laplace(scale=1.0 / model.q, size=size)
    if isinstance(model, cd.BinarySymmetric):
        return model.z0 * rng.choice([-1.0, 1.0], size=size)
    if isinstance(model, cd.Uniform):
        return rng.uniform(-model.z0, model.z0, size=size)
    comp = rng.uniform(size=size) < model.delta
    return np.where(
        comp,
        model.z0 * rng.choice([-1.0, 1.0], size=size),
        rng.laplace(scale=1.0 / model.q, size=size),
    )


@pytest.mark.parametrize(
    "model,v",
    [
        (cd.Gaussian(2.0), 0.5),
        (cd.Laplacian(2.0), 0.7),
        (cd.BinarySymmetric(1.5), 0.8),
        (cd.Uniform(2.0), 0.6),
        (cd.MixtureBinaryLaplace(0.95, 0.5, 5.0), 0.8),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, float) else str(x),
)
def test_monte_carlo_oracle(model, v):
    rng = np.random.default_rng(1234)
    z = _sample(model, rng, 10 ** 6)
    e = np.exp(v * z)
    mean = e.mean()
    se = e.std(ddof=1) / math.sqrt(e.size)
    assert abs(math.log(mean) - cd.cgf_eval(model, v)) <= 3.0 * se / mean


@settings(max_examples=60, deadline=None)
@given(v=st.floats(-30.0, 30.0))
def test_binary_symmetry_property(v):
    model = cd.BinarySymmetric(5.0)
    assert abs(cd.cgf_eval(model, v) - cd.cgf_eval(model, -v)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(v=st.floats(-4.7, 4.7))
def test_mixture_symmetry_property(v):
    model = cd.MixtureBinaryLaplace(0.95, 0.5, 5.0)
    assert abs(cd.cgf_eval(model, v) - cd.cgf_eval(model, -v)) < 1e-12


def test_mgf_complex_matches_cgf_on_real_axis():
    for model in ALL_MODELS:
        lo, hi = cd.cgf_domain(model)
        cap = 2.0 if math.isinf(hi) else 0.8 * hi
        for v in np.linspace(-cap, cap, 9):
            assert math.log(
                abs(mgf_complex(model, complex(v, 0.0)))
            ) == pytest.approx(cd.cgf_eval(model, v), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("y", [-20.0, -3.0, -1e-3, 0.0, 0.7, 5.0, 29.0, 45.0])
@pytest.mark.parametrize("h", [-2.0, -1e-3, -1e-7, 0.0, 1e-9, 1e-6, 3e-5, 0.1, 4.0])
def test_mills_divided_difference(y, h):
    # (R(y) - R(y+h)) / h for R(u) = int_0^inf e^{-ut - t^2/2} dt is the
    # integral of e^{-yt - t^2/2} (1 - e^{-ht}) / h, or t e^{-yt - t^2/2} at
    # h = 0; the grid crosses the midpoint switch and the series past u = 30
    peak = max(-y, 0.0)
    shift = -y * peak - 0.5 * peak * peak

    def weight(t):
        return t if h == 0.0 else -math.expm1(-h * t) / h

    want = quad(
        lambda t: weight(t) * math.exp(-y * t - 0.5 * t * t - shift),
        0.0, peak + 40.0, points=[peak], epsabs=0.0, epsrel=1e-13, limit=500,
    )[0]
    got = float(_log_mills_ddiff(np.float64(y), np.float64(h)))
    assert got == pytest.approx(math.log(want) + shift, abs=1e-9)


def _log_expect_quad(model, log_f):
    # ln E exp(log_f(Z)) by quadrature against the density, shifted by the peak
    if isinstance(model, cd.BinarySymmetric):
        return float(np.logaddexp(log_f(model.z0), log_f(-model.z0))) - math.log(2.0)
    if isinstance(model, cd.MixtureBinaryLaplace):
        return float(np.logaddexp(
            math.log(model.delta) + _log_expect_quad(cd.BinarySymmetric(model.z0), log_f),
            math.log1p(-model.delta) + _log_expect_quad(cd.Laplacian(model.q), log_f),
        ))
    if isinstance(model, cd.Uniform):
        lo, hi = -model.z0, model.z0

        def log_dens(z):
            return -math.log(2.0 * model.z0)
    else:
        lo, hi = -400.0, 400.0
        if isinstance(model, cd.Gaussian):
            def log_dens(z):
                return -z * z / (2.0 * model.var_z) - 0.5 * math.log(2.0 * math.pi * model.var_z)
        else:
            def log_dens(z):
                return math.log(0.5 * model.q) - model.q * abs(z)
    zs = np.linspace(lo, hi, 40001)
    vals = [log_dens(z) + log_f(z) for z in zs]
    peak, shift = float(zs[int(np.argmax(vals))]), max(vals)
    pts = sorted({p for p in (0.0, peak, peak - 3.0, peak + 3.0) if lo < p < hi})
    val = quad(lambda z: math.exp(log_dens(z) + log_f(z) - shift), lo, hi, points=pts,
               epsabs=0.0, epsrel=1e-13, limit=2000)[0]
    return math.log(val) + shift


# (a, b) for E e^{aZ - bZ^2}, reaching the uniform's erfcx form (|a| >> b)
# and the Laplacian's half-line past the pole (|a| > q)
QUAD_ARGS = [(0.3, 0.2), (-2.5, 0.05), (4.0, 0.5), (-0.01, 3.0)]
# (a, c, d) for E e^{aZ} Phi(cZ + d), reaching both of the uniform's
# subtractions and falling half-lines with negative rate
NDTR_ARGS = [(-3.0, 1.0, 5.0), (3.0, 1.0, 0.5), (-0.5, -2.0, 1.0), (0.0, 1.0, 0.0),
             (2.2, -0.7, -3.0), (-1.9, 0.5, 2.0)]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_extended_expectations_match_quadrature(model):
    for a, b in QUAD_ARGS:
        got = float(model.log_mgf_quad(np.float64(a), np.float64(b)))
        want = _log_expect_quad(model, lambda z: a * z - b * z * z)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (a, b)
    q = getattr(model, "radius", math.inf)
    for a, c, d in NDTR_ARGS:
        if a * math.copysign(1.0, c) >= q:
            continue  # the rising tail diverges
        got = float(model.log_mgf_ndtr(np.float64(a), np.float64(c), np.float64(d)))
        want = _log_expect_quad(model, lambda z: a * z + float(log_ndtr(c * z + d)))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (a, c, d)


class TestConfig:
    def test_round_trip(self):
        for model in ALL_MODELS:
            clone = cd.model_from_config(cd.model_to_config(model))
            assert clone == model

    def test_names_are_snake_case(self):
        cfg = cd.model_to_config(cd.MixtureBinaryLaplace(0.5, 1.0, 2.0))
        assert cfg["type"] == "mixture_binary_laplace"
        assert set(cfg) == {"type", "delta", "z0", "q"}

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            cd.model_from_config({"type": "cauchy", "scale": 1.0})

    def test_bad_fields(self):
        with pytest.raises(ValueError):
            cd.model_from_config({"type": "gaussian", "sigma": 1.0})
