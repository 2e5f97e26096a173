"""Finite-n simulation: exact FA, tilted estimators, slope regression."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import corrdet as cd
from corrdet import _kernels, joint
from oracles import lower_hull_stack, md_probability_exhaustive_binary, md_weights_full_noise

BUD = cd.PowerBudget(p_w=1.0, var_n=1.0)
LAW_IDS = ["gaussian", "laplacian", "binary", "uniform", "mixture"]
# zero, negative and repeated weights; 64 distinct weights (one index each)
EDGE_PATTERNS = {"mixed-signs": [1.0, 0.0, -0.6, 1.0], "distinct": list(np.linspace(0.3, 1.0, 64))}


class TestFaProbabilityExact:
    def test_median_at_zero_threshold(self):
        assert cd.fa_probability_exact([1.0], 0.0, 100, 1.0) == 0.5

    def test_scaling_invariance(self):
        base = cd.fa_probability_exact([1.0, -0.5], 0.4, 64, 1.0)
        scaled = cd.fa_probability_exact([3.0, -1.5], 1.2, 64, 1.0)
        assert base == pytest.approx(scaled, rel=1e-12)

    def test_exponent_approach(self):
        # exact evaluation: -ln Q(5)/100 = 0.15065, a 20.5% gap above the
        # 0.125 exponent, entirely from the ln(x sqrt(2 pi)) prefactor;
        # the gap shrinks as n grows
        e_fa = cd.fa_exponent(0.5, BUD)
        p100 = cd.fa_probability_exact([1.0], 0.5, 100, 1.0)
        rate100 = -math.log(p100) / 100
        assert rate100 == pytest.approx(0.1506499839, abs=1e-9)
        assert rate100 == pytest.approx(e_fa, rel=0.25)
        p800 = cd.fa_probability_exact([1.0], 0.5, 800, 1.0)
        rate800 = -math.log(p800) / 800
        assert abs(rate800 - e_fa) < abs(rate100 - e_fa)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cd.SimConfig(n_values=(100, 50), trials=2000, seed=1)
        with pytest.raises(ValueError):
            cd.SimConfig(n_values=(50,), trials=10, seed=1)
        with pytest.raises(ValueError):
            cd.SimConfig(n_values=(50,), trials=2000, seed=1, tilt_lambda=-0.5)


class TestMdProbability:
    def test_binary_exhaustive_oracle(self):
        model = cd.BinarySymmetric(1.5)
        rng = np.random.default_rng(5)
        w = rng.normal(size=8)
        s = rng.normal(size=8) + 1.0
        theta = 0.2
        exact = md_probability_exhaustive_binary(model, w, s, theta, 1.0)
        cfg = cd.SimConfig(n_values=(8,), trials=200_000, seed=11, tilt_lambda=0.25)
        est = cd.md_probability(model, w, s, theta, cfg, BUD)
        entry = est.per_n[0]
        se = entry["prob_estimate"] * entry["rel_stderr"]
        assert abs(entry["prob_estimate"] - exact) <= 3.0 * se

    def test_plain_vs_tilted_consistency(self):
        # rare-enough event: tilting agrees and reduces variance
        model = cd.BinarySymmetric(1.0)
        w = [1.0, -1.0, 0.5, -0.5]
        s = [1.2, -1.2, 0.9, -0.9]
        theta = 0.25
        joint = cd.JointAtoms(w, s, [0.25] * 4)
        lam_star = cd.md_exponent(joint, theta, BUD, model).lambda_star
        cfg0 = cd.SimConfig(n_values=(48,), trials=150_000, seed=3, tilt_lambda=0.0)
        cfgT = cd.SimConfig(n_values=(48,), trials=150_000, seed=3, tilt_lambda=lam_star)
        p0 = cd.md_probability(model, w, s, theta, cfg0, BUD).per_n[0]
        pT = cd.md_probability(model, w, s, theta, cfgT, BUD).per_n[0]
        se = math.hypot(
            p0["prob_estimate"] * p0["rel_stderr"], pT["prob_estimate"] * pT["rel_stderr"]
        )
        assert abs(p0["prob_estimate"] - pT["prob_estimate"]) <= 3.0 * se
        assert pT["rel_stderr"] < p0["rel_stderr"]

    def test_seed_determinism(self):
        model = cd.MixtureBinaryLaplace(0.8, 1.0, 3.0)
        cfg = cd.SimConfig(n_values=(16, 32, 64), trials=20_000, seed=99, tilt_lambda=0.2)
        a = cd.md_probability(model, [1.0, -0.7], [1.1, -0.9], 0.3, cfg, BUD)
        b = cd.md_probability(model, [1.0, -0.7], [1.1, -0.9], 0.3, cfg, BUD)
        assert a.per_n == b.per_n
        assert a.slope == b.slope

    def test_zero_weights_fall_back_to_the_indicator(self):
        # ||w|| = 0 leaves no noise to integrate: the statistic is 0 <= 0
        cfg = cd.SimConfig(n_values=(16,), trials=2000, seed=1, tilt_lambda=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = cd.md_probability(cd.Laplacian(1.0), [0.0], [1.0], 0.0, cfg, BUD)
        assert est.per_n[0]["prob_estimate"] == 1.0
        assert est.per_n[0]["rel_stderr"] == 0.0

    def test_rel_stderr_survives_underflowing_squares(self):
        # at n = 100 the weights are about 1e-235: their squares underflow
        cfg = cd.SimConfig(n_values=(50, 100), trials=2000, seed=7, tilt_lambda=400.0)
        est = cd.md_probability(cd.Uniform(1.0), [1.0, -1.0], [1.0, -1.0], 0.4, cfg, BUD)
        entry = est.per_n[1]
        assert 0.0 < entry["prob_estimate"] < 1e-200
        w = np.resize([1.0, -1.0], 100)
        log_norm = float(np.sum(cd.cgf_eval(cd.Uniform(1.0), 400.0 * w)) + 0.5 * 400.0 ** 2 * 100)
        weights = _kernels.md_weights(*cd.cgf.kernel_args(cd.Uniform(1.0)), w, 400.0, 1.0,
                                      0.4 * 100 - 100.0, log_norm, 7, 100, 2000)
        scaled = weights / weights.max()
        want = scaled.std() / scaled.mean() / math.sqrt(2000)
        assert entry["rel_stderr"] == pytest.approx(want, rel=1e-9)
        assert 0.0 < entry["rel_stderr"] < math.inf

    def test_degenerate_tilt_rejected(self):
        model = cd.Laplacian(0.5)
        cfg = cd.SimConfig(n_values=(16,), trials=2000, seed=1, tilt_lambda=1.0)
        with pytest.raises(cd.DegenerateTilt):
            cd.md_probability(model, [1.0], [1.0], 0.1, cfg, BUD)

    def test_chernoff_bound_direction(self):
        # empirical -ln(P)/n must not drop below the analytic exponent
        model = cd.Gaussian(1.0)
        theta = 0.4
        joint = cd.JointAtoms([1.0], [1.0], [1.0])
        analytic = cd.md_exponent(joint, theta, BUD, model).value
        cfg = cd.SimConfig(n_values=(50, 100), trials=50_000, seed=13, tilt_lambda=0.3)
        est = cd.md_probability(model, [1.0], [1.0], theta, cfg, BUD)
        for entry in est.per_n:
            rate = -math.log(entry["prob_estimate"]) / entry["n"]
            assert rate >= analytic - 3.0 * entry["rel_stderr"] / entry["n"]

    def test_gaussian_slope_matches_analytic(self):
        model = cd.Gaussian(1.0)
        theta = 0.4
        analytic = (1.0 - theta) ** 2 / 4.0
        cfg = cd.SimConfig(
            n_values=(50, 100, 200), trials=50_000, seed=7, tilt_lambda=(1 - theta) / 2
        )
        est = cd.md_probability(model, [1.0], [1.0], theta, cfg, BUD)
        assert est.slope == pytest.approx(analytic, rel=0.10)


class TestEstimateSlope:
    def test_exact_exponential(self):
        rows = [
            {"n": n, "prob_estimate": math.exp(-0.3 * n), "rel_stderr": 1e-6}
            for n in (50, 100, 200, 400)
        ]
        assert cd.estimate_slope(rows).slope == pytest.approx(0.3, abs=1e-12)

    def test_polynomial_prefactor_absorbed(self):
        rows = [
            {"n": n, "prob_estimate": n * math.exp(-0.3 * n), "rel_stderr": 1e-6}
            for n in (50, 100, 200, 400)
        ]
        assert cd.estimate_slope(rows).slope == pytest.approx(0.3, rel=0.02)

    def test_constant_probabilities(self):
        rows = [
            {"n": n, "prob_estimate": 0.25, "rel_stderr": 1e-6} for n in (50, 100, 200)
        ]
        assert cd.estimate_slope(rows).slope == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_data(self):
        rows = [{"n": 50, "prob_estimate": 0.1, "rel_stderr": 0.01}]
        with pytest.raises(cd.InsufficientData):
            cd.estimate_slope(rows)

    def test_noisy_points_filtered(self):
        rows = [
            {"n": n, "prob_estimate": math.exp(-0.2 * n), "rel_stderr": 0.01}
            for n in (50, 100, 200)
        ]
        rows.append({"n": 400, "prob_estimate": 1e-60, "rel_stderr": 5.0})
        est = cd.estimate_slope(rows)
        assert est.slope == pytest.approx(0.2, rel=1e-6)
        assert len(est.per_n) == 3


class TestKernels:
    SAMPLER_CASES = [
        (0, (1.0, 0.0, 0.0), cd.Gaussian(1.0)),
        (1, (2.0, 0.0, 0.0), cd.Laplacian(2.0)),
        (2, (1.5, 0.0, 0.0), cd.BinarySymmetric(1.5)),
        (3, (2.0, 0.0, 0.0), cd.Uniform(2.0)),
        (4, (0.8, 1.0, 3.0), cd.MixtureBinaryLaplace(0.8, 1.0, 3.0)),
    ]

    @pytest.mark.parametrize(
        "model_id,params,model", SAMPLER_CASES, ids=lambda c: str(c)
    )
    def test_tilted_sampler_weight_identity(self, model_id, params, model):
        # with an always-true indicator and log_norm=0 the weights are
        # e^{lam x}, whose tilted mean must equal exp(-C(lam w) - lam^2/2);
        # a wrong sampler density breaks this identity
        assert cd.cgf.kernel_args(model) == (model_id, *params)
        lam, w = 0.6, np.array([1.0])
        out = _kernels.md_weights(
            model_id, *params, w, lam=lam, var_n=1.0, thresh=1e9, log_norm=0.0,
            seed=5, n_tag=1, trials=400_000,
        )
        want = math.exp(-cd.cgf_eval(model, lam) - 0.5 * lam * lam)
        got = out.mean()
        se = out.std(ddof=1) / math.sqrt(out.size)
        assert abs(got - want) < 4 * se

    # the monte-carlo benchmark's models, patterns and tilts, at theta = 0.4
    BENCH_CASES = [
        (cd.Gaussian(1.0), [1.0, 0.6], [1.0, 0.8], 0.25),
        (cd.Laplacian(2.0), [1.0, 0.6], [1.0, 0.8], 0.33),
        (cd.BinarySymmetric(1.5), [1.0], [1.0], 0.19),
        (cd.Uniform(2.0), [1.0, 0.6], [1.0, 0.8], 0.22),
        (cd.MixtureBinaryLaplace(0.8, 1.0, 3.0), [1.0, 0.6], [1.0, 0.8], 0.27),
    ]

    @staticmethod
    def _kernel_call(model, w_pat, s_pat, lam, n, theta=0.4):
        w = np.resize(np.asarray(w_pat, float), n)
        s = np.resize(np.asarray(s_pat, float), n)
        log_norm = float(np.sum(cd.cgf_eval(model, lam * w)) + 0.5 * lam * lam * np.dot(w, w))
        thresh = theta * n - float(np.dot(w, s))
        return (*cd.cgf.kernel_args(model), w, lam, 1.0, thresh, log_norm)

    @pytest.mark.parametrize(
        "model,w_pat,s_pat,lam",
        BENCH_CASES,
        ids=["gaussian", "laplacian", "binary", "uniform", "mixture"],
    )
    def test_conditional_weights_match_full_noise_oracle(self, model, w_pat, s_pat, lam):
        # integrating N out keeps the mean and cannot raise the variance
        trials = 20_000
        args = self._kernel_call(model, w_pat, s_pat, lam, 50)
        new = _kernels.md_weights(*args, 1, 50, trials)
        old = md_weights_full_noise(*args, 2, 50, trials)
        se = math.hypot(new.std(ddof=1), old.std(ddof=1)) / math.sqrt(trials)
        assert abs(new.mean() - old.mean()) <= 4.0 * se
        assert new.var(ddof=1) <= old.var(ddof=1)

    @pytest.mark.parametrize(
        "model,w_pat,s_pat,lam",
        BENCH_CASES,
        ids=LAW_IDS,
    )
    def test_conditional_weights_match_full_noise_oracle_at_n400(self, model, w_pat, s_pat, lam):
        trials = 20_000
        args = self._kernel_call(model, w_pat, s_pat, lam, 400)
        new = _kernels.md_weights(*args, 1, 400, trials)
        old = md_weights_full_noise(*args, 2, 400, trials)
        se = math.hypot(new.std(ddof=1), old.std(ddof=1)) / math.sqrt(trials)
        assert abs(new.mean() - old.mean()) <= 4.0 * se
        assert new.var(ddof=1) <= old.var(ddof=1)

    @pytest.mark.parametrize("pattern", EDGE_PATTERNS)
    @pytest.mark.parametrize(
        "model,w_pat,s_pat,lam",
        BENCH_CASES,
        ids=LAW_IDS,
    )
    def test_edge_patterns_match_full_noise_oracle(self, model, w_pat, s_pat, lam, pattern):
        trials, n = 20_000, 64
        w = EDGE_PATTERNS[pattern]
        args = self._kernel_call(model, w, w, lam, n)
        new = _kernels.md_weights(*args, 3, n, trials)
        old = md_weights_full_noise(*args, 4, n, trials)
        se = math.hypot(new.std(ddof=1), old.std(ddof=1)) / math.sqrt(trials)
        assert abs(new.mean() - old.mean()) <= 4.0 * se
        assert new.var(ddof=1) <= old.var(ddof=1)

    @pytest.mark.parametrize("n", [7, 50, 400])
    @pytest.mark.parametrize(
        "model,w_pat,s_pat,lam",
        BENCH_CASES
        + [(model, EDGE_PATTERNS["mixed-signs"], [1.0], lam) for model, _, _, lam in BENCH_CASES]
        + [(cd.Laplacian(2.0), EDGE_PATTERNS["distinct"], [1.0], 0.33)],
        ids=LAW_IDS + [f"{law}-mixed-signs" for law in LAW_IDS] + ["laplacian-distinct"],
    )
    def test_weights_independent_of_chunking(self, model, w_pat, s_pat, lam, n, monkeypatch):
        args = self._kernel_call(model, w_pat, s_pat, lam, n)
        want = _kernels.md_weights(*args, 9, n, 1000)
        for elems in (n, 3 * n + 1, 2 ** 20):
            monkeypatch.setattr(_kernels, "_CHUNK_ELEMS", elems)
            assert np.array_equal(_kernels.md_weights(*args, 9, n, 1000), want)

    def test_uniform_weights_keep_their_per_index_values(self):
        # the uniform law has no closed-form group sum: its draws stay one
        # inverse-CDF draw per index, and their per-trial sums are pinned
        # bit for bit; the weights follow from the sums by the closed form
        lam = self.BENCH_CASES[3][3]
        args = self._kernel_call(*self.BENCH_CASES[3], 50)
        w, thresh, log_norm = args[4], args[7], args[8]
        pick = [0, 1, 2, 500, 999]
        sums = _kernels._tilted_sums(*args[:6], 9, 50, 1000)[pick]
        want = ["-0x1.336d0791ef9f4p+3", "-0x1.20c4035d60f14p+3", "-0x1.4b1abe7367d07p+3",
                "-0x1.33d50fbb72f16p+4", "-0x1.a20d0c3b8ae32p+4"]
        assert [float(x).hex() for x in sums] == want
        var_sum = float(np.dot(w, w))
        log_phi = special.log_ndtr((thresh - sums) / math.sqrt(var_sum))
        ref = np.exp(lam * sums + log_norm - 0.5 * lam * lam * var_sum + log_phi)
        out = _kernels.md_weights(*args, 9, 50, 1000)[pick]
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=0.0)

    def test_lower_hull_property(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 10, 500))
        y = np.sin(x) + 0.1 * x ** 2
        idx = _kernels.lower_hull(x, y)
        # the hull keeps both ends, in order
        assert idx[0] == 0 and idx[-1] == x.size - 1
        assert np.all(np.diff(idx) > 0)
        # every point on or above each hull segment
        env = np.interp(x, x[idx], y[idx])
        assert np.all(y >= env - 1e-12)
        # hull vertices turn left: slopes strictly increase
        slopes = np.diff(y[idx]) / np.diff(x[idx])
        assert np.all(np.diff(slopes) > 0)

    @pytest.mark.parametrize(
        "model,lam",
        [
            (cd.MixtureBinaryLaplace(0.95, 0.5, 5.0), 1.0),
            (cd.BinarySymmetric(7.0), 0.5),
            (cd.Laplacian(2.0), 1.0),
            (cd.Uniform(1.5), 0.5),
        ],
        ids=["mixture", "binary", "laplacian", "uniform"],
    )
    def test_lower_hull_matches_stack_on_joint_grids(self, model, lam, monkeypatch):
        # the graph that joint design hands to the hull, for p_cap = 1e8
        graphs = []

        def record(x, y):
            graphs.append((x, y))
            return lower_hull_stack(x, y)

        monkeypatch.setattr(joint, "lower_hull", record)
        joint._envelope_values(model, lam, np.array([1.0]), 1e8, {})
        (x, y), = graphs
        np.testing.assert_array_equal(_kernels.lower_hull(x, y), lower_hull_stack(x, y))

    @pytest.mark.parametrize(
        "y",
        [
            [3.0, 3.0, 3.0, 3.0, 3.0, 3.0],  # one flat run
            [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],  # one sloped run
            [4.0, 2.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0],  # three runs meeting at kinks
            [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0],  # concave: only the ends
            [5.0, 0.0],
            [1.0],
        ],
    )
    def test_lower_hull_collinear_runs(self, y):
        # integer coordinates make every cross product exact, so points on
        # a chord (cross product 0) are dropped, never kept by rounding
        y = np.array(y)
        x = np.arange(y.size, dtype=float)
        np.testing.assert_array_equal(_kernels.lower_hull(x, y), lower_hull_stack(x, y))


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.integers(1, 50), min_size=1, max_size=60),
    heights=st.lists(st.integers(-20, 20), min_size=61, max_size=61),
)
def test_lower_hull_matches_stack_property(steps, heights):
    # integer graphs: exact cross products, with many collinear triples
    x = np.concatenate([[0.0], np.cumsum(steps, dtype=float)])
    y = np.array(heights[: x.size], dtype=float)
    np.testing.assert_array_equal(_kernels.lower_hull(x, y), lower_hull_stack(x, y))


def _lg(m):
    """ln Gamma(k) for k = 0, ..., m + 2, as the kernel's tables take it."""
    return np.concatenate([[np.inf], special.gammaln(np.arange(1.0, m + 3.0))])


def _pmf(tables, i, size):
    """The pmf that row i of the kernel's windowed CDF tables draws from;
    the window's first entry carries the mass below it (under 2^-54)."""
    table, lo = tables
    cdf = table[i][table[i] <= 1.0]
    assert cdf[-1] == 1.0 and np.all(table[i, cdf.size:] == 2.0)
    pmf = np.zeros(size)
    pmf[lo[i] : lo[i] + cdf.size] = np.diff(cdf, prepend=0.0)
    return pmf


def _base(trials, groups, seed=11):
    trial_col = np.arange(trials, dtype=np.uint64)[:, None]
    return _kernels._stream_base(seed, 3, trial_col, np.arange(groups, dtype=np.uint64)[None, :])


class TestGroupSums:
    """The exact laws of the per-weight group sums that the kernel draws."""

    def test_unit_stays_inside_the_open_interval(self):
        # top bits 0, 2^52 (whose added half rounds to even) and 2^53 - 1
        u = _kernels._unit(np.array([0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64))
        assert list(u) == [2.0 ** -54, 0.5, 1.0 - 2.0 ** -53]

    @pytest.mark.parametrize("z0", [1.0, 2.5])
    @pytest.mark.parametrize("tau", [400.0, 30.0, 1.5, 1e-3, 1e-6, -1e-6, -1e-3, -1.5, -30.0, -400.0])
    def test_uniform_inverse_cdf_inverts_the_tilted_cdf(self, z0, tau):
        # e^{2 tau z0} overflows past tau z0 ~ 354; the draws must not
        u = np.concatenate([[2.0 ** -54, 1e-12], np.linspace(1e-6, 1.0 - 1e-6, 101), [1.0 - 2.0 ** -53]])
        z = _kernels._uniform_z(z0, np.array([tau]), u[:, None]).ravel()
        assert np.all(np.isfinite(z)) and np.all(np.abs(z) <= z0)
        g = tau * z0
        if g > 1.0:  # (e^{tau (z - z0)} - e^{-2g}) / (1 - e^{-2g})
            cdf = (np.exp(tau * (z - z0)) - math.exp(-2.0 * g)) / -math.expm1(-2.0 * g)
        else:  # (e^{tau (z + z0)} - 1) / (e^{2g} - 1)
            cdf = np.expm1(tau * (z + z0)) / math.expm1(2.0 * g)
        np.testing.assert_allclose(cdf, u, rtol=0.0, atol=1e-12)

    def test_uniform_estimate_is_finite_at_a_large_tilt(self):
        # half the indices have w = -1, tilted by +400 towards +z0
        cfg = cd.SimConfig(n_values=(50, 100), trials=2000, seed=7, tilt_lambda=400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = cd.md_probability(cd.Uniform(1.0), [1.0, -1.0], [1.0, -1.0], 0.4, cfg, BUD)
        assert all(0.0 < entry["prob_estimate"] < 1.0 for entry in est.per_n)

    @pytest.mark.parametrize("k", [1, 2, 7, 60, 400])
    def test_gamma_draws_follow_the_gamma_law(self, k):
        draws = _kernels._gamma(np.array([k]), _base(20_000, 1), 0).ravel()
        assert stats.kstest(draws, stats.gamma(k).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("k", [2, 7, 400])
    def test_gammaincinv_fallback_follows_the_gamma_law(self, k, monkeypatch):
        # shape 1 is one exponential and never reaches the fallback
        monkeypatch.setattr(_kernels, "_TRIES", 0)
        draws = _kernels._gamma(np.array([k]), _base(20_000, 1), 0).ravel()
        assert stats.kstest(draws, stats.gamma(k).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("k", [2, 5, 50])
    def test_substream_fallback_is_exact_and_chunk_free(self, k, monkeypatch):
        # with no candidate budget every draw comes from the sub-stream
        monkeypatch.setattr(_kernels, "_TRIES", 0)
        base = _base(20_000, 1)
        draws = _kernels._gamma(np.array([k]), base, 0)
        assert stats.kstest(draws.ravel(), stats.gamma(k).cdf).pvalue > 1e-3
        # with a budget of one the rejected entries move to it: chunks of
        # the trials draw what the whole does
        monkeypatch.setattr(_kernels, "_TRIES", 1)
        whole = _kernels._gamma(np.array([k]), base, 0)
        cuts = ((0, 7), (7, 9000), (9000, 20_000))
        parts = [_kernels._gamma(np.array([k]), base[lo:hi], 0) for lo, hi in cuts]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_gamma_of_shape_zero_is_zero(self):
        k = np.array([[0, 3], [2, 0]])
        draws = _kernels._gamma(k, _base(2, 2), 0)
        assert draws[0, 0] == 0.0 and draws[1, 1] == 0.0
        assert draws[0, 1] > 0.0 and draws[1, 0] > 0.0

    @pytest.mark.parametrize("m,p", [(1, 0.3), (12, 0.05), (200, 0.62), (400, 0.999), (20000, 0.5)])
    def test_binomial_table_is_the_binomial_pmf(self, m, p):
        tables = _kernels._binom_rows(_lg(m), [m], [math.log(p)], [math.log1p(-p)],
                                      _kernels._table_width(m))
        pmf = _pmf(tables, 0, m + 1)
        k = np.arange(m + 1)
        np.testing.assert_allclose(pmf, stats.binom.pmf(k, m, p), rtol=1e-9, atol=1e-15)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.dot(k, pmf) == pytest.approx(m * p, rel=1e-12)
        assert np.dot((k - m * p) ** 2, pmf) == pytest.approx(m * p * (1 - p), rel=1e-9)

    def test_table_rows_do_not_depend_on_their_block(self, monkeypatch):
        # rows of unequal m built together, in blocks of any size, equal
        # the rows built one at a time
        m = np.array([1, 5000, 0, 37, 400, 1])
        p = np.array([0.5, 0.3, 0.9, 0.999, 0.62, 0.01])
        lg, width = _lg(m.max()), _kernels._table_width(m.max())
        alone = [_kernels._binom_rows(lg, m[i : i + 1], np.log(p[i : i + 1]), np.log1p(-p[i : i + 1]), width)
                 for i in range(m.size)]
        for elems in (2 ** 14, 64):
            monkeypatch.setattr(_kernels, "_CHUNK_ELEMS", elems)
            table, lo = _kernels._binom_rows(lg, m, np.log(p), np.log1p(-p), width)
            np.testing.assert_array_equal(table, np.vstack([t for t, _ in alone]))
            np.testing.assert_array_equal(lo, np.concatenate([l for _, l in alone]))

    def test_table_width_bounds_memory(self):
        # one row per table holds a window of about 9 sqrt(m) entries
        assert _kernels._table_width(1) == 2
        assert _kernels._table_width(200) == 256
        assert _kernels._table_width(20_000) == 2048

    @pytest.mark.parametrize("m,p", [(1, 0.5), (37, 0.7), (400, 0.999), (5000, 0.3)])
    def test_windowed_table_draws_as_the_full_table(self, m, p):
        # the window drops only entries no uniform in [2^-54, 1 - 2^-53]
        # can select, so every draw equals the untruncated table's
        lg = _lg(m)
        k = np.arange(m + 1)
        log_pmf = lg[m + 1] - lg[k + 1] - lg[m - k + 1] + k * math.log(p) + (m - k) * math.log1p(-p)
        full = np.cumsum(np.exp(log_pmf - log_pmf.max()))
        full /= full[-1]
        tables = _kernels._binom_rows(lg, [m], [math.log(p)], [math.log1p(-p)],
                                      _kernels._table_width(m))
        ends = [2.0 ** -54, 1.0 - 2.0 ** -53]
        u = np.concatenate([ends, full[full < 1.0], np.random.default_rng(2).uniform(size=2000)])
        u = np.clip(u, *ends)[:, None]
        got = _kernels._invert(tables, np.zeros(1, dtype=np.intp), u)
        np.testing.assert_array_equal(got[:, 0], np.searchsorted(full, u[:, 0], side="right"))

    @pytest.mark.parametrize("tau", [-0.9, 0.0, 1.7])
    def test_mixture_trinomial_is_the_multinomial_pmf(self, tau):
        model = cd.MixtureBinaryLaplace(0.8, 1.0, 3.0)
        log_lap, log_bin, log_r = _kernels._mixture_split(0.8, 1.0, 3.0, np.array([tau]))
        # the tilted component probabilities, from the model's own CGF
        mgf = math.exp(cd.cgf_eval(model, tau))
        p_lap = 0.2 * 9.0 / (9.0 - tau * tau) / mgf
        p_plus = 0.8 * 0.5 * math.exp(tau) / mgf
        p_minus = 0.8 * 0.5 * math.exp(-tau) / mgf
        assert math.exp(log_lap[0]) == pytest.approx(p_lap, rel=1e-12)
        assert math.exp(log_bin[0]) == pytest.approx(p_plus + p_minus, rel=1e-12)
        assert math.exp(log_r[0, 0]) == pytest.approx(p_plus / (p_plus + p_minus), rel=1e-12)
        # K_L from one table, then K+ from the table of the m_b = m - K_L left
        m = 12
        lap = _kernels._binom_rows(_lg(m), [m], log_lap, log_bin, 16)
        plus = _kernels._binom_rows(_lg(m), np.arange(m + 1), [log_r[0, 0]] * (m + 1),
                                    [log_r[1, 0]] * (m + 1), 16)
        p_k_lap = _pmf(lap, 0, m + 1)
        joint_pmf = np.zeros((m + 1, m + 1))
        for k_lap in range(m + 1):
            m_b = m - k_lap
            joint_pmf[k_lap, : m_b + 1] = p_k_lap[k_lap] * _pmf(plus, m_b, m_b + 1)
        assert joint_pmf.sum() == pytest.approx(1.0, abs=1e-13)
        k_l, k_p = np.arange(m + 1)[:, None], np.arange(m + 1)[None, :]
        assert np.sum(k_l * joint_pmf) == pytest.approx(m * p_lap, rel=1e-12)
        assert np.sum(k_p * joint_pmf) == pytest.approx(m * p_plus, rel=1e-12)
        assert np.sum((k_l - m * p_lap) * (k_p - m * p_plus) * joint_pmf) == pytest.approx(
            -m * p_lap * p_plus, rel=1e-9)
        k_lap, k_plus = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        k_minus = m - k_lap - k_plus
        valid = k_minus >= 0
        counts = np.stack([k_lap[valid], k_plus[valid], k_minus[valid]], axis=1)
        want = stats.multinomial.pmf(counts, m, [p_lap, p_plus, p_minus])
        np.testing.assert_allclose(joint_pmf[valid], want, rtol=1e-9, atol=1e-15)
        assert np.all(joint_pmf[~valid] == 0.0)

    # at m = 400 the K_L tables start past K_L = 0 (lo > 0)
    @pytest.mark.parametrize("m", [1, 25, 400])
    @pytest.mark.parametrize(
        "model", [cd.Gaussian(1.0), cd.Laplacian(2.0), cd.BinarySymmetric(1.5),
                  cd.MixtureBinaryLaplace(0.8, 1.0, 3.0)],
        ids=["gaussian", "laplacian", "binary", "mixture"],
    )
    def test_group_sum_moments(self, model, m):
        # A adds m tilted draws: mean m Cdot(tau), variance m C''(tau)
        tau = np.array([-0.6, 0.4])
        counts = np.array([m, m])
        trials = 200_000
        sums = _kernels._group_sampler(*cd.cgf.kernel_args(model), tau, counts)(_base(trials, 2))
        mean, var = m * model.cdot(tau), m * model.cddot(tau)
        se_mean = np.sqrt(var / trials)
        assert np.all(np.abs(sums.mean(axis=0) - mean) < 5.0 * se_mean)
        # the sample variance's stderr, from the fourth moment, bounded loosely
        assert np.all(np.abs(sums.var(axis=0) / var - 1.0) < 0.03)
