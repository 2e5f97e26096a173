"""Finite-n simulation: exact FA, tilted estimators, slope regression."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrdet as cd
from corrdet import _kernels, joint
from oracles import lower_hull_stack, md_probability_exhaustive_binary, md_weights_full_noise

BUD = cd.PowerBudget(p_w=1.0, var_n=1.0)


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

    @pytest.mark.parametrize("n", [7, 50, 400])
    @pytest.mark.parametrize(
        "model,w_pat,s_pat,lam",
        [BENCH_CASES[1], BENCH_CASES[3], BENCH_CASES[4]],
        ids=["laplacian", "uniform", "mixture"],
    )
    def test_weights_independent_of_chunking(self, model, w_pat, s_pat, lam, n, monkeypatch):
        args = self._kernel_call(model, w_pat, s_pat, lam, n)
        want = _kernels.md_weights(*args, 9, n, 1000)
        for elems in (n, 3 * n + 1, 2 ** 20):
            monkeypatch.setattr(_kernels, "_CHUNK_ELEMS", elems)
            assert np.array_equal(_kernels.md_weights(*args, 9, n, 1000), want)

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
