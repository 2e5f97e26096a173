"""Correlator design: g-map, power tuning, and the design family."""

import math
import warnings

import numpy as np
import pytest

import corrdet as cd
from corrdet.design import (
    GInverseNotConverged,
    _fourask_joint,
    _g_inverse_arr,
    _objective_for_lams,
    _tune_rho_arr,
)
from oracles import g_inverse_brentq

BUD = cd.PowerBudget(p_w=1.0, var_n=1.0)

MODELS = [
    cd.Gaussian(1.0),
    cd.Laplacian(2.0),
    cd.BinarySymmetric(2.0),
    cd.Uniform(1.5),
    cd.MixtureBinaryLaplace(0.8, 1.0, 3.0),
]


class TestGMap:
    def test_zero_maps_to_zero(self):
        for model in MODELS:
            assert cd.g_eval(model, 0.0, 0.5, 1.2, 1.0) == 0.0
            assert cd.g_inverse(model, 0.0, 0.5, 1.2, 1.0) == 0.0

    def test_gaussian_linear_form(self):
        # slope (var_n + var_z) lam + rho/lam
        model = cd.Gaussian(1.5)
        lam, rho = 0.8, 0.3
        slope = (1.0 + 1.5) * lam + rho / lam
        for w in [-2.0, 0.7, 3.1]:
            assert cd.g_eval(model, w, rho, lam, 1.0) == pytest.approx(slope * w, rel=1e-13)
        for s in [-1.0, 2.5]:
            assert cd.g_inverse(model, s, rho, lam, 1.0) == pytest.approx(s / slope, rel=1e-9)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(0)
        for model in MODELS:
            lo, hi = cd.cgf_domain(model)
            wcap = 2.0 if math.isinf(hi) else 0.8 * hi / 1.1
            w = np.sort(rng.uniform(-wcap, wcap, size=40))
            g = cd.g_eval(model, w, 0.4, 1.1, 1.0)
            assert np.all(np.diff(g) > 0)

    def test_round_trip_all_models(self):
        rng = np.random.default_rng(1)
        for model in MODELS:
            for _ in range(10):
                s = rng.normal() * 3.0
                lam = rng.uniform(0.2, 2.0)
                rho = rng.uniform(0.0, 1.0)
                w = cd.g_inverse(model, s, rho, lam, 1.0)
                assert cd.g_eval(model, w, rho, lam, 1.0) == pytest.approx(
                    s, abs=1e-9 * (1 + abs(s))
                )

    def test_inverse_stays_in_domain(self):
        model = cd.Laplacian(0.1)
        w = cd.g_inverse(model, 100.0, 0.0, 1.0, 1.0)
        assert abs(w) * 1.0 < 0.1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cd.g_eval(cd.Gaussian(1.0), 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            cd.g_inverse(cd.Gaussian(1.0), 1.0, -0.1, 1.0, 1.0)

    def test_matches_scalar_brentq(self):
        # lam over six decades and rho in {0, 1, 100}, broadcast as columns
        # against the atoms the way the design code calls it
        lams, rhos = np.meshgrid(np.logspace(-3.0, 3.0, 7), [0.0, 1.0, 100.0])
        lam_col, rho_col = lams.reshape(-1, 1), rhos.reshape(-1, 1)
        s = np.array([-7.0, -0.3, 0.0, 1e-6, 0.5, 2.0, 30.0])
        for model in MODELS:
            w = _g_inverse_arr(model, s, rho_col, lam_col, 1.0)
            for lam, rho, row in zip(lam_col[:, 0], rho_col[:, 0], w):
                # g' >= slope, so the two tolerance bands differ by this much in w
                bound = 2e-10 * (1.0 + np.abs(s)) / (rho / lam + lam)
                ref = [g_inverse_brentq(model, x, rho, lam, 1.0) for x in s]
                assert np.all(np.abs(row - ref) <= bound), (model, lam, rho)

    def test_batch_equals_single_solves(self):
        # 1e-9 converges on its first probe while the others need many; it
        # must stay where it converged while the rest of the batch iterates
        s = np.array([1e-9, 3.0, -40.0, 0.7])
        rho, lam = np.asarray(0.2), np.asarray(0.9)
        for model in MODELS:
            batch = _g_inverse_arr(model, s, rho, lam, 1.0)
            single = [_g_inverse_arr(model, np.array([x]), rho, lam, 1.0)[0] for x in s]
            assert np.array_equal(batch, single), model

    def test_unconverged_inverse_raises(self):
        assert issubclass(GInverseNotConverged, ArithmeticError)  # CLI exit 3
        with pytest.raises(GInverseNotConverged, match=r"Laplacian\(q=2\.0\).*residual"):
            _g_inverse_arr(
                cd.Laplacian(2.0), np.array([0.5, 3.0]), np.asarray(0.0), np.asarray(1.0),
                1.0, max_iter=1,
            )
        # the linearised start is already the Gaussian root
        model, rho, lam = cd.Gaussian(1.5), 0.3, 0.8
        s = np.array([0.5, -3.0])
        w = _g_inverse_arr(model, s, np.asarray(rho), np.asarray(lam), 1.0, max_iter=1)
        assert w == pytest.approx(s / ((1.0 + 1.5) * lam + rho / lam), rel=1e-12)


class TestTuneRho:
    def test_gaussian_closed_form(self):
        # P(rho)^{-1/2} is linear in rho here, so Newton lands on the root
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([2.0, -2.0], [0.5, 0.5])
        for lam in [0.05, 0.3, 0.7]:
            want = lam * math.sqrt(sig.e_s2 / BUD.p_w) - (1.0 + 1.0) * lam * lam
            got = cd.tune_rho(model, sig, lam, BUD)
            assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("budget", [BUD, cd.PowerBudget(p_w=0.3, var_n=0.7)])
    def test_power_met_inside_closed_form_bracket(self, model, budget):
        sig = cd.SignalAtoms.uniform_grid(-2.0, 3.0, 16)
        lams = np.geomspace(1e-2, 10.0, 9)
        p_w, var_n = budget.p_w, budget.var_n
        rho = _tune_rho_arr(model, sig.s, sig.weight, lams[:, None], p_w, var_n)
        hi = lams * np.maximum(math.sqrt(sig.e_s2 / p_w) - var_n * lams, 0.0)
        binding = []
        for lam, r, top in zip(lams, rho, hi):
            w0 = cd.g_inverse(model, sig.s, 0.0, lam, var_n)
            if np.dot(sig.weight, w0 * w0) <= p_w:
                assert r == 0.0  # slack: exactly zero
                continue
            w = cd.g_inverse(model, sig.s, r, lam, var_n)
            assert abs(np.dot(sig.weight, w * w) - p_w) <= 5e-10 * min(p_w, 1.0)
            assert 0.0 < r <= top
            binding.append(lam)
        assert 0 < len(binding) < lams.size  # both regimes were exercised

    def test_slack_constraint_returns_zero(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([2.0, -2.0], [0.5, 0.5])
        big = cd.PowerBudget(p_w=1e9, var_n=1.0)
        assert cd.tune_rho(model, sig, 0.7, big) == 0.0

    def test_binary_power_met(self):
        model = cd.BinarySymmetric(7.0)
        rng = np.random.default_rng(4)
        sig = cd.SignalAtoms(rng.normal(size=8) * 4, np.full(8, 1 / 8))

        def power_at(lam, rho):
            w = cd.g_inverse(model, sig.s, rho, lam, 1.0)
            return float(np.dot(sig.weight, w * w))

        # small tilt: constraint binds, power hits the budget exactly
        lam = 0.05
        rho = cd.tune_rho(model, sig, lam, BUD)
        assert rho > 0
        assert abs(power_at(lam, rho) - BUD.p_w) <= 1e-8 * BUD.p_w
        # large tilt: constraint slack, multiplier vanishes
        lam = 0.5
        rho = cd.tune_rho(model, sig, lam, BUD)
        assert rho == 0.0
        assert power_at(lam, rho) <= BUD.p_w


class TestDesignOptimal:
    def test_gaussian_closed_form_and_proportionality(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([4.0, -4.0], [0.5, 0.5])
        for theta in [1.0, 2.5]:
            d = cd.design_optimal(model, sig, theta, BUD)
            want = (math.sqrt(16.0) - theta) ** 2 / 4.0
            assert d.e_md.value == pytest.approx(want, abs=1e-6)
            ratio = d.joint.w / sig.s
            assert np.max(np.abs(ratio - ratio[0])) < 1e-9 * abs(ratio[0])

    def test_unreachable_threshold(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([1.0, -1.0], [0.5, 0.5])
        d = cd.design_optimal(model, sig, 5.0, BUD)
        assert d.e_md.value == 0.0

    def test_degenerate_signal(self):
        with pytest.raises(cd.DegenerateSignal):
            cd.design_optimal(cd.Gaussian(1.0), cd.SignalAtoms([0.0], [1.0]), 1.0, BUD)

    def test_kkt_residuals_random_instances(self):
        rng = np.random.default_rng(9)
        for model in [cd.BinarySymmetric(2.0), cd.Laplacian(2.0), cd.Uniform(1.5)]:
            s = rng.normal(size=8) * 2.0
            sig = cd.SignalAtoms(s, np.full(8, 1 / 8))
            d = cd.design_optimal(model, sig, 0.3, BUD)
            res = cd.g_eval(model, d.joint.w, d.rho_star, d.lambda_star, 1.0) - s
            assert np.max(np.abs(res)) < 1e-8
            assert d.joint.e_w2 <= BUD.p_w + 1e-8 * BUD.p_w

    def test_dominates_classical_and_binary(self):
        model = cd.BinarySymmetric(7.0)
        rng = np.random.default_rng(1)
        sig = cd.SignalAtoms(rng.normal(size=8) * 4, np.full(8, 1 / 8))
        for theta in [0.5, 1.0, 2.0]:
            d = cd.design_optimal(model, sig, theta, BUD)
            e_cl = cd.md_exponent(cd.design_classical(sig, BUD), theta, BUD, model).value
            e_bin = cd.md_exponent(cd.design_binary(sig, BUD), theta, BUD, model).value
            assert d.e_md.value >= e_cl - 1e-9
            assert d.e_md.value >= e_bin - 1e-9

    def test_rho_search_warning_free(self):
        # the multiplier's Newton step divides by dP/drho only for tilts
        # whose constraint binds, where it is negative
        model = cd.BinarySymmetric(7.0)
        rng = np.random.default_rng(1)
        sig = cd.SignalAtoms(rng.normal(size=8) * 4, np.full(8, 1 / 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for theta in [0.5, 1.0, 2.0]:
                cd.design_optimal(model, sig, theta, BUD)


    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("atoms", [2, 64])
    @pytest.mark.parametrize("theta", [0.2, 1.0, 2.0])
    def test_e_md_reaches_grid_maximum(self, model, atoms, theta):
        # the design value max over lam of V(lam), V the objective at the
        # tilt's own weights, bounds e_md from below; scan V on a fine grid
        if atoms == 2:
            sig = cd.SignalAtoms([2.5, -1.0], [0.5, 0.5])
        else:
            sig = cd.SignalAtoms.uniform_grid(-2.0, 2.0, atoms)
        d = cd.design_optimal(model, sig, theta, BUD)
        vals, _ = _objective_for_lams(model, sig, np.geomspace(1e-3, 1e2, 400), theta, BUD)
        assert d.e_md.value >= vals.max() - 1e-10


    @pytest.mark.parametrize(
        "model, signal, budget",
        [
            (cd.Laplacian(0.1), cd.SignalAtoms([50.0, 150.0], [0.5, 0.5]),
             cd.PowerBudget(100.0, 0.1)),
            (cd.BinarySymmetric(7.0), cd.SignalAtoms.uniform_grid(-2.0, 2.0, 64),
             cd.PowerBudget(1.0, 1e-3)),
        ],
        ids=["laplacian-pole", "binary-small-var-n"],
    )
    def test_best_tilt_below_the_first_grid(self, model, signal, budget):
        # the tilt grid is scaled by var_n alone, so a large C''(0) or a
        # near pole puts the best tilt far under its first point
        theta = 0.5 * math.sqrt(budget.p_w * signal.e_s2)
        d = cd.design_optimal(model, signal, theta, budget)
        vals, _ = _objective_for_lams(model, signal, np.geomspace(1e-7, 1e1, 800), theta, budget)
        assert d.e_md.value >= vals.max() * (1.0 - 1e-9)


class TestClassicalAndBinary:
    def test_classical_scales_to_power(self):
        rng = np.random.default_rng(5)
        sig = cd.SignalAtoms(rng.normal(size=7), np.full(7, 1 / 7))
        j = cd.design_classical(sig, BUD)
        assert j.e_w2 == pytest.approx(BUD.p_w, rel=1e-13)

    def test_classical_4ask_alpha(self):
        a = 4.0
        sig = cd.SignalAtoms([-3 * a, -a, a, 3 * a], [0.25] * 4)
        j = cd.design_classical(sig, BUD)
        small = j.w[np.abs(j.s) == a]
        assert np.abs(small[0]) == pytest.approx(math.sqrt(BUD.p_w / 5.0), rel=1e-13)

    def test_classical_constant_signal(self):
        sig = cd.SignalAtoms([2.0], [1.0])
        j = cd.design_classical(sig, BUD)
        assert j.w[0] == pytest.approx(math.sqrt(BUD.p_w), rel=1e-13)

    def test_binary_sign_and_tie(self):
        sig = cd.SignalAtoms([1.5, -0.5, 0.0], [0.4, 0.4, 0.2])
        j = cd.design_binary(sig, BUD)
        np.testing.assert_allclose(j.w, [1.0, -1.0, 1.0])

    def test_binary_mean_identity_symmetric_signal(self):
        sig = cd.SignalAtoms([2.0, -2.0, 0.5, -0.5], [0.25] * 4)
        j = cd.design_binary(sig, BUD)
        assert j.e_ws == pytest.approx(math.sqrt(BUD.p_w) * sig.e_abs, rel=1e-13)

    def test_binary_gaussian_closed_form(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([2.0, -2.0, 0.5, -0.5], [0.25] * 4)
        j = cd.design_binary(sig, BUD)
        theta = 0.5
        want = (math.sqrt(BUD.p_w) * sig.e_abs - theta) ** 2 / (2 * 2 * BUD.p_w)
        assert cd.md_exponent(j, theta, BUD, model).value == pytest.approx(want, abs=1e-9)


class TestQuantizer:
    def test_gaussian_uniform_signal_boundaries(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms.uniform_grid(-2.0, 2.0, 800)
        q = cd.design_quantized(model, sig, 4, 1.0, BUD)
        np.testing.assert_allclose(q.boundaries, [-1.0, 0.0, 1.0], atol=1e-6)
        assert np.all(np.diff(q.levels) > 0)

    def test_k2_symmetric_equals_sign_design(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms.uniform_grid(-2.0, 2.0, 800)
        q = cd.design_quantized(model, sig, 2, 1.0, BUD)
        assert abs(q.boundaries[0]) < 1e-9
        np.testing.assert_allclose(np.abs(q.levels), math.sqrt(BUD.p_w), atol=1e-7)
        binary = cd.design_binary(sig, BUD)
        applied = q.apply(sig)
        np.testing.assert_allclose(applied.w, binary.w, atol=1e-7)

    def test_fixed_point_residuals(self):
        model = cd.BinarySymmetric(2.0)
        rng = np.random.default_rng(12)
        sig = cd.SignalAtoms(np.sort(rng.normal(size=24)) * 2, np.full(24, 1 / 24))
        q = cd.design_quantized(model, sig, 3, 0.4, BUD)
        lam, rho, lv = q.lam, q.rho, q.levels
        c = cd.cgf_eval(model, lam * lv)
        bres = (
            c[1:] - c[:-1] + 0.5 * (rho + lam * lam) * (lv[1:] ** 2 - lv[:-1] ** 2)
        ) / (lam * (lv[1:] - lv[:-1])) - q.boundaries
        assert np.max(np.abs(bres)) < 1e-8
        idx = np.searchsorted(q.boundaries, sig.s, side="right")
        probs = np.bincount(idx, weights=sig.weight, minlength=3)
        means = np.bincount(idx, weights=sig.weight * sig.s, minlength=3) / probs
        lres = cd.g_inverse(model, means, rho, lam, 1.0) - lv
        assert np.max(np.abs(lres)) < 1e-8
        power = float(np.dot(probs, lv ** 2))
        assert power <= BUD.p_w + 1e-9

    def test_monotone_in_k_with_warm_start(self):
        model = cd.BinarySymmetric(7.0)
        rng = np.random.default_rng(2)
        sig = cd.SignalAtoms(rng.normal(size=16) * 4, np.full(16, 1 / 16))
        theta = 1.0
        q2 = cd.design_quantized(model, sig, 2, theta, BUD)
        e2 = cd.md_exponent(q2.apply(sig), theta, BUD, model).value
        init3 = np.sort(np.append(q2.boundaries, float(sig.s.max()) - 1e-6))
        q3 = cd.design_quantized(model, sig, 3, theta, BUD, init_boundaries=init3)
        e3 = cd.md_exponent(q3.apply(sig), theta, BUD, model).value
        assert e3 >= e2 - 1e-9
        # the unconstrained design caps the whole ladder
        e_opt = cd.design_optimal(model, sig, theta, BUD).e_md.value
        assert e_opt >= e3 - 1e-9

    @pytest.mark.parametrize(
        "model, budget",
        [
            (cd.BinarySymmetric(7.0), cd.PowerBudget(1.0, 1e-3)),
            (cd.Laplacian(0.1), cd.PowerBudget(100.0, 0.1)),
        ],
        ids=["binary-small-var-n", "laplacian-pole"],
    )
    def test_best_tilt_far_below_a_var_n_scaled_grid(self, model, budget):
        # a tilt grid scaled by var_n alone puts these optima far under its
        # first point, where a grid search returned 0 and 0.000672
        sig = cd.SignalAtoms.uniform_grid(-2.0, 2.0, 64)
        theta = 0.5 * math.sqrt(budget.p_w * sig.e_s2)
        q = cd.design_quantized(model, sig, 4, theta, budget)
        e_md = cd.md_exponent(q.apply(sig), theta, budget, model).value
        assert 0.0 < e_md <= cd.design_optimal(model, sig, theta, budget).e_md.value
        # the levels are the optimal design on the cells' means, so they
        # reach the best design value over the tilt on those cell atoms
        idx = np.searchsorted(q.boundaries, sig.s, side="right")
        probs = np.bincount(idx, weights=sig.weight, minlength=4)
        means = np.bincount(idx, weights=sig.weight * sig.s, minlength=4) / probs
        cells = cd.SignalAtoms(means, probs)
        vals, _ = _objective_for_lams(model, cells, np.geomspace(1e-7, 1e1, 800), theta, budget)
        assert e_md >= vals.max() * (1.0 - 1e-9)

    def test_k_capped_at_distinct_values(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([1.0, -1.0], [0.5, 0.5])
        q = cd.design_quantized(model, sig, 5, 0.2, BUD)
        assert q.levels.size == 2


class TestFourAsk:
    def test_binary_beats_classical_at_small_theta(self):
        model = cd.BinarySymmetric(7.0)
        alpha_star, res = cd.design_4ask(model, 4.0, 2.0, BUD)
        e_cl = cd.md_exponent(
            _fourask_joint(4.0, math.sqrt(BUD.p_w / 5.0), BUD.p_w), 2.0, BUD, model
        ).value
        assert res.value >= e_cl - 1e-9
        assert res.value > 1.05 * e_cl

    def test_uniform_dominance(self):
        model = cd.Uniform(7.0)
        alpha_star, res = cd.design_4ask(model, 4.0, 3.0, BUD)
        e_cl = cd.md_exponent(
            _fourask_joint(4.0, math.sqrt(BUD.p_w / 5.0), BUD.p_w), 3.0, BUD, model
        ).value
        assert res.value >= e_cl - 1e-9

    def test_laplacian_gap_minor(self):
        model = cd.Laplacian(0.1)
        theta = 2.0
        alpha_star, res = cd.design_4ask(model, 4.0, theta, BUD)
        e_cl = cd.md_exponent(
            _fourask_joint(4.0, math.sqrt(BUD.p_w / 5.0), BUD.p_w), theta, BUD, model
        ).value
        assert res.value >= e_cl - 1e-9
        assert res.value <= 1.05 * e_cl  # near-parity for Laplacian interference

    @pytest.mark.parametrize("model", [cd.Laplacian(0.1), cd.Uniform(7.0)], ids=repr)
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_at_least_a_direct_alpha_scan(self, model, fraction):
        # the small-level weight alpha searched directly, as a check on the
        # fold into design_optimal; p_w = 100 with var_n = 0.1 puts the
        # Laplacian's best tilt near its pole
        a, budget = 50.0, cd.PowerBudget(100.0, 0.1)
        theta = fraction * a * math.sqrt(5.0 * budget.p_w)
        _, res = cd.design_4ask(model, a, theta, budget)
        scan = max(
            cd.md_exponent(_fourask_joint(a, alpha, budget.p_w), theta, budget, model).value
            for alpha in np.linspace(0.0, math.sqrt(2.0 * budget.p_w), 201)
        )
        assert res.value >= scan * (1.0 - 1e-9)

    @pytest.mark.parametrize("theta", [0.0, 4.0, 4.0 * math.sqrt(5.0)])
    def test_power_identity(self, theta):
        # theta = 0 leaves the power constraint slack; at a sqrt(5 p_w) the
        # matched filter's E[WS] equals theta and every exponent is zero
        model = cd.BinarySymmetric(7.0)
        alpha_star, res = cd.design_4ask(model, 4.0, theta, BUD)
        assert 0.0 < alpha_star < math.sqrt(2 * BUD.p_w)
        joint = _fourask_joint(4.0, alpha_star, BUD.p_w)
        assert alpha_star ** 2 + joint.w[1] ** 2 == pytest.approx(2 * BUD.p_w, rel=1e-12)
        assert joint.e_w2 == pytest.approx(BUD.p_w, rel=1e-12)
        e_cl = cd.md_exponent(
            _fourask_joint(4.0, math.sqrt(BUD.p_w / 5.0), BUD.p_w), theta, BUD, model
        ).value
        assert res.value >= e_cl - 1e-10
