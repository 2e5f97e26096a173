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
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([2.0, -2.0], [0.5, 0.5])
        lam = 0.7
        want = lam * math.sqrt(sig.e_s2 / BUD.p_w) - (1.0 + 1.0) * lam * lam
        got = cd.tune_rho(model, sig, lam, BUD)
        assert got == pytest.approx(want, rel=1e-7)

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
        # the false-position step is formed only for tilts still searching;
        # a finished tilt can have f_hi == f_lo
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

    def test_power_identity(self):
        alpha_star, _ = cd.design_4ask(cd.BinarySymmetric(7.0), 4.0, 4.0, BUD)
        beta = math.sqrt(2 * BUD.p_w - alpha_star ** 2)
        assert alpha_star ** 2 + beta ** 2 == pytest.approx(2 * BUD.p_w, rel=1e-12)
