"""FA/MD exponent evaluation on atom distributions."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrdet as cd
from corrdet.cgf import tilt_cap
from corrdet.design import _fourask_joint
from oracles import md_exponent_brent

BUD = cd.PowerBudget(p_w=1.0, var_n=1.0)


class TestFaExponent:
    def test_unit_case(self):
        assert cd.fa_exponent(1.0, BUD) == 0.5

    def test_zero_threshold(self):
        assert cd.fa_exponent(0.0, BUD) == 0.0

    def test_scaled_case(self):
        assert cd.fa_exponent(2.0, cd.PowerBudget(p_w=2.0, var_n=1.0)) == 1.0

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            cd.fa_exponent(-0.1, BUD)

    def test_theta_for_fa_values(self):
        assert cd.theta_for_fa(0.5, BUD) == pytest.approx(1.0, abs=1e-15)
        assert cd.theta_for_fa(0.0, BUD) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(e=st.floats(0.0, 50.0), p_w=st.floats(0.01, 50.0), vn=st.floats(0.01, 10.0))
    def test_round_trip(self, e, p_w, vn):
        bud = cd.PowerBudget(p_w=p_w, var_n=vn)
        assert cd.fa_exponent(cd.theta_for_fa(e, bud), bud) == pytest.approx(e, abs=1e-12, rel=1e-12)


class TestJointAtoms:
    def test_normalization(self):
        j = cd.JointAtoms([1.0, 2.0], [1.0, 1.0], [0.5, 0.5 + 1e-9])
        assert j.weight.sum() == pytest.approx(1.0, abs=1e-15)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            cd.JointAtoms([1.0], [1.0], [0.4])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            cd.JointAtoms([1.0, 1.0], [1.0, 1.0], [1.5, -0.5])

    def test_csv_round_trip(self, tmp_path):
        j = cd.JointAtoms([0.3, -1.7], [2.0, -0.25], [0.25, 0.75])
        path = tmp_path / "atoms.csv"
        j.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "w,s,weight"
        back = cd.JointAtoms.from_csv(path)
        np.testing.assert_allclose(back.w, j.w, rtol=1e-11)
        np.testing.assert_allclose(back.s, j.s, rtol=1e-11)
        np.testing.assert_allclose(back.weight, j.weight, rtol=1e-11)

    def test_exponent_result_json(self):
        res = cd.ExponentResult(0.25, 1.5, {"iterations": 3})
        assert json.loads(res.to_json()) == {"value": 0.25, "lambda_star": 1.5}


class TestMdObjective:
    def test_zero_tilt(self):
        j = cd.JointAtoms([1.0], [2.0], [1.0])
        assert cd.md_objective(j, 0.0, 5.0, BUD, cd.Gaussian(1.0)) == 0.0

    def test_hand_value(self):
        j = cd.JointAtoms([1.0], [2.0], [1.0])
        got = cd.md_objective(j, 0.5, 1.0, BUD, cd.Gaussian(1.0))
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_threshold_at_mean_is_nonpositive(self):
        j = cd.JointAtoms([1.0, 0.5], [2.0, 1.0], [0.5, 0.5])
        theta = j.e_ws
        model = cd.BinarySymmetric(1.0)
        for lam in np.linspace(0.0, 3.0, 25):
            assert cd.md_objective(j, lam, theta, BUD, model) <= 1e-14

    def test_domain_error_propagates(self):
        j = cd.JointAtoms([2.0], [1.0], [1.0])
        with pytest.raises(cd.DomainError):
            cd.md_objective(j, 1.5, 0.0, BUD, cd.Laplacian(2.0))

    def test_zero_weight_atom_ignored(self):
        # an infeasible atom with zero probability must not trip the domain check
        j = cd.JointAtoms([2.0, 0.1], [1.0, 1.0], [0.0, 1.0])
        cd.md_objective(j, 1.5, 0.0, BUD, cd.Laplacian(2.0))


def _gauss_matched_em(e_s2, theta, var_n, var_z, p_w):
    top = max(math.sqrt(p_w * e_s2) - theta, 0.0)
    return top * top / (2.0 * (var_n + var_z) * p_w)


class TestMdExponent:
    def test_gaussian_matched_closed_form(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=6) * 2.0
        sig = cd.SignalAtoms(s, np.full(6, 1 / 6))
        joint = cd.design_classical(sig, BUD)
        model = cd.Gaussian(1.0)
        for theta in [0.0, 0.5, 1.5, 3.0]:
            res = cd.md_exponent(joint, theta, BUD, model)
            want = _gauss_matched_em(sig.e_s2, theta, 1.0, 1.0, 1.0)
            assert res.value == pytest.approx(want, abs=1e-9)

    def test_threshold_above_mean_gives_zero(self):
        j = cd.JointAtoms([1.0], [1.0], [1.0])
        res = cd.md_exponent(j, 2.0, BUD, cd.Gaussian(1.0))
        assert res.value == 0.0 and res.lambda_star == 0.0

    def test_binary_grid_oracle(self):
        model = cd.BinarySymmetric(7.0)
        j = cd.JointAtoms([0.4472135955, 1.3416407865], [4.0, 12.0], [0.5, 0.5])
        theta = 3.0
        res = cd.md_exponent(j, theta, BUD, model)
        lams = np.linspace(0.0, 4.0 * res.lambda_star + 1.0, 100_000)
        vals = np.array([cd.md_objective(j, l, theta, BUD, model) for l in lams])
        assert res.value >= vals.max() - 1e-8
        assert res.value == pytest.approx(vals.max(), abs=1e-8)

    def test_laplacian_pole_clipping(self):
        model = cd.Laplacian(0.1)
        j = cd.JointAtoms([1.0, -1.0], [4.0, -4.0], [0.5, 0.5])
        res = cd.md_exponent(j, 1.0, BUD, model)
        assert res.value > 0
        assert res.lambda_star * 1.0 < 0.1

    def test_dominates_probes(self):
        rng = np.random.default_rng(3)
        model = cd.Uniform(2.0)
        j = cd.JointAtoms(rng.normal(size=5), rng.normal(size=5), np.full(5, 0.2))
        res = cd.md_exponent(j, 0.1, BUD, model)
        for lam in rng.uniform(0.0, 3.0, size=20):
            assert res.value >= cd.md_objective(j, lam, 0.1, BUD, model) - 1e-10

    def test_monotone_in_theta(self):
        model = cd.BinarySymmetric(2.0)
        j = cd.JointAtoms([1.0, -0.5], [1.5, -1.0], [0.6, 0.4])
        values = [cd.md_exponent(j, th, BUD, model).value for th in np.linspace(0.0, 2.0, 15)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_scale_invariance_after_sup(self):
        model = cd.BinarySymmetric(1.5)
        rng = np.random.default_rng(11)
        w = rng.normal(size=4)
        s = rng.normal(size=4) + 1.0
        p = np.full(4, 0.25)
        theta = 0.3
        base = cd.md_exponent(cd.JointAtoms(w, s, p), theta, BUD, model).value
        for c in [0.1, 0.5, 2.0, 7.3]:
            scaled = cd.md_exponent(cd.JointAtoms(c * w, s, p), c * theta, BUD, model).value
            assert scaled == pytest.approx(base, abs=1e-9, rel=1e-9)

    def test_concavity_in_lambda(self):
        model = cd.MixtureBinaryLaplace(0.8, 1.0, 3.0)
        j = cd.JointAtoms([0.5, -0.7], [1.0, -2.0], [0.5, 0.5])
        rng = np.random.default_rng(5)
        for _ in range(50):
            l1, l2 = sorted(rng.uniform(0.0, 2.5, size=2))
            mid = 0.5 * (l1 + l2)
            f1 = cd.md_objective(j, l1, 0.2, BUD, model)
            f2 = cd.md_objective(j, l2, 0.2, BUD, model)
            fm = cd.md_objective(j, mid, 0.2, BUD, model)
            assert fm >= 0.5 * (f1 + f2) - 1e-10

    def test_zero_weights_zero_value(self):
        j = cd.JointAtoms([0.0, 0.0], [1.0, -1.0], [0.5, 0.5])
        res = cd.md_exponent(j, 0.5, BUD, cd.Gaussian(1.0))
        assert res.value == 0.0


ORACLE_MODELS = [
    cd.Gaussian(1.0),
    cd.Laplacian(1.0),
    cd.BinarySymmetric(2.0),
    cd.Uniform(2.0),
    cd.MixtureBinaryLaplace(0.5, 1.0, 2.0),
]


def _oracle_joint(n):
    # weights of size 0.5-1.5 and signals correlated with them, so every
    # supremum here is interior and every threshold below E[WS]
    rng = np.random.default_rng(n)
    w = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
    s = 3.0 * w + 0.5 * rng.normal(size=n)
    return cd.JointAtoms(w, s, np.full(n, 1.0 / n))


class TestMdExponentOracle:
    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.0])
    def test_matches_bounded_brent(self, model, n, theta):
        j = _oracle_joint(n)
        res = cd.md_exponent(j, theta, BUD, model)
        want, _ = md_exponent_brent(model, j.w, j.s, j.weight, theta, BUD.var_n)
        assert res.value == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "model", [cd.BinarySymmetric(7.0), cd.Uniform(7.0), cd.Laplacian(0.1)],
        ids=["fig1", "fig2", "fig3"],
    )
    def test_figure_joints_match_bounded_brent(self, model):
        # the four-level joints of `corrdet figure --id 1|2|3`: the matched
        # small-level weight and two others, across the figures' thresholds
        for alpha in (math.sqrt(0.2), 0.2, 1.0):
            j = _fourask_joint(4.0, alpha, BUD.p_w)
            for theta in np.linspace(0.0, 4.0 * math.sqrt(5.0), 9)[:-1]:
                res = cd.md_exponent(j, theta, BUD, model)
                want, _ = md_exponent_brent(model, j.w, j.s, j.weight, theta, BUD.var_n)
                assert res.value == pytest.approx(want, rel=1e-10, abs=0.0), (alpha, theta)


class TestEdgeHit:
    def test_supremum_at_tilt_cap(self):
        # the signal term outgrows the pole of the Laplacian CGF
        model = cd.Laplacian(1.0)
        res = cd.md_exponent(cd.JointAtoms([1.0], [1e12], [1.0]), 0.0, BUD, model)
        assert res.diagnostics["edge_hit"] is True
        assert res.lambda_star == tilt_cap(model, 1.0)
        assert math.isfinite(res.value) and res.value > 0

    def test_interior_supremum(self):
        model = cd.Laplacian(1.0)
        res = cd.md_exponent(cd.JointAtoms([1.0], [2.0], [1.0]), 0.5, BUD, model)
        assert res.diagnostics["edge_hit"] is False
        assert 0.0 < res.lambda_star < tilt_cap(model, 1.0)
        assert {"iterations", "bracket"} <= set(res.diagnostics)
