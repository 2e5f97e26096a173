"""Joint signal/correlator design: envelopes, stationary levels, optima."""

import math

import numpy as np
import pytest

import corrdet as cd
from corrdet import joint
from corrdet._kernels import lower_hull
from corrdet.joint import result_atoms

MIX = cd.MixtureBinaryLaplace(0.95, 0.5, 5.0)


class TestCurvature:
    def test_binary_concave(self):
        assert cd.classify_curvature(cd.BinarySymmetric(7.0), 1.0, 50.0) == "concave"

    def test_laplacian_convex(self):
        assert cd.classify_curvature(cd.Laplacian(2.0), 0.5, 10.0) == "convex"

    def test_mixture_mixed(self):
        assert cd.classify_curvature(MIX, 1.0, 24.0) == "mixed"

    def test_gaussian_linear_counts_as_convex(self):
        assert cd.classify_curvature(cd.Gaussian(1.0), 1.0, 10.0) == "convex"

    def test_pole_rejected(self):
        with pytest.raises(cd.DomainError):
            cd.classify_curvature(cd.Laplacian(1.0), 1.0, 2.0)

    def test_gaussian_linear_at_large_scale(self):
        # second differences of the line are a few ulps of H's size here,
        # far above an absolute 1e-10, in both signs
        assert cd.classify_curvature(cd.Gaussian(1.0), 0.25, 1e8) == "convex"
        assert cd.classify_curvature(cd.Gaussian(3.0), 3.0, 1e12) == "convex"

    @pytest.mark.parametrize("model", [cd.BinarySymmetric(7.0), cd.Uniform(2.0)])
    @pytest.mark.parametrize("p_max", [1.0, 10.0])
    def test_concave_laws_at_small_scale(self, model, p_max):
        # second differences of H here are ~1e-16, far under any absolute
        # floor, but tanh(t)/t and L(t)/t decrease for every t > 0
        assert cd.classify_curvature(model, 1e-3, p_max) == "concave"

    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 1.0])
    def test_mixture_concave_at_small_scale(self, lam):
        # (v C''(v) - Cdot(v)) / v^3 = 4 H''(v^2) lies in [-0.038, -0.031]
        # for v in (0, 1] (40-digit mpmath), yet H's second differences
        # there sit under any absolute floor
        assert cd.classify_curvature(MIX, lam, 1.0) == "concave"


class TestStationaryLevels:
    def test_fig4_roots(self):
        out = cd.stationary_levels(MIX, 1.0, 0.13)
        assert len(out.roots) == 3
        assert out.roots[0] == 0.0
        assert out.roots[1] == pytest.approx(3.71, abs=0.02)
        assert out.roots[2] == pytest.approx(4.58, abs=0.02)
        for r in out.roots[1:]:
            assert abs(cd.cgf_deriv(MIX, r) - 0.13 * r) < 1e-8 * (1 + 0.13 * r)

    def test_gaussian_continuum_flag(self):
        model = cd.Gaussian(2.0)
        assert cd.stationary_levels(model, 1.5, 3.0).continuum
        out = cd.stationary_levels(model, 1.5, 2.0)
        assert not out.continuum and out.roots == (0.0,)

    def test_large_slope_only_origin(self):
        out = cd.stationary_levels(cd.BinarySymmetric(1.0), 1.0, 2.0)
        assert out.roots == (0.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            cd.stationary_levels(MIX, 0.0, 0.1)
        with pytest.raises(ValueError):
            cd.stationary_levels(MIX, 1.0, -0.1)


class TestEnvelope:
    def test_gaussian_linear(self):
        env = cd.c_tilde(cd.Gaussian(1.5), 0.7, 2.0, 100.0)
        assert env.value == pytest.approx(0.5 * 1.5 * 0.49 * 2.0, rel=1e-12)

    def test_laplacian_convex_exact(self):
        model = cd.Laplacian(2.0)
        for p in [0.3, 1.7, 6.0]:
            env = cd.c_tilde(model, 0.5, p, 10.0)
            assert env.value == cd.cgf_eval(model, 0.5 * math.sqrt(p))
            assert env.p0 == env.p1 == p

    def test_binary_concave_chord(self):
        # the chord ends are the support's ends exactly: lam^2 cap / lam^2
        # misses cap by an ulp for some tilts
        model = cd.BinarySymmetric(7.0)
        for lam in [0.3, 0.5, 0.7, 1.3]:
            prev = math.inf
            for cap in [1e4, 1e6, 1e8]:
                env = cd.c_tilde(model, lam, 1.0, cap)
                chord = cd.cgf_eval(model, lam * math.sqrt(cap)) / cap
                assert env.value == pytest.approx(chord, rel=1e-9)
                assert env.p0 == 0.0 and env.p1 == cap, (lam, cap, env)
                assert env.value < prev
                prev = env.value
            assert prev < 1e-3  # interference nullified in the large-cap limit

    def test_mixture_support_reconstructs(self):
        env = cd.c_tilde(MIX, 1.0, 4.0, 20.0)
        assert (1 - env.alpha) * env.p0 + env.alpha * env.p1 == pytest.approx(4.0, abs=1e-9)
        h0 = cd.cgf_eval(MIX, math.sqrt(env.p0))
        h1 = cd.cgf_eval(MIX, math.sqrt(env.p1))
        assert (1 - env.alpha) * h0 + env.alpha * h1 == pytest.approx(env.value, abs=1e-9)
        assert env.value <= cd.cgf_eval(MIX, math.sqrt(4.0)) + 1e-12

    def test_scaling_in_lam_sqrt_p(self):
        # value depends on (lam, p, cap) only through lam^2 p and lam^2 cap
        v1 = cd.c_tilde(MIX, 1.0, 4.0, 20.0).value
        v2 = cd.c_tilde(MIX, 2.0, 1.0, 5.0).value
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)

    def test_envelope_convex_in_p(self):
        ps = np.linspace(0.1, 20.0, 200)
        vals = np.array([cd.c_tilde(MIX, 1.0, p, 20.0).value for p in ps])
        d2 = vals[:-2] + vals[2:] - 2 * vals[1:-1]
        assert np.min(d2) >= -1e-10


class TestJointDesign:
    def test_gaussian_matches_matched_filter_form(self):
        bud = cd.PowerBudget(p_w=1.0, var_n=1.0, p_s=4.0)
        res = cd.joint_md_exponent(cd.Gaussian(1.0), bud, 0.5)
        want = (math.sqrt(4.0) - 0.5) ** 2 / (2 * 2 * 1.0)
        assert res.e_md == pytest.approx(want, rel=1e-7)

    def test_threshold_above_reach_gives_zero(self):
        bud = cd.PowerBudget(p_w=1.0, var_n=1.0, p_s=4.0)
        assert cd.joint_md_exponent(cd.Gaussian(1.0), bud, 2.5).e_md == 0.0

    def test_binary_interference_nullified(self):
        bud = cd.PowerBudget(p_w=1.0, var_n=1.0, p_s=1.0)
        ref = (1.0 - 0.5) ** 2 / 2.0
        res = cd.joint_md_exponent(cd.BinarySymmetric(7.0), bud, 0.5, p_cap=1e8)
        assert res.e_md == pytest.approx(ref, rel=0.02)
        assert res.curvature == "concave"

    def test_pole_bound_tilts_share_one_hull(self, monkeypatch):
        # with a cap this large the CGF pole bounds every tilt, and the
        # envelope of C(lam*sqrt(p)) is one hull in x = lam^2 p
        builds = []

        def counting_hull(x, y):
            builds.append(x.size)
            return lower_hull(x, y)

        monkeypatch.setattr(joint, "lower_hull", counting_hull)
        cd.joint_md_exponent(MIX, cd.PowerBudget(1.0, 1.0, p_s=1.0), 0.5, p_cap=1e18)
        assert 1 <= len(builds) <= 2

    def test_infinite_cap_rejected(self):
        bud = cd.PowerBudget(1.0, 1.0, p_s=1.0)
        for model in [cd.Gaussian(1.0), cd.BinarySymmetric(7.0)]:
            with pytest.raises(cd.DomainError):
                cd.joint_md_exponent(model, bud, 0.5, p_cap=math.inf)

    def test_requires_p_s(self):
        with pytest.raises(ValueError):
            cd.joint_md_exponent(cd.Gaussian(1.0), cd.PowerBudget(1.0, 1.0), 0.5)

    def test_two_level_structure_reproduces_value(self):
        bud = cd.PowerBudget(p_w=1.0, var_n=1.0, p_s=1.0)
        res = cd.joint_md_exponent(cd.Laplacian(2.0), bud, 0.3)
        atoms = result_atoms(res, bud)
        assert np.unique(np.abs(atoms.w)).size <= 2
        recomputed = cd.md_objective(atoms, res.lambda_star, 0.3, bud, cd.Laplacian(2.0))
        assert recomputed == pytest.approx(res.e_md, abs=1e-8)

    def test_dominates_random_feasible_designs(self):
        bud = cd.PowerBudget(p_w=1.0, var_n=1.0, p_s=2.0)
        rng = np.random.default_rng(17)
        models = [cd.Laplacian(2.0), cd.BinarySymmetric(2.0), cd.Uniform(1.5), MIX]
        theta = 0.4
        for model in models:
            best = cd.joint_md_exponent(model, bud, theta, p_cap=1e6)
            for _ in range(5):
                k = rng.integers(2, 5)
                w = rng.normal(size=k)
                p = rng.dirichlet(np.ones(k))
                e_w2 = float(np.dot(p, w * w))
                w *= math.sqrt(rng.uniform(0.3, 1.0) * bud.p_w / e_w2)
                ratio = math.sqrt(bud.p_s / float(np.dot(p, w * w))) * rng.uniform(0.5, 1.0)
                probe = cd.JointAtoms(w, ratio * w, p)
                e_probe = cd.md_exponent(probe, theta, bud, model).value
                assert best.e_md >= e_probe - 1e-6 - 1e-4 * e_probe


class TestTwoLevelDirect:
    def test_agrees_with_envelope_on_convex_models(self):
        theta = 0.3
        for model, bud in [
            (cd.Laplacian(2.0), cd.PowerBudget(1.0, 1.0, p_s=1.0)),
            (cd.Gaussian(1.0), cd.PowerBudget(1.0, 1.0, p_s=4.0)),
        ]:
            via_env = cd.joint_md_exponent(model, bud, theta)
            direct = cd.two_level_direct(model, bud, theta)
            assert direct.e_md == pytest.approx(via_env.e_md, rel=1e-4)

    def test_convex_case_single_level(self):
        bud = cd.PowerBudget(1.0, 1.0, p_s=1.0)
        direct = cd.two_level_direct(cd.Laplacian(2.0), bud, 0.3)
        single = direct.mix_alpha in (0.0, 1.0) or abs(direct.level_b - direct.level_a) < 1e-6
        assert single

    def test_mixture_levels_sit_on_stationary_roots(self):
        # at the optimum the two magnitudes must solve the stationary
        # equation whose slope is implied by the envelope chord; this holds
        # for the direct search and for the envelope's chord ends alike
        bud = cd.PowerBudget(p_w=16.0, var_n=1.0, p_s=1.0)
        for design, tol in [(cd.two_level_direct, 0.05), (cd.joint_md_exponent, 0.01)]:
            res = design(MIX, bud, 0.05)
            a, b, lam = res.level_a, res.level_b, res.lambda_star
            assert b - a > 0.1  # genuinely two-level
            chord = (cd.cgf_eval(MIX, lam * b) - cd.cgf_eval(MIX, lam * a)) / (b * b - a * a)
            kappa = 2.0 * chord / lam
            roots = cd.stationary_levels(MIX, lam, kappa).roots
            for level in (a, b):
                assert min(abs(level - r) for r in roots) < tol, (design.__name__, level, roots)

    def test_value_reproduced_from_atoms(self):
        bud = cd.PowerBudget(p_w=16.0, var_n=1.0, p_s=1.0)
        direct = cd.two_level_direct(MIX, bud, 0.05)
        atoms = result_atoms(direct, bud)
        res = cd.md_exponent(atoms, 0.05, bud, MIX)
        assert res.value == pytest.approx(direct.e_md, rel=1e-9)
