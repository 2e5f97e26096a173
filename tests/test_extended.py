"""Correlation+energy and correlation+|.| detectors."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr

import corrdet as cd
from corrdet.cli import main
from corrdet.extended import _sup_concave
from oracles import (
    abs_detector_mc_slope,
    c_alpha_abs_direct,
    c_alpha_energy_direct,
    energy_detector_mc_slope,
    extended_md_direct,
)

BUD = cd.PowerBudget(p_w=1.0, var_n=1.0)

MODELS = [
    cd.Gaussian(1.3),
    cd.BinarySymmetric(2.0),
    cd.Uniform(1.5),
    cd.Laplacian(2.5),
    cd.MixtureBinaryLaplace(0.8, 1.0, 3.0),
]


class TestFaEnergy:
    def test_alpha_zero_reduces_to_plain(self):
        res = cd.fa_exponent_energy(1.0, BUD, 0.0)
        assert res.value == cd.fa_exponent(1.0, BUD)

    def test_zero_threshold(self):
        assert cd.fa_exponent_energy(0.0, BUD, 0.3).value == 0.0

    @pytest.mark.parametrize("alpha, var_n", [(0.3, 1.0), (0.25, 0.5)])
    def test_threshold_at_alpha_var_n(self, alpha, var_n):
        # f'(0) = theta - alpha var_n = 0 and f is concave: the supremum is
        # f(0) = 0 exactly, where a search returns rounding noise above it
        res = cd.fa_exponent_energy(alpha * var_n, cd.PowerBudget(2.0, var_n), alpha)
        assert res.value == 0.0 and res.lambda_star == 0.0

    def test_grid_oracle(self):
        alpha = 0.25
        res = cd.fa_exponent_energy(1.0, BUD, alpha)
        lams = np.linspace(0.0, (1 - 1e-9) / (2 * alpha), 100_000)
        with np.errstate(divide="ignore"):
            vals = lams - 0.5 * lams ** 2 / (1 - 2 * alpha * lams) + 0.5 * np.log1p(
                -2 * alpha * lams
            )
        assert res.value == pytest.approx(float(vals.max()), abs=1e-8)

    def test_monotone_in_p_w_and_theta(self):
        vals_p = [
            cd.fa_exponent_energy(1.0, cd.PowerBudget(p, 1.0), 0.2).value
            for p in [0.5, 1.0, 2.0, 4.0]
        ]
        assert all(a >= b for a, b in zip(vals_p, vals_p[1:]))
        vals_t = [cd.fa_exponent_energy(t, BUD, 0.2).value for t in [0.0, 0.5, 1.0, 2.0]]
        assert all(a <= b for a, b in zip(vals_t, vals_t[1:]))


def _feasible_u(model, lam, rng, scale=1.5):
    lo, hi = cd.cgf_domain(model)
    cap = scale if np.isinf(hi) else min(scale, 0.8 * hi / lam)
    return rng.uniform(-cap, cap)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_c_alpha_energy_identity(model):
    rng = np.random.default_rng(3)
    for _ in range(6):
        alpha = rng.uniform(0.05, 0.5)
        lam = rng.uniform(0.1, 2.0)
        v = lam * _feasible_u(model, lam, rng)
        got = cd.c_alpha_energy(model, v, alpha, lam, 1.0)
        want = c_alpha_energy_direct(model, v, alpha, lam, 1.0)
        assert got == pytest.approx(want, abs=1e-6)


def test_c_alpha_energy_gaussian_closed_form():
    model = cd.Gaussian(1.3)
    alpha, lam, u = 0.3, 0.8, 1.1
    v = lam * u
    s2 = model.var_z + 1.0
    shrink = 1 + 2 * alpha * lam * s2
    want = -0.5 * math.log(shrink) + v * v * s2 / (2 * shrink) - 0.5 * v * v
    assert cd.c_alpha_energy(model, v, alpha, lam, 1.0) == pytest.approx(want, abs=1e-9)


def test_c_alpha_energy_vanishing_tilt():
    assert cd.c_alpha_energy(cd.Gaussian(1.0), 0.0, 1e-9, 1.0, 1.0) == 0.0
    small = cd.c_alpha_energy(cd.Gaussian(1.0), 0.0, 1e-4, 1.0, 1.0)
    assert abs(small) < 1e-3


class TestMdEnergy:
    def test_alpha_zero_equals_plain(self):
        joint = cd.JointAtoms([0.8, 1.2], [1.0, 2.0], [0.5, 0.5])
        spec = cd.ExtendedDetectorSpec(joint, 0.0, 1.0, "energy")
        got = cd.md_exponent_energy(spec, BUD, cd.Gaussian(1.0))
        want = cd.md_exponent(joint, 1.0, BUD, cd.Gaussian(1.0))
        assert got.value == want.value

    def test_alpha_limit_continuous(self):
        joint = cd.JointAtoms([0.8, 1.2], [1.0, 2.0], [0.5, 0.5])
        spec = cd.ExtendedDetectorSpec(joint, 1e-6, 1.0, "energy")
        got = cd.md_exponent_energy(spec, BUD, cd.Gaussian(1.0))
        want = cd.md_exponent(joint, 1.0, BUD, cd.Gaussian(1.0))
        assert got.value == pytest.approx(want.value, abs=1e-4)

    def test_energy_only_detection_positive(self):
        # s = w = 0 with alpha > 0: the energy gap alone separates hypotheses
        joint = cd.JointAtoms([0.0], [0.0], [1.0])
        alpha, theta = 0.3, 0.45
        spec = cd.ExtendedDetectorSpec(joint, alpha, theta, "energy")
        res = cd.md_exponent_energy(spec, BUD, cd.Gaussian(1.0))
        lams = np.linspace(0.0, 20.0, 200_001)
        want = float((-lams * theta + 0.5 * np.log1p(2 * alpha * lams * 2.0)).max())
        assert res.value > 0
        assert res.value == pytest.approx(want, abs=1e-7)

    def test_kind_checked(self):
        joint = cd.JointAtoms([1.0], [1.0], [1.0])
        spec = cd.ExtendedDetectorSpec(joint, 0.1, 1.0, "abs")
        with pytest.raises(ValueError):
            cd.md_exponent_energy(spec, BUD, cd.Gaussian(1.0))

    def test_matches_tilted_mc_slope(self):
        model = cd.Gaussian(1.0)
        w_pat, s_pat, alpha = [1.0], [1.0], 0.25
        joint = cd.JointAtoms(w_pat, s_pat, [1.0])
        h0 = alpha * 1.0
        h1 = 1.0 + alpha * (1.0 + 1.0 + 1.0)
        theta = h0 + 0.35 * (h1 - h0)
        spec = cd.ExtendedDetectorSpec(joint, alpha, theta, "energy")
        res = cd.md_exponent_energy(spec, BUD, model)
        est = energy_detector_mc_slope(
            model, w_pat, s_pat, alpha, theta, 1.0, res.lambda_star,
            n_values=(60, 120, 240), trials=200_000, seed=21,
        )
        assert est.slope == pytest.approx(res.value, rel=0.10)


class TestFaAbs:
    def test_alpha_zero_reduces_to_plain(self):
        atoms = cd.JointAtoms([1.0, -0.5], [1.0, -0.5], [0.5, 0.5])
        bud = cd.PowerBudget(p_w=atoms.e_w2, var_n=1.0)
        res = cd.fa_exponent_abs(0.8, bud, 0.0, atoms)
        assert res.value == pytest.approx(cd.fa_exponent(0.8, bud), rel=1e-10)

    def test_zero_threshold(self):
        atoms = cd.JointAtoms([1.0], [1.0], [1.0])
        assert cd.fa_exponent_abs(0.0, BUD, 0.4, atoms).value == 0.0

    def test_grid_oracle(self):
        atoms = cd.JointAtoms([1.0, -0.5], [1.0, -0.5], [0.5, 0.5])
        alpha, theta = 0.4, 0.8
        res = cd.fa_exponent_abs(theta, BUD, alpha, atoms)

        def obj(lam):
            w, p = atoms.w, atoms.weight
            t1 = lam * lam * alpha * w + log_ndtr(lam * (w + alpha))
            t2 = -lam * lam * alpha * w + log_ndtr(-lam * (w - alpha))
            return lam * theta - 0.5 * lam * lam * (atoms.e_w2 + alpha ** 2) - float(
                np.dot(p, np.logaddexp(t1, t2))
            )

        lams = np.linspace(0.0, 8.0, 100_000)
        brute = max(obj(l) for l in lams)
        assert res.value == pytest.approx(brute, abs=1e-8)

    def test_depends_on_shape_not_just_power(self):
        # two weight distributions with identical power but different shapes
        flat = cd.JointAtoms([1.0, -1.0], [0.0, 0.0], [0.5, 0.5])
        spiky = cd.JointAtoms([math.sqrt(2.0), 0.0], [0.0, 0.0], [0.5, 0.5])
        a = cd.fa_exponent_abs(0.7, BUD, 0.5, flat).value
        b = cd.fa_exponent_abs(0.7, BUD, 0.5, spiky).value
        assert abs(a - b) > 1e-6


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_c_alpha_abs_identity(model):
    rng = np.random.default_rng(7)
    for _ in range(6):
        alpha = rng.uniform(0.05, 0.5)
        lam = rng.uniform(0.1, 2.0)
        w = _feasible_u(model, lam, rng)
        s = rng.uniform(-2.0, 2.0)
        got = cd.c_alpha_abs(model, lam * w, s, alpha, lam, 1.0)
        want = c_alpha_abs_direct(model, w, s, alpha, lam, 1.0)
        assert got == pytest.approx(want, abs=1e-6)


def test_c_alpha_abs_small_alpha_limit():
    # convergence is first order in alpha: ~1.7e-4 at alpha=1e-4
    model = cd.BinarySymmetric(2.0)
    got = cd.c_alpha_abs(model, 0.6, 1.0, 1e-5, 1.0, 1.0)
    assert got == pytest.approx(cd.cgf_eval(model, 0.6), abs=1e-4)


def test_c_alpha_abs_decreasing_in_s():
    model = cd.Gaussian(1.0)
    vals = [cd.c_alpha_abs(model, 0.0, s, 0.3, 1.0, 1.0) for s in [2.0, 4.0, 6.0]]
    assert vals[0] > vals[1] > vals[2]
    # dominant linear decay -alpha*lam*s for large s
    assert vals[2] - vals[1] == pytest.approx(-0.3 * 2.0, abs=0.1)


class TestMdAbs:
    def test_alpha_zero_equals_plain(self):
        joint = cd.JointAtoms([0.8, 1.2], [1.0, 2.0], [0.5, 0.5])
        spec = cd.ExtendedDetectorSpec(joint, 0.0, 1.0, "abs")
        got = cd.md_exponent_abs(spec, BUD, cd.Gaussian(1.0))
        assert got.value == cd.md_exponent(joint, 1.0, BUD, cd.Gaussian(1.0)).value

    def test_gaussian_direct_bound_oracle(self):
        model = cd.Gaussian(1.0)
        joint = cd.JointAtoms([0.9, 1.1], [1.0, 1.5], [0.5, 0.5])
        alpha, theta = 0.3, 1.2
        spec = cd.ExtendedDetectorSpec(joint, alpha, theta, "abs")
        res = cd.md_exponent_abs(spec, BUD, model)

        def obj(lam):
            if lam == 0:
                return 0.0
            tot = lam * (joint.e_ws - theta) - 0.5 * lam * lam * joint.e_w2
            for wi, si, pi in zip(joint.w, joint.s, joint.weight):
                tot -= pi * c_alpha_abs_direct(model, wi, si, alpha, lam, 1.0)
            return tot

        lams = np.linspace(0.0, 4 * res.lambda_star + 0.5, 2000)
        brute = max(obj(l) for l in lams)
        assert res.value == pytest.approx(brute, abs=1e-5)

    def test_matches_tilted_mc_slope(self):
        model = cd.Gaussian(1.0)
        w_pat, s_pat, alpha = [1.0], [1.0], 0.25
        joint = cd.JointAtoms(w_pat, s_pat, [1.0])
        theta = 0.75
        spec = cd.ExtendedDetectorSpec(joint, alpha, theta, "abs")
        res = cd.md_exponent_abs(spec, BUD, model)
        est = abs_detector_mc_slope(
            model, w_pat, s_pat, alpha, theta, 1.0, res.lambda_star,
            n_values=(60, 120, 240), trials=200_000, seed=33,
        )
        assert est.slope == pytest.approx(res.value, rel=0.10)


class TestAlphaSweep:
    def test_gaussian_recovers_lrt_alpha(self):
        var_z = 1.0
        model = cd.Gaussian(var_z)
        alpha_lrt = var_z / (2 * (1.0 + var_z))
        sig = cd.SignalAtoms([1.0, -1.0], [0.5, 0.5])
        c = 1.0 / (1.0 + var_z)
        p_w_lrt = c * c * sig.e_s2
        h0 = alpha_lrt
        h1 = c * sig.e_s2 + alpha_lrt * (2.0 + sig.e_s2)
        theta = 0.5 * (h0 + h1)
        target = cd.fa_exponent_energy(theta, cd.PowerBudget(p_w_lrt, 1.0), alpha_lrt).value
        res = cd.sweep_alpha_fixed_fa(
            model, sig, target, "energy", theta, BUD, alphas=np.linspace(0.0, 0.6, 25)
        )
        assert res.alpha == pytest.approx(alpha_lrt, abs=0.0251)
        assert any(e.alpha == 0.0 for e in res.entries)

    def test_zero_signal_needs_energy_term(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([0.0], [1.0])
        res = cd.sweep_alpha_fixed_fa(
            model, sig, 0.02, "energy", 0.375, BUD, alphas=np.linspace(0.0, 0.6, 13)
        )
        assert res.alpha > 0
        assert res.e_md > 0

    def test_abs_kind_runs(self):
        model = cd.Gaussian(1.0)
        sig = cd.SignalAtoms([1.0, -1.0], [0.5, 0.5])
        res = cd.sweep_alpha_fixed_fa(
            model, sig, 0.1, "abs", 0.6, BUD, alphas=np.linspace(0.0, 0.5, 6)
        )
        assert res.p_w > 0
        fa = cd.fa_exponent_abs(
            0.6, cd.PowerBudget(res.p_w, 1.0), res.alpha,
            cd.JointAtoms(math.sqrt(res.p_w) * np.array([1.0, -1.0]) / math.sqrt(sig.e_s2) * 1.0,
                          [1.0, -1.0], [0.5, 0.5]),
        ).value
        assert fa == pytest.approx(0.1, abs=2e-6)


# The point-design cases bounded by a CGF pole: atoms (+-1, +-1, 1/2),
# alpha = 0.25, theta = 0.3, with the direct oracle's exponents.
POLE_CASES = [
    ({"type": "laplacian", "q": 2.0}, "energy", 0.34322480576967),
    ({"type": "laplacian", "q": 2.0}, "abs", 0.29079739256884),
    (
        {"type": "mixture_binary_laplace", "delta": 0.5, "z0": 1.0, "q": 2.0},
        "energy",
        0.31326155673748,
    ),
]


@pytest.mark.parametrize(
    "model_cfg, kind, want",
    POLE_CASES,
    ids=["laplacian2-energy", "laplacian2-abs", "mixture-energy"],
)
def test_cli_pole_bounded_cases(tmp_path, model_cfg, kind, want):
    cfg = {
        "model": model_cfg,
        "budget": {"p_w": 1.0, "var_n": 1.0},
        "joint": {"atoms": [[1.0, 1.0, 0.5], [-1.0, -1.0, 0.5]]},
        "theta": 0.3,
        "extended": {"kind": kind, "alpha": 0.25},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["extended", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["e_md"] == pytest.approx(want, rel=1e-6)


class TestTiltDomain:
    ATOMS = cd.JointAtoms([2.0, -2.0], [2.0, -2.0], [0.5, 0.5])

    def test_abs_supremum_not_at_cap(self):
        # the abs objective tends to -inf at its cap q / (max|w| - alpha) = 0.571;
        # the supremum sits inside
        spec = cd.ExtendedDetectorSpec(self.ATOMS, 0.25, 0.0, "abs")
        res = cd.md_exponent_abs(spec, BUD, cd.Laplacian(1.0))
        assert res.value == pytest.approx(0.71380913066289, rel=1e-6)
        assert res.lambda_star == pytest.approx(0.2957, abs=1e-3)
        assert res.diagnostics["edge_hit"] is False

    def test_energy_searched_past_pole(self):
        # finite for every tilt: the maximizer lies past q / max|u| = 1/3
        spec = cd.ExtendedDetectorSpec(self.ATOMS, 0.25, 0.0, "energy")
        res = cd.md_exponent_energy(spec, BUD, cd.Laplacian(1.0))
        assert res.value == pytest.approx(0.91701143108733, rel=1e-6)
        assert res.lambda_star == pytest.approx(0.3975, abs=1e-3)
        assert res.diagnostics["edge_hit"] is False

    def test_energy_transform_finite_past_pole(self):
        model = cd.Laplacian(1.0)
        got = cd.c_alpha_energy(model, 3.0, 0.25, 2.0, 1.0)
        assert got == pytest.approx(c_alpha_energy_direct(model, 3.0, 0.25, 2.0, 1.0), abs=1e-6)

    def test_abs_transform_domain(self):
        model = cd.Laplacian(1.0)
        alpha, lam = 0.25, 2.0  # finite while |v| - alpha lam < q = 1
        got = cd.c_alpha_abs(model, -1.0, 0.3, alpha, lam, 1.0)
        want = c_alpha_abs_direct(model, -0.5, 0.3, alpha, lam, 1.0)
        assert got == pytest.approx(want, abs=1e-6)
        with pytest.raises(cd.DomainError):
            cd.c_alpha_abs(model, 1.5, 0.3, alpha, lam, 1.0)

    def test_edge_hit_at_finite_cap(self):
        assert _sup_concave(lambda lam: lam, cap=2.0).diagnostics["edge_hit"] is True
        interior = _sup_concave(lambda lam: lam - lam * lam, cap=2.0)
        assert interior.diagnostics["edge_hit"] is False


class TestDegenerateThreshold:
    # the statistic cannot fall below theta, so the miss probability is 0
    def test_energy_below_reach(self):
        # w Y + alpha Y^2 >= -w^2 / (4 alpha) = 0 >= theta
        spec = cd.ExtendedDetectorSpec(cd.JointAtoms([0.0], [0.0], [1.0]), 0.3, 0.0, "energy")
        res = cd.md_exponent_energy(spec, BUD, cd.Gaussian(1.0))
        assert res.value == math.inf
        assert res.diagnostics["unbounded"] is True

    def test_energy_boundary_of_reach(self):
        # theta = -E[W^2] / (4 alpha) exactly: still unreachable, and just
        # above it the exponent is finite
        joint = cd.JointAtoms([1.0, -2.0], [0.5, 0.0], [0.5, 0.5])
        alpha = 0.25
        edge = -float(np.dot(joint.weight, joint.w ** 2)) / (4 * alpha)
        spec = cd.ExtendedDetectorSpec(joint, alpha, edge, "energy")
        assert cd.md_exponent_energy(spec, BUD, cd.Laplacian(1.0)).value == math.inf
        spec = cd.ExtendedDetectorSpec(joint, alpha, edge + 0.5, "energy")
        res = cd.md_exponent_energy(spec, BUD, cd.Laplacian(1.0))
        assert math.isfinite(res.value) and "unbounded" not in res.diagnostics

    def test_abs_below_reach(self):
        # every |w| <= alpha: w Y + alpha |Y| >= 0 >= theta
        spec = cd.ExtendedDetectorSpec(cd.JointAtoms([0.1], [1.0], [1.0]), 0.3, 0.0, "abs")
        res = cd.md_exponent_abs(spec, BUD, cd.Laplacian(1.0))
        assert res.value == math.inf
        assert res.diagnostics["unbounded"] is True

    def test_abs_reachable_cases_stay_finite(self):
        # one |w| > alpha, or a positive theta: the statistic can fall below it
        for w, theta in (([0.1, 0.5], 0.0), ([0.1], 0.05)):
            joint = cd.JointAtoms(w, [1.0] * len(w), [1.0 / len(w)] * len(w))
            spec = cd.ExtendedDetectorSpec(joint, 0.3, theta, "abs")
            res = cd.md_exponent_abs(spec, BUD, cd.Laplacian(1.0))
            assert math.isfinite(res.value) and "unbounded" not in res.diagnostics


def test_transforms_accept_atom_arrays():
    model = cd.MixtureBinaryLaplace(0.5, 1.0, 2.0)
    v, s = np.array([0.4, -0.7, 1.1]), np.array([1.0, 0.0, -2.0])
    e = cd.c_alpha_energy(model, v, 0.3, 0.9, 1.0)
    a = cd.c_alpha_abs(model, v, s, 0.3, 0.9, 1.0)
    for i in range(3):
        assert e[i] == cd.c_alpha_energy(model, v[i], 0.3, 0.9, 1.0)
        assert a[i] == cd.c_alpha_abs(model, v[i], s[i], 0.3, 0.9, 1.0)


SWEEP_MODELS = [
    cd.Gaussian(1.0),
    cd.BinarySymmetric(1.0),
    cd.Uniform(1.0),
    cd.Laplacian(1.0),
    cd.MixtureBinaryLaplace(0.5, 1.0, 2.0),
]
SWEEP_ATOMS = cd.JointAtoms([1.5, -0.5, 0.2], [2.0, -1.0, 0.0], [0.3, 0.5, 0.2])


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["energy", "abs"])
@pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: type(m).__name__)
def test_md_matches_direct_oracle(model, kind, theta):
    alpha = 0.25
    spec = cd.ExtendedDetectorSpec(SWEEP_ATOMS, alpha, theta, kind)
    md = cd.md_exponent_energy if kind == "energy" else cd.md_exponent_abs
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = md(spec, BUD, model)
    lam_hi = 4.0
    if kind == "abs":  # stay well inside the cap, where the oracle's quadrature holds
        lam_hi = min(lam_hi, 0.9 * model.radius / (1.5 - alpha))
    want, lam_want = extended_md_direct(model, kind, SWEEP_ATOMS, alpha, theta, 1.0, lam_hi)
    assert lam_want < 0.95 * lam_hi
    assert math.isfinite(res.value)
    assert res.value == pytest.approx(want, rel=1e-6, abs=1e-9)
