"""CLI: config handling, exit codes, deterministic outputs."""

import json
import math

import numpy as np
import pytest

import corrdet as cd
from corrdet.cli import main

MODEL_GAUSS = {"type": "gaussian", "var_z": 1.0}
BUDGET = {"p_w": 1.0, "var_n": 1.0}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["design", "--config", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_missing_file_is_config_error(self, tmp_path):
        rc = main(
            ["design", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_missing_key_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"model": MODEL_GAUSS})
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # tilt leaves the CGF domain -> DegenerateTilt -> 3
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": {"type": "laplacian", "q": 0.5},
                "budget": BUDGET,
                "theta": 0.1,
                "simulate": {
                    "n_values": [16],
                    "trials": 2000,
                    "tilt_lambda": 1.0,
                    "w_pattern": [1.0],
                    "s_pattern": [1.0],
                },
            },
        )
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert rc == 3

    @pytest.mark.parametrize(
        "model, theta, rc",
        [
            ({"type": "binary_symmetric", "z0": 7.0}, -0.1, 2),  # theta < 0 is a config error
            ({"type": "binary_symmetric", "z0": 7.0}, 0.0, 3),  # sup only as lam -> inf
            ({"type": "uniform", "z0": 1.5}, 0.0, 3),
            ({"type": "laplacian", "q": 2.0}, 0.0, 0),  # the pole bounds the tilt
        ],
    )
    def test_joint_threshold_at_and_below_zero(self, tmp_path, capsys, model, theta, rc):
        budget = {"p_w": 1.0, "var_n": 1.0, "p_s": 1.0}
        cfg = write_cfg(tmp_path, "c.json", {"model": model, "budget": budget, "theta": theta})
        out = tmp_path / "joint.json"
        assert main(["joint", "--config", cfg, "--out", str(out)]) == rc
        assert out.exists() == (rc == 0)
        if rc:
            assert "theta" in capsys.readouterr().err
        else:
            e_md = json.loads(out.read_text())["e_md"]
            assert e_md == pytest.approx(0.32717287868605, rel=1e-12)

    def test_bad_figure_id(self, tmp_path):
        rc = main(["figure", "--id", "9", "--out", str(tmp_path / "f.csv")])
        assert rc == 2


class TestCommands:
    def test_cgf_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"model": MODEL_GAUSS, "v_grid": {"start": -1.0, "stop": 1.0, "points": 5}},
        )
        out = tmp_path / "cgf.csv"
        assert main(["cgf", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "v,c,cdot"
        assert len(lines) == 6
        v, c, cdot = map(float, lines[-1].split(","))
        assert (v, c, cdot) == (1.0, 0.5, 1.0)

    def test_fa_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"budget": BUDGET, "theta_grid": {"start": 0.0, "stop": 1.0, "points": 3}},
        )
        out = tmp_path / "fa.csv"
        assert main(["fa", "--config", cfg, "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert float(rows[-1][1]) == 0.5

    def test_md_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": MODEL_GAUSS,
                "budget": BUDGET,
                "joint": {"atoms": [[1.0, 4.0, 0.5], [-1.0, -4.0, 0.5]]},
                "theta_grid": {"start": 1.0, "stop": 1.0, "points": 1},
            },
        )
        out = tmp_path / "md.csv"
        assert main(["md", "--config", cfg, "--out", str(out)]) == 0
        _, value, lam = map(float, out.read_text().splitlines()[1].split(","))
        assert value == pytest.approx(2.25, abs=1e-9)

    def test_design_json_reproduces_matched_filter(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": MODEL_GAUSS,
                "budget": BUDGET,
                "signal": {"atoms": [[4.0, 0.5], [-4.0, 0.5]]},
                "theta": 1.0,
            },
        )
        out = tmp_path / "design.json"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["e_md"] == pytest.approx(2.25, abs=1e-6)
        assert payload["e_fa"] == 0.5
        w = [row[0] for row in payload["atoms"]]
        assert w[0] == pytest.approx(1.0, abs=1e-6)

    def test_design_sweep_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": {"type": "binary_symmetric", "z0": 2.0},
                "budget": BUDGET,
                "signal": {"atoms": [[4.0, 0.5], [-4.0, 0.5]]},
                "theta_grid": {"start": 0.5, "stop": 2.5, "points": 3},
            },
        )
        out = tmp_path / "sweep.csv"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,e_fa,e_md_classical,e_md_optimal"
        for line in lines[1:]:
            th, e_fa, e_cl, e_opt = map(float, line.split(","))
            assert e_opt >= e_cl - 1e-9
            assert e_fa == pytest.approx(th * th / 2.0, rel=1e-12)

    def test_quantize_k2_equals_sign_design(self, tmp_path):
        atoms = [[s, 0.1] for s in np.linspace(-1.8, 1.8, 10)]
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": MODEL_GAUSS,
                "budget": BUDGET,
                "signal": {"atoms": atoms},
                "theta": 0.5,
                "k": 2,
            },
        )
        out = tmp_path / "q.json"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["boundaries"][0]) < 1e-8
        np.testing.assert_allclose(np.abs(payload["levels"]), 1.0, atol=1e-7)

    def test_joint_json(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": MODEL_GAUSS,
                "budget": {"p_w": 1.0, "var_n": 1.0, "p_s": 4.0},
                "theta": 0.5,
            },
        )
        out = tmp_path / "joint.json"
        assert main(["joint", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["e_md"] == pytest.approx(0.5625, rel=1e-6)

    def test_roots_csv_and_stdout(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": {"type": "mixture_binary_laplace", "delta": 0.95, "z0": 0.5, "q": 5.0},
                "lambda": 1.0,
                "kappa": 0.13,
            },
        )
        out = tmp_path / "roots.csv"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "w,cdot,linear"
        info = json.loads(capsys.readouterr().out)
        assert len(info["roots"]) == 3

    def test_roots_gaussian(self, tmp_path, capsys):
        # the Gaussian has neither a pole nor a bounded Cdot to size the w grid
        cfg = write_cfg(
            tmp_path, "c.json", {"model": MODEL_GAUSS, "lambda": 1.0, "kappa": 0.5}
        )
        out = tmp_path / "roots.csv"
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == {"continuum": False, "roots": [0.0]}
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[-1, 0] == pytest.approx(1.5 / 0.5)

    def test_extended_json(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": MODEL_GAUSS,
                "budget": BUDGET,
                "joint": {"atoms": [[1.0, 1.0, 1.0]]},
                "theta": 0.8,
                "extended": {"kind": "energy", "alpha": 0.2},
            },
        )
        out = tmp_path / "ext.json"
        assert main(["extended", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["e_md"] > 0 and payload["e_fa"] > 0

    def test_figure4_csv(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "--id", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "w,cdot_curve,linear_line"
        data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        gap = data[:, 1] - data[:, 2]
        crossings = np.sum(np.diff(np.sign(gap[1:])) != 0)
        assert crossings == 2  # curve meets the line twice beyond the origin


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": MODEL_GAUSS,
                "budget": BUDGET,
                "theta": 0.4,
                "simulate": {
                    "n_values": [16, 32, 64],
                    "trials": 4000,
                    "tilt_lambda": 0.3,
                    "w_pattern": [1.0],
                    "s_pattern": [1.0],
                    "seed": 5,
                },
            },
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {
                "model": MODEL_GAUSS,
                "budget": BUDGET,
                "theta": 0.4,
                "simulate": {
                    "n_values": [16, 32, 64],
                    "trials": 4000,
                    "tilt_lambda": 0.3,
                    "w_pattern": [1.0],
                    "s_pattern": [1.0],
                    "seed": 5,
                },
            },
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "6"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_csv_single_header_and_12_digits(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"model": MODEL_GAUSS, "v_grid": {"start": 0.0, "stop": 1.0, "points": 4}},
        )
        out = tmp_path / "cgf.csv"
        main(["cgf", "--config", cfg, "--out", str(out)])
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l[0].isalpha()) == 1
        assert lines[2].startswith("0.333333333333,")  # 12 significant digits
