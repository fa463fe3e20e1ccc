"""Config loading, CSV column contracts, determinism and exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from conicwave import ConfigError, ScatteringModel
from conicwave.cli import load_config, main, run


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                        "command": "describe"}))
    assert cfg.command == "describe"
    assert cfg.kind == "schrodinger"
    assert cfg.lam_grid is None


def test_log_grid_parse(tmp_path):
    cfg = load_config(_write(tmp_path, {
        "profile": {"kind": "cylinder"}, "command": "coeffs",
        "lam_grid": {"min": 1e-6, "max": 1e-3, "count": 40, "scale": "log"}}))
    assert len(cfg.lam_grid) == 40
    assert cfg.lam_grid[0] == pytest.approx(1e-6)
    assert cfg.lam_grid[-1] == pytest.approx(1e-3)
    steps = np.diff(np.log(cfg.lam_grid))
    assert np.allclose(steps, steps[0])


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                      "command": "decay",
                                      "t_grid": {"min": 0.0, "max": 1.0,
                                                 "count": 5, "scale": "log"}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                      "command": "describe",
                                      "typo_key": 1}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder",
                                                  "x_mxa": 10.0},
                                      "command": "describe"}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                      "command": "fly"}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                      "command": "kernel",
                                      "kind": "schroedinger"}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                      "command": "coeffs",
                                      "lam_grid": {"min": 2.0, "max": 1.0,
                                                   "count": 5}}))
    # lam_low and the decay/statphase gates are constants, not config keys
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                      "command": "coeffs", "lam_low": 0.5}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"profile": {"kind": "cylinder"},
                                      "command": "statphase",
                                      "tolerances": {"c_sp_cap": 1e3}}))
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_potential_pipeline_and_determinism(tmp_path):
    doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0},
                       "x_max": 2.0e4},
           "command": "potential",
           "xi_grid": {"min": 10.0, "max": 1.0e4, "count": 30,
                       "scale": "log"}}
    cfg = load_config(_write(tmp_path, doc))
    assert run(cfg, tmp_path / "o1") == 0
    assert run(cfg, tmp_path / "o2") == 0
    b1 = (tmp_path / "o1" / "potential.csv").read_bytes()
    b2 = (tmp_path / "o2" / "potential.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "xi,rho,V,xi2V"
    last = lines[-1].split(",")
    assert abs(float(last[3]) + 0.25) <= 1e-3


def test_main_exit_codes(tmp_path, capsys):
    p = _write(tmp_path, {"profile": {"kind": "cylinder"},
                          "command": "describe"})
    assert main(["describe", "--config", str(p),
                 "--out", str(tmp_path / "d")]) == 0
    assert main(["potential", "--config", str(p),
                 "--out", str(tmp_path / "d")]) == 1
    bad = tmp_path / "missing.json"
    assert main(["describe", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_kernel_csv_contract(tmp_path):
    doc = {"profile": {"kind": "cylinder"}, "command": "kernel",
           "kind": "schrodinger",
           "t_grid": {"min": 10.0, "max": 100.0, "count": 2, "scale": "log"},
           "xi_grid": {"min": -3.0, "max": 3.0, "count": 3,
                       "scale": "linear"}}
    cfg = load_config(_write(tmp_path, doc))
    assert run(cfg, tmp_path / "k") == 0
    lines = (tmp_path / "k" / "kernel.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,t,xi,xi_prime,re_value,im_value,abs_weighted,err_est"
    assert len(lines) == 1 + 2 * 6
    row = lines[1].split(",")
    val = complex(float(row[4]), float(row[5]))
    assert abs(float(row[6]) - abs(val)) <= 1e-15
    assert float(row[7]) <= 1e-4


def test_statphase_command(tmp_path):
    doc = {"profile": {"kind": "cylinder"}, "command": "statphase"}
    cfg = load_config(_write(tmp_path, doc))
    assert run(cfg, tmp_path / "sp") == 0
    lines = (tmp_path / "sp" / "statphase.csv").read_text().strip().splitlines()
    assert lines[0] == "case,t,lhs,rhs,ratio,oracle_abs_err"
    assert len(lines) == 13


def test_describe_conical_profile(tmp_path, capsys):
    doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0},
                       "x_max": 5.0e4},
           "command": "describe"}
    cfg = load_config(_write(tmp_path, doc))
    assert run(cfg, tmp_path / "d") == 0
    text = (tmp_path / "d" / "describe.txt").read_text()
    assert "c_inf[right]:" in text and "c_inf[left]:" in text
    assert "C3" in text
    capsys.readouterr()


def test_describe_one_sided_table(tmp_path, capsys):
    # r = sqrt(1 + softplus(x)^2): conical on the right, a cylinder on the
    # left; the table's arrays are summarised, C2 is given per end and C3
    # for the conical end only (xi^3 V1 grows like xi/4 on the cylinder)
    x = np.linspace(-400.0, 400.0, 8001)
    r = np.sqrt(1.0 + np.logaddexp(0.0, x) ** 2)
    doc = {"profile": {"kind": "custom-tabulated", "conical_right": True,
                       "params": {"x": x.tolist(), "r": r.tolist()},
                       "x_max": 300.0},
           "command": "describe"}
    assert main(["describe", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "d")]) == 0
    lines = dict(line.split(": ", 1) for line in
                 (tmp_path / "d" / "describe.txt").read_text().splitlines())
    assert json.loads(lines["params"]) == {
        "r": "8001 points on [1, 400.00124999804689]",
        "x": "8001 points on [-400, 400]"}
    assert abs(float(lines["C2[right] (sup xi^2 |V|)"]) - 0.25) <= 0.01
    assert float(lines["C2[left] (sup xi^2 |V|)"]) <= 1e-6
    assert "c_inf[right]" in lines and "c_inf[left]" not in lines
    assert float(lines["C3[right] (sup |xi^3 V1|)"]) < 1.0
    assert "C3[left] (sup |xi^3 V1|)" not in lines
    capsys.readouterr()


def test_jost_and_coeffs_commands(tmp_path):
    base = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0},
                        "x_max": 5.0e4}}
    jdoc = dict(base, command="jost",
                lam_grid={"min": 0.5, "max": 2.0, "count": 2,
                          "scale": "log"},
                xi_grid={"min": -5.0, "max": 20.0, "count": 4,
                         "scale": "linear"})
    cfg = load_config(_write(tmp_path, jdoc, "j.json"))
    assert run(cfg, tmp_path / "j") == 0
    lines = (tmp_path / "j" / "jost.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,xi,re_f,im_f,re_df,im_df,regime"
    assert len(lines) == 1 + 2 * 4

    cdoc = dict(base, command="coeffs",
                lam_grid={"min": 1e-5, "max": 1e-4, "count": 3,
                          "scale": "log"})
    cfg = load_config(_write(tmp_path, cdoc, "c.json"))
    assert run(cfg, tmp_path / "c") == 0
    lines = (tmp_path / "c" / "coeffs.csv").read_text().strip().splitlines()
    assert lines[0].startswith("lambda,re_a_plus,im_a_plus,re_b_plus")
    assert lines[0].endswith("res_unitarity,res_lower_bound")
    assert len(lines) == 4
    row = lines[1].split(",")
    # unitarity residual column should be tiny at low energy
    assert float(row[-2]) <= 1e-6


def test_validate_high_command(tmp_path, capsys):
    doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0},
                       "x_max": 5.0e4},
           "command": "validate-high",
           "lam_grid": {"min": 1.0, "max": 30.0, "count": 4, "scale": "log"}}
    cfg = load_config(_write(tmp_path, doc))
    code = run(cfg, tmp_path / "vh")
    assert code == 0
    lines = (tmp_path / "vh" / "validate_high.csv").read_text().strip() \
        .splitlines()
    assert lines[0] == "check,law,constants,worst_residual,threshold,status"
    assert all(line.split(",")[-1] == "pass" for line in lines[1:])
    assert (tmp_path / "vh" / "validate_high.txt").exists()
    capsys.readouterr()


def test_d2_profile_scattering_fails_loudly(tmp_path, capsys):
    base = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0}, "d": 2,
                        "x_max": 5.0e4}}
    c = _write(tmp_path, dict(base, command="coeffs",
                              lam_grid={"min": 0.5, "max": 2.0, "count": 2,
                                        "scale": "log"}), "c.json")
    assert main(["coeffs", "--config", str(c),
                 "--out", str(tmp_path / "c")]) == 1
    assert "d = 1" in capsys.readouterr().err
    d = _write(tmp_path, dict(base, command="describe"), "d.json")
    assert main(["describe", "--config", str(d),
                 "--out", str(tmp_path / "d")]) == 0
    assert "d: 2" in (tmp_path / "d" / "describe.txt").read_text()
    capsys.readouterr()


def test_coeffs_at_zero_energy_is_a_hard_error(tmp_path, capsys):
    # lam = 0 from a linear grid is a hard error with a message, not a
    # traceback
    doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0},
                       "x_max": 5.0e4},
           "command": "coeffs",
           "lam_grid": {"min": 0.0, "max": 1.0, "count": 3,
                        "scale": "linear"}}
    p = _write(tmp_path, doc)
    assert main(["coeffs", "--config", str(p),
                 "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_coeffs_residual_over_gate_exits_2(tmp_path, monkeypatch, capsys):
    """A residual over its gate flags the run (exit 2) after the CSV is
    written; the same run with the true residuals exits 0."""
    doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0},
                       "x_max": 5.0e4},
           "command": "coeffs",
           "lam_grid": {"min": 0.5, "max": 2.0, "count": 2, "scale": "log"}}
    p = _write(tmp_path, doc)
    assert main(["coeffs", "--config", str(p),
                 "--out", str(tmp_path / "ok")]) == 0
    true_data = ScatteringModel.scattering_data

    def inflated(self, lam):
        sd = true_data(self, lam)
        return dataclasses.replace(
            sd, residuals=dict(sd.residuals, connection_identity=2e-6))

    monkeypatch.setattr(ScatteringModel, "scattering_data", inflated)
    assert main(["coeffs", "--config", str(p),
                 "--out", str(tmp_path / "flag")]) == 2
    lines = (tmp_path / "flag" / "coeffs.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "[flag] connection_identity" in capsys.readouterr().out
