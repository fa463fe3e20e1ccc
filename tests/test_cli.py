"""Config loading, CSV column contracts, determinism and exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from conicwave import ConfigError, ScatteringModel, cli, standard_case_library
from conicwave.cli import DECAY_ALPHA_WINDOW, load_config, main, run


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


def test_nonfinite_x_max_is_a_config_error(tmp_path, capsys):
    # json reads NaN and Infinity; both must end on the error: line, not in
    # a traceback
    for x_max in (float("nan"), float("inf")):
        p = _write(tmp_path, {"profile": {"kind": "cylinder", "x_max": x_max},
                              "command": "describe"})
        assert main(["describe", "--config", str(p),
                     "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x_max" in err


@pytest.mark.parametrize("kind, name", [
    ("cylinder", "radius"), ("hyperboloid", "a"),
    ("two-sided-cone-smoothed", "kappa")])
def test_nonfinite_profile_parameter_is_a_config_error(tmp_path, capsys,
                                                       kind, name):
    # NaN passes a "<= 0" check; the error: line names the parameter
    for v in (float("nan"), float("inf"), -float("inf")):
        p = _write(tmp_path, {"profile": {"kind": kind, "params": {name: v}},
                              "command": "describe"})
        assert main(["describe", "--config", str(p),
                     "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f" {name} must be finite" in err


@pytest.mark.parametrize("name", ["x", "r"])
def test_nonfinite_table_entry_is_a_config_error(tmp_path, capsys, name):
    profile = _one_sided_table()
    profile["params"][name][4000] = float("nan")
    p = _write(tmp_path, {"profile": profile, "command": "describe"})
    assert main(["describe", "--config", str(p),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"tabulated {name} " in err


def _one_sided_table():
    """r = sqrt(1 + softplus(x)^2): conical on the right, a cylinder on the
    left."""
    x = np.linspace(-400.0, 400.0, 8001)
    r = np.sqrt(1.0 + np.logaddexp(0.0, x) ** 2)
    return {"kind": "custom-tabulated", "conical_right": True,
            "params": {"x": x.tolist(), "r": r.tolist()}, "x_max": 300.0}


@pytest.mark.parametrize("profile, key", [
    ({"kind": "cylinder", "x_max": "abc"}, "x_max"),
    ({"kind": "hyperboloid", "params": {"a": "abc"}}, "params"),
    ({"kind": "hyperboloid", "params": [1]}, "params"),
    ({"kind": "cylinder", "d": 1.7}, "d must be an integer"),
    (dict(_one_sided_table(), conical_right="false"), "conical_right")],
    ids=["x_max-string", "param-string", "params-list", "d-float",
         "conical-string"])
def test_mistyped_profile_value_is_a_config_error(tmp_path, capsys, profile,
                                                  key):
    # a value of the wrong JSON type ends on the error: line (exit 1), not
    # in a traceback and not in a run of a silently different profile
    p = _write(tmp_path, {"profile": profile, "command": "describe"})
    assert main(["describe", "--config", str(p),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "d").exists()


_CYL = {"kind": "cylinder"}
_GRID = {"min": 1.0, "max": 2.0, "count": 3}


def _table(x, x_max):
    x = np.asarray(x, dtype=float)
    return {"kind": "custom-tabulated", "x_max": x_max,
            "params": {"x": x.tolist(), "r": np.sqrt(1.0 + x * x).tolist()}}


@pytest.mark.parametrize("doc, needle", [
    ({"profile": _CYL, "command": "coeffs", "lam_grid": [1.0, 2.0]},
     "lam_grid must be an object"),
    ({"profile": _CYL, "command": "coeffs",
      "lam_grid": dict(_GRID, step=0.5)}, "unknown keys in lam_grid"),
    ({"profile": _CYL, "command": "coeffs",
      "lam_grid": dict(_GRID, min="one")}, "numeric min/max/count"),
    ({"profile": _CYL, "command": "coeffs", "lam_grid": dict(_GRID, count=0)},
     "count must be >= 1"),
    ({"profile": _CYL, "command": "coeffs",
      "lam_grid": dict(_GRID, scale="cubic")}, "scale must be"),
    ([_CYL, "describe"], "config root must be an object"),
    ({"profile": _CYL}, "requires 'profile' and 'command'"),
    ({"profile": "cylinder", "command": "describe"},
     "profile must be an object"),
    ({"profile": _CYL, "command": "kernel", "band": "mid_energy"},
     "unknown band"),
    ({"profile": _CYL, "command": "potential"}, "requires xi_grid"),
    ({"profile": _CYL, "command": "jost", "lam_grid": _GRID},
     "requires lam_grid and xi_grid"),
    ({"profile": _CYL, "command": "coeffs"}, "requires lam_grid"),
    ({"profile": _CYL, "command": "kernel", "xi_grid": _GRID},
     "requires t_grid and xi_grid"),
    ({"profile": dict(_CYL, d=0), "command": "describe"},
     "dimension d must be a positive integer"),
    ({"profile": _table([0.0, 1, 2, 4, 3, 5, 6, 7], 5.0),
      "command": "describe"}, "strictly increasing"),
    ({"profile": _table(np.linspace(-50.0, 50.0, 201), 80.0),
      "command": "describe"}, "x_max exceeds the tabulated grid")],
    ids=["grid-list", "grid-key", "grid-min-string", "grid-count-0",
         "grid-scale", "root-list", "no-command", "profile-string",
         "band", "potential-no-grid", "jost-no-xi-grid", "coeffs-no-grid",
         "kernel-no-t-grid", "d-zero", "table-x-order", "x_max-past-table"])
def test_config_error_exits_1(tmp_path, capsys, doc, needle):
    # every config fault ends on one error: line with exit status 1
    command = doc.get("command", "describe") if isinstance(doc, dict) \
        else "describe"
    p = _write(tmp_path, doc)
    assert main([command, "--config", str(p),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("grid, want", [
    ({"min": "1e-3", "max": 1.0, "count": 2}, None),
    ({"min": 1e-3, "max": True, "count": 2}, None),
    ({"min": 1e-3, "max": 1.0, "count": 2.7}, None),
    ({"min": 1e-3, "max": 1.0, "count": True}, None),
    ({"min": 1e-3, "max": 1.0, "count": "3"}, None),
    ({"min": 1e-3, "max": 1, "count": 2.0}, [1e-3, 1.0])],
    ids=["min-string", "max-bool", "count-fraction", "count-bool",
         "count-string", "integral-float-count"])
def test_grid_spec_takes_json_numbers_only(tmp_path, grid, want):
    # no coercion: the first five once parsed to [0.001, 1.0] or similar
    p = _write(tmp_path, {"profile": _CYL, "command": "coeffs",
                          "lam_grid": grid})
    if want is None:
        with pytest.raises(ConfigError, match="numeric min/max/count"):
            load_config(p)
    else:
        assert load_config(p).lam_grid.tolist() == want


def test_potential_refuses_xi_past_the_chart(tmp_path, capsys):
    # on a = 1 the chart's symmetric span is |xi| <= 1.414e5; past it the
    # rho and V splines would extrapolate (V = 18.45 at xi = 1e9)
    for lim, code in ((2e5, 1), (1.4e5, 0)):
        doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0}},
               "command": "potential",
               "xi_grid": {"min": -lim, "max": lim, "count": 3}}
        assert main(["potential", "--config", str(_write(tmp_path, doc)),
                     "--out", str(tmp_path / "p")]) == code
    assert "chart" in capsys.readouterr().err
    rows = (tmp_path / "p" / "potential.csv").read_text().splitlines()
    assert len(rows) == 4


def test_integral_float_d_is_accepted(tmp_path, capsys):
    # JSON writers may emit d = 2 as 2.0: it runs as d = 2 (1.7 is refused
    # above)
    doc = {"profile": {"kind": "cylinder", "d": 2.0}, "command": "describe"}
    assert main(["describe", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "d")]) == 0
    assert "d: 2\n" in capsys.readouterr().out


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


def test_kernel_rows_do_not_depend_on_the_t_grid(tmp_path):
    # the table is sized by xi_grid alone: the rows at t = 10 are the same
    # bytes whether t_grid ends at 10 or at 1e4 (a span grown to 1e4 once
    # moved them by up to 9e-8 relative on a = 1)
    rows = []
    for tmax, count in ((100.0, 1), (1e4, 2)):
        doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0}},
               "command": "kernel",
               "t_grid": {"min": 10.0, "max": tmax, "count": count,
                          "scale": "log"},
               "xi_grid": {"min": 0.0, "max": 10.0, "count": 2}}
        assert run(load_config(_write(tmp_path, doc)), tmp_path / "k") == 0
        rows.append((tmp_path / "k" / "kernel.csv").read_text().splitlines())
    assert len(rows[0]) == 4 and rows[1][:4] == rows[0]


def test_decay_command(tmp_path, capsys):
    doc = {"profile": {"kind": "cylinder"}, "command": "decay",
           "t_grid": {"min": 10.0, "max": 1000.0, "count": 3, "scale": "log"},
           "xi_grid": {"min": 0.0, "max": 1.0, "count": 2,
                       "scale": "linear"}}
    code = run(load_config(_write(tmp_path, doc)), tmp_path / "dc")
    lines = (tmp_path / "dc" / "decay.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,t,sup_abs,fit_alpha,fit_C,fit_R2"
    assert len(lines) == 1 + 3
    # the exit status is the CSV's fit against the d = 1 Schrodinger
    # target (d + 1)/2
    row = lines[1].split(",")
    alpha, r2 = float(row[3]), float(row[5])
    ok = abs(alpha - 1.0) <= DECAY_ALPHA_WINDOW and r2 >= 0.95
    assert code == (0 if ok else 2)
    capsys.readouterr()


def test_wave_decay_command(tmp_path, capsys):
    # the wave kernels' target is d/2; on the cylinder the sup over this
    # grid falls as 0.5/t, so the fit reads 1 and the command exits 2
    doc = {"profile": {"kind": "cylinder"}, "command": "decay",
           "kind": "wave_plus",
           "t_grid": {"min": 10.0, "max": 1000.0, "count": 3, "scale": "log"},
           "xi_grid": {"min": 0.0, "max": 1.0, "count": 2,
                       "scale": "linear"}}
    code = run(load_config(_write(tmp_path, doc)), tmp_path / "dc")
    assert "(target 0.5)" in capsys.readouterr().out
    lines = (tmp_path / "dc" / "decay.csv").read_text().strip().splitlines()
    row = lines[1].split(",")
    assert row[0] == "wave_plus"
    alpha, r2 = float(row[3]), float(row[5])
    ok = abs(alpha - 0.5) <= DECAY_ALPHA_WINDOW and r2 >= 0.95
    assert code == (0 if ok else 2)


def test_validate_low_command(tmp_path, capsys):
    doc = {"profile": {"kind": "hyperboloid", "params": {"a": 1.0},
                       "x_max": 5.0e4},
           "command": "validate-low"}
    assert run(load_config(_write(tmp_path, doc)), tmp_path / "vl") == 0
    lines = (tmp_path / "vl" / "validate_low.csv").read_text().strip() \
        .splitlines()
    assert lines[0] == "check,law,constants,worst_residual,threshold,status"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "wronskian_low_law", "a_plus_law", "c3_cross_check", "b_plus_law",
        "db_plus_law", "da_plus_law", "f_plus_low_rep", "gamma_constants",
        "moment_m1", "moment_m2"]
    capsys.readouterr()


def test_statphase_command(tmp_path):
    doc = {"profile": {"kind": "cylinder"}, "command": "statphase"}
    cfg = load_config(_write(tmp_path, doc))
    assert run(cfg, tmp_path / "sp") == 0
    lines = (tmp_path / "sp" / "statphase.csv").read_text().strip().splitlines()
    assert lines[0] == "case,t,lhs,rhs,ratio,oracle_abs_err"
    assert len(lines) == 13


def test_statphase_checks_each_case_once(tmp_path, monkeypatch):
    # the command runs the library through the one public entry, so a
    # traced run counts one stationary_phase_check per case
    calls = []
    real = cli.stationary_phase_check

    def counting(case):
        calls.append(case.label)
        return real(case)

    monkeypatch.setattr(cli, "stationary_phase_check", counting)
    doc = {"profile": {"kind": "cylinder"}, "command": "statphase"}
    assert run(load_config(_write(tmp_path, doc)), tmp_path / "sp") == 0
    assert calls == [c.label for c in standard_case_library()]


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
    # the table's arrays are summarised, C2 is given per end and C3 for the
    # conical end only (xi^3 V1 grows like xi/4 on the cylinder)
    doc = {"profile": _one_sided_table(), "command": "describe"}
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
