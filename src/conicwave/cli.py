"""Batch front end: config-driven pipelines with CSV artifacts.

Usage: conicwave <command> --config <path> [--out <dir>]

Commands map one-to-one onto the library pipelines: describe, potential,
jost, coeffs, validate-low, validate-high, kernel, decay, statphase.
Configs are strict JSON documents: unknown keys are errors, grids are
{min, max, count, scale} with scale "linear" or "log".  All floating-point
output is printed with 17 significant digits so reruns are byte-identical.

Exit status: 0 all checks pass, 2 flagged residuals, 1 hard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, ConicwaveError
from .geometry import (ArclengthChart, PotentialProfile, fit_conical_constants,
                       make_profile)
from .jost import ScatteringModel
# stationary_phase_check stays importable from here: perfbench's tracer
# test looks it up under this module
from .kernel import (BANDS, KINDS, KernelEngine, SUP_GRID,
                     standard_case_library, stationary_phase_check,
                     stationary_phase_checks)

COMMANDS = ("describe", "potential", "jost", "coeffs", "validate-low",
            "validate-high", "kernel", "decay", "statphase")

_TOP_KEYS = {"profile", "command", "out", "lam_grid", "t_grid", "xi_grid",
             "kind", "band"}
_PROFILE_KEYS = {"kind", "params", "d", "x_max", "conical_left",
                 "conical_right"}
_GRID_KEYS = {"min", "max", "count", "scale"}
#: coeffs exits 2 when a residual exceeds its gate (unitarity: criterion 5)
_COEFFS_GATES = {"wronskian_constancy": 1e-8, "connection_identity": 1e-6,
                 "unitarity": 1e-5}
#: decay exits 2 unless |fit_alpha - target| <= this and R^2 >= 0.95
DECAY_ALPHA_WINDOW = 0.15
#: statphase exits 2 when the worst lhs/rhs ratio C_sp exceeds this
C_SP_CAP = 10.0

_GRID_DEFAULTS = {
    "validate-low": {"lam_grid": {"min": 1e-6, "max": 1e-2, "count": 25,
                                  "scale": "log"}},
    "validate-high": {"lam_grid": {"min": 1.0, "max": 100.0, "count": 10,
                                   "scale": "log"}},
    "decay": {"t_grid": {"min": 10.0, "max": 1e4, "count": 13,
                         "scale": "log"}},
}


@dataclass
class RunConfig:
    """Validated run configuration."""

    profile: dict
    command: str
    out: Optional[str] = None
    lam_grid: Optional[np.ndarray] = None
    t_grid: Optional[np.ndarray] = None
    xi_grid: Optional[np.ndarray] = None
    kind: str = "schrodinger"
    band: Optional[str] = None


def _parse_grid(doc, name: str) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object with min/max/count/scale")
    unknown = set(doc) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    try:
        lo = float(doc["min"])
        hi = float(doc["max"])
        count = int(doc["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name} needs numeric min/max/count") from exc
    scale = doc.get("scale", "linear")
    if count < 1:
        raise ConfigError(f"{name}: count must be >= 1")
    if not lo < hi:
        raise ConfigError(f"{name}: min must be < max")
    if scale == "log":
        if lo <= 0:
            raise ConfigError(f"{name}: log-scale grids require min > 0")
        return np.geomspace(lo, hi, count)
    if scale != "linear":
        raise ConfigError(f"{name}: scale must be 'linear' or 'log'")
    return np.linspace(lo, hi, count)


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration (strict keys)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "profile" not in doc or "command" not in doc:
        raise ConfigError("config requires 'profile' and 'command'")
    profile = doc["profile"]
    if not isinstance(profile, dict):
        raise ConfigError("profile must be an object")
    unknown = set(profile) - _PROFILE_KEYS
    if unknown:
        raise ConfigError(f"unknown profile keys: {sorted(unknown)}")
    command = doc["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = RunConfig(profile=profile, command=command, out=doc.get("out"))
    defaults = _GRID_DEFAULTS.get(command, {})
    for gname in ("lam_grid", "t_grid", "xi_grid"):
        src = doc.get(gname, defaults.get(gname))
        if src is not None:
            setattr(cfg, gname, _parse_grid(src, gname))
    kind = doc.get("kind", "schrodinger")
    if kind not in KINDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    cfg.kind = kind
    band = doc.get("band")
    if band is not None and band not in BANDS:
        raise ConfigError(f"unknown band {band!r}")
    cfg.band = band
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _build_potential(cfg: RunConfig) -> PotentialProfile:
    profile = make_profile(cfg.profile)
    x_max = float(cfg.profile.get("x_max", 1.0e5))
    return PotentialProfile(profile, ArclengthChart(profile, x_max=x_max))


def _build_model(cfg: RunConfig) -> ScatteringModel:
    pot = _build_potential(cfg)
    return ScatteringModel(pot.profile, pot.chart, pot)


def _cmd_describe(cfg, out: Path) -> int:
    pot = _build_potential(cfg)
    prof, chart = pot.profile, pot.chart
    # a table's arrays are summarised by their point count and range
    params = {k: float(v) if np.ndim(v) == 0 else
              f"{np.size(v)} points on [{_fmt(np.min(v))}, {_fmt(np.max(v))}]"
              for k, v in prof.params.items()}
    lines = [
        f"profile kind: {prof.kind}",
        f"params: {json.dumps(params, sort_keys=True)}",
        f"d: {prof.d}",
        f"symmetric: {prof.symmetric}",
        f"conical: left={prof.conical_left} right={prof.conical_right}",
        f"x_max: {_fmt(chart.x_max)}",
        f"xi image: [{_fmt(chart.xi_min)}, {_fmt(chart.xi_max)}]",
        f"C2[right] (sup xi^2 |V|): {_fmt(pot.C2)}",
        f"C2[left] (sup xi^2 |V|): {_fmt(pot.C2_left)}",
    ]
    for side, flag, c3 in (("right", prof.conical_right, pot.C3),
                           ("left", prof.conical_left, pot.C3_left)):
        if flag:
            fit = fit_conical_constants(chart, side)
            lines.append(f"c_inf[{side}]: {_fmt(fit.c_inf)} "
                         f"(resid_coeff {_fmt(fit.resid_coeff)})")
            lines.append(f"C3[{side}] (sup |xi^3 V1|): {_fmt(c3)}")
    text = "\n".join(lines) + "\n"
    (out / "describe.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def _cmd_potential(cfg, out: Path) -> int:
    pot = _build_potential(cfg)
    grid = cfg.xi_grid
    if grid is None:
        raise ConfigError("potential command requires xi_grid")
    rows = []
    for xi in grid:
        rho = float(pot.rho(xi))
        V = float(pot.V(xi))
        rows.append((xi, rho, V, xi * xi * V))
    _write_csv(out / "potential.csv", ["xi", "rho", "V", "xi2V"], rows)
    return 0


def _cmd_jost(cfg, out: Path) -> int:
    model = _build_model(cfg)
    if cfg.lam_grid is None or cfg.xi_grid is None:
        raise ConfigError("jost command requires lam_grid and xi_grid")
    rows = []
    for lam in cfg.lam_grid:
        ev = model.jost_plus(float(lam), xi_min=float(np.min(cfg.xi_grid)),
                             xi_hi=float(np.max(cfg.xi_grid)))
        v, d = ev.values(cfg.xi_grid)
        for xi, fv, fd in zip(cfg.xi_grid, v, d):
            rows.append((lam, xi, fv.real, fv.imag, fd.real, fd.imag,
                         ev.regime))
    _write_csv(out / "jost.csv",
               ["lambda", "xi", "re_f", "im_f", "re_df", "im_df", "regime"],
               rows)
    return 0


def _cmd_coeffs(cfg, out: Path) -> int:
    model = _build_model(cfg)
    if cfg.lam_grid is None:
        raise ConfigError("coeffs command requires lam_grid")
    res_names = ["wronskian_constancy", "connection_identity", "beta_from_W",
                 "unitarity", "lower_bound"]
    rows, flagged = [], []
    for lam in cfg.lam_grid:
        sd = model.scattering_data(float(lam))
        # "not <=" also flags a NaN residual
        flagged += [f"[flag] {k} = {_fmt(sd.residuals[k])} at lambda "
                    f"{_fmt(lam)}\n" for k, gate in _COEFFS_GATES.items()
                    if not sd.residuals[k] <= gate]
        rows.append((lam,
                     sd.a_plus.real, sd.a_plus.imag,
                     sd.b_plus.real, sd.b_plus.imag,
                     sd.a_minus.real, sd.a_minus.imag,
                     sd.b_minus.real, sd.b_minus.imag,
                     sd.W.real, sd.W.imag,
                     sd.alpha_minus.real, sd.alpha_minus.imag,
                     sd.beta_minus.real, sd.beta_minus.imag,
                     *[sd.residuals[k] for k in res_names]))
    hdr = ["lambda", "re_a_plus", "im_a_plus", "re_b_plus", "im_b_plus",
           "re_a_minus", "im_a_minus", "re_b_minus", "im_b_minus",
           "re_W", "im_W", "re_alpha_minus", "im_alpha_minus",
           "re_beta_minus", "im_beta_minus"] + [f"res_{k}" for k in res_names]
    _write_csv(out / "coeffs.csv", hdr, rows)
    sys.stdout.write("".join(flagged))
    return 2 if flagged else 0


def _emit_summary(report: dict, out: Path, stem: str) -> int:
    """Write a validation report as ``stem``.csv and ``stem``.txt; exit 2
    when any check is flagged."""
    hdr = ["check", "law", "constants", "worst_residual", "threshold",
           "status"]
    rows = []
    for name, rec in report.items():
        consts = rec.get("constants", {})
        rows.append({
            "check": name,
            "law": rec.get("law", ""),
            "constants": json.dumps({k: float(v) for k, v in consts.items()},
                                    sort_keys=True),
            "worst_residual": rec["value"],
            "threshold": rec.get("threshold", np.nan),
            "status": "pass" if rec["ok"] else "flag",
        })
    _write_csv(out / f"{stem}.csv", hdr, [[r[k] for k in hdr] for r in rows])
    lines = []
    for r in rows:
        lines.append(f"[{r['status']:>4}] {r['check']}: "
                     f"residual {_fmt(r['worst_residual'])} "
                     f"(threshold {_fmt(r['threshold'])})  {r['law']}")
    text = "\n".join(lines) + "\n"
    (out / f"{stem}.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0 if all(r["status"] == "pass" for r in rows) else 2


def _cmd_validate_low(cfg, out: Path) -> int:
    model = _build_model(cfg)
    report = model.validate_low_energy(cfg.lam_grid)
    return _emit_summary(report, out, "validate_low")


def _cmd_validate_high(cfg, out: Path) -> int:
    model = _build_model(cfg)
    report = model.validate_high_energy(cfg.lam_grid)
    return _emit_summary(report, out, "validate_high")


def _kernel_engine(cfg) -> KernelEngine:
    model = _build_model(cfg)
    span = 1.0e3
    if cfg.xi_grid is not None:
        span = max(span, float(np.max(np.abs(cfg.xi_grid))))
    if cfg.t_grid is not None:
        span = max(span, min(float(np.max(cfg.t_grid)),
                             0.9 * model.pot.xi_cap))
    return KernelEngine(model, xi_abs_max=1.05 * span)


def _cmd_kernel(cfg, out: Path) -> int:
    if cfg.t_grid is None or cfg.xi_grid is None:
        raise ConfigError("kernel command requires t_grid and xi_grid")
    eng = _kernel_engine(cfg)
    pts = np.asarray(cfg.xi_grid, dtype=float)
    jobs = [(float(t), float(xi), float(xip)) for t in cfg.t_grid
            for i, xi in enumerate(pts) for xip in pts[: i + 1]]
    rows = []
    for t, xi, xip in jobs:
        ks = eng.band_kernel(cfg.kind, cfg.band, t, xi, xip)
        rows.append((ks.kind, ks.t, ks.xi, ks.xi_prime, ks.value.real,
                     ks.value.imag, abs(ks.value), ks.err_est))
    _write_csv(out / "kernel.csv",
               ["kind", "t", "xi", "xi_prime", "re_value", "im_value",
                "abs_weighted", "err_est"], rows)
    return 0


def _cmd_decay(cfg, out: Path) -> int:
    eng = _kernel_engine(cfg)
    spatial = cfg.xi_grid if cfg.xi_grid is not None else np.asarray(SUP_GRID)
    rep = eng.decay_scan(cfg.kind, cfg.t_grid, spatial_grid=spatial,
                         band=cfg.band)
    rows = [(rep.kind, t, s, rep.fit_alpha, rep.fit_C, rep.fit_R2)
            for t, s in zip(rep.t_grid, rep.sup_abs)]
    _write_csv(out / "decay.csv",
               ["kind", "t", "sup_abs", "fit_alpha", "fit_C", "fit_R2"], rows)
    ok = (abs(rep.fit_alpha - rep.target_alpha) <= DECAY_ALPHA_WINDOW
          and rep.fit_R2 >= 0.95)
    sys.stdout.write(f"decay fit: alpha={_fmt(rep.fit_alpha)} "
                     f"(target {_fmt(rep.target_alpha)}), "
                     f"R2={_fmt(rep.fit_R2)}\n")
    return 0 if ok else 2


def _cmd_statphase(cfg, out: Path) -> int:
    cases = standard_case_library()
    rows = []
    worst_ratio = 0.0
    oracle_fail = False
    for case, (lhs, rhs) in zip(cases, stationary_phase_checks(cases)):
        ratio = lhs / rhs if rhs > 0 else np.inf
        worst_ratio = max(worst_ratio, ratio)
        oracle_err = np.nan
        if case.oracle is not None:
            oracle_err = abs(lhs - abs(case.oracle))
            if oracle_err > 1e-6:
                oracle_fail = True
        rows.append((case.label, case.t, lhs, rhs, ratio, oracle_err))
    _write_csv(out / "statphase.csv",
               ["case", "t", "lhs", "rhs", "ratio", "oracle_abs_err"], rows)
    sys.stdout.write(f"statphase: C_sp = {_fmt(worst_ratio)} over "
                     f"{len(cases)} cases\n")
    return 0 if (worst_ratio <= C_SP_CAP and not oracle_fail) else 2


_DISPATCH = {
    "describe": _cmd_describe,
    "potential": _cmd_potential,
    "jost": _cmd_jost,
    "coeffs": _cmd_coeffs,
    "validate-low": _cmd_validate_low,
    "validate-high": _cmd_validate_high,
    "kernel": _cmd_kernel,
    "decay": _cmd_decay,
    "statphase": _cmd_statphase,
}


def run(cfg: RunConfig, out_dir=None) -> int:
    """Execute a validated configuration; returns the exit status."""
    out = Path(out_dir if out_dir is not None else (cfg.out or "."))
    out.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[cfg.command](cfg, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conicwave",
        description="Scattering and dispersive-decay toolkit for surfaces "
                    "with conical ends")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.command != args.command:
            raise ConfigError(f"config command {cfg.command!r} does not "
                              f"match CLI command {args.command!r}")
        return run(cfg, args.out)
    except ConicwaveError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
