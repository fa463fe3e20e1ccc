"""Jost solutions, low-energy bases, Wronskian and scattering coefficients.

Pipelines
---------
Low energy (lam <= lam_low, conical end, d = 1): the outgoing solution is
built from the inverse-square reference wave f0 by a backward Volterra solve
against the cubic-tail remainder V1, and matched to the energy-perturbed
zero-energy basis at xi = lam**-0.5.  Everything scattering-related (W,
reflection, transmission) then lives in the basis coefficients.

Oscillatory (lam above lam_low, or any lam when the potential is summable
enough): the phase-stripped function m = exp(-i*lam*xi) f solves a backward
Volterra equation with a bounded kernel; it is solved on [2/lam, xi_max]
with an analytic tail correction and continued inward as an ODE.

Conventions
-----------
Wr(u, v) = u v' - u' v, and the scattering Wronskian is

    W(lam) = Wr(f_plus, f_minus),

which makes the cylinder value -2i*lam, keeps the spectral density
2*lam*Im[f_plus(xi>) f_minus(xi<) / W] nonnegative on the diagonal, and
gives the low-energy law W = 2*lam*(1 + i*c3 + i*(2/pi)*log lam).
The transmission/reflection pair is beta = W/(-2i*lam),
alpha = Wr(f_minus, conj f_plus)/(-2i*lam), so |beta|^2 - |alpha|^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import exp1

from . import panels
from .errors import ConvergenceError, DomainError
from .geometry import ArclengthChart, PotentialProfile, ProfileSpec
from .hankel import (C0, C1, KAPPA, REGIME_LOW_ENERGY,
                     REGIME_OSCILLATORY, WaveSample, f0_values)
from .volterra import separable_integrators, sweep

LAM_LOW = 1.0e-2
SWEEP_TOL = 1e-12


def wr(u, du, v, dv):
    """Wronskian u v' - u' v."""
    return u * dv - du * v


def _gated(report: dict) -> dict:
    """Set each row's 'ok' to value <= threshold, and-ed with the extra
    condition (a fitted slope or rate) a row may already carry in 'ok'."""
    for row in report.values():
        row["ok"] = bool(row["value"] <= row["threshold"]
                         and row.get("ok", True))
    return report


def _exp_moment(s: complex, B: float, n: int) -> complex:
    """integral_B^inf eta^-n exp(-s*eta) deta for purely imaginary s != 0.

    Built upward from the exponential integral; |exp(-s*eta)| = 1 keeps the
    recursion overflow-free.
    """
    val = exp1(s * B)
    for k in range(1, n):
        val = (np.exp(-s * B) / B ** k - s * val) / k
    return complex(val)


def _seed_values(pv, x: np.ndarray):
    """Zero-energy pair (u0, u0', u1, u1') of a side view at x >= 0."""
    sq = np.sqrt(pv.r_of_xi(x))
    dsq = pv.dr_of_xi(x) / (2.0 * sq)
    iv = pv.inv_r_integral(x)
    return sq, dsq, sq * iv, dsq * iv + 1.0 / sq


class _SideBasis:
    """Perturbed basis of one side: exact seeds + interpolated corrections."""

    __slots__ = ("pv", "grid", "c0", "cd0", "c1", "cd1")

    def __init__(self, pv, grid, c0, cd0, c1, cd1):
        self.pv = pv
        self.grid = grid
        self.c0 = c0
        self.cd0 = cd0
        self.c1 = c1
        self.cd1 = cd1

    def eval(self, xi: np.ndarray):
        """(u0, u0', u1, u1') at lam, for side coordinates xi >= 0."""
        xi = np.asarray(xi, dtype=float)
        s0, ds0, s1, ds1 = _seed_values(self.pv, xi)
        g = self.grid
        return (s0 + g.interpolate(self.c0, xi), ds0 + g.interpolate(self.cd0, xi),
                s1 + g.interpolate(self.c1, xi), ds1 + g.interpolate(self.cd1, xi))


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowEnergyBasis:
    """Zero-energy pair and its energy-perturbed companions on a window."""

    lam: float
    window: tuple
    u0: Callable
    u1: Callable
    du0: Callable
    du1: Callable

    def wronskian_residual(self, xi) -> float:
        w = wr(self.u0(xi), self.du0(xi), self.u1(xi), self.du1(xi))
        return float(np.max(np.abs(w - 1.0)))


@dataclass(frozen=True)
class ScatteringData:
    """Per-energy scattering record with consistency residuals."""

    lam: float
    a_plus: complex
    b_plus: complex
    a_minus: complex
    b_minus: complex
    W: complex
    alpha_minus: complex
    beta_minus: complex
    residuals: dict = field(default_factory=dict)


@dataclass
class AsymptoticConstants:
    """Exact and fitted constants of the low-energy expansions."""

    c0: complex
    c1: float
    kappa: float
    c2: float = np.nan
    c3: float = np.nan
    c3_tilde: float = np.nan
    c4: float = np.nan
    c5: float = np.nan
    gamma0: float = np.nan
    gamma1: float = np.nan
    residuals: dict = field(default_factory=dict)


class JostEvaluator:
    """Callable xi -> WaveSample for one energy, with a vector interface."""

    def __init__(self, lam: float, fun, window, regime: str):
        self.lam = lam
        self._fun = fun
        self.window = window
        self.regime = regime

    def values(self, xi):
        xi = np.asarray(xi, dtype=float)
        lo, hi = self.window
        if np.any(xi < lo - 1e-9) or np.any(xi > hi + 1e-9):
            raise DomainError(f"xi outside evaluator window {self.window}")
        return self._fun(np.atleast_1d(xi))

    def __call__(self, xi) -> WaveSample:
        v, d = self.values(np.atleast_1d(float(xi)))
        return WaveSample(xi=float(xi), lam=self.lam, value=complex(v[0]),
                          dvalue=complex(d[0]), regime=self.regime)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class ScatteringModel:
    """Scattering pipeline for one profile/chart/potential bundle."""

    def __init__(self, profile: ProfileSpec, chart: Optional[ArclengthChart] = None,
                 potential: Optional[PotentialProfile] = None,
                 lam_low: float = LAM_LOW):
        if profile.d != 1:
            raise DomainError("the scattering pipelines are wired for d = 1 "
                              f"only (profile has d = {profile.d})")
        self.profile = profile
        self.chart = chart if chart is not None else ArclengthChart(profile)
        self.pot = potential if potential is not None \
            else PotentialProfile(profile, self.chart)
        self.lam_low = float(lam_low)
        self._pot_minus = self.pot.mirrored()
        self._osc_cache: dict = {}
        self._low_cache: dict = {}
        self._basis_cache: dict = {}

    # -- side handling ----------------------------------------------------

    def _pv(self, side: str):
        return self.pot if side == "plus" else self._pot_minus

    def _conical(self, side: str) -> bool:
        return (self.profile.conical_right if side == "plus"
                else self.profile.conical_left)

    # ------------------------------------------------------------------
    # zero-energy basis
    # ------------------------------------------------------------------

    def zero_energy_basis(self) -> LowEnergyBasis:
        pot = self.pot
        cap = 0.98 * pot.xi_cap

        def u0(xi):
            return np.sqrt(pot.r_of_xi(xi))

        def du0(xi):
            return pot.dr_of_xi(xi) / (2.0 * np.sqrt(pot.r_of_xi(xi)))

        def u1(xi):
            return u0(xi) * pot.inv_r_integral(xi)

        def du1(xi):
            return du0(xi) * pot.inv_r_integral(xi) + 1.0 / u0(xi)

        return LowEnergyBasis(lam=0.0, window=(-cap, cap),
                              u0=u0, u1=u1, du0=du0, du1=du1)

    # ------------------------------------------------------------------
    # energy-perturbed basis (one side)
    # ------------------------------------------------------------------

    def _side_basis(self, side: str, lam: float, L: float):
        """u_j(., lam) and derivatives on [0, L] of the chosen side.

        Volterra zone covers xi*lam <= 3; beyond that the two solutions are
        continued as an ODE system (they oscillate there, the perturbation
        series does not pay off).
        """
        key = (side, lam, round(L, 6))
        if key in self._basis_cache:
            return self._basis_cache[key]
        pv = self._pv(side)
        if L > 0.99 * pv.xi_cap:
            raise DomainError("basis window exceeds the chart")
        L_volt = min(L, 3.0 / lam) if lam > 0 else L
        breaks = panels.graded_breaks(0.0, L_volt, min(4.0, L_volt), 0.5, 12)
        breaks = panels.cap_phase(breaks, lambda s: lam, max_phase=0.8)
        grid = panels.PanelGrid.build(breaks, order=10)
        x = grid.flat
        u0x, du0x, u1x, du1x = _seed_values(pv, x)
        lam2 = lam * lam
        integ = separable_integrators(grid, "forward", [0.0, 0.0])
        sols = []
        for seed in (u0x, u1x):
            # u(xi,lam) = u_j(xi) - lam^2 int_0^xi [u1(xi)u0 - u0(xi)u1] u(.,lam);
            # the minus sign is what puts the solution at energy +lam^2
            # (cylinder oracle: cos(lam*xi), not cosh)
            f, (p0, p1), _ = sweep(
                integ, (-lam2 * u1x, lam2 * u0x), (u0x, u1x),
                seed.astype(complex),
                SWEEP_TOL * max(1.0, float(np.max(np.abs(seed)))))
            # corrections relative to the zero-energy seed: the seed is
            # evaluated exactly at interpolation time, so the panel
            # interpolation error only touches the O(lam^2) part
            sols.append(((f.real - seed).copy(),
                         (-lam2 * (du1x * p0 - du0x * p1)).real.copy()))
        (v0, d0), (v1, d1) = sols

        if L > L_volt:
            v0, d0, v1, d1, grid = self._extend_basis_ode(
                pv, lam, grid, (v0, d0, v1, d1), L_volt, L)
        rec = _SideBasis(pv, grid, v0, d0, v1, d1)
        self._basis_cache[key] = rec
        return rec

    def _extend_basis_ode(self, pv, lam, grid, vals, L0, L):
        v0, d0, v1, d1 = vals
        breaks = panels.cap_phase(panels.geometric_breaks(L0, L, 8),
                                  lambda s: lam, max_phase=0.8)
        ext = panels.PanelGrid.build(breaks, order=10)

        def rhs(s, y):
            V = pv.V(s)
            return [y[1], (V - lam * lam) * y[0],
                    y[3], (V - lam * lam) * y[2]]

        s0, ds0, s1, ds1 = _seed_values(pv, np.array([L0]))
        y0 = [grid.interpolate(v0, np.array([L0]))[0] + s0[0],
              grid.interpolate(d0, np.array([L0]))[0] + ds0[0],
              grid.interpolate(v1, np.array([L0]))[0] + s1[0],
              grid.interpolate(d1, np.array([L0]))[0] + ds1[0]]
        sol = solve_ivp(rhs, (L0, L), np.real(y0), method="DOP853",
                        rtol=1e-11, atol=1e-12, dense_output=True)
        if not sol.success:
            raise ConvergenceError("basis ODE extension failed")
        ys = sol.sol(ext.flat)
        e0, ed0, e1, ed1 = _seed_values(pv, ext.flat)
        merged_breaks = np.concatenate([grid.breaks, ext.breaks[1:]])
        merged = panels.PanelGrid.build(merged_breaks, order=10)

        def cat(a, b):
            return np.concatenate([np.asarray(a).ravel(), b])

        return (cat(v0, ys[0] - e0), cat(d0, ys[1] - ed0),
                cat(v1, ys[2] - e1), cat(d1, ys[3] - ed1), merged)

    def low_energy_basis(self, lam: float, window: Optional[float] = None
                         ) -> LowEnergyBasis:
        """Energy-perturbed basis u_j(., lam) on [-L, L] (default L = 4/lam)."""
        if lam <= 0:
            raise DomainError("low_energy_basis requires lam > 0")
        if lam > self.lam_low:
            raise DomainError("low_energy_basis is restricted to lam <= lam_low")
        L = window if window is not None else \
            min(4.0 / lam, 0.98 * self.pot.xi_cap)
        bp = self._side_basis("plus", lam, L)
        bm = self._side_basis("minus", lam, L)

        def ev(idx: int, odd: bool, odd_mirror: bool):
            def f(xi):
                xi = np.atleast_1d(np.asarray(xi, dtype=float))
                out = np.empty(xi.shape)
                pos = xi >= 0
                if np.any(pos):
                    out[pos] = bp.eval(xi[pos])[idx]
                if np.any(~pos):
                    sgn = -1.0 if odd_mirror else 1.0
                    out[~pos] = sgn * bm.eval(-xi[~pos])[idx]
                return out
            return f

        u0 = ev(0, False, odd_mirror=False)
        du0 = ev(1, True, odd_mirror=True)
        u1 = ev(2, True, odd_mirror=True)
        du1 = ev(3, False, odd_mirror=False)
        return LowEnergyBasis(lam=lam, window=(-L, L), u0=u0, u1=u1,
                              du0=du0, du1=du1)

    # ------------------------------------------------------------------
    # low-energy outgoing solution on one side
    # ------------------------------------------------------------------

    def _f_low_side(self, side: str, lam: float):
        """Solve the V1 Volterra equation around the matching point.

        Returns (grid, values, dvalues, diag) valid on [0.75, 1.0] * B in
        xi; diag carries the solve residually and the tail constants.
        """
        key = (side, lam)
        if key in self._low_cache:
            return self._low_cache[key]
        if not self._conical(side):
            raise DomainError(f"low-energy pipeline needs a conical "
                              f"{'right' if side == 'plus' else 'left'} end")
        pv = self._pv(side)
        xm = lam ** -0.5
        xi0 = max(pv.xi_tail, 0.75 * xm)
        B = min(0.98 * pv.xi_cap, max(8.0 / lam, 3.0 * xm))
        if B <= 1.3 * xm:
            raise DomainError("chart too small for the low-energy matching")
        breaks = panels.geometric_breaks(xi0, B, 12)
        breaks = panels.cap_phase(breaks, lambda s: lam if s * lam > 0.5 else 0.0,
                                  max_phase=1.0)
        grid = panels.PanelGrid.build(breaks, order=10)
        x = grid.flat
        f0, df0 = f0_values(x, lam)
        v1 = pv.V1(x)
        s1, s2 = self._low_tail_constants(pv, lam, B)
        inv2il = 1.0 / (2j * lam)

        g = f0 + np.conj(f0) * s1 - f0 * s2
        A1 = np.conj(f0) * inv2il
        B1 = f0 * v1
        A2 = -f0 * inv2il
        B2 = np.conj(f0) * v1
        integ = separable_integrators(grid, "backward", [0.0, 0.0])
        f, (t1, t2), sweeps = sweep(integ, (A1, A2), (B1, B2), g,
                                    SWEEP_TOL * float(np.max(np.abs(g))))
        df = df0 + np.conj(df0) * (s1 + t1 * inv2il) \
            - df0 * (s2 + t2 * inv2il)
        diag = {"sweeps": sweeps, "s1": s1, "s2": s2, "B": B, "xi0": xi0}
        rec = (grid, f, df, diag)
        self._low_cache[key] = rec
        return rec

    def _low_tail_constants(self, pv, lam: float, B: float):
        """S1 = (2i lam)^-1 int_B^inf f0^2 V1, S2 = same with |f0|^2.

        Numeric Filon stage on [B, B2] with the exact Hankel amplitude and
        the charted V1 (cubic model beyond the chart), then an analytic
        remainder using f0 ~ e^{i lam xi} and the cubic tail model.
        """
        inv2il = 1.0 / (2j * lam)
        B2 = max(40.0 / lam, 2.0 * B)
        cap = 0.98 * pv.xi_cap
        breaks = panels.geometric_breaks(B, B2, 8)
        breaks = panels.cap_phase(breaks, lambda s: 2.0 * lam, max_phase=1.0)
        grid = panels.PanelGrid.build(breaks, order=10)
        e = grid.flat
        f0, _ = f0_values(e, lam)
        inside = e <= cap
        v1 = np.empty_like(e)
        if np.any(inside):
            v1[inside] = pv.V1(e[inside])
        if np.any(~inside):
            v1[~inside] = pv.v1_tail_model(e[~inside])
        s1 = panels.integrate(grid, f0 * f0 * v1) * inv2il
        s2 = panels.integrate(grid, np.abs(f0) ** 2 * v1) * inv2il
        # analytic remainder past B2: f0 ~ e^{i lam xi}, V1 ~ A / xi^3, so
        # f0^2 V1 ~ A e^{2i lam eta}/eta^3 and |f0|^2 V1 ~ A/eta^3
        A = pv.tail_coeff_right
        s1 += inv2il * A * _exp_moment(-2j * lam, B2, 3)
        s2 += inv2il * A * (0.5 / B2 ** 2)
        return s1, s2

    # ------------------------------------------------------------------
    # oscillatory pipeline on one side
    # ------------------------------------------------------------------

    def osc_viability(self, side: str, lam: float) -> float:
        """Residual initialization error estimate of the m pipeline."""
        pv = self._pv(side)
        xi_max = 0.98 * pv.xi_cap
        raw = pv.C2 / max(lam * xi_max, 1e-300)
        return 0.5 * raw * raw + 1e-12

    def _m_side(self, side: str, lam: float, xi_floor: float = 0.0,
                xi_hi: float = 0.0):
        """Backward Volterra for m on [2/lam, B], ODE continuation below.

        The kernel is (exp(2i lam (eta - xi)) - 1)/(2i lam) V(eta), the
        phase-stripped form of the sine-kernel equation; truncation at B is
        compensated by the analytic conical-tail forcing.  Returns a record
        with m and f evaluators for xi in [min(xi_floor, 0), B].
        """
        key = (side, lam, round(min(xi_floor, 0.0), 3), round(xi_hi, 3))
        if key in self._osc_cache:
            return self._osc_cache[key]
        pv = self._pv(side)
        xi_max = 0.98 * pv.xi_cap
        raw_trunc = pv.C2 / max(lam * xi_max, 1e-300)
        if lam * xi_max < 4.0 and raw_trunc > 1e-9:
            raise DomainError("lam so small that xi_max*lam < 4; enlarge the "
                              "chart or use the low-energy pipeline")
        if self.osc_viability(side, lam) > 2e-4:
            raise DomainError("oscillatory pipeline truncation error too "
                              "large at this lam; use the low-energy path")
        xi_v = min(2.0 / lam, 0.45 * xi_max)
        B = min(xi_max, max(400.0 / lam, 3.0 * xi_v,
                            1.1 * max(abs(xi_floor), xi_hi) + 10.0))
        B = max(B, xi_v * 1.5)
        breaks = panels.geometric_breaks(xi_v, B, 12)
        grid = panels.PanelGrid.build(breaks, order=10)
        e = grid.flat
        V = pv.V(e)
        inv2il = 1.0 / (2j * lam)
        c0t, c1tp = self._m_tail_constants(side, pv, lam, B)
        ph = np.exp(-2j * lam * e)
        g = 1.0 + inv2il * (ph * c1tp - c0t)
        integ = separable_integrators(grid, "backward", [0.0, 2.0 * lam])
        m, (_, t2), sweeps = sweep(integ, (-inv2il, ph * inv2il), (V, V), g,
                                   SWEEP_TOL)
        dm = -ph * (t2 + c1tp)
        # inward ODE continuation for xi below xi_v
        lo = min(xi_floor, 0.0)
        fv = np.exp(1j * lam * xi_v)
        m_v = grid.interpolate(m, [xi_v])[0]
        y0 = [fv * m_v,
              fv * (1j * lam * m_v + grid.interpolate(dm, [xi_v])[0])]

        def rhs(s, y):
            return [y[1], (pv.V(s) - lam * lam) * y[0]]

        sol = solve_ivp(rhs, (xi_v, lo - 1e-9), np.asarray(y0, dtype=complex),
                        method="DOP853", rtol=1e-11, atol=1e-13,
                        dense_output=True)
        if not sol.success:
            raise ConvergenceError("inward ODE continuation failed")
        rec = {"grid": grid, "m": m, "dm": dm, "xi_v": xi_v, "B": B,
               "ode": sol.sol, "lam": lam, "sweeps": sweeps, "lo": lo}
        self._osc_cache[key] = rec
        return rec

    def _m_tail_constants(self, side: str, pv, lam: float, B: float):
        """Analytic tail forcing of the m equation past the truncation B.

        Uses the conical model V ~ -1/(4 eta^2) + A/eta^3 beyond B; for
        non-conical ends (cylinder) the tail vanishes identically.
        """
        if not self._conical(side):
            return 0.0, 0.0
        A = pv.tail_coeff_right
        c0t = -0.25 / B + A / (2.0 * B * B)
        # c1tp = int_B^inf e^{+2i lam eta} V_model(eta) deta
        c1tp = -0.25 * _exp_moment(-2j * lam, B, 2) \
            + A * _exp_moment(-2j * lam, B, 3)
        return c0t, c1tp

    def _m_record_values(self, rec, xi):
        """f, f' from an m record, any xi in [lo, B]."""
        lam = rec["lam"]
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out_v = np.empty(xi.shape, dtype=complex)
        out_d = np.empty(xi.shape, dtype=complex)
        hi = xi >= rec["xi_v"]
        if np.any(hi):
            xv = xi[hi]
            mv = rec["grid"].interpolate(rec["m"], xv)
            dv = rec["grid"].interpolate(rec["dm"], xv)
            ph = np.exp(1j * lam * xv)
            out_v[hi] = ph * mv
            out_d[hi] = ph * (1j * lam * mv + dv)
        if np.any(~hi):
            ys = rec["ode"](xi[~hi])
            out_v[~hi] = ys[0]
            out_d[~hi] = ys[1]
        return out_v, out_d

    # ------------------------------------------------------------------
    # public Jost evaluators
    # ------------------------------------------------------------------

    def _pipeline_for(self, side: str, lam: float, pipeline: str) -> str:
        if pipeline not in ("auto", "low", "osc"):
            raise DomainError(f"unknown pipeline {pipeline!r}")
        if pipeline != "auto":
            return pipeline
        if lam <= self.lam_low and self._conical(side):
            return "low"
        return "osc"

    def _side_evaluator(self, side: str, lam: float, xi_min: float,
                        xi_hi: float, pipeline: str) -> JostEvaluator:
        pipe = self._pipeline_for(side, lam, pipeline)
        if pipe == "low":
            grid, f, df, diag = self._f_low_side(side, lam)
            a, b, _ = self._side_coefficients(side, lam)
            L = min(max(1.3 * lam ** -0.5, abs(xi_min) + 1.0, xi_hi + 1.0,
                        2.0), 0.97 * self.pot.xi_cap)
            other = "minus" if side == "plus" else "plus"
            basis = self._side_basis(side, lam, L)
            basis_o = self._side_basis(other, lam, L)
            xi_lo = diag["xi0"] * 1.05

            def fun(xi):
                out_v = np.empty(xi.shape, dtype=complex)
                out_d = np.empty(xi.shape, dtype=complex)
                direct = (xi >= xi_lo) & (xi <= diag["B"])
                if np.any(direct):
                    out_v[direct] = grid.interpolate(f, xi[direct])
                    out_d[direct] = grid.interpolate(df, xi[direct])
                mid = (~direct) & (xi >= 0)
                if np.any(mid):
                    u0v, du0v, u1v, du1v = basis.eval(xi[mid])
                    out_v[mid] = a * u0v + b * u1v
                    out_d[mid] = a * du0v + b * du1v
                neg = xi < 0
                if np.any(neg):
                    # u0 is even-type, u1 odd-type across the origin
                    u0v, du0v, u1v, du1v = basis_o.eval(-xi[neg])
                    out_v[neg] = a * u0v - b * u1v
                    out_d[neg] = -a * du0v + b * du1v
                return out_v, out_d

            return JostEvaluator(lam, fun, (-L, max(diag["B"], L)),
                                 REGIME_LOW_ENERGY)
        rec = self._m_side(side, lam, xi_floor=xi_min, xi_hi=xi_hi)

        def fun(xi):
            return self._m_record_values(rec, xi)

        return JostEvaluator(lam, fun, (rec["lo"], rec["B"]), REGIME_OSCILLATORY)

    def jost_plus(self, lam: float, xi_min: float = 0.0, xi_hi: float = 0.0,
                  pipeline: str = "auto") -> JostEvaluator:
        """Outgoing Jost solution f_plus(., lam); evaluator over a window."""
        if lam <= 0:
            raise DomainError("jost_plus requires lam > 0")
        return self._side_evaluator("plus", lam, xi_min, xi_hi, pipeline)

    def jost_minus(self, lam: float, xi_max: float = 0.0, xi_lo: float = 0.0,
                   pipeline: str = "auto") -> JostEvaluator:
        """Jost solution f_minus ~ e^{-i lam xi} at -infinity."""
        if lam <= 0:
            raise DomainError("jost_minus requires lam > 0")
        base = self._side_evaluator("minus", lam, -abs(xi_max), abs(xi_lo),
                                    pipeline)

        def fun(xi):
            v, d = base.values(-np.asarray(xi, dtype=float))
            return v, -d

        lo, hi = base.window
        return JostEvaluator(lam, fun, (-hi, -lo), base.regime)

    # ------------------------------------------------------------------
    # coefficients, Wronskian, reflection/transmission
    # ------------------------------------------------------------------

    def _side_coefficients(self, side: str, lam: float,
                           pipeline: str = "auto"):
        """(a, b) of the chosen side against its perturbed basis."""
        pipe = self._pipeline_for(side, lam, pipeline)
        if pipe == "low":
            xm = lam ** -0.5
            grid, f, df, diag = self._f_low_side(side, lam)
            basis = self._side_basis(side, lam, 1.3 * xm)
            pts = np.array([0.85 * xm, xm, 1.15 * xm])
            fv = grid.interpolate(f, pts)
            fd = grid.interpolate(df, pts)
        else:
            xm = min(lam ** -0.5, 2.5 / lam)
            L = min(1.3 * xm + 1.0, 3.2 / lam)
            basis = self._side_basis(side, lam, L)
            rec = self._m_side(side, lam)
            pts = np.array([0.85 * xm, xm, min(1.15 * xm, 0.98 * L)])
            fv, fd = self._m_record_values(rec, pts)
        u0v, du0v, u1v, du1v = basis.eval(pts)
        a3 = wr(fv, fd, u1v, du1v)
        b3 = -wr(fv, fd, u0v, du0v)
        spread_a = np.max(np.abs(a3 - a3[1])) / max(abs(a3[1]), 1e-300)
        spread_b = np.max(np.abs(b3 - b3[1])) / max(abs(b3[1]), 1e-300)
        return complex(a3[1]), complex(b3[1]), float(max(spread_a, spread_b))

    def connection_coefficients(self, lam: float, pipeline: str = "auto"):
        """(a+, b+, a-, b-) in the perturbed basis, Wronskian-matched."""
        ap, bp, res_p = self._side_coefficients("plus", lam, pipeline)
        am_t, bm_t, res_m = self._side_coefficients("minus", lam, pipeline)
        # mirrored-side coefficients translate with a sign flip on b
        return ap, bp, am_t, -bm_t

    def wronskian(self, lam: float, pipeline: str = "auto") -> complex:
        """W(lam) = Wr(f_plus, f_minus); cylinder convention -2i lam."""
        if lam <= 0:
            raise DomainError("wronskian requires lam > 0")
        pipe_p = self._pipeline_for("plus", lam, pipeline)
        pipe_m = self._pipeline_for("minus", lam, pipeline)
        if pipe_p == "low" and pipe_m == "low":
            ap, bp, am, bm = self.connection_coefficients(lam, pipeline)
            return ap * bm - am * bp
        rp = self._m_side("plus", lam)
        rm = self._m_side("minus", lam)
        fp, dfp = self._m_record_values(rp, np.array([0.0]))
        fmv, dfmv = self._m_record_values(rm, np.array([0.0]))
        # minus side: f_-(xi) = g(-xi) with g the mirrored plus solution
        fm, dfm = fmv[0], -dfmv[0]
        return complex(wr(fp[0], dfp[0], fm, dfm))

    def reflection_transmission(self, lam: float, pipeline: str = "auto"):
        """(alpha_minus, beta_minus); |beta|^2 - |alpha|^2 = 1."""
        if lam <= 0:
            raise DomainError("reflection_transmission requires lam > 0")
        W = self.wronskian(lam, pipeline)
        beta = W / (-2j * lam)
        pipe = self._pipeline_for("plus", lam, pipeline)
        pipe_m = self._pipeline_for("minus", lam, pipeline)
        if pipe == "low" and pipe_m == "low":
            ap, bp, am, bm = self.connection_coefficients(lam, pipeline)
            alpha = (am * np.conj(bp) - bm * np.conj(ap)) / (-2j * lam)
        else:
            rp = self._m_side("plus", lam)
            rm = self._m_side("minus", lam)
            fp, dfp = self._m_record_values(rp, np.array([0.0]))
            fmv, dfmv = self._m_record_values(rm, np.array([0.0]))
            fm, dfm = fmv[0], -dfmv[0]
            alpha = wr(fm, dfm, np.conj(fp[0]), np.conj(dfp[0])) / (-2j * lam)
        return complex(alpha), complex(beta)

    def scattering_data(self, lam: float, pipeline: str = "auto") -> ScatteringData:
        """Full per-energy record with named consistency residuals."""
        ap, bp, res_p = self._side_coefficients("plus", lam, pipeline)
        am_t, bm_t, res_m = self._side_coefficients("minus", lam, pipeline)
        am, bm = am_t, -bm_t
        W_basis = ap * bm - am * bp
        pipe = self._pipeline_for("plus", lam, pipeline)
        if pipe == "low":
            W = W_basis
        else:
            W = self.wronskian(lam, pipeline)
        alpha, beta = self.reflection_transmission(lam, pipeline)
        residuals = {
            "wronskian_constancy": max(res_p, res_m),
            "connection_identity": abs(W - W_basis) / abs(W),
            "beta_from_W": abs(beta - W / (-2j * lam)) / abs(beta),
            "unitarity": abs(abs(beta) ** 2 - abs(alpha) ** 2 - 1.0),
            "lower_bound": max(0.0, 2 * lam - abs(W)) / (2 * lam),
        }
        return ScatteringData(lam=lam, a_plus=ap, b_plus=bp, a_minus=am,
                              b_minus=bm, W=W, alpha_minus=alpha,
                              beta_minus=beta, residuals=residuals)

    # ------------------------------------------------------------------
    # lambda-derivatives (centered differences, step max(1e-4*lam, 1e-9))
    # ------------------------------------------------------------------

    def _lam_step(self, lam: float) -> float:
        return max(1e-4 * lam, 1e-9)

    def coefficient_derivatives(self, lam: float):
        """(a+', b+') by centered differences in lam."""
        h = self._lam_step(lam)
        ap1, bp1, _ = self._side_coefficients("plus", lam + h)
        ap0, bp0, _ = self._side_coefficients("plus", lam - h)
        return (ap1 - ap0) / (2 * h), (bp1 - bp0) / (2 * h)

    def wronskian_derivative(self, lam: float) -> complex:
        h = self._lam_step(lam)
        return (self.wronskian(lam + h) - self.wronskian(lam - h)) / (2 * h)

    # ------------------------------------------------------------------
    # low-energy validation suite
    # ------------------------------------------------------------------

    def fit_c2(self) -> float:
        """c2 in int_0^xi 1/r = sqrt(2)(log xi + c2) + O(1/xi)."""
        hi = 0.95 * self.pot.xi_cap
        xs = np.geomspace(hi / 10.0, hi, 60)
        y = self.pot.inv_r_integral(xs) / np.sqrt(2.0) - np.log(xs)
        basis = np.stack([np.ones_like(xs), 1.0 / xs], axis=1)
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        return float(coef[0])

    def zero_energy_moments(self, xi: float):
        """The two quadratic zero-energy moment combinations at xi."""
        grid = panels.PanelGrid.build(
            panels.graded_breaks(0.0, xi, min(8.0, xi), 0.5, 10), order=10)
        x = grid.flat
        zb = self.zero_energy_basis()
        u0x, u1x = zb.u0(x), zb.u1(x)
        pre = panels.PrefixIntegrator(grid)
        i00 = pre.break_values(u0x * u0x)[-1].real
        i01 = pre.break_values(u0x * u1x)[-1].real
        i11 = pre.break_values(u1x * u1x)[-1].real
        u0e, u1e = float(zb.u0(xi)), float(zb.u1(xi))
        m1 = u1e * i00 - u0e * i01
        m2 = u1e * i01 - u0e * i11
        return m1, m2

    def validate_low_energy(self, lam_grid) -> tuple:
        """Fit the low-energy constants and check every stated law.

        Returns (AsymptoticConstants, report) where report maps check name
        to {'value': worst residual, 'threshold': gate, 'ok': bool, ...}.
        """
        lam_grid = np.asarray(lam_grid, dtype=float)
        if np.any(lam_grid <= 0) or np.any(lam_grid > self.lam_low):
            raise DomainError("lam_grid must lie in (0, lam_low]")
        if lam_grid.max() / lam_grid.min() < 99.0:
            raise DomainError("lam_grid must span at least two decades")
        lam_grid = np.sort(lam_grid)
        consts = AsymptoticConstants(c0=C0, c1=C1, kappa=KAPPA)
        report: dict = {}
        c2 = self.fit_c2()
        consts.c2 = c2

        data = [self.scattering_data(l) for l in lam_grid]
        ap = np.array([d.a_plus for d in data])
        bp = np.array([d.b_plus for d in data])
        W = np.array([d.W for d in data])
        logl = np.log(lam_grid)
        rt = np.sqrt(lam_grid)
        # the O(lam^(1/2-eps)) contamination biases intercepts fitted over
        # the upper decades, so regress on the lower geometric half
        fitsel = lam_grid <= np.sqrt(lam_grid.min() * lam_grid.max())

        # a-law: a+/(2^{1/4} c0 sqrt(lam)) = 1 + i c1 log lam + i c3
        anorm = ap / (2 ** 0.25 * C0 * rt)
        slope_a, c3_a = np.polyfit(logl[fitsel], anorm.imag[fitsel], 1)
        # W-law: W/(2 lam) = 1 + i c3 + i c1 log lam
        wnorm = W / (2 * lam_grid)
        slope_w, c3_w = np.polyfit(logl[fitsel], wnorm.imag[fitsel], 1)
        consts.c3 = float(c3_w)
        model = 1.0 + 1j * (c3_w + C1 * logl)
        w_resid = np.abs(wnorm - model) / np.abs(model)
        report["wronskian_low_law"] = {
            "law": "W/(2*lam) = 1 + i*c3 + i*(2/pi)*log(lam)",
            "constants": {"c3": float(c3_w), "im_slope": float(slope_w)},
            "value": float(np.max(w_resid)), "threshold": 0.05,
            "ok": bool(abs(slope_w / C1 - 1.0) <= 0.02)}
        report["a_plus_law"] = {
            "law": "a+ = 2^(1/4)*c0*sqrt(lam)*(1 + i*c1*log(lam) + i*c3)",
            "constants": {"c3_from_a": float(c3_a),
                          "im_slope": float(slope_a)},
            "value": float(np.max(np.abs(anorm - model))),
            "threshold": 0.05,
            "ok": bool(abs(slope_a / C1 - 1.0) <= 0.02)}
        report["c3_cross_check"] = {
            "law": "c3 from a+ equals c3 from W",
            "constants": {"c3_a": float(c3_a), "c3_w": float(c3_w),
                          "kappa_minus_c1c2": float(KAPPA - C1 * c2)},
            "value": abs(c3_a - c3_w) / max(abs(c3_w), 1e-12),
            "threshold": 0.03}

        # b-law and its decay rate
        bnorm = bp / (1j * 2 ** -0.25 * C0 * C1 * rt)
        bres = np.abs(bnorm - 1.0)
        rate = np.polyfit(logl, np.log(np.maximum(bres, 1e-300)), 1)[0]
        report["b_plus_law"] = {
            "law": "b+ = i*2^(-1/4)*c0*c1*sqrt(lam) + O(lam^(1-eps))",
            "constants": {"decay_rate": float(rate)},
            "value": float(bres[0]), "threshold": 0.05,
            "ok": bool(rate >= 0.4)}

        # derivative laws on an interior subgrid
        sub = lam_grid[:: max(1, len(lam_grid) // 8)]
        da_res, db_res = [], []
        for l in sub:
            dap, dbp = self.coefficient_derivatives(l)
            db_pred = 0.5j * 2 ** -0.25 * C0 * C1 / np.sqrt(l)
            da_pred = 0.5 * 2 ** 0.25 * C0 / np.sqrt(l) \
                * (1 + 1j * (c3_w + 2 * C1 + C1 * np.log(l)))
            db_res.append(abs(dbp / db_pred - 1.0))
            da_res.append(abs(dap / da_pred - 1.0))
        report["db_plus_law"] = {
            "law": "b+' = (i/2)*2^(-1/4)*c0*c1*lam^(-1/2) + O(lam^-eps)",
            "value": float(np.max(db_res)), "threshold": 0.10}
        report["da_plus_law"] = {
            "law": "a+' = (1/2)*2^(1/4)*c0*lam^(-1/2)*"
                   "(1 + i*c3 + 2i*c1 + i*c1*log(lam))",
            "value": float(np.max(da_res)), "threshold": 0.10}

        # pointwise low-energy representation of f+ on both sides
        c4s, c5s = [], []
        for l in lam_grid[lam_grid <= 1e-3][-6:]:
            ev = self.jost_plus(l, xi_min=-(l ** -0.5) * 1.2)
            for scale in (0.5, 1.0):
                xi = scale * l ** -0.5
                v, _ = ev.values(np.array([xi]))
                z = v[0] / (C0 * np.sqrt(l * np.hypot(xi, 1.0)))
                c4s.append((z - 1.0 - 1j * C1
                            * np.log(l * np.hypot(xi, 1.0))).imag)
                v, _ = ev.values(np.array([-xi]))
                z = v[0] / (C0 * np.sqrt(l * np.hypot(xi, 1.0)))
                c5s.append((z - 1.0 - 1j * C1
                            * np.log(l / np.hypot(xi, 1.0))).imag)
        consts.c4 = float(np.mean(c4s))
        consts.c5 = float(np.mean(c5s))
        report["f_plus_low_rep"] = {
            "law": "f+ = c0*sqrt(lam*<xi>)*(1 + i*c1*log(lam*<xi>^(+-1)) + i*c4/c5)",
            "constants": {"c4": consts.c4, "c5": consts.c5},
            "value": float(max(np.std(c4s), np.std(c5s))),
            "threshold": 0.2}

        # nonsymmetric-decomposition constants gamma0, gamma1
        g0s, g1s = [], []
        for l in lam_grid[lam_grid <= 1e-4]:
            i = int(np.searchsorted(lam_grid, l))
            ratio = ap[i] / bp[i]
            g0s.append(-0.5 * ratio.imag)
            g1s.append(0.5 * (bp[i] / ap[i]).imag
                       * (1.0 + (c3_w + C1 * np.log(l)) ** 2))
        consts.gamma0 = float(np.mean(g0s))
        consts.gamma1 = float(np.mean(g1s))
        g0_ref = np.pi / (2 * np.sqrt(2.0))
        g1_ref = 1.0 / (np.sqrt(2.0) * np.pi)
        report["gamma_constants"] = {
            "law": "density = gamma0*u0*u0' + gamma1/(1+(c3+c1*log lam)^2)*u1*u1'",
            "constants": {"gamma0": consts.gamma0, "gamma1": consts.gamma1,
                          "gamma0_symmetric": g0_ref,
                          "gamma1_symmetric": g1_ref},
            "value": float(max(abs(consts.gamma0 / g0_ref - 1.0),
                               abs(consts.gamma1 / g1_ref - 1.0))),
            "threshold": 0.05}

        # zero-energy quadratic moments
        m1, m2 = self.zero_energy_moments(1.0e3)
        lead1 = 0.25 * 2 ** -0.25
        report["moment_m1"] = {
            "law": "u1*int(u0^2) - u0*int(u0 u1) = (1/4)*2^(-1/4)*xi^(5/2) + ...",
            "value": abs(m1 / 1.0e3 ** 2.5 / lead1 - 1.0),
            "threshold": 0.02}
        xis = np.geomspace(1.0e3, 1.0e4, 8)
        vals = []
        for x in xis:
            _, m2x = self.zero_energy_moments(x)
            vals.append(m2x / x ** 2.5 - 0.25 * 2 ** 0.25 * np.log(x))
        basis = np.stack([np.ones_like(xis), np.log(xis) / xis], axis=1)
        coef, *_ = np.linalg.lstsq(basis, np.asarray(vals), rcond=None)
        consts.c3_tilde = float(coef[0])
        report["moment_m2"] = {
            "law": "u1*int(u0 u1) - u0*int(u1^2) = (1/4)*2^(1/4)*xi^(5/2)*log(xi)"
                   " + c3_tilde*xi^(5/2) + ...",
            "constants": {"c3_tilde": consts.c3_tilde},
            "value": float(np.sqrt(np.mean((basis @ coef - vals) ** 2))),
            "threshold": 0.05}

        consts.residuals = {k: v["value"] for k, v in report.items()}
        return consts, _gated(report)

    # ------------------------------------------------------------------
    # high-energy validation suite
    # ------------------------------------------------------------------

    def validate_high_energy(self, lam_grid, xi_max: float = 1.0e3) -> dict:
        """Scan the m bounds and the Wronskian at energies above one.

        Single fitted constants; each law is flagged when a fine-grid point
        exceeds 1.5x the constant fitted on the coarse half of the grid.
        """
        lam_grid = np.asarray(lam_grid, dtype=float)
        if np.any(lam_grid < 1.0):
            raise DomainError("high-energy grid must satisfy lam >= 1")
        xis = np.geomspace(1.0, xi_max, 25)
        w = np.hypot(xis, 1.0)
        rows = {"m_minus_one": [], "dxi_m": [], "dxi2_m": [], "dlam_m": []}
        W_vals, dW_vals = [], []
        for lam in lam_grid:
            m, dm, d2m = self._m_scan("plus", lam, xis)
            rows["m_minus_one"].append(lam * w * np.abs(m - 1.0))
            rows["dxi_m"].append(lam * w ** 2 * np.abs(dm))
            rows["dxi2_m"].append(lam * w ** 3 * np.abs(d2m))
            h = self._lam_step(lam)
            mp, _, _ = self._m_scan("plus", lam + h, xis)
            mm, _, _ = self._m_scan("plus", lam - h, xis)
            rows["dlam_m"].append(lam ** 2 * w * np.abs(mp - mm) / (2 * h))
            W_vals.append(self.wronskian(lam))
            dW_vals.append(self.wronskian_derivative(lam))
        report = {}
        for name, law in (("m_minus_one", "|m-1| <= C/(lam*<xi>)"),
                          ("dxi_m", "|dm/dxi| <= C/(lam*<xi>^2)"),
                          ("dxi2_m", "|d2m/dxi2| <= C/(lam*<xi>^3)"),
                          ("dlam_m", "|dm/dlam| <= C/(lam^2*<xi>)")):
            arr = np.asarray(rows[name])
            C_fit = float(np.max(arr[:, ::2]))
            worst = float(np.max(arr))
            report[name] = {"law": law, "constants": {"C": C_fit},
                            "value": worst,
                            "threshold": 1.5 * max(C_fit, 1e-12)}
        W_vals = np.asarray(W_vals)
        dW_vals = np.asarray(dW_vals)
        wdev = np.abs(W_vals + 2j * lam_grid)
        report["w_high"] = {"law": "W = -2i*lam + O(1)",
                            "constants": {"C": float(np.max(wdev))},
                            "value": float(np.max(wdev)),
                            "threshold": max(2.0, 3.0 * self.pot.C2 + 1.0)}
        dwdev = np.abs(dW_vals + 2j) * lam_grid
        C_fit = float(np.max(dwdev[::2]))
        report["dw_high"] = {"law": "W' = -2i + O(1/lam)",
                             "constants": {"C": C_fit},
                             "value": float(np.max(dwdev)),
                             "threshold": 1.5 * max(C_fit, 1e-12)}
        return _gated(report)

    def _m_scan(self, side: str, lam: float, xis: np.ndarray):
        """m, dm/dxi, d2m/dxi2 on an array of xi > 0."""
        rec = self._m_side(side, lam, xi_hi=float(np.max(xis)))
        f, df = self._m_record_values(rec, xis)
        ph = np.exp(-1j * lam * xis)
        m = ph * f
        dm = ph * (df - 1j * lam * f)
        V = self._pv(side).V(xis)
        # f'' = (V - lam^2) f gives m'' = e^{-i lam xi} V f - 2i lam m'
        d2m = ph * V * f - 2j * lam * dm
        return m, dm, d2m
