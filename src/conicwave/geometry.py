"""Rotation profiles, the arclength chart and the induced 1D potential.

A profile r(x) > 0 sweeps a surface of revolution; in the arclength variable
xi the radial Laplacian becomes -d^2/dxi^2 + V with

    rho = (d/2) * (dr/dxi) / r,       V = rho' + rho^2.

Profiles with conical ends have V ~ (d^2/4 - d/2)/xi^2 at infinity; the
remainder V1 decays one power faster and its tail coefficient is what the
low-energy scattering laws feed on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import (CubicSpline, PchipInterpolator,
                               make_interp_spline)

from . import panels
from .errors import ConfigError, DomainError

#: default chart half-width (x units; the xi image is comparable)
DEFAULT_X_MAX = 1.0e5
#: |xi| below which the inverse-square split of V is not defined
XI_TAIL = 5.0

PROFILE_KINDS = ("cylinder", "hyperboloid", "two-sided-cone-smoothed",
                 "custom-tabulated")


@dataclass(frozen=True)
class ProfileSpec:
    """A rotation profile with analytic derivatives and conical-end flags."""

    kind: str
    params: dict
    d: int
    conical_left: bool
    conical_right: bool
    r: Callable[[np.ndarray], np.ndarray]
    r1: Callable[[np.ndarray], np.ndarray]
    r2: Callable[[np.ndarray], np.ndarray]
    deriv_tol: float = 1e-6

    @property
    def symmetric(self) -> bool:
        x = np.linspace(0.1, 50.0, 23)
        return bool(np.allclose(self.r(x), self.r(-x), rtol=1e-12, atol=1e-12))


def make_profile(config: dict) -> ProfileSpec:
    """Build a validated ProfileSpec from a config sub-document.

    Recognised kinds: cylinder (param ``radius``), hyperboloid (param ``a``),
    two-sided-cone-smoothed (param ``kappa``), custom-tabulated (params
    ``x``, ``r`` arrays on any strictly increasing grid; r, r' and r'' come
    from one quintic interpolating spline of the table).
    """
    if not isinstance(config, dict):
        raise ConfigError("profile config must be a mapping")
    kind = config.get("kind")
    if kind not in PROFILE_KINDS:
        raise ConfigError(f"unknown profile kind: {kind!r}")
    params = dict(config.get("params", {}))
    d = int(config.get("d", 1))
    if d < 1:
        raise ConfigError("cross-section dimension d must be a positive integer")

    if kind == "cylinder":
        radius = float(params.get("radius", 1.0))
        if radius <= 0:
            raise ConfigError("cylinder radius must be positive")
        prof = ProfileSpec(
            kind=kind, params={"radius": radius}, d=d,
            conical_left=False, conical_right=False,
            r=lambda x: np.full_like(np.asarray(x, dtype=float), radius),
            r1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            r2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    elif kind == "hyperboloid":
        a = float(params.get("a", 1.0))
        if a <= 0:
            raise ConfigError("hyperboloid scale a must be positive")
        a2 = a * a
        prof = ProfileSpec(
            kind=kind, params={"a": a}, d=d,
            conical_left=True, conical_right=True,
            r=lambda x: np.sqrt(a2 + np.asarray(x, dtype=float) ** 2),
            r1=lambda x: x / np.sqrt(a2 + np.asarray(x, dtype=float) ** 2),
            r2=lambda x: a2 * (a2 + np.asarray(x, dtype=float) ** 2) ** -1.5)
    elif kind == "two-sided-cone-smoothed":
        kappa = float(params.get("kappa", 1.0))
        if kappa <= 0:
            raise ConfigError("smoothing rate kappa must be positive")

        def _r(x):
            x = np.asarray(x, dtype=float)
            # log(2 cosh(kx))/k, written overflow-safe
            return np.abs(x) + np.log1p(np.exp(-2.0 * kappa * np.abs(x))) / kappa

        def _sech2(x):
            # overflow-safe sech^2
            e = np.exp(-2.0 * kappa * np.abs(np.asarray(x, dtype=float)))
            return 4.0 * e / (1.0 + e) ** 2

        prof = ProfileSpec(
            kind=kind, params={"kappa": kappa}, d=d,
            conical_left=True, conical_right=True,
            r=_r,
            r1=lambda x: np.tanh(kappa * np.asarray(x, dtype=float)),
            r2=lambda x: kappa * _sech2(x))
    else:
        prof = _tabulated_profile(params, d,
                                  bool(config.get("conical_left", False)),
                                  bool(config.get("conical_right", False)))

    _validate_profile(prof)
    return prof


def _tabulated_profile(params, d, conical_left, conical_right) -> ProfileSpec:
    x = np.asarray(params.get("x"), dtype=float)
    r = np.asarray(params.get("r"), dtype=float)
    if x is None or r is None or x.ndim != 1 or x.shape != r.shape or len(x) < 7:
        raise ConfigError("custom-tabulated profile needs matching 1-d arrays "
                          "x, r with at least 7 points")
    if np.any(np.diff(x) <= 0):
        raise ConfigError("tabulated x grid must be strictly increasing")
    if np.any(r <= 0):
        raise ConfigError("tabulated profile must satisfy r > 0")
    sp = make_interp_spline(x, r, k=5)
    return ProfileSpec(kind="custom-tabulated",
                       params={"x": x, "r": r}, d=d,
                       conical_left=conical_left, conical_right=conical_right,
                       r=sp, r1=sp.derivative(1), r2=sp.derivative(2),
                       deriv_tol=1e-4)


def _validate_profile(prof: ProfileSpec) -> None:
    def in_table(v):
        # a custom table is sampled only where its spline interpolates
        if prof.kind != "custom-tabulated":
            return v
        xg = prof.params["x"]
        return v[(v >= xg[2]) & (v <= xg[-3])]

    xs = in_table(np.concatenate([np.linspace(-40.0, 40.0, 161),
                                  np.geomspace(40.0, 2.0e4, 40),
                                  -np.geomspace(40.0, 2.0e4, 40)]))
    r = prof.r(xs)
    if np.any(~np.isfinite(r)) or np.min(r) <= 0:
        raise ConfigError("profile violates inf r > 0 on the sample grid")
    # analytic first derivative against central differences
    h = 1e-4 * np.maximum(1.0, np.abs(xs))
    fd = (prof.r(xs + h) - prof.r(xs - h)) / (2 * h)
    scale = np.maximum(np.abs(prof.r1(xs)), 1e-6)
    if np.max(np.abs(fd - prof.r1(xs)) / scale) > max(prof.deriv_tol, 3e-7):
        raise ConfigError("profile derivative evaluator disagrees with finite "
                          "differences")
    for side, flag in (("right", prof.conical_right), ("left", prof.conical_left)):
        if not flag:
            continue
        xe = in_table(np.geomspace(10.0, 1.0e4, 30)
                      * (-1.0 if side == "left" else 1.0))
        if len(xe) == 0:
            raise ConfigError(f"profile marked conical on the {side} but its "
                              "table ends before |x| = 10")
        dev = xe ** 2 * np.abs(prof.r(xe) / np.abs(xe) - 1.0)
        if np.max(dev) > 1.0e3:
            raise ConfigError(f"profile marked conical on the {side} but "
                              "x^2 |r/|x| - 1| is unbounded there")


# ---------------------------------------------------------------------------
# arclength chart
# ---------------------------------------------------------------------------

class ArclengthChart:
    """Monotone map xi(x) = integral_0^x sqrt(1 + r'(y)^2) dy and its inverse.

    The chart accumulates panel integrals of the metric factor once at build
    time; point evaluations add one partial Gauss panel, the inverse runs a
    guarded Newton iteration seeded by a monotone spline.
    """

    def __init__(self, profile: ProfileSpec, x_max: float = DEFAULT_X_MAX):
        if x_max <= 0:
            raise ConfigError("x_max must be positive")
        self.profile = profile
        self.x_max = float(x_max)
        breaks = self._build_breaks()
        self._grid = panels.PanelGrid.build(breaks, order=16)
        svals = self._metric(self._grid.flat)
        pre = panels.PrefixIntegrator(self._grid)
        cum = pre.break_values(svals).real
        origin = np.searchsorted(breaks, 0.0)
        self._xi_breaks = cum - cum[origin]
        self.xi_min = float(self._xi_breaks[0])
        self.xi_max = float(self._xi_breaks[-1])
        self._inv_seed = PchipInterpolator(self._xi_breaks, breaks)
        self._gl16 = panels.gauss_legendre(16)

    def _metric(self, x):
        rp = self.profile.r1(np.asarray(x, dtype=float))
        return np.sqrt(1.0 + rp * rp)

    def _build_breaks(self) -> np.ndarray:
        xm = self.x_max
        lin_span = min(16.0, xm)
        right = panels.graded_breaks(0.0, xm, lin_span, 0.5, 8)
        if self.profile.kind == "custom-tabulated":
            xg = self.profile.params["x"]
            if xm > xg[-3] or -xm < xg[2]:
                raise ConfigError("x_max exceeds the tabulated grid")
        return np.concatenate([-right[::-1][:-1], right])

    # -- forward map -------------------------------------------------------

    def xi_of_x(self, x):
        """Arclength of x (vectorized); raises outside the chart domain."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(np.abs(x) > self.x_max * (1 + 1e-12)):
            raise DomainError("x outside chart domain")
        x = np.clip(x, -self.x_max, self.x_max)
        breaks = self._grid.breaks
        idx = np.clip(np.searchsorted(breaks, x, side="right") - 1,
                      0, self._grid.npanels - 1)
        a = breaks[idx]
        xg, wg = self._gl16
        mid = 0.5 * (a[:, None] + x[:, None])
        half = 0.5 * (x[:, None] - a[:, None])
        part = (self._metric(mid + half * xg[None, :]) * wg[None, :]).sum(axis=1)
        out = self._xi_breaks[idx] + half[:, 0] * part
        return float(out[0]) if scalar else out

    # -- inverse map -------------------------------------------------------

    def x_of_xi(self, xi):
        """Inverse chart (vectorized); raises outside the xi image."""
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        pad = 1e-9 * (1.0 + np.abs(xi))
        if np.any(xi > self.xi_max + pad) or np.any(xi < self.xi_min - pad):
            raise DomainError("xi outside chart image")
        xi = np.clip(xi, self.xi_min, self.xi_max)
        x = np.clip(self._inv_seed(xi), -self.x_max, self.x_max)
        for _ in range(4):
            f = self.xi_of_x(x) - xi
            x = np.clip(x - f / self._metric(x), -self.x_max, self.x_max)
        return float(x[0]) if scalar else x

    def dxi_dx(self, x):
        return self._metric(x)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def _rho_v_from_x(profile: ProfileSpec, x: np.ndarray):
    d = profile.d
    r = profile.r(x)
    r1 = profile.r1(x)
    r2 = profile.r2(x)
    s2 = 1.0 + r1 * r1
    s = np.sqrt(s2)
    rho = 0.5 * d * r1 / (r * s)
    drho_dx = 0.5 * d * (r2 / (r * s) - r1 * r1 / (r * r * s)
                         - r1 * r1 * r2 / (r * s2 * s))
    V = drho_dx / s + rho * rho
    return rho, V


class PotentialProfile:
    """Sampled rho, V, V1 on the arclength line with tail certificates.

    Heavy consumers (Volterra sweeps, ODE right-hand sides, kernel tables)
    evaluate through cubic splines built here once; V1 below |xi| = XI_TAIL
    is deliberately undefined.
    """

    def __init__(self, profile: ProfileSpec, chart: ArclengthChart):
        self.profile = profile
        self.chart = chart
        self.xi_tail = XI_TAIL
        self.d = profile.d
        xi_hi = min(chart.xi_max, -chart.xi_min)
        self.xi_cap = xi_hi
        grid = _potential_grid(xi_hi)
        x = chart.x_of_xi(grid)
        rho, V = _rho_v_from_x(profile, x)
        r = profile.r(x)
        dr = profile.r1(x) / chart.dxi_dx(x)
        self._rho = CubicSpline(grid, rho)
        self._V = CubicSpline(grid, V)
        # zero-copy views for V_at, which indexes them one float at a time
        self._Vx, self._Vc = memoryview(self._V.x), memoryview(self._V.c)
        self._r = CubicSpline(grid, r)
        self._dr = CubicSpline(grid, dr)
        # integral of 1/r in arclength: antiderivative of the 1/r spline so
        # that I' = 1/r holds exactly at the spline level
        self._invr = CubicSpline(grid, 1.0 / r).antiderivative()
        self._invr_shift = float(self._invr(0.0))
        d = self.d
        cfac = (d * d / 4.0 - d / 2.0)
        tail = grid[grid >= XI_TAIL]
        v1r = self._V(tail) - cfac / tail ** 2
        self._V1_right = CubicSpline(tail, v1r)
        tail_l = grid[grid <= -XI_TAIL]
        v1l = self._V(tail_l) - cfac / tail_l ** 2
        self._V1_left = CubicSpline(tail_l, v1l)
        # sup xi^2 |V| and sup |xi^3 V1| on 10 <= |xi| <= xi_hi per end (a
        # symmetric grid); C3 means something on a conical end only
        win = grid[(grid >= 10.0) & (grid <= xi_hi)]
        self.C2, self.C2_left = (float(np.max(np.abs(g ** 2 * self._V(g))))
                                 for g in (win, -win))
        self.C3, self.C3_left = (
            float(np.max(np.abs(g ** 3 * self._V(g) - cfac * g)))
            for g in (win, -win))
        # cubic tail coefficients per side, for beyond-chart continuations
        top = grid[(grid >= xi_hi / 10) & (grid <= xi_hi)]
        self.tail_coeff_right = float(np.mean((self._V(top) - cfac / top ** 2)
                                              * top ** 3))
        bot = grid[(grid <= -xi_hi / 10) & (grid >= -xi_hi)]
        self.tail_coeff_left = float(np.mean((self._V(bot) - cfac / bot ** 2)
                                             * np.abs(bot) ** 3))

    # -- evaluators ---------------------------------------------------------

    def rho(self, xi):
        return self._rho(xi)

    def V(self, xi):
        return self._V(xi)

    def V_at(self, s: float) -> float:
        """V at one float, bit-equal to ``float(self.V(s))``: scipy's piece
        (end pieces extrapolate) and its order of summation."""
        x, c, s = self._Vx, self._Vc, float(s)
        i = min(max(bisect_right(x, s) - 1, 0), len(x) - 2)
        d = s - x[i]
        return c[3, i] + c[2, i] * d + c[1, i] * (d * d) + c[0, i] * (d * d * d)

    def V1(self, xi):
        xi = np.asarray(xi, dtype=float)
        if np.any(np.abs(xi) < self.xi_tail):
            raise DomainError(f"V1 undefined for |xi| < {self.xi_tail}")
        out = np.where(xi > 0, self._V1_right(np.maximum(xi, self.xi_tail)),
                       self._V1_left(np.minimum(xi, -self.xi_tail)))
        return float(out) if out.ndim == 0 else out

    def v1_tail_model(self, xi):
        """Cubic-tail model of the right end's V1, used beyond the chart."""
        return self.tail_coeff_right / np.abs(np.asarray(xi, dtype=float)) ** 3

    def r_of_xi(self, xi):
        return self._r(xi)

    def dr_of_xi(self, xi):
        return self._dr(xi)

    def inv_r_integral(self, xi):
        """integral_0^xi deta / r(eta) in the arclength variable."""
        return self._invr(xi) - self._invr_shift

    def mirrored(self) -> "MirroredPotential":
        return MirroredPotential(self)


class MirroredPotential:
    """View of a PotentialProfile under xi -> -xi (used for the left end)."""

    def __init__(self, base: PotentialProfile):
        self.base = base
        self.xi_tail = base.xi_tail
        self.xi_cap = base.xi_cap
        self.C2 = base.C2_left
        self.tail_coeff_right = base.tail_coeff_left

    # the tail model reads only tail_coeff_right, the mirrored left end
    v1_tail_model = PotentialProfile.v1_tail_model

    def V(self, xi):
        return self.base.V(-np.asarray(xi, dtype=float))

    def V_at(self, s: float) -> float:
        return self.base.V_at(-s)

    def V1(self, xi):
        return self.base.V1(-np.asarray(xi, dtype=float))

    def r_of_xi(self, xi):
        return self.base.r_of_xi(-np.asarray(xi, dtype=float))

    def dr_of_xi(self, xi):
        return -self.base.dr_of_xi(-np.asarray(xi, dtype=float))

    def inv_r_integral(self, xi):
        return -self.base.inv_r_integral(-np.asarray(xi, dtype=float))


def _potential_grid(xi_hi: float) -> np.ndarray:
    lin = np.linspace(0.0, min(12.0, xi_hi), 3073)
    out = [lin]
    if xi_hi > 12.0:
        out.append(np.geomspace(12.0, xi_hi, 1400)[1:])
    right = np.concatenate(out)
    return np.concatenate([-right[::-1][:-1], right])


# ---------------------------------------------------------------------------
# conical-end fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicalFit:
    """Result of fitting xi(x) - sqrt(2) x -> c_inf on a conical end."""

    side: str
    c_inf: float
    resid_coeff: float        # fitted C with |xi - sqrt2 x - c_inf| <= C/x
    max_resid: float          # worst residual of the 1/x law on [100, x_max]
    fit_rms: float


def fit_conical_constants(chart: ArclengthChart, side: str = "right") -> ConicalFit:
    """Fit the conical-end constants of the chart.

    Least squares of xi(x) - sqrt(2) x against {1, 1/x, 1/x^2} over the top
    three octaves of the chart; the constant term is c_inf.
    """
    prof = chart.profile
    flag = prof.conical_right if side == "right" else prof.conical_left
    if not flag:
        raise DomainError(f"profile is not conical on the {side}")
    sgn = 1.0 if side == "right" else -1.0
    xs = np.geomspace(chart.x_max / 4, chart.x_max, 80)
    xi = sgn * chart.xi_of_x(sgn * xs)
    y = xi - np.sqrt(2.0) * xs
    basis = np.stack([np.ones_like(xs), 1.0 / xs, 1.0 / xs ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    c_inf = float(coef[0])
    rms = float(np.sqrt(np.mean((basis @ coef - y) ** 2)))
    xv = np.geomspace(100.0, chart.x_max, 120)
    resid = np.abs(sgn * chart.xi_of_x(sgn * xv) - np.sqrt(2.0) * xv - c_inf)
    resid_coeff = float(np.max(resid * xv))
    # the 1/x law must actually decay: compare head and tail of the window
    head = np.max(resid[:20])
    tail = np.max(resid[-20:])
    if tail > 0.5 * head + 10 * abs(c_inf) * 1e-9 + 1e-12:
        raise DomainError("conical-end residual does not decay; "
                          "x_max is too small for the tail fit")
    return ConicalFit(side=side, c_inf=c_inf, resid_coeff=resid_coeff,
                      max_resid=float(np.max(resid)), fit_rms=rms)
