"""Reference solvers the tests check the library against.

``volterra_solve`` is a dense Volterra solver by successive substitution for
the two orientations of the integral term,

    backward:  f(x) = g(x) + integral_x^b K(x, s) f(s) ds
    forward:   f(x) = g(x) + integral_a^x K(x, s) f(s) ds,

with a generic callable kernel K(x, s) swept through a triangular
quadrature matrix.  The iteration converges whenever
mu = integral sup_x |K(x, s)| ds is finite, with the a-priori bound
||f|| <= exp(mu) ||g||; the solver refuses problems whose estimated mu would
overflow that bound and asserts the bound on every accepted solve.  It is
the oracle for the O(N) separable ``conicwave.volterra.sweep``.

``g0_green`` is the Green kernel of the inverse-square reference problem,
built from ``conicwave.hankel.f0_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from conicwave import panels
from conicwave.errors import ConvergenceError, DomainError, QuadratureError
from conicwave.hankel import f0_values
from conicwave.volterra import MAX_SWEEPS

MU_OVERFLOW = 50.0


@dataclass
class VolterraProblem:
    """One Volterra problem instance.

    ``kernel`` is a vectorized callable K(x, s).
    ``tail`` = (C, p) certifies sup_x |K(x, s)| <= C s^-p beyond the domain,
    used to account for truncating an infinite upper limit.
    """

    direction: str
    forcing: Callable
    domain: tuple
    kernel: Callable
    breaks: Optional[np.ndarray] = None
    order: int = 10
    tail: Optional[tuple] = None

    def __post_init__(self):
        if self.direction not in ("backward", "forward"):
            raise DomainError("direction must be 'backward' or 'forward'")
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and b > a):
            raise DomainError("domain must be a finite interval (a, b), b > a")

    def grid(self) -> panels.PanelGrid:
        a, b = self.domain
        breaks = self.breaks
        if breaks is None:
            breaks = np.linspace(a, b, 33)
        return panels.PanelGrid.build(breaks, order=self.order)

    def kernel_values(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.kernel(x, s), dtype=complex)


@dataclass
class VolterraSolution:
    grid: panels.PanelGrid
    values: np.ndarray
    mu: float
    sweeps: int
    residual: float
    forcing_norm: float

    def __call__(self, x):
        return self.grid.interpolate(self.values, x)


def estimate_mu(problem: VolterraProblem, n_x: int = 48) -> float:
    """Upper estimate of mu = integral sup_x |K(x, s)| ds over the domain.

    The sup is taken over a coarse x-candidate set on the admissible side of
    each quadrature node; a declared tail exponent extends the integral past
    the truncated endpoint.  Raises if the panel sums keep growing toward the
    endpoint with no declared tail (divergence guard).
    """
    grid = problem.grid()
    a, b = problem.domain
    xc = np.linspace(a, b, n_x)
    s = grid.flat
    K = np.abs(problem.kernel_values(xc[:, None], s[None, :]))
    if problem.direction == "backward":
        mask = xc[:, None] <= s[None, :]
    else:
        mask = xc[:, None] >= s[None, :]
    K = np.where(mask, K, 0.0)
    sup = K.max(axis=0)
    if np.any(~np.isfinite(sup)):
        raise QuadratureError("kernel not evaluable on the domain")
    per_panel = (grid.weights * sup.reshape(grid.nodes.shape)).sum(axis=1)
    mu = float(per_panel.sum())
    tail_mu = 0.0
    if problem.tail is not None:
        C, p = problem.tail
        if p <= 1:
            raise QuadratureError("declared tail exponent must exceed 1")
        edge = b if problem.direction == "backward" else abs(a)
        tail_mu = C * edge ** (1.0 - p) / (p - 1.0)
    elif problem.direction == "backward" and len(per_panel) >= 8:
        # no declared tail: kernel mass must stop growing toward the
        # truncated upper end, else the mu panel sums are not Cauchy
        m = len(per_panel)
        k = max(2, m // 4)
        head, quarter = per_panel[:k], per_panel[-k:]
        share = quarter.sum()
        growing = bool(np.all(np.diff(quarter) > -1e-300)
                       and np.mean(quarter) > 1.2 * np.mean(head))
        if mu > 0 and growing and share > 0.10 * mu:
            raise QuadratureError(
                "mu panel sums are not Cauchy toward the truncated end; "
                "declare a tail exponent or enlarge the domain")
    return mu + tail_mu


def volterra_solve(problem: VolterraProblem, tol: float = 1e-10,
                   max_sweeps: int = MAX_SWEEPS) -> VolterraSolution:
    """Solve the problem by successive substitution on its panel grid.

    Terminates when the sweep-to-sweep sup change drops below tol*||g||;
    verifies the exp(mu) bound and an independent integral-equation residual
    on refined panels (< 10*tol*||g||).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    mu = estimate_mu(problem)
    if mu > MU_OVERFLOW:
        raise ConvergenceError(f"estimated mu = {mu:.2f} exceeds the "
                               f"exp(mu) overflow guard ({MU_OVERFLOW})")
    grid = problem.grid()
    g = np.asarray(problem.forcing(grid.flat), dtype=complex)
    gnorm = float(np.max(np.abs(g))) or 1.0
    f, sweeps = _sweep_dense(problem, grid, g, tol * gnorm, max_sweeps)

    fnorm = float(np.max(np.abs(f)))
    if fnorm > np.exp(mu) * gnorm * (1.0 + 1e-9) + 10 * tol * gnorm:
        raise ConvergenceError("solution violates the exp(mu) a-priori bound; "
                               "kernel or mu estimate is inconsistent")
    resid = _equation_residual(problem, grid, f)
    if resid > 10 * tol * gnorm:
        raise ConvergenceError(
            f"integral-equation residual {resid:.2e} exceeds 10*tol*||g|| "
            f"= {10 * tol * gnorm:.2e}; refine the panel breaks")
    return VolterraSolution(grid=grid, values=f, mu=mu, sweeps=sweeps,
                            residual=resid, forcing_norm=gnorm)


def _sweep_dense(problem, grid, g, atol, max_sweeps):
    x = grid.flat
    if len(x) > 6000:
        raise QuadratureError("dense Volterra grid too large; use "
                              "conicwave.volterra.sweep beyond 6000 nodes")
    Q = _quadrature_matrix(grid, problem.direction == "backward")
    M = problem.kernel_values(x[:, None], x[None, :]) * Q
    f = g.copy()
    for n in range(1, max_sweeps + 1):
        new = g + M @ f
        delta = float(np.max(np.abs(new - f)))
        f = new
        if delta <= atol:
            return f, n
    raise ConvergenceError(f"no convergence within {max_sweeps} sweeps")


def _quadrature_matrix(grid: panels.PanelGrid, backward: bool) -> np.ndarray:
    """Dense weights Q with (Q f)(x_i) = integral of f from x_i to the end
    (backward) or from the start to x_i (forward)."""
    part = (panels.suffix_basis_integrals(grid) if backward
            else panels.prefix_basis_integrals(grid)).real
    full = panels.full_panel_integrals(grid).real
    m, n = grid.npanels, grid.order
    Q = np.zeros((m * n, m * n))
    for p in range(m):
        rows = slice(p * n, (p + 1) * n)
        Q[rows, rows] = part[p]
        for q in (range(p + 1, m) if backward else range(p)):
            Q[rows, q * n:(q + 1) * n] = full[q]
    return Q


def _equation_residual(problem, grid, f) -> float:
    """Defect of the integral equation at panel midpoints, refined panels."""
    mids = 0.5 * (grid.breaks[:-1] + grid.breaks[1:])
    fine_breaks = np.sort(np.concatenate([grid.breaks, mids]))
    fine = panels.PanelGrid.build(fine_breaks, order=grid.order)
    xf = fine.flat
    ff = grid.interpolate(f, xf)
    I = (panels.SuffixIntegrator(fine) if problem.direction == "backward"
         else panels.PrefixIntegrator(fine))
    vals_nodes = problem.kernel_values(mids[:, None], xf[None, :]) \
        * ff[None, :]
    integral = np.empty(len(mids), dtype=complex)
    for i, xm in enumerate(mids):
        # suffix / prefix integral of the row against the fine grid
        v = I.node_values(vals_nodes[i])
        integral[i] = fine.interpolate(v, np.array([xm]))[0]
    fmid = grid.interpolate(f, mids)
    gmid = np.asarray(problem.forcing(mids), dtype=complex)
    return float(np.max(np.abs(fmid - gmid - integral)))


def g0_green(xi: float, eta: float, lam: float) -> complex:
    """Green kernel of the inverse-square reference problem.

    Normalised so that G0(xi, xi) = 0 and d/dxi G0(xi, eta)|_{eta=xi} = +1.
    Requires 0 < xi <= eta and lam > 0.
    """
    if lam <= 0:
        raise DomainError("g0_green requires lam > 0")
    if not (0 < xi <= eta):
        raise DomainError("g0_green requires 0 < xi <= eta")
    fxi, _ = f0_values(np.array([xi]), lam)
    feta, _ = f0_values(np.array([eta]), lam)
    return complex(np.imag(fxi[0] * np.conj(feta[0])) / lam)
