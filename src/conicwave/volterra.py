"""Volterra integral-equation solver by successive substitution.

Two forms are supported, matching the two orientations of the integral term:

    backward:  f(x) = g(x) + integral_x^b K(x, s) f(s) ds
    forward:   f(x) = g(x) + integral_a^x K(x, s) f(s) ds

The iteration converges whenever mu = integral sup_x |K(x, s)| ds is finite,
with the a-priori bound ||f|| <= exp(mu) ||g||; the solver refuses problems
whose estimated mu would overflow that bound and asserts the bound on every
accepted solve.

Two kernel representations are accepted: a generic callable K(x, s), swept
through a dense triangular quadrature matrix, and a separable list of terms
A_r(x) * B_r(s) * exp(i w_r s), swept in O(N) per pass via cumulative panel
sums by ``sweep``.  The scattering pipelines use ``sweep`` directly; the
dense path stays as the test oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import panels
from .errors import ConvergenceError, DomainError, QuadratureError

MU_OVERFLOW = 50.0
MAX_SWEEPS = 200


@dataclass
class VolterraProblem:
    """One Volterra problem instance.

    ``kernel`` is a vectorized callable K(x, s); alternatively supply
    ``separable`` as a sequence of (A(x)->array, B(s)->array, omega) terms
    meaning K(x, s) = sum_r A_r(x) B_r(s) exp(i*omega_r*s).
    ``tail`` = (C, p) certifies sup_x |K(x, s)| <= C s^-p beyond the domain,
    used to account for truncating an infinite upper limit.
    """

    direction: str
    forcing: Callable
    domain: tuple
    kernel: Optional[Callable] = None
    separable: Optional[Sequence] = None
    breaks: Optional[np.ndarray] = None
    order: int = 10
    tail: Optional[tuple] = None

    def __post_init__(self):
        if self.direction not in ("backward", "forward"):
            raise DomainError("direction must be 'backward' or 'forward'")
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and b > a):
            raise DomainError("domain must be a finite interval (a, b), b > a")
        if self.kernel is None and self.separable is None:
            raise DomainError("either kernel or separable terms are required")

    def grid(self) -> panels.PanelGrid:
        a, b = self.domain
        breaks = self.breaks
        if breaks is None:
            breaks = np.linspace(a, b, 33)
        return panels.PanelGrid.build(breaks, order=self.order)

    def kernel_values(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        if self.kernel is not None:
            return np.asarray(self.kernel(x, s), dtype=complex)
        out = np.zeros(np.broadcast(x, s).shape, dtype=complex)
        for A, B, omega in self.separable:
            out += np.asarray(A(x)) * np.asarray(B(s)) * np.exp(1j * omega * s)
        return out


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
    x = grid.flat
    g = np.asarray(problem.forcing(x), dtype=complex)
    gnorm = float(np.max(np.abs(g))) or 1.0

    if problem.separable is not None:
        terms = problem.separable
        integ = separable_integrators(grid, problem.direction,
                                      [w for _, _, w in terms])
        A = [np.asarray(Af(x), dtype=complex) for Af, _, _ in terms]
        B = [np.asarray(Bf(x), dtype=complex) for _, Bf, _ in terms]
        f, _, sweeps = sweep(integ, A, B, g, tol * gnorm, max_sweeps)
    else:
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


def separable_integrators(grid: panels.PanelGrid, direction: str,
                          omegas: Sequence[float]):
    cls = (panels.SuffixIntegrator if direction == "backward"
           else panels.PrefixIntegrator)
    return [cls(grid, omega) for omega in omegas]


def sweep(integ, A, B, g, atol: float, max_sweeps: int = MAX_SWEEPS):
    """Solve f = g + sum_r A_r * I_r[B_r f] by successive substitution.

    ``integ`` holds one cumulative integrator I_r per term (see
    ``separable_integrators``); ``A``, ``B`` and ``g`` are nodal values on
    its grid.  Each sweep forms the next iterate from the integrals of the
    last one and then integrates it, so the first iterate f within ``atol``
    (sup norm) of its predecessor comes back as (f, [I_r[B_r f]], sweeps)
    and callers assemble derivatives from the integrals of f itself.
    Raises ConvergenceError when the sweeps stall or when ||f|| exceeds the
    a-priori bound exp(mu) ||g|| with the separable
    mu = sum_r sup|A_r| * integral |B_r|.
    """
    grid = integ[0].grid
    mu = sum(float(np.max(np.abs(Ar)))
             * float(panels.integrate(grid, np.abs(Br)).real)
             for Ar, Br in zip(A, B))
    f = g
    ints = [I.node_values(Br * f) for I, Br in zip(integ, B)]
    for n in range(1, max_sweeps + 1):
        new = sum((Ar * t for Ar, t in zip(A, ints)), g)
        ints = [I.node_values(Br * new) for I, Br in zip(integ, B)]
        delta = float(np.max(np.abs(new - f)))
        f = new
        if delta <= atol:
            break
    else:
        raise ConvergenceError(f"no convergence within {max_sweeps} sweeps")
    bound = np.exp(mu) * float(np.max(np.abs(g))) * (1.0 + 1e-9) + 10 * atol
    if float(np.max(np.abs(f))) > bound:
        raise ConvergenceError("solution violates the exp(mu) a-priori bound; "
                               "kernel or mu estimate is inconsistent")
    return f, ints, n


def _sweep_dense(problem, grid, g, atol, max_sweeps):
    x = grid.flat
    n = len(x)
    if n > 6000:
        raise QuadratureError("dense Volterra grid too large; supply a "
                              "separable kernel for grids beyond 6000 nodes")
    Q = _quadrature_matrix(grid, problem.direction == "backward")
    M =problem.kernel_values(x[:, None], x[None, :]) * Q
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
    if problem.separable is not None:
        terms = problem.separable
        integ = separable_integrators(fine, problem.direction,
                                      [w for _, _, w in terms])
        acc = np.zeros(len(mids), dtype=complex)
        for (Af, Bf, _), I in zip(terms, integ):
            vals = I.node_values(np.asarray(Bf(xf), dtype=complex) * ff)
            acc += np.asarray(Af(mids), dtype=complex) * fine.interpolate(vals, mids)
        integral = acc
    else:
        (I,) = separable_integrators(fine, problem.direction, [0.0])
        vals_nodes = problem.kernel_values(mids[:, None], xf[None, :]) \
            * ff[None, :]
        integral = np.empty(len(mids), dtype=complex)
        for i, xm in enumerate(mids):
            row = vals_nodes[i]
            # suffix / prefix integral of the row against the fine grid
            v = I.node_values(row)
            integral[i] = fine.interpolate(v, np.array([xm]))[0]
    fmid = grid.interpolate(f, mids)
    gmid = np.asarray(problem.forcing(mids), dtype=complex)
    return float(np.max(np.abs(fmid - gmid - integral)))
