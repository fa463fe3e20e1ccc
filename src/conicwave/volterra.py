"""Separable Volterra equations by successive substitution.

Every Jost pipeline solves an equation of the form

    f(x) = g(x) + sum_r A_r(x) * integral B_r(s) exp(i w_r s) f(s) ds,

with the integral running from x to the end of the grid.  One suffix panel
integrator per distinct frequency (``separable_integrators``) serves the
terms that have it, and ``sweep`` iterates the equation in O(N) per pass
until successive iterates agree, then checks the a-priori bound ||f|| <=
exp(mu) ||g|| under the caller's mu (``check_bound``, which the low-energy
basis series of ``jost`` applies to its partial sums too).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import panels
from .errors import ConvergenceError

MAX_SWEEPS = 200


def separable_integrators(grid: panels.PanelGrid, omegas: Sequence[float]):
    """One suffix integrator per term w_r; terms of one frequency share one
    integrator object, built once."""
    built: dict = {}
    for omega in omegas:
        if omega not in built:
            built[omega] = panels.SuffixIntegrator(grid, omega)
    return [built[omega] for omega in omegas]


def sweep(integ, A, B, g, atol: float, mu: float):
    """Solve f = g + sum_r A_r * I_r[B_r f] by successive substitution.

    ``integ`` holds one cumulative integrator I_r per term (see
    ``separable_integrators``); ``A``, ``B`` and ``g`` are nodal values on
    its grid.  Each sweep forms the next iterate from the integrals of the
    last one and then integrates it, so the first iterate f within ``atol``
    (sup norm) of its predecessor comes back as (f, [I_r[B_r f]], sweeps)
    and callers assemble derivatives from the integrals of f itself.
    Raises ConvergenceError when MAX_SWEEPS sweeps do not converge or when
    ||f|| exceeds the a-priori bound exp(mu) ||g||.  ``mu`` is the
    caller's bound on the integral over the grid of the kernel's sup over
    the integration range; the separable sum_r sup|A_r| * integral |B_r|
    is always one, but can be far looser than the kernel's own.
    """
    f = g
    ints = [I.node_values(Br * f) for I, Br in zip(integ, B)]
    for n in range(1, MAX_SWEEPS + 1):
        new = sum((Ar * t for Ar, t in zip(A, ints)), g)
        ints = [I.node_values(Br * new) for I, Br in zip(integ, B)]
        delta = float(np.max(np.abs(new - f)))
        f = new
        if delta <= atol:
            break
    else:
        raise ConvergenceError(f"no convergence within {MAX_SWEEPS} sweeps")
    check_bound(f, g, mu, atol)
    return f, ints, n


def check_bound(f, g, mu: float, atol: float) -> None:
    """Raise ConvergenceError unless ||f|| <= exp(mu) ||g|| (sup norms, with
    1e-9 relative and 10 atol slack): the a-priori bound of f = g + K f,
    and of each Neumann partial sum of it, when mu bounds the integral of
    the kernel's sup over the integration range."""
    bound = np.exp(mu) * float(np.max(np.abs(g))) * (1.0 + 1e-9) + 10 * atol
    if float(np.max(np.abs(f))) > bound:
        raise ConvergenceError("solution violates the exp(mu) a-priori bound; "
                               "kernel or mu estimate is inconsistent")
