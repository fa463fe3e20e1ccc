"""Separable Volterra equations by successive substitution.

Every Jost pipeline solves an equation of the form

    f(x) = g(x) + sum_r A_r(x) * integral B_r(s) exp(i w_r s) f(s) ds,

with the integral running from x to the end of the grid (backward) or from
its start to x (forward).  ``separable_integrators`` builds one cumulative
panel integrator per term, and ``sweep`` iterates the equation in O(N) per
pass until successive iterates agree, then checks the a-priori bound
||f|| <= exp(mu) ||g||.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import panels
from .errors import ConvergenceError

MAX_SWEEPS = 200


def separable_integrators(grid: panels.PanelGrid, direction: str,
                          omegas: Sequence[float]):
    """One cumulative integrator per frequency w_r: suffix integrals for
    the backward form, prefix integrals for the forward form."""
    cls = (panels.SuffixIntegrator if direction == "backward"
           else panels.PrefixIntegrator)
    return [cls(grid, omega) for omega in omegas]


def sweep(integ, A, B, g, atol: float, max_sweeps: int = MAX_SWEEPS,
          mu: Optional[float] = None):
    """Solve f = g + sum_r A_r * I_r[B_r f] by successive substitution.

    ``integ`` holds one cumulative integrator I_r per term (see
    ``separable_integrators``); ``A``, ``B`` and ``g`` are nodal values on
    its grid.  Each sweep forms the next iterate from the integrals of the
    last one and then integrates it, so the first iterate f within ``atol``
    (sup norm) of its predecessor comes back as (f, [I_r[B_r f]], sweeps)
    and callers assemble derivatives from the integrals of f itself.
    Raises ConvergenceError when the sweeps stall or when ||f|| exceeds the
    a-priori bound exp(mu) ||g||.  ``mu`` bounds the integral of the
    kernel's modulus over the grid; a caller that knows a sharper one than
    the separable sum_r sup|A_r| * integral |B_r| (the default) passes it.
    """
    if mu is None:
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
