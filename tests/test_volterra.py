"""Generic Volterra solver: oracles, the exp(mu) bound and properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicwave import ConvergenceError, QuadratureError, volterra
from conicwave.panels import PanelGrid, PrefixIntegrator
from conicwave.volterra import separable_integrators, sweep
from oracles import VolterraProblem, estimate_mu, volterra_solve


def _const_kernel(x, s):
    return np.ones(np.broadcast(x, s).shape)


def test_zero_kernel_returns_forcing():
    p = VolterraProblem(direction="backward", forcing=np.cos,
                        kernel=lambda x, s: np.zeros(np.broadcast(x, s).shape),
                        domain=(0.0, 3.0))
    sol = volterra_solve(p)
    assert np.max(np.abs(sol.values - np.cos(sol.grid.flat))) == 0.0


def test_exponential_oracle():
    # f = 1 + int_0^x f  has the closed-form solution e^x
    p = VolterraProblem(direction="forward", forcing=lambda x: np.ones_like(x),
                        kernel=_const_kernel, domain=(0.0, 1.0))
    sol = volterra_solve(p, tol=1e-12)
    assert abs(sol(np.array([1.0]))[0] - np.e) <= 1e-8
    assert sol.residual <= 10 * 1e-12 * sol.forcing_norm


def test_exp_mu_bound_inverse_cubic_tail():
    def K(x, s):
        return (s - x) * np.where(s >= 1.0, s ** -3.0, 0.0)

    p = VolterraProblem(direction="backward",
                        forcing=lambda x: np.ones_like(x), kernel=K,
                        domain=(1.0, 80.0), breaks=np.geomspace(1, 80, 36),
                        tail=(1.0, 2.0))
    mu = estimate_mu(p)
    sol = volterra_solve(p, tol=1e-11)
    assert np.max(np.abs(sol.values)) <= np.exp(mu) * 1.0 + 1e-9


def test_estimate_mu_examples():
    zero = VolterraProblem(direction="backward",
                           forcing=lambda x: np.ones_like(x),
                           kernel=lambda x, s: np.zeros(np.broadcast(x, s).shape),
                           domain=(0.0, 2.0))
    assert estimate_mu(zero) == 0.0
    unit = VolterraProblem(direction="backward",
                           forcing=lambda x: np.ones_like(x),
                           kernel=lambda x, s: ((s >= 0) & (s <= 1.0))
                           .astype(float),
                           domain=(0.0, 2.0))
    assert abs(estimate_mu(unit) - 1.0) <= 0.01


def test_estimate_mu_stable_under_refinement():
    def K(x, s):
        return np.sin(x * 0 + s) ** 2 / (1.0 + s ** 2)

    base = VolterraProblem(direction="backward",
                           forcing=lambda x: np.ones_like(x), kernel=K,
                           domain=(0.0, 40.0),
                           breaks=np.linspace(0, 40, 33))
    fine = VolterraProblem(direction="backward",
                           forcing=lambda x: np.ones_like(x), kernel=K,
                           domain=(0.0, 40.0),
                           breaks=np.linspace(0, 40, 65))
    m1, m2 = estimate_mu(base), estimate_mu(fine, n_x=96)
    assert abs(m1 - m2) <= 0.05 * m1


def test_mu_overflow_guard():
    p = VolterraProblem(direction="forward",
                        forcing=lambda x: np.ones_like(x),
                        kernel=lambda x, s: 10.0 * np.ones(np.broadcast(x, s)
                                                           .shape),
                        domain=(0.0, 10.0))
    with pytest.raises(ConvergenceError):
        volterra_solve(p)


def test_divergence_guard():
    # kernel mass keeps growing toward the truncated end, no declared tail
    p = VolterraProblem(direction="backward",
                        forcing=lambda x: np.ones_like(x),
                        kernel=lambda x, s: 0.2 * np.sqrt(np.maximum(s, 0.0))
                        * np.ones(np.broadcast(x, s).shape),
                        domain=(0.0, 30.0))
    with pytest.raises(QuadratureError):
        estimate_mu(p)


def test_linearity():
    ker = lambda x, s: 0.3 * np.cos(x - s)
    dom = (0.0, 2.0)
    fa = volterra_solve(VolterraProblem(direction="forward", forcing=np.sin,
                                        kernel=ker, domain=dom), tol=1e-12)
    fb = volterra_solve(VolterraProblem(direction="forward",
                                        forcing=lambda x: x ** 2,
                                        kernel=ker, domain=dom), tol=1e-12)
    fab = volterra_solve(VolterraProblem(direction="forward",
                                         forcing=lambda x: np.sin(x) + x ** 2,
                                         kernel=ker, domain=dom), tol=1e-12)
    assert np.max(np.abs(fa.values + fb.values - fab.values)) <= 1e-10


def test_truncation_consistency():
    # enlarging the domain changes the solution by less than the tail bound
    def K(x, s):
        return np.where(s >= 1.0, s ** -3.0, 0.0) \
            * np.ones(np.broadcast(x, s).shape)

    def solve(b):
        return volterra_solve(VolterraProblem(
            direction="backward", forcing=lambda x: np.ones_like(x),
            kernel=K, domain=(1.0, b), breaks=np.geomspace(1, b, 40),
            tail=(1.0, 3.0)), tol=1e-12)

    s1, s2 = solve(60.0), solve(120.0)
    xs = np.geomspace(1.0, 50.0, 17)
    diff = np.max(np.abs(s1(xs) - s2(xs)))
    tail_bound = (1.0 / (2 * 60.0 ** 2)) * np.exp(s1.mu) * 1.0
    assert diff <= tail_bound


def test_separable_matches_dense():
    dense = VolterraProblem(direction="backward",
                            forcing=lambda x: np.exp(-x),
                            kernel=lambda x, s: 0.4 * np.exp(-np.abs(s))
                            * np.ones(np.broadcast(x, s).shape),
                            domain=(0.0, 2.5))
    a = volterra_solve(dense, tol=1e-12)
    # the same problem as the one separable term 0.4 * exp(-|s|), swept
    x = a.grid.flat
    g = np.exp(-x) + 0j
    integ = separable_integrators(a.grid, [0.0])
    b, _, _ = sweep(integ, [0.4 * np.ones_like(x)], [np.exp(-np.abs(x))], g,
                    1e-12 * float(np.max(np.abs(g))), 0.4 * (1 - np.exp(-2.5)))
    assert np.max(np.abs(a.values - b)) <= 1e-10


def test_sweep_contract_and_guards(monkeypatch):
    # f = 1 + 2 int_0^x f = e^{2x}; the integrals belong to the returned f
    grid = PanelGrid.build(np.linspace(0.0, 1.0, 9))
    integ = [PrefixIntegrator(grid)]
    g = np.ones(grid.flat.shape, dtype=complex)
    f, (t,), n = sweep(integ, [2.0], [np.ones_like(g)], g, 1e-13, 2.0)
    assert np.max(np.abs(f - np.exp(2.0 * grid.flat))) <= 1e-11
    assert np.max(np.abs(t - integ[0].node_values(f))) == 0.0
    assert np.max(np.abs(g + 2.0 * t - f)) <= 1e-13
    with monkeypatch.context() as mp:
        mp.setattr(volterra, "MAX_SWEEPS", n - 1)
        with pytest.raises(ConvergenceError, match=f"within {n - 1} sweeps"):
            sweep(integ, [2.0], [np.ones_like(g)], g, 1e-13, 2.0)
    # |f| <= e^{2x} holds under mu = 2 and breaks a bound of e^1.9
    with pytest.raises(ConvergenceError):
        sweep(integ, [2.0], [np.ones_like(g)], g, 1e-13, 1.9)

    class Tripled:
        # an integrator three times too large breaks the exp(mu) bound
        grid = integ[0].grid

        def node_values(self, h):
            return 3.0 * integ[0].node_values(h)

    with pytest.raises(ConvergenceError):
        sweep([Tripled()], [1.0], [np.ones_like(g)], g, 1e-13, 1.0)


@settings(max_examples=15, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(0.5, 3.0))
def test_bound_holds_on_random_problems(amp, width):
    p = VolterraProblem(direction="forward",
                        forcing=lambda x: np.cos(3 * x),
                        kernel=lambda x, s, a=amp: a * np.exp(-(x - s) ** 2),
                        domain=(0.0, width))
    sol = volterra_solve(p, tol=1e-11)
    assert np.max(np.abs(sol.values)) <= np.exp(sol.mu) * 1.0 + 1e-8
    assert sol.residual <= 1e-7
