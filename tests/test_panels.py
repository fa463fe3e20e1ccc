"""Panel basis integrals against an independent phase-resolved quadrature."""

import numpy as np
import pytest

from conicwave import panels
from conicwave.panels import (PanelGrid, full_panel_integrals,
                              geometric_breaks, linear_breaks,
                              prefix_basis_integrals, suffix_basis_integrals)

ORDER = 10
BETA_GL = 15.0          # |beta| up to which _basis_segment takes the GL route
_XG, _WG = np.polynomial.legendre.leggauss(24)

GRIDS = {
    "linear": PanelGrid.build(linear_breaks(0.0, 5.0, 7), order=ORDER),
    "geometric": PanelGrid.build(geometric_breaks(0.1, 50.0, 6), order=ORDER),
}
#: per grid: omega with every panel on the GL route, and omega with some
#: panels on the monomial route
OMEGAS = {"linear": (0.0, 7.0, 100.0), "geometric": (0.0, 1.5, 40.0)}
CASES = [(name, om) for name, oms in OMEGAS.items() for om in oms]


def _lagrange(ref, j, w):
    """j-th Lagrange basis polynomial on the nodes ref, by its product form."""
    out = np.ones_like(w)
    for k, r in enumerate(ref):
        if k != j:
            out *= (w - r) / (ref[j] - r)
    return out


def _oracle(a, b, lo, hi, j, omega, ref):
    """integral_lo^hi L_j(eta) exp(i omega eta) on the panel [a, b], split
    into pieces of phase at most 0.5 with 24 Gauss points each."""
    n = int(np.ceil(abs(omega) * (hi - lo) / 0.5)) + 1
    edges = np.linspace(lo, hi, n + 1)
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    eta = (mid + half * _XG[None, :]).ravel()
    w = (half * _WG[None, :]).ravel()
    basis = _lagrange(ref, j, (2.0 * eta - a - b) / (b - a))
    return np.sum(w * basis * np.exp(1j * omega * eta))


@pytest.mark.parametrize("name,omega", CASES)
def test_basis_integrals_against_oracle(name, omega):
    grid = GRIDS[name]
    beta = omega * 0.5 * np.diff(grid.breaks)
    if omega == OMEGAS[name][1]:
        assert np.all(beta <= BETA_GL)
    elif omega == OMEGAS[name][2]:
        assert np.any(beta > BETA_GL)
    ref = panels.gauss_legendre(ORDER)[0]
    suf = suffix_basis_integrals(grid, omega)
    pre = prefix_basis_integrals(grid, omega)
    full = full_panel_integrals(grid, omega)
    worst = 0.0
    for p in range(grid.npanels):
        a, b = grid.breaks[p], grid.breaks[p + 1]
        for j in range(ORDER):
            f = _oracle(a, b, a, b, j, omega, ref)
            worst = max(worst, abs(full[p, j] - f) / (b - a))
            for i, x in enumerate(grid.nodes[p]):
                s = _oracle(a, b, x, b, j, omega, ref)
                q = _oracle(a, b, a, x, j, omega, ref)
                worst = max(worst, abs(suf[p, i, j] - s) / (b - a),
                            abs(pre[p, i, j] - q) / (b - a))
    assert worst <= 1e-13


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_zero_omega_is_scaled_reference(name):
    grid = GRIDS[name]
    ref, wg = panels.gauss_legendre(ORDER)
    suf_ref = panels._basis_segment(ORDER, ref, 0.0)
    pre_ref = panels._basis_segment(ORDER, -ref[::-1], -0.0)[::-1, ::-1]
    suf = suffix_basis_integrals(grid)
    pre = prefix_basis_integrals(grid)
    full = full_panel_integrals(grid)
    for p, h in enumerate(np.diff(grid.breaks)):
        assert np.array_equal(suf[p], (h / 2) * suf_ref)
        assert np.array_equal(pre[p], (h / 2) * pre_ref)
        assert np.array_equal(full[p], (h / 2) * wg + 0j)


def test_cached_references_are_read_only():
    ref = panels.gauss_legendre(ORDER)[0]
    panels._basis_segment(ORDER, ref, 1.0)
    cached = panels._gl_reference(ORDER, ref.tobytes())
    cached += (panels._reference_segment(ORDER, True),
               panels._reference_segment(ORDER, False))
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # results are fresh arrays, so callers may still write to them
    grid = GRIDS["linear"]
    out = suffix_basis_integrals(grid)
    out[:] = 0.0
    assert np.any(suffix_basis_integrals(grid) != 0.0)
