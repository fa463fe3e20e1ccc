"""Composite Gauss-Legendre panel grids with modulated partial-range weights.

This is the quadrature backbone shared by the arclength chart, the Volterra
sweeps and the spectral table: a grid is a list of panels, each carrying the
same Gauss-Legendre nodes in the scaled variable.  Partial-range integrals of
the per-panel Lagrange basis (optionally against a fixed oscillator
``exp(i*omega*eta)``) are precomputed once, which makes successive
substitution sweeps and cumulative integrals O(N) and lets panels span many
oscillation periods without losing the phase.

Arrays that depend only on the order and the reference nodes (the GL-route
interpolation matrix, the omega=0 reference segments that each panel scales
by its half-width) are built once per order and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


# ---------------------------------------------------------------------------
# break builders
# ---------------------------------------------------------------------------

def linear_breaks(a: float, b: float, n: int) -> np.ndarray:
    return np.linspace(a, b, n + 1)


def geometric_breaks(a: float, b: float, per_decade: int) -> np.ndarray:
    """Geometric breakpoints on [a, b] with a > 0."""
    if a <= 0 or b <= a:
        raise DomainError(f"geometric_breaks needs 0 < a < b, got ({a}, {b})")
    n = max(1, int(np.ceil(per_decade * np.log10(b / a))))
    return a * (b / a) ** (np.arange(n + 1) / n)


def graded_breaks(a: float, b: float, lin_until: float, h_lin: float,
                  per_decade: int) -> np.ndarray:
    """Linear spacing up to ``lin_until``, geometric beyond."""
    c = min(lin_until, b)
    parts = [linear_breaks(a, c, max(1, int(np.ceil((c - a) / h_lin))))]
    if b > c:
        parts.append(geometric_breaks(c, b, per_decade)[1:])
    return np.concatenate(parts)


def cap_phase(breaks: np.ndarray, freq_of_x, max_phase: float = 1.2) -> np.ndarray:
    """Split panels until local |freq| * width <= max_phase.

    ``freq_of_x`` maps a position to the local oscillation frequency of the
    integrand (rad per unit length); it is sampled at panel midpoints.
    """
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        f = abs(freq_of_x(0.5 * (a + b)))
        k = max(1, int(np.ceil(f * (b - a) / max_phase)))
        out.extend(np.linspace(a, b, k + 1)[1:])
    return np.asarray(out)


# ---------------------------------------------------------------------------
# panel grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PanelGrid:
    """Composite Gauss-Legendre grid over contiguous panels."""

    breaks: np.ndarray      # (m+1,)
    order: int              # nodes per panel
    nodes: np.ndarray       # (m, order)
    weights: np.ndarray     # (m, order), plain GL weights

    @classmethod
    def build(cls, breaks, order: int = 10) -> "PanelGrid":
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0):
            raise DomainError("breaks must be strictly increasing, length >= 2")
        xg, wg = gauss_legendre(order)
        a = breaks[:-1, None]
        b = breaks[1:, None]
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * xg[None, :]
        weights = 0.5 * (b - a) * wg[None, :]
        return cls(breaks=breaks, order=order, nodes=nodes, weights=weights)

    @property
    def npanels(self) -> int:
        return len(self.breaks) - 1

    @property
    def flat(self) -> np.ndarray:
        return self.nodes.ravel()

    def locate(self, x) -> np.ndarray:
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        return np.clip(idx, 0, self.npanels - 1)

    def interpolate(self, values: np.ndarray, x) -> np.ndarray:
        """Panel-wise barycentric interpolation of nodal values at x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.asarray(values).reshape(self.nodes.shape)
        p = self.locate(x)
        a = self.breaks[p]
        b = self.breaks[p + 1]
        w = (2.0 * x - a - b) / (b - a)
        out = _bary_eval(self._ref_nodes(), self._bary_weights(), vals[p], w)
        return out

    def _ref_nodes(self) -> np.ndarray:
        return gauss_legendre(self.order)[0]

    def _bary_weights(self) -> np.ndarray:
        return _bary_weights_cached(self.order)


@lru_cache(maxsize=32)
def _bary_weights_cached(order: int) -> np.ndarray:
    x = gauss_legendre(order)[0]
    w = np.ones(order)
    for i in range(order):
        w[i] = 1.0 / np.prod(x[i] - np.delete(x, i))
    return w


def _bary_eval(ref: np.ndarray, bw: np.ndarray, vals: np.ndarray,
               w: np.ndarray) -> np.ndarray:
    # vals: (k, order) per-point panel values; w: (k,) scaled coordinates
    d = w[:, None] - ref[None, :]
    exact = np.isclose(d, 0.0, atol=1e-15)
    d = np.where(exact, 1.0, d)
    num = (bw[None, :] / d * vals).sum(axis=1)
    den = (bw[None, :] / d).sum(axis=1)
    out = num / den
    hit = exact.any(axis=1)
    if np.any(hit):
        idx = exact[hit].argmax(axis=1)
        out[hit] = vals[hit, idx]
    return out


def interp_matrix(order: int, w_eval: np.ndarray) -> np.ndarray:
    """Matrix mapping nodal values on GL(order) nodes to values at w_eval."""
    ref = gauss_legendre(order)[0]
    bw = _bary_weights_cached(order)
    d = w_eval[:, None] - ref[None, :]
    exact = np.isclose(d, 0.0, atol=1e-15)
    d = np.where(exact, 1.0, d)
    m = bw[None, :] / d
    m /= m.sum(axis=1, keepdims=True)
    if np.any(exact):
        rows = np.nonzero(exact.any(axis=1))[0]
        for i in rows:
            m[i] = 0.0
            m[i, exact[i].argmax()] = 1.0
    return m


@lru_cache(maxsize=32)
def _lagrange_to_monomial(order: int) -> np.ndarray:
    """A[k, j]: coefficient of w^k in the j-th Lagrange basis polynomial."""
    x = gauss_legendre(order)[0]
    v = np.vander(x, order, increasing=True)
    return np.linalg.inv(v)


def _monomial_suffix_moments(w0: np.ndarray, beta: float, kmax: int) -> np.ndarray:
    """M[i, k] = integral_{w0[i]}^{1} w^k exp(i*beta*w) dw.

    Upward recursion in k; requires |beta| > kmax for stability, which the
    caller guarantees (small |beta| uses the direct GL route instead).
    """
    ib = 1j * beta
    e1 = np.exp(ib)
    e0 = np.exp(ib * w0)
    m = np.empty((len(w0), kmax + 1), dtype=complex)
    m[:, 0] = (e1 - e0) / ib
    wp = np.ones_like(w0)
    for k in range(1, kmax + 1):
        wp = wp * w0
        m[:, k] = (e1 - wp * e0) / ib - (k / ib) * m[:, k - 1]
    return m


def suffix_basis_integrals(grid: PanelGrid, omega: float = 0.0) -> np.ndarray:
    """S[p, i, j] = integral_{x_{p,i}}^{b_p} L_{p,j}(eta) exp(i*omega*eta) deta."""
    return _basis_integrals(grid, omega, suffix=True)


def prefix_basis_integrals(grid: PanelGrid, omega: float = 0.0) -> np.ndarray:
    """P[p, i, j] = integral_{a_p}^{x_{p,i}} L_{p,j}(eta) exp(i*omega*eta) deta."""
    return _basis_integrals(grid, omega, suffix=False)


def full_panel_integrals(grid: PanelGrid, omega: float = 0.0) -> np.ndarray:
    """F[p, j] = integral over panel p of L_{p,j}(eta) exp(i*omega*eta) deta."""
    h = np.diff(grid.breaks)
    if omega == 0.0:
        return (0.5 * h)[:, None] * gauss_legendre(grid.order)[1] + 0j
    c = 0.5 * (grid.breaks[:-1] + grid.breaks[1:])
    out = np.empty((grid.npanels, grid.order), dtype=complex)
    for p in range(grid.npanels):
        s = 0.5 * h[p]
        beta = omega * s
        out[p] = s * np.exp(1j * omega * c[p]) * _basis_segment(
            grid.order, np.array([-1.0]), beta)[0]
    return out


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=32)
def _gl_reference(order: int, w0_key: bytes):
    """Beta-independent part of the GL route of ``_basis_segment``."""
    w0 = np.frombuffer(w0_key)
    xg, wg = gauss_legendre(24)
    mid = 0.5 * (w0[:, None] + 1.0)
    half = 0.5 * (1.0 - w0[:, None])
    pts = mid + half * xg[None, :]                         # (i, 24)
    bmat = interp_matrix(order, pts.ravel()).reshape(len(w0), 24, order)
    return _frozen(half * wg[None, :], pts, bmat)


def _basis_segment(order: int, w0: np.ndarray, beta: float) -> np.ndarray:
    """B[i, j] = integral_{w0[i]}^{1} L_j(w) exp(i*beta*w) dw on [-1, 1]."""
    kmax = order - 1
    if abs(beta) <= max(15.0, kmax + 4):
        wts, pts, bmat = _gl_reference(order, w0.tobytes())
        phase = np.exp(1j * beta * pts)
        return np.einsum("ig,ig,igj->ij", wts, phase, bmat)
    mono = _monomial_suffix_moments(w0, beta, kmax)        # (i, k)
    a = _lagrange_to_monomial(order)                       # (k, j)
    return mono @ a


@lru_cache(maxsize=32)
def _reference_segment(order: int, suffix: bool) -> np.ndarray:
    """Real omega=0 basis integrals on [-1, 1]; a panel scales them by h/2."""
    ref = gauss_legendre(order)[0]
    if suffix:
        seg = _basis_segment(order, ref, 0.0)
    else:
        seg = _basis_segment(order, -ref[::-1], -0.0)[::-1, ::-1]
    return _frozen(seg.real.copy())[0]


def _basis_integrals(grid: PanelGrid, omega: float, suffix: bool) -> np.ndarray:
    h = np.diff(grid.breaks)
    if omega == 0.0:
        return (0.5 * h)[:, None, None] * _reference_segment(grid.order, suffix) + 0j
    ref = gauss_legendre(grid.order)[0]
    c = 0.5 * (grid.breaks[:-1] + grid.breaks[1:])
    out = np.empty((grid.npanels, grid.order, grid.order), dtype=complex)
    for p in range(grid.npanels):
        s = 0.5 * h[p]
        beta = omega * s
        if suffix:
            seg = _basis_segment(grid.order, ref, beta)
        else:
            # prefix over [-1, w_i]: mirror w -> -w
            seg = _basis_segment(grid.order, -ref[::-1], -beta)[::-1, ::-1]
        out[p] = s * np.exp(1j * omega * c[p]) * seg
    return out


# ---------------------------------------------------------------------------
# cumulative sums over panels
# ---------------------------------------------------------------------------

class SuffixIntegrator:
    """Evaluates x -> integral_x^{b} f(eta) exp(i*omega*eta) deta at grid nodes.

    Sums are assembled right-to-left from precomputed basis integrals, so a
    full pass over all nodes is O(N).
    """

    def __init__(self, grid: PanelGrid, omega: float = 0.0):
        self.grid = grid
        self.omega = omega
        self._partial = suffix_basis_integrals(grid, omega)
        self._full = full_panel_integrals(grid, omega)

    def node_values(self, fvals: np.ndarray) -> np.ndarray:
        g = self.grid
        f = np.asarray(fvals).reshape(g.nodes.shape)
        per_panel = np.einsum("pj,pj->p", self._full, f)
        tail = np.concatenate([np.cumsum(per_panel[::-1])[::-1][1:], [0.0]])
        vals = np.einsum("pij,pj->pi", self._partial, f) + tail[:, None]
        return vals.ravel()


class PrefixIntegrator:
    """Evaluates x -> integral_a^{x} f(eta) exp(i*omega*eta) deta at grid nodes."""

    def __init__(self, grid: PanelGrid, omega: float = 0.0):
        self.grid = grid
        self.omega = omega
        self._partial = prefix_basis_integrals(grid, omega)
        self._full = full_panel_integrals(grid, omega)

    def node_values(self, fvals: np.ndarray) -> np.ndarray:
        g = self.grid
        f = np.asarray(fvals).reshape(g.nodes.shape)
        per_panel = np.einsum("pj,pj->p", self._full, f)
        head = np.concatenate([[0.0], np.cumsum(per_panel)[:-1]])
        vals = np.einsum("pij,pj->pi", self._partial, f) + head[:, None]
        return vals.ravel()

    def break_values(self, fvals: np.ndarray) -> np.ndarray:
        """Cumulative integral at the panel breakpoints (length m+1)."""
        g = self.grid
        f = np.asarray(fvals).reshape(g.nodes.shape)
        per_panel = np.einsum("pj,pj->p", self._full, f)
        return np.concatenate([[0.0], np.cumsum(per_panel)])


def integrate(grid: PanelGrid, fvals: np.ndarray) -> complex:
    """Plain integral of nodal values over the whole grid."""
    f = np.asarray(fvals).reshape(grid.nodes.shape)
    return (grid.weights * f).sum()
