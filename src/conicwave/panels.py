"""Composite Gauss-Legendre panel grids with modulated partial-range weights.

This is the quadrature backbone shared by the arclength chart, the Volterra
sweeps and the spectral table: a grid is a list of panels, each carrying the
same Gauss-Legendre nodes in the scaled variable.  Partial-range integrals of
the per-panel Lagrange basis (optionally against a fixed oscillator
``exp(i*omega*eta)``) are precomputed once per grid, for all panels at once
as array operations (panels of one width share one computation), which
makes successive substitution sweeps and cumulative integrals O(N) and lets
panels span many oscillation periods without losing the phase.
``StackedGrids`` lays many grids end to end, so that the spectral table
reads each record's grid at one point in one bisection.  ``integrate_blocks``
integrates one pointwise integrand over a grid too large to hold, a block
of panels at a time, bit-identical to the whole-grid sum.

Arrays that depend only on the order and the reference nodes (the GL-route
interpolation matrix, the omega=0 reference segments that each panel scales
by its half-width) are built once per order and cached read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached read-only."""
    return _frozen(*np.polynomial.legendre.leggauss(n))


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

    ``freq_of_x`` maps an array of positions to the local oscillation
    frequency of the integrand (rad per unit length); it is sampled at panel
    midpoints.  A panel split k ways gets the breaks of
    ``np.linspace(a, b, k + 1)``, with the same arithmetic.
    """
    a, b = breaks[:-1], breaks[1:]
    k = np.maximum(1, np.ceil(np.abs(freq_of_x(0.5 * (a + b))) * (b - a)
                              / max_phase)).astype(int)
    p, ends = np.repeat(np.arange(len(a)), k), np.cumsum(k)
    j = np.arange(1, ends[-1] + 1) - np.repeat(ends - k, k)
    out = j * ((b - a) / k)[p] + a[p]
    out[ends - 1] = b
    return np.concatenate([breaks[:1], out])


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
        breaks = _checked_breaks(breaks)
        nodes, weights = _nodes_weights(breaks, order)
        return cls(breaks=breaks, order=order, nodes=nodes, weights=weights)

    @property
    def npanels(self) -> int:
        return len(self.breaks) - 1

    @property
    def flat(self) -> np.ndarray:
        return self.nodes.ravel()

    def locate(self, x) -> np.ndarray:
        """Index of the panel holding each x; points past the grid take
        the end panels, so only the inner breaks are searched."""
        return self.breaks[1:-1].searchsorted(x, side="right")

    def interpolate(self, values: np.ndarray, x) -> np.ndarray:
        """Panel-wise barycentric interpolation of nodal values at x.

        ``values`` may stack k arrays as (k, n), giving (k, len(x)); they
        share one locate and one weight row per point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.asarray(values)
        vals = vals.reshape(vals.shape[:-1] + self.nodes.shape)
        p = self.locate(x)
        a = self.breaks[p]
        b = self.breaks[p + 1]
        w = (2.0 * x - a - b) / (b - a)
        return _bary_eval(self.order, vals[..., p, :], w)


def _checked_breaks(breaks) -> np.ndarray:
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0):
        raise DomainError("breaks must be strictly increasing, length >= 2")
    return breaks


def _nodes_weights(breaks: np.ndarray, order: int) -> tuple:
    """GL nodes and weights, shape (panels, order), of consecutive breaks."""
    xg, wg = gauss_legendre(order)
    a = breaks[:-1, None]
    b = breaks[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * xg[None, :],
            0.5 * (b - a) * wg[None, :])


@lru_cache(maxsize=32)
def _bary_weights_cached(order: int) -> np.ndarray:
    x = gauss_legendre(order)[0]
    w = np.ones(order)
    for i in range(order):
        w[i] = 1.0 / np.prod(x[i] - np.delete(x, i))
    return w


@dataclass(frozen=True)
class StackedGrids:
    """Panel grids of one order laid end to end (grid r's breaks from
    ``first[r]``), read at one point per row in one pass, bit-equal to the
    ``PanelGrid`` methods of each point's own grid."""

    order: int
    breaks: np.ndarray
    first: np.ndarray
    npanels: np.ndarray

    @classmethod
    def build(cls, grids) -> "StackedGrids":
        orders = {g.order for g in grids}
        if len(orders) > 1:
            raise DomainError("stacked grids need one order")
        n = np.array([g.npanels for g in grids], dtype=int)
        breaks = np.concatenate([g.breaks for g in grids] or [[]])
        return cls(max(orders, default=0),
                   *_frozen(breaks, np.cumsum(n + 1) - (n + 1), n))

    def locate(self, rows, x) -> np.ndarray:
        """The panel of grid rows[i] holding x[i]: one searchsorted for one
        grid, else a bisection of each point's inner breaks (NaN last)."""
        lo = self.first[rows] + 1
        hi = lo + self.npanels[rows] - 1
        if lo.size and lo.min() == lo.max():
            return self.breaks[lo[0]:hi[0]].searchsorted(x, side="right")
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            right = ~(x < self.breaks[mid])
            lo = np.where(right & (lo < hi), mid + 1, lo)
            hi = np.where(right, hi, mid)
        return lo - self.first[rows] - 1

    def interpolate(self, values, rows, x) -> np.ndarray:
        """values[rows[i]], nodal (k, n) on grid rows[i], at x[i]: (k,
        len(x)).  Each point's panel is a view, gathered by one
        concatenate."""
        p = self.locate(rows, x)
        j = self.first[rows] + p
        a, b, o = self.breaks[j], self.breaks[j + 1], self.order
        vals = np.concatenate([values[r][:, s:s + o] for r, s
                               in zip(rows.tolist(), (p * o).tolist())],
                              axis=-1).reshape(-1, x.size, o)
        return _bary_eval(o, vals, (2.0 * x - a - b) / (b - a))


def _bary_eval(order: int, vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Barycentric interpolation on the GL(order) nodes: vals (..., k,
    order) holds each point's nodal values, w (k,) the points in [-1, 1],
    whose weight row every stacked leading row shares."""
    d = w[:, None] - gauss_legendre(order)[0][None, :]
    exact = np.abs(d) <= 1e-15
    d = np.where(exact, 1.0, d)
    c = _bary_weights_cached(order)[None, :] / d
    out = (c * vals).sum(axis=-1) / c.sum(axis=1)
    hit = np.nonzero(exact.any(axis=1))[0]
    if hit.size:
        out[..., hit] = vals[..., hit, exact[hit].argmax(axis=1)]
    return out


def interp_matrix(order: int, w_eval: np.ndarray) -> np.ndarray:
    """Matrix mapping nodal values on GL(order) nodes to values at w_eval:
    ``_bary_eval`` of the identity's rows, the Lagrange basis."""
    eye = np.broadcast_to(np.eye(order)[:, None, :],
                          (order, len(w_eval), order))
    return np.ascontiguousarray(_bary_eval(order, eye, w_eval).T)


@lru_cache(maxsize=32)
def _lagrange_to_monomial(order: int) -> np.ndarray:
    """A[k, j]: coefficient of w^k in the j-th Lagrange basis polynomial."""
    x = gauss_legendre(order)[0]
    v = np.vander(x, order, increasing=True)
    return np.linalg.inv(v)


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
    seg = _basis_segments(grid.order, np.array([-1.0]), omega * (0.5 * h))
    return _panel_phase(grid, omega)[:, None] * seg[:, 0]


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=32)
def _gl_reference(order: int, w0_key: bytes):
    """Beta-independent part of the GL route of ``_basis_segments``."""
    w0 = np.frombuffer(w0_key)
    xg, wg = gauss_legendre(24)
    mid = 0.5 * (w0[:, None] + 1.0)
    half = 0.5 * (1.0 - w0[:, None])
    pts = mid + half * xg[None, :]                         # (i, 24)
    bmat = interp_matrix(order, pts.ravel()).reshape(len(w0), 24, order)
    return _frozen(half * wg[None, :], pts, bmat)


def _basis_segments(order: int, w0: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """B[p, i, j] = integral_{w0[i]}^{1} L_j(w) exp(i*betas[p]*w) dw on [-1, 1].

    Panels with |beta| <= max(15, order + 3) take the 24-point GL route; the
    rest take the upward monomial-moment recursion in k = 0..order-1, stable
    for |beta| > k, mapped to the Lagrange basis by one product.

    The GL route computes each bit-distinct beta once (equal-width panels
    share one) and contracts the weighted phases with the real Lagrange
    values in real arithmetic, one einsum for the real part and one for the
    imaginary part; each row is bit-equal to the call with its beta alone.
    """
    out = np.empty((len(betas), len(w0), order), dtype=complex)
    gl = np.abs(betas) <= max(15.0, order + 3)
    if gl.any():
        wts, pts, bmat = _gl_reference(order, w0.tobytes())
        bg = betas[gl]
        # distinct bit patterns, so that -0.0 and 0.0 keep their own rows
        _, first, inv = np.unique(bg.view(np.int64), return_index=True,
                                  return_inverse=True)
        wp = wts * np.exp(1j * bg[first, None, None] * pts)    # (u, i, 24)
        seg = np.empty(wp.shape[:2] + (order,), dtype=complex)
        seg.real = np.einsum("pig,igj->pij", wp.real, bmat)
        seg.imag = np.einsum("pig,igj->pij", wp.imag, bmat)
        out[gl] = seg[inv.ravel()]
    if not gl.all():
        b = betas[~gl, None]                                # (p, 1)
        ib = 1j * b
        e1, e0 = np.exp(ib), np.exp(ib * w0)
        mono = np.empty(e0.shape + (order,), dtype=complex)  # (p, i, k)
        mono[..., 0] = (e1 - e0) / ib
        wp = np.ones_like(w0)
        for k in range(1, order):
            wp = wp * w0
            # k/ib as the exact quotient -ik/beta, not a complex division
            mono[..., k] = ((e1 - wp * e0) / ib
                            - 1j * (-k / b) * mono[..., k - 1])
        out[~gl] = mono @ _lagrange_to_monomial(order)
    return out


@lru_cache(maxsize=32)
def _reference_segment(order: int, suffix: bool) -> np.ndarray:
    """Real omega=0 basis integrals on [-1, 1]; a panel scales them by h/2."""
    ref = gauss_legendre(order)[0]
    if suffix:
        seg = _basis_segments(order, ref, np.zeros(1))[0]
    else:
        seg = _basis_segments(order, -ref[::-1], -np.zeros(1))[0, ::-1, ::-1]
    return _frozen(seg.real.copy())[0]


def _basis_integrals(grid: PanelGrid, omega: float, suffix: bool) -> np.ndarray:
    h = np.diff(grid.breaks)
    if omega == 0.0:
        return (0.5 * h)[:, None, None] * _reference_segment(grid.order, suffix) + 0j
    ref = gauss_legendre(grid.order)[0]
    betas = omega * (0.5 * h)
    if suffix:
        seg = _basis_segments(grid.order, ref, betas)
    else:
        # prefix over [-1, w_i]: mirror w -> -w
        seg = _basis_segments(grid.order, -ref[::-1], -betas)[:, ::-1, ::-1]
    return _panel_phase(grid, omega)[:, None, None] * seg


def _panel_phase(grid: PanelGrid, omega: float) -> np.ndarray:
    """(h/2) exp(i*omega*c) per panel: maps [-1, 1] integrals to the panel."""
    c = 0.5 * (grid.breaks[:-1] + grid.breaks[1:])
    return 0.5 * np.diff(grid.breaks) * np.exp(1j * omega * c)


# ---------------------------------------------------------------------------
# cumulative sums over panels
# ---------------------------------------------------------------------------
#
# An integrator turns each stacked row of nodal values into per-panel
# "cells": the partial-range integrals at the panel's nodes followed by the
# integral over the whole panel, (rows, panels, order + 1), from one product
# per kind of row.  An omega = 0 row needs no per-panel matrix: its cells
# are the real reference rows on [-1, 1] (``_reference_rows``) applied to
# all panels at once and scaled by each panel's half-width, one GEMM for
# every such row.  An oscillating row takes its frequency's per-panel
# matrices (``_panel_matrices``), the full-panel row appended, in one
# batched product over the panels.  A running sum of the full-panel column
# then carries each node's integral across the other panels.

@lru_cache(maxsize=32)
def _reference_rows(order: int, suffix: bool) -> tuple:
    """(real, paired): the omega = 0 partial-range basis integrals on [-1,
    1] followed by the GL weights (the full-panel row), transposed to
    (order, order + 1) for a right product, and the same map on complex
    values read as (re, im) float pairs, so that a complex row takes one
    real GEMM.  Cached read-only."""
    real = np.ascontiguousarray(np.vstack(
        [_reference_segment(order, suffix), gauss_legendre(order)[1]]).T)
    return _frozen(real, np.kron(real, np.eye(2)))


def _panel_matrices(grid: PanelGrid, omega: float):
    """(panels, order, order + 1): each panel's suffix basis integrals
    against exp(i omega eta), then its full-panel ones, transposed for a
    right product."""
    cells = np.concatenate([_basis_integrals(grid, omega, True),
                            full_panel_integrals(grid, omega)[:, None]], 1)
    return np.ascontiguousarray(cells.transpose(0, 2, 1))


def _cells(f: np.ndarray, nzero: int, half: np.ndarray, suffix: bool,
           mats) -> np.ndarray:
    """Cells (k, panels, order + 1) of rows f (k, panels, order): the first
    ``nzero`` at omega = 0, by one product against ``_reference_rows``
    scaled by the half-widths ``half``; the others against their per-panel
    matrices ``mats`` (k - nzero or 1, panels, order, order + 1), by one
    batched product."""
    cells = np.empty(f.shape[:-1] + (f.shape[-1] + 1,), dtype=complex
                     if mats is not None else np.result_type(f, float))
    if nzero:
        real, paired = _reference_rows(f.shape[-1], suffix)
        z = cells[:nzero]
        if np.iscomplexobj(z):
            np.matmul(np.ascontiguousarray(f[:nzero], dtype=complex)
                      .view(float), paired, out=z.view(float))
        else:
            np.matmul(f[:nzero], real, out=z)
        z *= half[:, None]
    if mats is not None:
        np.matmul(f[nzero:, :, None, :], mats, out=cells[nzero:, :, None, :])
    return cells


class SuffixIntegrator:
    """Evaluates x -> integral_x^{b} f_r(eta) exp(i*omega_r*eta) deta at the
    grid nodes for stacked rows f_r, row r at its own frequency omega_r,
    the omega = 0 rows first.

    Sums are assembled right-to-left from the per-panel cells, so a pass
    over all nodes and rows is O(N) and takes one reference product for
    the omega = 0 rows and one batched product for the others.  Per-panel
    matrices are built once per distinct nonzero frequency, none for
    omega = 0.
    """

    def __init__(self, grid: PanelGrid, omegas=(0.0,)):
        self.grid = grid
        self._half = 0.5 * np.diff(grid.breaks)
        omegas = np.asarray(omegas, dtype=float).reshape(-1)
        # each kind of row is then one slice of the stack
        self._nzero = int(np.count_nonzero(omegas == 0.0))
        if (omegas[:self._nzero] != 0.0).any():
            raise DomainError("stack the omega = 0 rows first")
        freqs, which = np.unique(omegas[self._nzero:], return_inverse=True)
        self._mats = np.stack(
            [_panel_matrices(grid, w) for w in freqs])[which] \
            if freqs.size else None

    def node_values(self, fvals: np.ndarray) -> np.ndarray:
        """``fvals`` stacks one row per frequency as (k, n), giving (k, n);
        with one frequency a single (n,) array gives (n,)."""
        f = np.asarray(fvals)
        rows = f.reshape((-1,) + self.grid.nodes.shape)
        cells = _cells(rows, self._nzero, self._half, True, self._mats)
        tail = np.zeros_like(cells[..., -1])
        np.cumsum(cells[:, :0:-1, -1], axis=-1, out=tail[:, -2::-1])
        return (cells[..., :-1] + tail[..., None]).reshape(f.shape)


class PrefixIntegrator:
    """Evaluates x -> integral_a^{x} f(eta) deta at grid nodes; a node's
    value reads only the panels up to its own.  The cells come from the
    shared reference product, as for the omega = 0 rows of
    ``SuffixIntegrator``."""

    def __init__(self, grid: PanelGrid):
        self.grid = grid
        self._half = 0.5 * np.diff(grid.breaks)
        self._full = full_panel_integrals(grid)

    def node_values(self, fvals: np.ndarray) -> np.ndarray:
        """``fvals`` may stack k arrays as (k, n), giving (k, n)."""
        f = np.asarray(fvals)
        rows = f.reshape((-1,) + self.grid.nodes.shape)
        cells = _cells(rows, len(rows), self._half, False, None)
        head = np.zeros_like(cells[..., -1])
        np.cumsum(cells[:, :-1, -1], axis=-1, out=head[:, 1:])
        return (cells[..., :-1] + head[..., None]).reshape(f.shape)

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


#: panels per block of ``integrate_blocks``: 12k nodes at order 12, so each
#: block's temporaries stay in cache; blocks, not the grid, bound its memory
BLOCK_PANELS = 1024

#: longest run of values that ``integrate_blocks`` hands to one ``.sum()``;
#: a leaf may cut through blocks, so at most one leaf and one block of
#: weighted values are held at once
_LEAF_VALUES = 8 * BLOCK_PANELS


def integrate_blocks(breaks, f, order: int = 10):
    """Integral of a pointwise ``f`` over ``PanelGrid.build(breaks, order)``.

    ``f`` maps n nodes to n values and is evaluated BLOCK_PANELS panels at
    a time.  The weighted values are summed along numpy's pairwise-summation
    tree as they come (``_pairwise_sum``), so the result is bit-identical to
    ``integrate(grid, f(grid.flat))`` while only one block and one leaf of
    values are held, never the whole grid.
    """
    breaks = _checked_breaks(breaks)
    m = len(breaks) - 1

    def weighted(p):
        x, w = _nodes_weights(breaks[p:min(p + BLOCK_PANELS, m) + 1], order)
        return w.ravel() * f(x.ravel())

    first = weighted(0)
    blocks = itertools.chain(
        [first], map(weighted, range(BLOCK_PANELS, m, BLOCK_PANELS)))
    unit = 2 if np.iscomplexobj(first) else 1
    return _pairwise_sum(_taker(blocks), m * order, unit)


def _taker(blocks):
    """``take(n)``: the next n values of a stream of 1-D blocks."""
    buf = next(blocks)

    def take(n: int) -> np.ndarray:
        nonlocal buf
        while buf.size < n:
            block = next(blocks)
            buf = np.concatenate([buf, block]) if buf.size else block
        out, buf = buf[:n], buf[n:]
        return out

    return take


def _pairwise_sum(take, n: int, unit: int, leaf: int = _LEAF_VALUES):
    """Sum of the next n values of ``take``, bit-equal to numpy's ``.sum()``
    of them as one contiguous array.

    numpy sums a contiguous run pairwise (N. J. Higham, SIAM J. Sci. Comput.
    14, 1993): it splits n values at n/2, rounded down to a multiple of 8
    floats, a complex value counting as ``unit`` = 2 floats, and sums runs
    of at most 128 floats in one unrolled loop.  Any subtree is therefore
    numpy's ``.sum()`` of its own run, so this recursion hands every subtree
    of at most ``leaf`` values (``leaf`` >= 128 / unit) to numpy and adds
    the two halves above it as numpy does.
    """
    if n <= leaf:
        return take(n).sum()
    half = unit * n // 2 // 8 * 8 // unit
    left = _pairwise_sum(take, half, unit, leaf)
    return left + _pairwise_sum(take, n - half, unit, leaf)
