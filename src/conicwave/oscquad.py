"""Panel quadrature of integral p(lam) exp(i(alpha lam^2 + beta lam)) dlam.

Each panel carries a polynomial amplitude (Chebyshev-sampled, stored as
monomial coefficients in the scaled variable w in [-1, 1]); the quadratic
oscillator is integrated against it.  Four terminal regimes, for
alpha >= 0:

* mild phase          -> Gauss-Legendre on the panel;
* tiny curvature      -> linear-phase Filon, curvature Taylor-expanded;
* stationary point ``LEVIN_W0`` or more half-widths from the panel centre ->
  Levin collocation: the non-oscillatory solution y of
  y' + i phi' y = p on ``LEVIN_N`` Chebyshev-Lobatto points, one small
  linear solve per panel, gives the integral as [y e^{i phi}] at the panel
  ends;
* stationary point in/near the panel -> complete the square, complex-erfc
  moments (uniformly valid through the critical point).

Panels between the regimes are bisected; a half panel moves its stationary
point about twice as many half-widths away, so the bisection stays shallow
except at a stationary point inside the panel.  The tiny-curvature panels
keep the Filon rule although Levin's would serve them too: their moments
need no linear solve, and the wave kernels, whose panels all have zero
curvature, measured about 10% slower with Levin's.

All panels of a call go through one level-wise batched pass: each level
evaluates every regime as one array computation over its panels and bisects
the panels falling between regimes in one step, re-using the already fitted
polynomial, so the amplitude is never re-sampled.  Each step on the
coefficients that does not depend on the panel is a constant matrix built at
import: the two half-panel maps of a bisection, the weighted Gauss-node
values of the mild regime, the Levin differentiation matrix and node values,
the binomial shift of the erfc regime and the derivatives of the boundary
series.

``tail_integral``, the Abel tail past a kernel's last panel, is the only
user of that four-term integration-by-parts series, ``_boundary_series``.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.special import erfc

from . import panels
from .errors import DomainError, QuadratureError

DEG = 9                       # polynomial degree per panel
_CHEB_NODES = np.cos(np.pi * np.arange(DEG + 1) / DEG)[::-1]
_VAND = np.vander(_CHEB_NODES, DEG + 1, increasing=True)
_FIT = np.linalg.inv(_VAND)   # nodal values -> monomial coefficients in w

_GL_MILD = 24
_GL_WIDE = 48

_SQRT_PI = np.sqrt(np.pi)
_POW = np.arange(DEG + 1)

#: Gauss order -> (nodes, coefficients -> weight * p(node))
_GAUSS = {n: (xg, wg[:, None] * np.vander(xg, DEG + 1, increasing=True))
          for n in (_GL_MILD, _GL_WIDE)
          for xg, wg in [panels.gauss_legendre(n)]}
#: _DERIV[k] @ coef: coefficients of the k-th derivative in w, k = 0..4
_DERIV = np.stack([np.linalg.matrix_power(np.diag(_POW[1:] * 1.0, 1), k)
                   for k in range(5)])
#: p(v + w0) has coefficients (_BINOM * w0 ** _SHIFT_POW) @ coef
_BINOM = np.array([[comb(k, j) for k in _POW] for j in _POW], dtype=float)
_SHIFT_POW = np.maximum(_POW[None, :] - _POW[:, None], 0)
#: coefficients -> coefficients on the left half panel, then the right one:
#: p((v -+ 1)/2), whose dyadic entries C(k, j) (-+1)^(k-j) / 2^k are exact
_SPLIT = np.vstack([_BINOM * (-1.0) ** _SHIFT_POW, _BINOM]) / 2.0 ** _POW

#: Levin's error grows like |p(w0)| / max|p| (w0 + sqrt(w0^2 - 1))^-LEVIN_N,
#: and a degree-9 amplitude reaches |p(w0)| ~ T_9(w0) max|p|: 20 points keep
#: that worst case within 5e-11 at w0 = LEVIN_W0 (16 points: 4e-7)
LEVIN_N = 20                  # Chebyshev-Lobatto points per Levin panel
LEVIN_W0 = 5.0                # Levin once |w0| >= LEVIN_W0 half-widths
_MAX_DEPTH = 26               # bisection levels before QuadratureError
_LEVIN_X = np.cos(np.pi * np.arange(LEVIN_N) / (LEVIN_N - 1))[::-1]
#: coefficients -> p at the Levin points
_LEVIN_VAND = np.vander(_LEVIN_X, DEG + 1, increasing=True)
#: the Chebyshev differentiation matrix on _LEVIN_X from its barycentric
#: weights (-1)^k, halved at the ends: off the diagonal w_j / (w_i (x_i -
#: x_j)), on it minus the rest of the row, so D annihilates constants
_LEVIN_BARY = (-1.0) ** np.arange(LEVIN_N) * np.r_[0.5, np.ones(LEVIN_N - 2),
                                                   0.5]
_LEVIN_D = (_LEVIN_BARY[None, :] / _LEVIN_BARY[:, None]
            / (_LEVIN_X[:, None] - _LEVIN_X[None, :] + np.eye(LEVIN_N)))
_LEVIN_D -= np.diag(_LEVIN_D.sum(axis=1))


def cheb_nodes(a: float, b: float) -> np.ndarray:
    return 0.5 * (a + b) + 0.5 * (b - a) * _CHEB_NODES


def fit_poly(values: np.ndarray) -> np.ndarray:
    """Monomial coefficients (in w) through the panel's Chebyshev nodes, one
    panel per row of ``values``, each row summed on its own (a matrix
    product's blocking could move its last bit with the rows beside it)."""
    return np.sum(_FIT * np.asarray(values)[..., None, :], axis=-1)


def eval_poly(coef: np.ndarray, w) -> np.ndarray:
    """p(w) by Horner's rule, the arithmetic of numpy's polyval."""
    out = coef[-1]
    for c in coef[-2::-1]:
        out = out * w + c
    return out


def panel_osc_integral(a, b, coef, alpha, beta) -> np.ndarray:
    """integral_a^b p(w(lam)) exp(i(alpha lam^2 + beta lam)) dlam per panel.

    ``a``, ``b`` and ``beta`` have shape (n,), ``coef`` (n, DEG + 1), and
    ``alpha`` >= 0 is one number or one per panel (a caller folds negative
    curvature by conjugation).
    One pass per bisection level classifies every live panel, evaluates
    each regime as one array computation, adds the finished values to the
    panels they came from and halves the rest with one ``_SPLIT`` product.
    A panel whose stationary point lies ``LEVIN_W0`` or more half-widths
    from its centre takes Levin collocation; the tiny-curvature panels keep the
    linear-phase Filon rule, which needs no solve (module docstring).
    Raises ``DomainError`` for alpha < 0 and ``QuadratureError`` when a
    panel still needs splitting after ``_MAX_DEPTH`` levels.
    """
    a, b, alpha, beta = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (a, b, alpha, beta)))
    if np.any(alpha < 0.0):
        raise DomainError(f"panel_osc_integral needs alpha >= 0, got alpha "
                          f"= {float(np.min(alpha))!r}")
    coef = np.asarray(coef, dtype=complex)
    out = np.zeros(len(a), dtype=complex)
    owner = np.arange(len(a))
    for _ in range(_MAX_DEPTH + 1):
        s = 0.5 * (b - a)
        m0 = 0.5 * (a + b)
        at = alpha * s * s
        bt = (2.0 * alpha * m0 + beta) * s
        size = at + 2.0 * np.abs(bt)
        mild = size <= 80.0
        lin = ~mild & (at <= 0.15)
        levin = ~(mild | lin) & (np.abs(bt) >= 2.0 * LEVIN_W0 * at)
        rest = ~(mild | lin | levin)
        # complex-erfc moments while the shifted monomials stay
        # well-conditioned; w0 = |-bt / (2 at)| is used only where rest holds
        w0 = np.abs(bt) / (2.0 * np.where(rest, at, 1.0))
        erf = rest & ((1.0 + w0) ** DEG * np.maximum(w0 - 1.0, 0.1) * at
                      <= 3.0e6)
        split = rest & ~erf

        val = np.zeros(len(a), dtype=complex)
        for n, sel in ((_GL_MILD, mild & (size <= 25.0)),
                       (_GL_WIDE, mild & (size > 25.0))):
            if sel.any():
                xg, wv = _GAUSS[n]
                lam = m0[sel, None] + s[sel, None] * xg
                ph = np.exp(1j * (alpha[sel, None] * lam * lam
                                  + beta[sel, None] * lam))
                val[sel] = s[sel] * np.sum(ph * (coef[sel] @ wv.T), axis=1)
        for sel, rule in ((lin, _linear_filon), (levin, _levin),
                          (erf, _erfc_moments)):
            if sel.any():
                val[sel] = (s[sel] * np.exp(1j * (alpha[sel] * m0[sel] ** 2
                                                  + beta[sel] * m0[sel]))
                            * rule(coef[sel], at[sel], bt[sel]))
        np.add.at(out, owner[~split], val[~split])
        if not split.any():
            return out
        halves = coef[split] @ _SPLIT.T
        a, b = (np.concatenate([a[split], m0[split]]),
                np.concatenate([m0[split], b[split]]))
        coef = np.concatenate([halves[:, : DEG + 1], halves[:, DEG + 1:]])
        alpha, beta, owner = (np.tile(x[split], 2)
                              for x in (alpha, beta, owner))
    raise QuadratureError(
        f"panel_osc_integral: {len(a)} panels near a stationary point are "
        f"unresolved after {_MAX_DEPTH + 1} bisections (alpha up to "
        f"{float(np.max(alpha))!r})")


def _linear_filon(coef: np.ndarray, at, bt) -> np.ndarray:
    """integral_-1^1 p(w) e^{i(at w^2 + bt w)} dw per row of ``coef``, with
    at Taylor-expanded."""
    n, nc = coef.shape
    work = np.zeros((n, nc + 18), dtype=complex)
    work[:, :nc] = coef
    fac = np.ones(n, dtype=complex)
    for k in range(1, 9):
        fac *= 1j * at / k
        work[:, 2 * k: 2 * k + nc] += fac[:, None] * coef
    # moments M_j = int_-1^1 w^j e^{i bt w} dw by upward recursion from the
    # boundary terms of even and odd j
    ib = 1j * bt
    e1 = np.exp(ib)
    em = np.exp(-ib)
    ends = ((e1 - em) / ib, (e1 + em) / ib)
    M = np.empty_like(work)
    M[:, 0] = ends[0]
    for j in range(1, work.shape[1]):
        M[:, j] = ends[j % 2] - (j / ib) * M[:, j - 1]
    return np.sum(work * M, axis=1)


def _levin(coef: np.ndarray, at, bt) -> np.ndarray:
    """integral_-1^1 p(w) e^{i g(w)} dw per row, g = at w^2 + bt w, by Levin
    collocation: y' + i g' y = p on the ``LEVIN_N`` points of ``_LEVIN_X``,
    all rows in one batched solve, then the integral is [y e^{i g}]_-1^1.
    With the stationary point -bt / (2 at) at least ``LEVIN_W0`` away, g'
    has no zero near [-1, 1] and y is smooth."""
    rhs = coef @ _LEVIN_VAND.T
    mat = np.repeat(_LEVIN_D[None].astype(complex), len(coef), axis=0)
    diag = np.arange(LEVIN_N)
    mat[:, diag, diag] += 1j * (2.0 * at[:, None] * _LEVIN_X + bt[:, None])
    y = np.linalg.solve(mat, rhs[:, :, None])[:, :, 0]
    return y[:, -1] * np.exp(1j * (at + bt)) - y[:, 0] * np.exp(1j * (at - bt))


def _erfc_moments(coef: np.ndarray, at, bt) -> np.ndarray:
    """Complete-the-square moments per row, stationary point near [-1, 1].

    With v = w - w0 the phase is at*v^2 (plus a constant); the v-monomial
    moments start from a complex erfc difference and recurse upward.
    """
    w0 = -bt / (2.0 * at)
    shift = _BINOM * w0[:, None, None] ** _SHIFT_POW
    shifted = (shift @ coef[:, :, None])[:, :, 0]
    va, vb = -1.0 - w0, 1.0 - w0
    phase_c = np.exp(-1j * at * w0 * w0)
    M = np.empty(coef.shape, dtype=complex)
    root = np.sqrt(-1j * at)           # principal branch, arg = -pi/4
    M[:, 0] = _SQRT_PI / (2.0 * root) * (erfc(root * va) - erfc(root * vb))
    ea = np.exp(1j * at * va * va)
    eb = np.exp(1j * at * vb * vb)
    pa, pb = 1.0, 1.0                  # v^(j-1) at the endpoints
    for j in range(1, coef.shape[1]):
        prev = M[:, j - 2] if j >= 2 else 0.0
        M[:, j] = (pb * eb - pa * ea - (j - 1) * prev) / (2j * at)
        pa *= va
        pb *= vb
    return phase_c * np.sum(shifted * M, axis=1)


def _lam_derivatives(coef: np.ndarray, w: float, s) -> np.ndarray:
    """(5, rows): each row's polynomial and its first four lam-derivatives
    at w, for panels of half-width s (lam = mid + s w)."""
    return coef @ _DERIV.transpose(0, 2, 1) @ w ** _POW / s ** _POW[:5, None]


def _boundary_series(coef: np.ndarray, w: float, s, lam, alpha, beta):
    """(e^{i phi} (B0 - B1 + B2 - B3), |B4| max(1, |phi'|)) per row of
    ``coef`` at the point lam = mid + s w of its panel of half-width s,
    phi = alpha lam^2 + beta lam, B0 = p/(i phi'), B_{k+1} = B_k'/(i phi')."""
    p, p1, p2, p3, p4 = _lam_derivatives(coef, w, s)
    phi1 = 2.0 * alpha * lam + beta
    D = 1j * phi1
    Dp = 2j * alpha
    B0 = p / D
    B1 = p1 / D ** 2 - p * Dp / D ** 3
    B2 = p2 / D ** 3 - 3.0 * p1 * Dp / D ** 4 + 3.0 * p * Dp ** 2 / D ** 5
    B3 = (p3 / D ** 4 - 6.0 * p2 * Dp / D ** 5
          + 15.0 * p1 * Dp ** 2 / D ** 6 - 15.0 * p * Dp ** 3 / D ** 7)
    B4 = (p4 / D ** 5 - 10.0 * p3 * Dp / D ** 6 + 45.0 * p2 * Dp ** 2 / D ** 7
          - 105.0 * p1 * Dp ** 3 / D ** 8 + 105.0 * p * Dp ** 4 / D ** 9)
    return (np.exp(1j * (alpha * lam * lam + beta * lam)) * (B0 - B1 + B2 - B3),
            abs(B4) * np.maximum(1.0, np.abs(phi1)))


def tail_integral(coef: np.ndarray, w: float, s: float, alpha: float,
                  beta, lam0: float) -> tuple:
    """Abel-regularised integral_lam0^inf p exp(i(alpha lam^2+beta lam))
    dlam per row of ``coef`` (one beta per row), each p fitted on a panel
    of half-width s in which lam0 sits at w; returns (values, err_est)."""
    val, err = _boundary_series(coef, w, s, lam0, alpha, beta)
    return -val, 2.0 * err
