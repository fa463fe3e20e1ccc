"""Panel quadrature of integral p(lam) exp(i(alpha lam^2 + beta lam)) dlam.

Each panel carries a polynomial amplitude (Chebyshev-sampled, stored as
monomial coefficients in the scaled variable w in [-1, 1]); the quadratic
oscillator is integrated exactly against it.  Four terminal regimes:

* mild phase          -> Gauss-Legendre on the panel;
* tiny curvature      -> linear-phase Filon, curvature Taylor-expanded;
* stationary point in/near the panel -> complete the square, complex-erfc
  moments (uniformly valid through the critical point);
* strongly one-sided phase -> three-term integration-by-parts boundary
  series.

Panels falling between regimes are bisected; bisection re-uses the already
fitted polynomial, so the amplitude is never re-sampled.  Each step on the
coefficients that does not depend on the panel is a constant matrix built at
import: the two half-panel maps of a bisection, the weighted Gauss-node
values of the mild regime, the derivatives of the boundary series and the
binomial shift of the erfc regime.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.special import erfc

from . import panels

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


def cheb_nodes(a: float, b: float) -> np.ndarray:
    return 0.5 * (a + b) + 0.5 * (b - a) * _CHEB_NODES


def fit_poly(values: np.ndarray) -> np.ndarray:
    """Monomial coefficients (in w) through the panel's Chebyshev nodes."""
    return _FIT @ values


def eval_poly(coef: np.ndarray, w) -> np.ndarray:
    """p(w) by Horner's rule, the arithmetic of numpy's polyval."""
    out = coef[-1]
    for c in coef[-2::-1]:
        out = out * w + c
    return out


def panel_osc_integral(a: float, b: float, coef: np.ndarray,
                       alpha: float, beta: float, depth: int = 0) -> complex:
    """integral_a^b p(w(lam)) exp(i(alpha lam^2 + beta lam)) dlam."""
    s = 0.5 * (b - a)
    m0 = 0.5 * (a + b)
    at = alpha * s * s
    bt = (2.0 * alpha * m0 + beta) * s
    phase0 = alpha * m0 * m0 + beta * m0

    if at + 2.0 * abs(bt) <= 80.0:
        n = _GL_MILD if at + 2.0 * abs(bt) <= 25.0 else _GL_WIDE
        xg, wv = _GAUSS[n]
        lam = m0 + s * xg
        ph = np.exp(1j * (alpha * lam * lam + beta * lam))
        return s * (ph @ (wv @ coef))

    if at <= 0.15:
        return s * np.exp(1j * phase0) * _linear_filon(coef, at, bt)

    w0 = -bt / (2.0 * at)
    # complex-erfc moments while the shifted monomials stay well-conditioned
    if (1.0 + abs(w0)) ** DEG * max(abs(w0) - 1.0, 0.1) * at <= 3.0e6:
        return s * np.exp(1j * phase0) * _erfc_moments(coef, at, bt)

    # boundary series once every term ratio is small
    K = 4.0 * at * (abs(w0) - 1.0)
    if (K >= 3200.0 and 16.0 * at / K ** 2 <= 5.6e-3) or depth >= 26:
        return _ibp_panel(a, b, coef, alpha, beta, s)

    halves = _SPLIT @ coef
    return (panel_osc_integral(a, m0, halves[: DEG + 1], alpha, beta,
                               depth + 1)
            + panel_osc_integral(m0, b, halves[DEG + 1:], alpha, beta,
                                 depth + 1))


def _linear_filon(coef: np.ndarray, at: float, bt: float) -> complex:
    """integral_-1^1 p(w) e^{i(at w^2 + bt w)} dw with at Taylor-expanded."""
    nc = len(coef)
    work = np.zeros(nc + 18, dtype=complex)
    work[:nc] = coef
    fac = 1.0 + 0j
    for k in range(1, 9):
        fac *= 1j * at / k
        work[2 * k: 2 * k + nc] += fac * coef
    # moments M_j = int_-1^1 w^j e^{i bt w} dw by upward recursion
    ib = 1j * bt
    e1 = np.exp(ib)
    em = np.exp(-ib)
    # boundary terms of M_j for even and odd j; the recursion runs in Python
    # complex numbers, faster than numpy scalars and bit-identical to them
    ends = (complex((e1 - em) / ib), complex((e1 + em) / ib))
    M = [ends[0]]
    for j in range(1, len(work)):
        M.append(ends[j % 2] - (j / ib) * M[-1])
    return complex(np.dot(work, M))


def _erfc_moments(coef: np.ndarray, at: float, bt: float) -> complex:
    """Complete-the-square moments, stationary point within |w0| <= 1.5.

    With v = w - w0 the phase is at*v^2 (plus a constant); the v-monomial
    moments start from a complex erfc difference and recurse upward.
    """
    w0 = -bt / (2.0 * at)
    shifted = (_BINOM * w0 ** _SHIFT_POW) @ coef
    va, vb = -1.0 - w0, 1.0 - w0
    phase_c = np.exp(-1j * at * w0 * w0)
    n = len(shifted)
    M = np.empty(n, dtype=complex)
    root = np.sqrt(-1j * at)           # principal branch, arg = -pi/4
    M[0] = _SQRT_PI / (2.0 * root) * (erfc(root * va) - erfc(root * vb))
    ea = np.exp(1j * at * va * va)
    eb = np.exp(1j * at * vb * vb)
    pa, pb = 1.0, 1.0                  # v^(j-1) at the endpoints
    for j in range(1, n):
        prev = M[j - 2] if j >= 2 else 0.0
        M[j] = (pb * eb - pa * ea - (j - 1) * prev) / (2j * at)
        pa *= va
        pb *= vb
    return phase_c * complex(np.dot(shifted, M))


def derivatives(coef: np.ndarray, w, s: float) -> list:
    """The polynomial and its first four derivatives in lam at w, for a
    panel of half-width s (lam = mid + s*w)."""
    return list((_DERIV @ coef) @ w ** _POW / s ** _POW[:5])


def _ibp_panel(a: float, b: float, coef: np.ndarray, alpha: float,
               beta: float, s: float) -> complex:
    """Four-term boundary series for a strongly oscillatory panel."""
    m0 = 0.5 * (a + b)
    total = 0.0 + 0j
    for lam, sign in ((b, 1.0), (a, -1.0)):
        val, _ = ibp_boundary_terms(*derivatives(coef, (lam - m0) / s, s),
                                    2.0 * alpha * lam + beta, 2.0 * alpha)
        total += sign * np.exp(1j * (alpha * lam * lam + beta * lam)) * val
    return total


def ibp_boundary_terms(p, p1, p2, p3, p4, phi1, phi2):
    """(B0 - B1 + B2 - B3, |B4|) for amplitude derivatives at one point.

    B0 = p/(i phi'), B_{k+1} = B_k'/(i phi'); used for the strongly
    oscillatory panels and the Abel-regularised tails.
    """
    D = 1j * phi1
    Dp = 1j * phi2
    B0 = p / D
    B1 = p1 / D ** 2 - p * Dp / D ** 3
    B2 = p2 / D ** 3 - 3.0 * p1 * Dp / D ** 4 + 3.0 * p * Dp ** 2 / D ** 5
    B3 = (p3 / D ** 4 - 6.0 * p2 * Dp / D ** 5
          + 15.0 * p1 * Dp ** 2 / D ** 6 - 15.0 * p * Dp ** 3 / D ** 7)
    B4 = (p4 / D ** 5 - 10.0 * p3 * Dp / D ** 6 + 45.0 * p2 * Dp ** 2 / D ** 7
          - 105.0 * p1 * Dp ** 3 / D ** 8 + 105.0 * p * Dp ** 4 / D ** 9)
    return B0 - B1 + B2 - B3, abs(B4)


def tail_integral(p, p1, p2, p3, p4, alpha: float, beta: float,
                  lam0: float) -> tuple:
    """Abel-regularised integral_lam0^inf p exp(i(alpha lam^2+beta lam)) dlam.

    Amplitude derivatives are supplied at lam0; returns (value, err_est).
    """
    phi1 = 2.0 * alpha * lam0 + beta
    val, b4 = ibp_boundary_terms(p, p1, p2, p3, p4, phi1, 2.0 * alpha)
    phase = np.exp(1j * (alpha * lam0 * lam0 + beta * lam0))
    return -phase * val, 2.0 * b4 * max(1.0, abs(phi1))
