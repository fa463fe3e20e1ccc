"""Spectral-measure kernel and the weighted dispersive oscillatory integrals.

The density 2*lam*Im[f+(xi>) f-(xi<)/W] is assembled once per run into a
lambda table (scattering solves are by far the dominant cost) and every
kernel evaluation reduces to polynomial work against that table:

* the lambda table below lam_low is parametrised as lam = e^{-s},
  resolving the 1/(lam log^2 lam) structure, down to LAM_MIN_TABLE;
* the s-grid has 12-node panels of width S_PANEL = 2 in s (7 panels for
  lam_low = 1e-2); at the sub-threshold Filon nodes its interpolation
  error is at most 1.3e-9 of the channel amplitudes on the hyperboloids
  a = 0.2, 1, 10 and the smoothed cone kappa = 5 (4.3e-10 on a = 1);
* the integral from LAM_MIN_TABLE up to lam_top runs on one fixed
  geometric ladder of Chebyshev panels of the phase-stripped channel
  amplitudes, built per engine up to the first edge >= LAM_TOP_MAX; it
  steps by PANEL_RATIO^2 below lam_low, where the panels read the
  amplitudes off the s-grid samples, and by PANEL_RATIO above, where they
  sample the table and are appended to a pair's entry as kernels reach
  higher; a kernel integrates whole panels, up to the one holding lam_top;
* the table holds one row (W, alpha, beta, f+, f-) per lam, in build
  order; a pair reads f+-(xi) at the rows it needs in one JostStack pass
  per (side, xi), kept as one array for the other pairs at that xi;
* the phase exp(i(t lam^p + theta lam)) is integrated exactly per panel
  (oscquad), all panels of a kernel in one batched pass, against
  polynomial fits that each pair caches per band, so that kernels at
  another t or kind fit no panel anew;
* both tails read the fits of the ladder's end panels: below LAM_MIN_TABLE
  the density and its slope at the first panel's start, held constant in s
  under a phase held at its LAM_MIN_TABLE value (a kernel whose held phase
  |t| LAM_MIN_TABLE^p exceeds MAX_HELD_PHASE = 0.1 is refused); past the
  top panel the Abel-regularised boundary series at its right edge, whose
  first neglected term enters the error estimate.

Channel decomposition: with both arguments ordered (xi> >= xi<),

    xi> >= 0 >= xi<:   F = e^{i lam (xi> - xi<)} m+(xi>) m-(xi<) / W
    xi> >= xi< > 0:    f-(xi<) = alpha f+(xi<) + beta conj f+(xi<)
    0 > xi> >= xi<:    f+(xi>) = -conj(alpha) f-(xi>) + beta conj f-(xi>)

so every kernel is a sum of at most two phase channels with slowly varying
amplitudes built from m+, m-, W, alpha, beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import oscquad, panels
from .errors import DomainError, QuadratureError
from .jost import JostStack, ScatteringModel, check_energy

KIND_SCHRODINGER = "schrodinger"
KIND_WAVE_PLUS = "wave_plus"
KIND_WAVE_MINUS = "wave_minus"
KINDS = (KIND_SCHRODINGER, KIND_WAVE_PLUS, KIND_WAVE_MINUS)

BANDS = ("low_low", "osc_osc", "osc_low", "same_side_osc", "high_energy")
#: windowed bands: whether the cut keeps chi_window (True) or its complement
#: (False) in |lam xi| and in |lam xi'|
_WINDOWED = {"low_low": (True, True), "osc_osc": (False, False),
             "osc_low": (False, True)}

#: default spatial magnitudes of the sup grids (plus the moving light-cone
#: probe added per t)
SUP_GRID = (0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
#: lowest lam of the s-grid table (lam = e^{-s}) and of the Filon panels
LAM_MIN_TABLE = 1.0e-8
#: width in s = log(1/lam) of the s-grid panels below lam_low
S_PANEL = 2.0
#: step of the Filon ladder above lam_low; below it the ladder steps by
#: PANEL_RATIO^2.  err_est does not see S_PANEL or PANEL_RATIO
#: (``KernelSample``)
PANEL_RATIO = 4.0 / 3.0
#: largest lam_top of any kernel; the ladder ends at its first edge above
LAM_TOP_MAX = 2500.0
#: largest phase |t| LAM_MIN_TABLE^p that the sub-table tail may hold
#: constant; on the cylinder wave kernel at (0, 0) the error is 0.5% at a
#: held phase of 0.1 and 48% at 0.99
MAX_HELD_PHASE = 0.1


# ---------------------------------------------------------------------------
# smooth cutoffs
# ---------------------------------------------------------------------------

def _bump(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smoothstep(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    a = _bump(u)
    b = _bump(1.0 - np.asarray(u, dtype=float))
    return a / (a + b + 1e-300)


def chi_low(lam, lam_low: float):
    """Energy cutoff: 1 on [0, lam_low/2], 0 beyond lam_low."""
    return 1.0 - smoothstep(2.0 * np.asarray(lam) / lam_low - 1.0)


def chi_window(u):
    """Window cutoff in u = |xi lam|: 1 for u <= 1, 0 for u >= 2."""
    return 1.0 - smoothstep(np.asarray(u) - 1.0)


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSample:
    """One weighted kernel value with its quadrature error estimate.

    ``err_est`` sums three terms, all read off the Filon panels' fits: their
    cut-product fit error, the first neglected term of the Abel tail past
    the panel that holds lam_top and the slope and held phase of the
    sub-table tail below LAM_MIN_TABLE.  It has no term for how finely the
    table samples lam (S_PANEL and PANEL_RATIO): on the hyperboloid a = 1,
    PANEL_RATIO 1.6 moved values by up to 40 times their err_est (2.2e-6
    relative) and 1.5 by 1.1 times, against 4/3."""

    kind: str
    t: float
    xi: float
    xi_prime: float
    value: complex          # weighted by (<xi><xi'>)^(-d/2)
    weight: float
    err_est: float
    band: Optional[str] = None


@dataclass
class DecayReport:
    kind: str
    t_grid: np.ndarray
    sup_abs: np.ndarray
    fit_alpha: float
    fit_C: float
    fit_R2: float
    target_alpha: float
    band: Optional[str] = None


@dataclass(frozen=True)
class StationaryPhaseCase:
    """phi(0) = phi'(0) = 0, 1 <= phi'' <= C, amplitude with derivative."""

    phase: Callable
    dphase: Callable
    amplitude: Callable
    damplitude: Callable
    t: float
    support: tuple
    label: str = ""
    oracle: Optional[complex] = None


# ---------------------------------------------------------------------------
# spectral table
# ---------------------------------------------------------------------------

def _mul(a, b):
    """a * b rounded as scalar complex arithmetic rounds it; numpy's array
    complex multiply fuses multiply-adds and differs in the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class KernelEngine:
    """Kernel evaluator bound to one scattering model.

    ``xi_abs_max`` caps the spatial points the lambda table (one row per
    solved lam) must serve; a call needing more grows it, emptying the table.
    The table's lam sampling is fixed by the module constants S_PANEL (the
    s-grid below lam_low, within 1.3e-9 of the channel amplitudes on the
    benchmark profiles) and PANEL_RATIO (the Filon ladder, built once up to
    LAM_TOP_MAX); ``err_est`` does not see them (``KernelSample``).
    """

    def __init__(self, model: ScatteringModel, xi_abs_max: float = 1.0e3):
        xi_abs_max = float(xi_abs_max)
        # the check also rejects NaN, which compares false to everything
        if not (np.isfinite(xi_abs_max) and xi_abs_max >= 0.0):
            raise DomainError(f"xi_abs_max must be finite and >= 0, got "
                              f"{xi_abs_max!r}")
        self.model = model
        self.lam_low = model.lam_low
        self.xi_abs_max = xi_abs_max
        # s-grid table below lam_low (lam = e^{-s})
        s0 = np.log(1.0 / self.lam_low)
        s1 = np.log(1.0 / LAM_MIN_TABLE)
        n = int(np.ceil((s1 - s0) / S_PANEL))
        self._sgrid = panels.PanelGrid.build(np.linspace(s0, s1, n + 1),
                                             order=12)
        self._s_lam = np.exp(-self._sgrid.flat)
        # Filon panel edges, geometric from lam_low down to the table floor
        # by PANEL_RATIO^2 (the last panel is cut there) and up by
        # PANEL_RATIO to the first edge >= LAM_TOP_MAX
        down, up = [self.lam_low], [self.lam_low]
        while down[-1] > LAM_MIN_TABLE:
            down.append(max(down[-1] / PANEL_RATIO ** 2, LAM_MIN_TABLE))
        while up[-1] < LAM_TOP_MAX:
            up.append(up[-1] * PANEL_RATIO)
        self._n_sub = len(down) - 1
        self._ladder = np.array(down[::-1] + up[1:])
        self._reset()

    # -- table plumbing -----------------------------------------------------

    def _reset(self) -> None:
        """An empty table: ``_records`` maps lam to its row of ``_table``,
        (W, alpha, beta, f_plus, f_minus) in build order; ``_cols`` holds
        their (W, alpha, beta) as (3, rows), the dicts below reads of it."""
        self._records: dict = {}
        self._table: list = []
        self._cols = np.empty((3, 0), dtype=complex)
        self._stacks: dict = {}
        self._m_cache: dict = {}
        self._pair_cache: dict = {}

    def _rows(self, lams) -> np.ndarray:
        """The row of each energy in ``lams``.  The energies the table lacks
        are solved once each, in input order, and appended together, so a
        solve that raises leaves the table as it was."""
        new = {}
        for lam in lams:
            if lam not in self._records and lam not in new:
                W, alpha, f_plus, f_minus = self.model._w_alpha(
                    lam, xi_hi=self.xi_abs_max)
                # beta divides the raw numpy W (complex(W) rounds differently)
                new[lam] = (complex(W), complex(alpha),
                            complex(W / (-2j * lam)), f_plus, f_minus)
        for lam, row in new.items():
            self._records[lam] = len(self._table)
            self._table.append(row)
        if new:
            self._cols = np.concatenate(
                [self._cols, np.array([r[:3] for r in new.values()]).T], 1)
        return np.array([self._records[lam] for lam in lams], dtype=int)

    def _m_values(self, rows, side: str, xi: float) -> np.ndarray:
        """m_side(xi) = e^{-+i lam xi} f_side(xi) at the table's ``rows``,
        from one array per (side, xi) over the table's first rows.  The rows
        up to the last of ``rows`` that it lacks are read in one pass of the
        side's ``JostStack``, rebuilt over the whole table when shorter."""
        held = self._m_cache.get((side, xi), np.empty(0, dtype=complex))
        need = int(rows.max(initial=-1)) + 1
        if need > held.size:
            stack = self._stacks.get(side)
            if stack is None or stack.lam.size < need:
                stack = self._stacks[side] = JostStack(
                    [row[3 if side == "plus" else 4] for row in self._table])
            new = np.arange(held.size, need)
            f = stack.read(new, np.full(new.size, float(xi)))[0]
            ph = np.exp((-1j if side == "plus" else 1j) * stack.lam[new] * xi)
            held = self._m_cache[side, xi] = np.concatenate(
                [held, _mul(f, ph)])
        return held[rows]

    # -- channels ------------------------------------------------------------

    @staticmethod
    def _channels(hi: float, lo: float):
        """((side of hi, side of lo), thetas, amps) for an ordered pair
        hi >= lo: channel k has the phase e^{i thetas[k] lam} and the
        amplitude amps[k](a, b, W, alpha, beta) of the arrays a = m(hi),
        b = m(lo) and the table's columns."""
        if hi >= 0.0 >= lo:
            return ("plus", "minus"), [hi - lo], [
                lambda a, b, W, al, be: _mul(a, b) / W]
        if lo > 0.0:
            return ("plus", "plus"), [hi + lo, hi - lo], [
                lambda a, b, W, al, be: _mul(_mul(al, a), b) / W,
                lambda a, b, W, al, be: _mul(_mul(be, a), np.conj(b)) / W]
        return ("minus", "minus"), [-hi - lo, hi - lo], [
            lambda a, b, W, al, be: _mul(_mul(-np.conj(al), a), b) / W,
            lambda a, b, W, al, be: _mul(_mul(be, np.conj(a)), b) / W]

    def _amplitudes(self, hi: float, lo: float, lams) -> list:
        """Each channel's amplitude at the energies ``lams``."""
        (s_hi, s_lo), _, amps = self._channels(hi, lo)
        rows = self._rows(lams)
        a = self._m_values(rows, s_hi, hi)
        b = self._m_values(rows, s_lo, lo)
        return [amp(a, b, *self._cols.take(rows, axis=1)) for amp in amps]

    def _pair_data(self, hi: float, lo: float, lam_top: float):
        """The pair's channel amplitudes on the s-grid and the osc panels.

        The entry is built once: the s-grid samples and the osc panels
        below lam_low, which interpolate them.  Later calls only append
        ladder panels above lam_low, sampled from table rows, up to the
        panel that holds lam_top.  The panels are arrays: ``edges`` (n + 1),
        ``nodes`` (n, 10) and ``vals``, one (n, 10) array per channel; the
        fits cached under ``fits`` stay valid, since panel indices never
        move."""
        ladder = self._ladder
        data = self._pair_cache.get((hi, lo))
        if data is None:
            s_vals = self._amplitudes(hi, lo, self._s_lam)
            edges = ladder[: self._n_sub + 1]
            nodes = oscquad.cheb_nodes(edges[:-1, None], edges[1:, None])
            # one interpolation serves every channel and sub-threshold panel
            vals = self._sgrid.interpolate(np.stack(s_vals),
                                           np.log(1.0 / nodes.ravel()))
            thetas = self._channels(hi, lo)[1]
            data = self._pair_cache[hi, lo] = {
                "thetas": thetas, "edges": edges, "nodes": nodes,
                "vals": list(vals.reshape((len(thetas),) + nodes.shape)),
                "fits": {}}
        n, top = len(data["edges"]), int(np.searchsorted(ladder, lam_top))
        if top >= n:
            edges = ladder[n - 1: top + 1]
            nodes = oscquad.cheb_nodes(edges[:-1, None], edges[1:, None])
            data["edges"] = ladder[: top + 1]
            data["nodes"] = np.concatenate([data["nodes"], nodes])
            data["vals"] = [
                np.concatenate([old, new.reshape(nodes.shape)]) for old, new
                in zip(data["vals"], self._amplitudes(hi, lo, nodes.ravel()))]
        return data

    # -- integration ----------------------------------------------------------

    def _phase_power(self, kind: str) -> int:
        if kind not in KINDS:
            raise DomainError(f"unknown kernel kind {kind!r}")
        return 2 if kind == KIND_SCHRODINGER else 1

    def _cut_factory(self, band: Optional[str], xi: float, xi_prime: float):
        ll = self.lam_low
        if band is None:
            return lambda lam: np.ones_like(np.asarray(lam, dtype=float))
        if band in _WINDOWED:
            def win(u, inside: bool):
                return chi_window(u) if inside else 1 - chi_window(u)
            in_xi, in_xip = _WINDOWED[band]
            return lambda lam: (chi_low(lam, ll)
                                * win(np.abs(lam * xi), in_xi)
                                * win(np.abs(lam * xi_prime), in_xip))
        if band == "same_side_osc":
            if not (xi > xi_prime > 0 or 0 > xi > xi_prime):
                raise DomainError("same_side_osc needs xi > xi' > 0 or "
                                  "0 > xi > xi'")
            inner = xi_prime if xi_prime > 0 else xi
            return lambda lam: (chi_low(lam, ll)
                                * (1 - chi_window(np.abs(lam * inner))))
        if band == "high_energy":
            return lambda lam: 1.0 - chi_low(lam, ll)
        raise DomainError(f"unknown band {band!r}")

    def _check_held_phase(self, kind: str, t: float) -> int:
        """The phase power p, once |t| LAM_MIN_TABLE^p is known to be small
        enough to hold over the sub-table tail."""
        p = self._phase_power(kind)
        if abs(t) * LAM_MIN_TABLE ** p > MAX_HELD_PHASE:
            raise DomainError(
                f"{kind} kernel at t={t:g}: the phase t*lam^{p} held over "
                f"the sub-table tail lam < {LAM_MIN_TABLE:g} exceeds "
                f"{MAX_HELD_PHASE:g}")
        return p

    def _lam_top(self, kind: str, t: float, thetas) -> float:
        if kind == KIND_SCHRODINGER:
            lam0 = max(abs(th) for th in thetas) / (2.0 * max(abs(t), 1e-12))
            return float(min(max(30.0, 2.0 * lam0 + 10.0), LAM_TOP_MAX))
        return float(max(30.0, min(240.0 / max(abs(t), 1.0), 240.0) + 30.0))

    def _integrate_pair(self, kind: str, band: Optional[str], t: float,
                        xi: float, xi_prime: float):
        """Unweighted integral over lam of e^{i t lam^p} lam Im[F] cut."""
        hi, lo = max(xi, xi_prime), min(xi, xi_prime)
        tt = abs(float(t))
        p = self._check_held_phase(kind, tt)
        wave_sign = -1.0 if kind == KIND_WAVE_MINUS else 1.0
        lam_top = self._lam_top(kind, tt, self._channels(hi, lo)[1])
        if band is not None and band != "high_energy":
            lam_top = min(lam_top, 1.05 * self.lam_low)
        data = self._pair_data(hi, lo, lam_top)
        cut = self._cut_factory(band, xi, xi_prime)
        # the cut depends on the band and on which of xi, xi' is the larger
        # (osc_low is not symmetric), so that names the pair's fits
        fits = [self._fits(data, (band, xi >= xi_prime), j, cut)
                for j in range(len(data["thetas"]))]
        total, err = self._sub_table_tail(data, fits, p, wave_sign * tt)

        # Filon panels from LAM_MIN_TABLE up to the right edge of panel
        # k - 1, the one that holds lam_top
        alpha = wave_sign * tt if p == 2 else 0.0
        beta_base = wave_sign * tt if p == 1 else 0.0
        edges = data["edges"]
        k = int(np.searchsorted(edges, lam_top))
        a, b = edges[:k], edges[1:k + 1]
        coefs, betas = [], []
        for (cp, fit_err), th in zip(fits, data["thetas"]):
            coefs += [cp[:k], np.conj(cp[:k])]
            betas += [beta_base + th, beta_base - th]
            err += float(np.sum(fit_err[:k] * (b - a)))
        n_rows = len(coefs)
        vals = oscquad.panel_osc_integral(
            np.tile(a, n_rows), np.tile(b, n_rows), np.concatenate(coefs),
            alpha, np.repeat(betas, k)).reshape(n_rows, k)
        total += (vals[0::2] - vals[1::2]).sum() / 2j
        # Abel tail past that edge (full kernel and high_energy band only)
        if band is None or band == "high_energy":
            tail, tail_err = self._abel_tail(data, fits, k - 1, cut, alpha,
                                             beta_base)
            total += tail
            err += tail_err
        if t < 0:
            total = np.conj(total)
        return total, err

    @staticmethod
    def _sub_table_tail(data, fits, p: int, omega: float):
        """(integral, err) of e^{i omega lam^p} d over lam < LAM_MIN_TABLE,
        d = lam Im[F] cut and d' = dd/dlam read off the channels' fits at w
        = -1 of the first panel, which starts at LAM_MIN_TABLE.  d varies
        slowly in s = log(1/lam), so the integral is LAM_MIN_TABLE d up to
        LAM_MIN_TABLE |dd/ds| = LAM_MIN_TABLE^2 |d'|, under a phase held at
        its LAM_MIN_TABLE value."""
        lam = LAM_MIN_TABLE
        v, v1 = oscquad._lam_derivatives(
            np.array([cp[0] for cp, _ in fits]), -1.0,
            0.5 * (data["edges"][1] - data["edges"][0]))[:2]
        # d sums Im[e^{i theta lam} cp] over the channels
        th = np.array(data["thetas"])
        e = np.exp(1j * th * lam)
        d, d1 = np.sum((e * v).imag), np.sum((e * (v1 + 1j * th * v)).imag)
        tail = lam * d * np.exp(1j * omega * lam ** p)
        return tail, float(lam * lam * abs(d1) + abs(tail * omega) * lam ** p)

    @staticmethod
    def _fits(data, fit_key, chan_idx, cut):
        """(cp, fit_err), one row per osc panel: the fitted p(lam) = lam *
        G(lam) * cut(lam), whose conjugate fits the conjugate-G twin (the
        fit is real-linear and the cut real), and a pointwise estimate of
        the product-fit error (the cutoff factor is the only
        inexactly-resolved ingredient).

        Cached in the pair's data under (``fit_key``, channel), ``fit_key``
        naming the cut, and extended to the panels appended since; each
        row is fitted on its own, so it does not depend on that history."""
        key = (fit_key, chan_idx)
        fit = data["fits"].get(key)
        done = 0 if fit is None else len(fit[1])
        if done == len(data["nodes"]):
            return fit
        lam = data["nodes"][done:]
        ga, gb = data["edges"][done:-1, None], data["edges"][done + 1:, None]
        g = lam * data["vals"][chan_idx][done:]
        g_coef = oscquad.fit_poly(g)
        cp = oscquad.fit_poly(g * cut(lam))
        # probe the fit between nodes against (interpolated G) * exact cutoff
        probe = 0.5 * (lam[:, :-1] + lam[:, 1:])
        wprobe = (2.0 * probe - ga - gb) / (gb - ga)
        # eval_poly runs over the leading axis: one polynomial per row
        truth = oscquad.eval_poly(g_coef.T[..., None], wprobe) * cut(probe)
        fit_err = np.max(np.abs(oscquad.eval_poly(cp.T[..., None], wprobe)
                                - truth), axis=1)
        fit = (cp, fit_err) if fit is None else tuple(
            map(np.concatenate, zip(fit, (cp, fit_err))))
        data["fits"][key] = fit
        return fit

    @staticmethod
    def _abel_tail(data, fits, i, cut, alpha, beta_base):
        """Abel tail past the right edge of panel i (w = 1) from its fits:
        the (cp, conj cp) rows of every channel off the light cone in one
        ``tail_integral`` call."""
        rows, betas, err = [], [], 0.0
        for j, ((cp, _), th) in enumerate(zip(fits, data["thetas"])):
            if alpha == 0.0 and min(abs(beta_base + th),
                                    abs(beta_base - th)) < 0.05:
                # wave channel on the light cone: the Abel tail degenerates
                lam = data["nodes"][i]
                err += 40.0 * float(np.max(np.abs(
                    lam * data["vals"][j][i] * cut(lam))))
            else:
                rows += [cp[i], np.conj(cp[i])]
                betas += [beta_base + th, beta_base - th]
        if not rows:
            return 0j, err
        a, b = data["edges"][i], data["edges"][i + 1]
        vals, errs = oscquad.tail_integral(
            np.array(rows), 1.0, 0.5 * (b - a), alpha, np.array(betas), b)
        return (vals[0::2] - vals[1::2]).sum() / 2j, err + 0.5 * errs.sum()

    # -- public operations ---------------------------------------------------

    def _ensure_span(self, *xis) -> None:
        """Grow xi_abs_max to serve every xi, emptying the table; a
        non-finite xi (max(0.0, nan) is 0.0) is refused before any change."""
        for x in xis:
            if not np.isfinite(x):
                raise DomainError(f"xi must be finite, got {float(x)!r}")
        need = max(abs(float(x)) for x in xis)
        if need > self.xi_abs_max:
            self.xi_abs_max = 1.05 * need
            self._reset()

    def spectral_density(self, xi: float, xi_prime: float, lam: float) -> float:
        """2*lam*Im[f+(xi>) f-(xi<)/W(lam)]; symmetric, >= 0 on the diagonal."""
        check_energy(lam, "spectral_density")
        self._ensure_span(xi, xi_prime)
        hi, lo = max(xi, xi_prime), min(xi, xi_prime)
        amps = self._amplitudes(hi, lo, [lam])
        return float(2.0 * lam * sum(
            (np.exp(1j * th * lam) * amp[0]).imag
            for th, amp in zip(self._channels(hi, lo)[1], amps)))

    def evolution_kernel(self, kind: str, t: float, xi: float,
                         xi_prime: float) -> KernelSample:
        """Weighted kernel integral_0^inf e^{i t lam^p} lam Im[F] dlam."""
        return self.band_kernel(kind, None, t, xi, xi_prime)

    def band_kernel(self, kind: str, band: Optional[str], t: float, xi: float,
                    xi_prime: float) -> KernelSample:
        """Kernel with one smooth band cutoff inserted; band None is the
        full kernel."""
        if band is not None and band not in BANDS:
            raise DomainError(f"unknown band {band!r}")
        if not 0.0 < abs(t) < np.inf:
            raise DomainError(f"kernels require a finite t != 0, got {t!r}")
        self._ensure_span(xi, xi_prime)
        w = self._weight(xi, xi_prime)
        val, err = self._integrate_pair(kind, band, t, xi, xi_prime)
        err_w = float(err * w + 1e-10)
        if err_w > 1e-4 * max(1.0, abs(val * w)):
            raise QuadratureError(
                f"kernel error target unreachable at (kind={kind}, t={t}, "
                f"xi={xi}, xi'={xi_prime}): err_est={err_w:.2e}")
        return KernelSample(kind=kind, t=float(t), xi=float(xi),
                            xi_prime=float(xi_prime), value=complex(val * w),
                            weight=w, err_est=err_w, band=band)

    def _weight(self, xi, xi_prime) -> float:
        d = self.model.profile.d
        return float((np.hypot(xi, 1.0) * np.hypot(xi_prime, 1.0))
                     ** (-0.5 * d))

    def wave_smeared(self, xi: float, t: float, phi_x: np.ndarray,
                     phi_v: np.ndarray, phi_d: Optional[np.ndarray] = None
                     ) -> float:
        """High-energy wave kernel smeared against a compact test function.

        Returns |integral K_high(t, xi, xi') phi(xi') dxi'| divided by
        t^{-1/2} (||phi||_1 + ||phi'||_1).
        """
        phi_x = np.asarray(phi_x, dtype=float)
        phi_v = np.asarray(phi_v, dtype=float)
        if phi_x.ndim != 1 or phi_x.shape != phi_v.shape or len(phi_x) < 3:
            raise DomainError("phi must be sampled on a grid of >= 3 points")
        if np.any(~np.isfinite(phi_v)):
            raise DomainError("phi not integrable on the grid")
        if phi_d is None:
            phi_d = np.gradient(phi_v, phi_x)
        acc = 0.0 + 0j
        wts = _trapezoid_weights(phi_x)
        for xq, wq, pv in zip(phi_x, wts, phi_v):
            if pv == 0.0:
                continue
            ks = self.band_kernel(KIND_WAVE_PLUS, "high_energy", t, xi, xq)
            acc += wq * pv * ks.value
        norm = np.sum(wts * np.abs(phi_v)) + np.sum(wts * np.abs(phi_d))
        if norm == 0.0:
            return 0.0
        return float(abs(acc) / (abs(t) ** -0.5 * norm))

    # -- scans ----------------------------------------------------------------

    def decay_scan(self, kind: str, t_grid, spatial_grid=None,
                   band: Optional[str] = None) -> DecayReport:
        """Sup of the weighted kernel over the spatial grid per t, with a
        log-log decay fit over the last decade."""
        t_grid = np.sort(np.asarray(t_grid, dtype=float))
        # before the table grows or a kernel runs; t <= 0 has no decay rate
        bad = t_grid[~((t_grid > 0) & (t_grid < np.inf))]
        if bad.size:
            raise DomainError("decay scan needs finite t > 0, got t = "
                              f"{float(bad[0])!r}")
        if not t_grid.size or t_grid.max() / t_grid.min() < 99.0:
            raise DomainError("decay scan needs at least two decades of t")
        base = np.asarray(spatial_grid if spatial_grid is not None
                          else SUP_GRID, dtype=float)
        pts = np.unique(np.concatenate([base, -base]))
        cap = 0.9 * self.model.pot.xi_cap
        self._ensure_span(np.max(np.abs(pts)), min(t_grid.max(), cap))
        sups = []
        for t in t_grid:
            pairs = [(a, b) for i, a in enumerate(pts) for b in pts[: i + 1]]
            probe = min(float(t), cap)
            pairs.append((probe, -probe))
            best = 0.0
            for a, b in pairs:
                best = max(best,
                           abs(self.band_kernel(kind, band, t, a, b).value))
            sups.append(best)
        sups = np.asarray(sups)
        last = t_grid >= t_grid.max() / 10.0
        slope, logc = np.polyfit(np.log(t_grid[last]), np.log(sups[last]), 1)
        pred = slope * np.log(t_grid[last]) + logc
        res = np.log(sups[last]) - pred
        ss_tot = np.sum((np.log(sups[last]) - np.mean(np.log(sups[last]))) ** 2)
        r2 = 1.0 - np.sum(res ** 2) / max(ss_tot, 1e-300)
        target = 0.5 * (self.model.profile.d + 1) if kind == KIND_SCHRODINGER \
            else 0.5 * self.model.profile.d
        return DecayReport(kind=kind, t_grid=t_grid, sup_abs=sups,
                           fit_alpha=float(-slope), fit_C=float(np.exp(logc)),
                           fit_R2=float(r2), target_alpha=float(target),
                           band=band)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


# ---------------------------------------------------------------------------
# stationary-phase validator
# ---------------------------------------------------------------------------

def stationary_phase_check(case: StationaryPhaseCase) -> tuple:
    """(lhs, rhs) of the quadratic stationary-phase majorant.

    lhs = |integral e^{i t phi} a|, on quadratic-phase u-panels when the
    support holds the critical point 0 and by phase-resolved quadrature
    when it does not; rhs is the delta^2-weighted majorant with delta =
    t^{-1/2}.
    """
    return stationary_phase_checks([case])[0]


def stationary_phase_checks(cases) -> list:
    """``stationary_phase_check`` of each case, bit-identical.

    Every case is checked against the contract before any grid is built:
    a non-finite t or t <= 0, and a phase without phi(0) = phi'(0) = 0,
    raise DomainError.  Cases with the same phase, t and support share one
    panel grid (in the standard library, the Gaussian and x^2 Gaussian
    amplitudes at each t).
    """
    for case in cases:
        _check_case(case)
    groups: dict = {}
    for i, case in enumerate(cases):
        key = (case.phase, case.dphase, case.t, tuple(case.support))
        groups.setdefault(key, []).append(i)
    out = [None] * len(cases)
    for idx in groups.values():
        vals = _phase_resolved_integrals([cases[i] for i in idx])
        for i, v in zip(idx, vals):
            out[i] = (float(abs(v)), _majorant(cases[i]))
    return out


def _check_case(case: StationaryPhaseCase) -> None:
    if not (np.isfinite(case.t) and case.t > 0.0):
        raise DomainError(f"stationary phase case {case.label!r} needs a "
                          f"finite t > 0, got t = {case.t!r}")
    phi0, dphi0 = float(case.phase(0.0)), float(case.dphase(0.0))
    if phi0 != 0.0 or dphi0 != 0.0:
        raise DomainError(f"stationary phase case {case.label!r} needs "
                          f"phi(0) = phi'(0) = 0, got {phi0!r} and {dphi0!r}")


#: u-panels on each side of the critical point in ``_u_panel_integrals``
_U_PANELS = 64


def _phase_resolved_integrals(cases) -> np.ndarray:
    """integral e^{i t phi} a of cases sharing phi, t and the support."""
    case = cases[0]
    a, b = case.support
    t = case.t
    # curvature precondition
    xs = np.linspace(a, b, 201)
    h = 1e-5 * max(1.0, b - a)
    curv = (case.phase(xs + h) - 2 * case.phase(xs) + case.phase(xs - h)) / h ** 2
    if np.min(curv) < 1.0 - 1e-6:
        raise DomainError("phase curvature drops below 1 on the support")
    if a < 0.0 < b:
        return _u_panel_integrals(cases)

    breaks = panels.cap_phase(np.linspace(a, b, 65),
                              lambda x: t * abs(case.dphase(x)) + 1.0,
                              max_phase=1.0)

    def integrands(x):
        osc = np.exp(1j * t * case.phase(x))
        return np.stack([c.amplitude(x) * osc for c in cases])

    # without the critical point the grid has at most 67,535 panels (at
    # t = 1e4 in the standard library), evaluated and summed in blocks,
    # never held as one grid, and bit-identical to the whole-grid sum
    return panels.integrate_blocks(breaks, integrands, order=12)


def _u_panel_integrals(cases) -> np.ndarray:
    """integral e^{i t phi} a of cases sharing phi, t and a support around
    the critical point 0, in u = sign(x) sqrt(phi(x)).

    There the phase is exactly t u^2 and the amplitude a(x(u)) x'(u) is
    smooth, with x' = 2u / phi'(x) and x'(0) = sqrt(2 / phi''(0)).  Each
    case's amplitude is fitted on ``_U_PANELS`` Chebyshev u-panels per side
    of 0 and integrated by one batched ``oscquad.panel_osc_integral`` call
    of its own, so that its value cannot depend on the cases beside it.
    """
    case = cases[0]
    a, b = case.support
    edges = np.concatenate([
        np.linspace(-np.sqrt(case.phase(a)), 0.0, _U_PANELS + 1),
        np.linspace(0.0, np.sqrt(case.phase(b)), _U_PANELS + 1)[1:]])
    shape = (2 * _U_PANELS, oscquad.DEG + 1)
    u = oscquad.cheb_nodes(edges[:-1, None], edges[1:, None]).ravel()
    x = _phase_inverse(case.phase, u, a, b)
    h = 1e-6
    curv0 = (case.dphase(h) - case.dphase(-h)) / (2.0 * h)
    dxdu = np.full(u.shape, np.sqrt(2.0 / curv0))
    off = u != 0.0
    dxdu[off] = 2.0 * u[off] / case.dphase(x[off])
    return np.array([
        np.sum(oscquad.panel_osc_integral(
            edges[:-1], edges[1:],
            oscquad.fit_poly((c.amplitude(x) * dxdu).reshape(shape)),
            case.t, 0.0))
        for c in cases])


def _phase_inverse(phase, u, a: float, b: float) -> np.ndarray:
    """x in [a, b] with phi(x) = u^2 and the sign of u, by bisection between
    0 and the support's end on that side, where phi rises away from 0."""
    inner = np.zeros_like(u)
    outer = np.where(u < 0.0, a, b)
    target = u * u
    # 80 halvings take a bracket of width up to 10 to 1e-23, below the
    # spacing of doubles at the nodes nearest 0
    for _ in range(80):
        mid = 0.5 * (inner + outer)
        above = phase(mid) > target
        outer = np.where(above, mid, outer)
        inner = np.where(above, inner, mid)
    return 0.5 * (inner + outer)


def _majorant(case: StationaryPhaseCase) -> float:
    a, b = case.support
    delta = 1.0 / np.sqrt(case.t)
    xs = np.linspace(a, b, 20001)
    amp = np.abs(case.amplitude(xs))
    damp = np.abs(case.damplitude(xs))
    w = _trapezoid_weights(xs)
    first = np.sum(w * amp / (delta ** 2 + xs ** 2))
    mask = np.abs(xs) > delta
    second = np.sum(w[mask] * damp[mask] / np.abs(xs[mask]))
    return float(delta ** 2 * (first + second))


def _quad_phase(x):
    return np.asarray(x, dtype=float) ** 2


def _quad_dphase(x):
    return 2.0 * np.asarray(x, dtype=float)


def _gauss(x, s=1.0):
    return np.exp(-(s * np.asarray(x, dtype=float)) ** 2)


def _dgauss(x, s=1.0):
    x = np.asarray(x, dtype=float)
    return -2.0 * s * s * x * np.exp(-(s * x) ** 2)


def _anharmonic(x):
    x = np.asarray(x, dtype=float)
    return x * x * (1.0 + 0.1 * x * x)


def _danharmonic(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * x + 0.4 * x ** 3


def _compact_bump(x, a, b):
    x = np.asarray(x, dtype=float)
    u = (x - a) / (b - a)
    out = np.zeros_like(u)
    core = (u > 0) & (u < 1)
    out[core] = np.exp(-1.0 / (u[core] * (1.0 - u[core])))
    return out


def _compact_bump_d(x, a, b):
    x = np.asarray(x, dtype=float)
    u = (x - a) / (b - a)
    out = np.zeros_like(u)
    core = (u > 0) & (u < 1)
    uc = u[core]
    out[core] = np.exp(-1.0 / (uc * (1.0 - uc))) \
        * (1.0 - 2.0 * uc) / (uc * (1.0 - uc)) ** 2
    return out / (b - a)


def _bump_case(t, a, b, label):
    return StationaryPhaseCase(
        phase=_quad_phase, dphase=_quad_dphase,
        amplitude=lambda x, _a=a, _b=b: _compact_bump(x, _a, _b),
        damplitude=lambda x, _a=a, _b=b: _compact_bump_d(x, _a, _b),
        t=t, support=(a, b), label=label)


def standard_case_library(t_values=(1.0e2, 1.0e4)) -> list:
    """Twelve stationary-phase cases: critical point inside and outside."""
    cases = []
    for t in t_values:
        cases.append(StationaryPhaseCase(
            phase=_quad_phase, dphase=_quad_dphase,
            amplitude=_gauss, damplitude=_dgauss, t=t, support=(-6.5, 6.5),
            label=f"gauss_inside_t{t:g}",
            oracle=np.sqrt(np.pi / (1.0 - 1j * t))))
        cases.append(_bump_case(t, 1.0, 2.0, f"bump_outside_t{t:g}"))
        cases.append(_bump_case(t, -0.5, 0.5, f"bump_at_crit_t{t:g}"))
        cases.append(_bump_case(t, -3.0, -1.5, f"bump_left_t{t:g}"))
        cases.append(StationaryPhaseCase(
            phase=_anharmonic, dphase=_danharmonic,
            amplitude=lambda x: _gauss(x, 1.5),
            damplitude=lambda x: _dgauss(x, 1.5),
            t=t, support=(-3.5, 3.5), label=f"anharmonic_t{t:g}"))
        cases.append(StationaryPhaseCase(
            phase=_quad_phase, dphase=_quad_dphase,
            amplitude=lambda x: np.asarray(x) ** 2 * _gauss(x),
            damplitude=lambda x: (2.0 * np.asarray(x)
                                  - 2.0 * np.asarray(x) ** 3) * _gauss(x),
            t=t, support=(-6.5, 6.5), label=f"x2gauss_t{t:g}"))
    return cases
