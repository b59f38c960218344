"""Qubit coupled to the ladder of resonator modes.

Builds the one-excitation block of the multi-mode exchange Hamiltonian
directly, sweeps its spectrum, evolves the qubit's decay into the lossy
ladder exactly in that block, and evaluates the analytical echo series
for the qubit amplitude, the independent oracle for that evolution.  The
revival edge is fitted by the module's own port of MINPACK's
Levenberg-Marquardt routine, so the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .ioshape import MHZ

# Most ladder modes a model takes; 21 is rejected, so a config asking for
# it exits with code 2.
MAX_MODES = 20


@dataclass(frozen=True)
class MultimodeParams:
    """Qubit + mode-ladder parameters.

    Frequencies (g, fsr) are linear MHz; kappa_a is the mode
    energy decay rate in 1/us.  The transit time is the inverse free
    spectral range and is always derived, never stored separately.
    """

    g: float
    n_a: int = 8
    fsr: float = 1.97
    kappa_a: float = 0.0

    def __post_init__(self):
        if not 1 <= self.n_a <= MAX_MODES:
            raise ValidationError(f"mode count n_a = {self.n_a} is outside [1, {MAX_MODES}]")
        if self.fsr <= 0:
            raise ValidationError("fsr must be positive")
        if self.kappa_a < 0:
            raise ValidationError("kappa_a must be >= 0")

    @property
    def tau_ns(self) -> float:
        return 1e3 / self.fsr

    def mode_detunings(self) -> np.ndarray:
        """Mode offsets from the qubit in rad/ns; one mode sits on the qubit."""
        j0 = (self.n_a - 1) // 2
        j = np.arange(self.n_a)
        return (j - j0) * self.fsr * MHZ


def sector_hamiltonian(p: MultimodeParams) -> np.ndarray:
    """The exchange Hamiltonian sum_j Delta_j n_j + g (sp a_j + sm a_j^+),
    rad/ns, on its one-excitation sector, as an (n_a + 1, n_a + 1) array.

    The sector's kets hold the excitation in one mode, from the last mode
    to the first, and then in the qubit.  There the Hamiltonian is an
    arrow matrix: the mode detunings on the diagonal, 0 for the qubit,
    and g on the qubit's row and column.
    """
    h = np.diag(np.append(p.mode_detunings()[::-1], 0.0)).astype(complex)
    h[-1, :-1] = h[:-1, -1] = p.g * MHZ
    return h


def spectrum(p: MultimodeParams, qubit_offsets_mhz: Sequence[float]) -> np.ndarray:
    """Single-excitation eigenvalues (MHz) versus qubit frequency offset.

    The mode ladder stays fixed while the qubit level is swept across
    it; each row holds the sorted eigenvalues at one sweep point.
    """
    offsets = np.asarray(qubit_offsets_mhz, dtype=float).reshape(-1) * MHZ
    h = np.repeat(sector_hamiltonian(p)[None], offsets.size, axis=0)
    h[:, -1, -1] = offsets  # the qubit's ket is the sector's last
    return np.linalg.eigvalsh(h) / MHZ


def decay_population(p: MultimodeParams, rho0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The qubit's excited population on ``grid`` (ns) under the ladder's
    master equation -i [H, rho] + kappa_a sum_j D[a_j] rho, H as in
    ``sector_hamiltonian``, from the state ``rho0`` on the one-excitation
    sector, in that function's ket order.

    A jump takes the one excitation to the vacuum, which H leaves alone,
    so the one-excitation block rho_1 evolves without jumps as
    U rho_1 U^+, U(t) = exp(-i H_eff t), H_eff = H - i kappa_a/2 sum_j n_j
    (Dalibard, Castin and Molmer, PRL 68, 580 (1992); Plenio and Knight,
    RMP 70, 101 (1998)), and P_e(t) = (U rho_1 U^+)_qq exactly.  One
    eigendecomposition H_eff = V Lambda V^-1 gives the qubit's row
    u_q(t) = V_q exp(-i Lambda t) V^-1 of U at every grid time.
    """
    h_eff = sector_hamiltonian(p)
    modes = np.arange(p.n_a)
    h_eff[modes, modes] -= 1j * (0.5 * p.kappa_a * 1e-3)  # kappa_a in 1/us
    lam, v = np.linalg.eig(h_eff)
    # the qubit's ket is the sector's last
    rows = (v[-1] * np.exp(-1j * np.multiply.outer(grid, lam))) @ np.linalg.inv(v)
    return ((rows @ rho0) * rows.conj()).sum(axis=1).real


class GoldenRule(NamedTuple):
    rate: float  # energy decay, 1/ns
    inverse_ns: float


def golden_rule_kappa(g_mhz: float, fsr_mhz: float) -> GoldenRule:
    """Single-mode emission rate into the mode ladder.

    The coupling enters as an angular rate and the mode spacing as a
    linear frequency, which is the combination that reproduces the
    measured 1/kappa values.
    """
    if fsr_mhz <= 0:
        raise ValidationError("fsr must be positive")
    rate = (g_mhz * MHZ) ** 2 / (fsr_mhz * 1e-3)
    return GoldenRule(rate, np.inf if rate == 0 else 1.0 / rate)


def efficiency_bound(tau_ns: float, T1_saw_us: float) -> float:
    """Upper bound on transfer efficiency from propagation loss alone."""
    if T1_saw_us <= 0:
        raise ValidationError("T1_saw must be positive")
    return float(np.exp(-tau_ns / (T1_saw_us * 1e3)))


def _laguerre(n: int, x: np.ndarray) -> np.ndarray:
    """Laguerre polynomial L_n, n >= 0, by the three-term recurrence."""
    lk = np.ones_like(x)
    if n == 0:
        return lk
    lk1 = 1.0 - x
    for k in range(1, n):
        lk, lk1 = lk1, ((2 * k + 1 - x) * lk1 - k * lk) / (k + 1)
    return lk1


def laguerre_amplitude(t: np.ndarray, p: MultimodeParams) -> np.ndarray:
    """Analytical qubit excited-state amplitude A_e(t) for the mode ladder,
    at each time of the array ``t``.

    Echo n arrives after n transit times; its envelope is a Laguerre
    difference in kappa*(t - n*tau).  The stored emission rate is an
    energy rate, so the amplitude exponents carry kappa/2, and channel
    loss contributes one factor exp(-kappa_a*tau/2) per transit.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValidationError("t must be >= 0")
    kappa = golden_rule_kappa(p.g, p.fsr).rate
    tau = p.tau_ns
    ka = p.kappa_a * 1e-3  # 1/ns
    out = np.zeros(t_arr.shape, dtype=complex)
    n_max = int(np.floor(t_arr.max() / tau + 1e-12))
    for n in range(n_max + 1):
        s = t_arr - n * tau
        mask = s >= 0
        x = kappa * s[mask]
        script = _laguerre(n, x) - _laguerre(n - 1, x) if n else _laguerre(0, x)
        out[mask] += np.exp(-n * tau * ka / 2.0) * np.exp(-x / 2.0) * script
    return out


_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)  # MINPACK's dpmpar
_TOL, _MAXFEV = 1.49012e-8, 10000  # leastsq's ftol = xtol, and the fit's maxfev


def _fdjac(fcn, x, fvec):
    """fdjac2's forward differences, J's columns as rows: row j is
    (fcn(x + h_j e_j) - fvec) / h_j, h_j = sqrt(eps) |x_j|, or sqrt(eps) at
    x_j = 0.  The n points go to ``fcn`` as one batch, each parameter an
    (n, 1) column, with the same elementwise arithmetic."""
    n = len(x)
    h = [math.sqrt(_EPS) * abs(v) or math.sqrt(_EPS) for v in x]
    pts = np.array([[v + h[i] if i == j else v for j in range(n)] for i, v in enumerate(x)] + [h])
    return (fcn(*pts[:n, :, None]) - fvec) / pts[n][:, None]


def _qrfac(jac, fvec):
    """qrfac with column pivoting for J's columns, the rows of ``jac``: R
    as nested lists, the first n entries of Q^T fvec, the pivot order and
    the column norms.  The next pivot, the column of largest norm
    orthogonal to those taken, is the largest diagonal entry of the Gram
    matrix's Schur complement; one Householder QR of [J P, fvec] gives both."""
    n = len(jac)
    g = (jac @ jac.T).tolist()
    acnorm, ipvt = [math.sqrt(g[j][j]) for j in range(n)], list(range(n))
    for j in range(n):
        k = max(range(j, n), key=lambda i: g[ipvt[i]][ipvt[i]])
        ipvt[j], ipvt[k] = ipvt[k], ipvt[j]
        gp = g[ipvt[j]]
        for i in ipvt[j + 1 :]:
            c = g[i][ipvt[j]] / gp[ipvt[j]] if gp[ipvt[j]] > 0 else 0.0
            g[i] = [gi - c * gk for gi, gk in zip(g[i], gp)]
    h = np.linalg.qr(np.vstack((jac[ipvt], fvec)).T, mode="raw")[0][:, :n].tolist()
    return [[h[k][i] if k >= i else 0.0 for k in range(n)] for i in range(n)], h[n], ipvt, acnorm


def _solve(t, b, ipvt):
    """x with P^T x solving T P^T x = b, T an upper triangle (nested lists);
    from the first 0 on T's diagonal on, P^T x is 0 (least squares)."""
    k = next((j for j in range(len(b)) if t[j][j] == 0), len(b))
    z = list(b[:k]) + [0.0] * (len(b) - k)
    for j in reversed(range(k)):
        z[j] = (z[j] - sum(t[j][i] * z[i] for i in range(j + 1, k))) / t[j][j]
    return [z[ipvt.index(l)] for l in range(len(b))]


def _newton(t, ipvt, diag, wa2, dxnorm):
    """|y| for T^T y = P^T D wa2 / |wa2|, wa2 = D x, the slope in lmpar's Newton steps."""
    y = []
    for j, l in enumerate(ipvt):
        y.append((diag[l] * (wa2[l] / dxnorm) - sum(t[i][j] * y[i] for i in range(j))) / t[j][j])
    return math.hypot(*y)


def _lmpar(r, ipvt, diag, qtb, delta, par):
    """lmpar: the step x and the Levenberg-Marquardt parameter that puts
    |D x| within 10 % of ``delta`` (0 if the Gauss-Newton step is inside).
    qrsolv's Givens reduction of [R, qtb; D P, 0] is one Householder QR."""
    n, x = len(qtb), _solve(r, qtb, ipvt)
    wa2 = [d * v for d, v in zip(diag, x)]
    dxnorm = math.hypot(*wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    parl = 0.0  # the Newton step's lower bound, unless R is singular
    if all(r[j][j] for j in range(n)):
        y = _newton(r, ipvt, diag, wa2, dxnorm)
        parl = ((fp / delta) / y) / y
    gnorm = math.hypot(*[sum(r[i][j] * qtb[i] for i in range(j + 1)) / diag[l]
                         for j, l in enumerate(ipvt)])
    paru = gnorm / delta or _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / dxnorm
    a = np.zeros((2 * n, n + 1))
    a[:n, :n], a[:n, n] = r, qtb
    for it in range(1, 11):
        par = par or max(_TINY, 0.001 * paru)
        a[range(n, 2 * n), range(n)] = [math.sqrt(par) * diag[l] for l in ipvt]
        s = np.linalg.qr(a, mode="r")[:n].tolist()
        x = _solve(s, [row[n] for row in s], ipvt)
        wa2 = [d * v for d, v in zip(diag, x)]
        dxnorm = math.hypot(*wa2)
        temp, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or parl == 0 and fp <= temp < 0 or it == 10:
            break
        y = _newton(s, ipvt, diag, wa2, dxnorm)
        parl = max(parl, par) if fp > 0 else parl
        paru = min(paru, par) if fp < 0 else paru
        par = max(parl, par + ((fp / delta) / y) / y)
    return par, x


def _lmdif(fcn, x0):
    """MINPACK's lmdif (More, LNM 630, 1978) as scipy's leastsq runs it for
    a curve fit: forward differences, D the running max of the column norms
    (mode 1), first step bound 100 |D x0|, ftol = xtol = _TOL, gtol = 0.
    ``fcn(*params)`` takes a point of floats or n points as (n, 1) columns.
    Returns x, info (1 to 4 is convergence) and the points evaluated."""
    x, n = [float(v) for v in x0], len(x0)
    fvec = fcn(*x)
    nfev, fnorm, par, it = 1, math.sqrt(fvec @ fvec), 0.0, 1
    while True:
        r, qtf, ipvt, acnorm = _qrfac(_fdjac(fcn, x, fvec), fvec)
        nfev += n
        if it == 1:
            diag = [c or 1.0 for c in acnorm]
            xnorm = math.hypot(*[d * v for d, v in zip(diag, x)])
            delta = 100.0 * xnorm or 100.0
        gnorm = 0.0
        for j, l in enumerate(ipvt if fnorm else ()):  # the scaled gradient
            if acnorm[l]:
                gnorm = max(gnorm, abs(sum(r[i][j] * (qtf[i] / fnorm) for i in range(j + 1)) / acnorm[l]))
        if gnorm <= 0.0:
            return x, 4, nfev
        diag = [max(d, c) for d, c in zip(diag, acnorm)]
        while True:
            par, p = _lmpar(r, ipvt, diag, qtf, delta, par)
            x1 = [v - s for v, s in zip(x, p)]
            pnorm = math.hypot(*[d * s for d, s in zip(diag, p)])
            delta = min(delta, pnorm) if it == 1 else delta
            f1, nfev = fcn(*x1), nfev + 1
            fnorm1 = math.sqrt(f1 @ f1)
            actred = 1.0 - (fnorm1 / fnorm) * (fnorm1 / fnorm) if 0.1 * fnorm1 < fnorm else -1.0
            wa3 = [0.0] * n  # R P^T p, for the predicted reduction
            for j, l in enumerate(ipvt):
                for i in range(j + 1):
                    wa3[i] += r[i][j] * p[l]
            temp1, temp2 = math.hypot(*wa3) / fnorm, (math.sqrt(par) * pnorm) / fnorm
            prered, dirder = temp1 * temp1 + temp2 * temp2 / 0.5, -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                temp = 0.1 if 0.1 * fnorm1 >= fnorm or temp < 0.1 else temp
                delta, par = temp * min(delta, pnorm / 0.1), par / temp
            elif par == 0 or ratio >= 0.75:
                delta, par = pnorm / 0.5, 0.5 * par
            if ratio >= 1e-4:
                x, fvec, fnorm, it = x1, f1, fnorm1, it + 1
                xnorm = math.hypot(*[d * v for d, v in zip(diag, x)])
            small = abs(actred) <= _TOL and prered <= _TOL and 0.5 * ratio <= 1
            if small or delta <= _TOL * xnorm:
                return x, (3 if small else 2) if delta <= _TOL * xnorm else 1, nfev
            if (nfev >= _MAXFEV or delta <= _EPS * xnorm or gnorm <= _EPS
                    or abs(actred) <= _EPS and prered <= _EPS and 0.5 * ratio <= 1):
                return x, 5, nfev
            if ratio >= 1e-4:
                break


def revival_onset(times: np.ndarray, pe: np.ndarray) -> float:
    """Onset of the first revival: where P_e departs from its decay law.

    The window should span roughly twice the expected echo time, with
    the revival in its second half.  The decay-law reference is fitted
    to the first 45% of the window (this absorbs the slight rate offset
    a truncated mode ladder shows against the ideal golden-rule value);
    the departure from it is located at its peak, and a hinged
    quadratic max(0, t - t0) * (a + b (t - t0)) is fitted across the
    foot of the rising edge.  The hinge position t0 is the onset.  The
    zero floor anchors the fit against ripple and the b term absorbs
    edge curvature, so concave (weak-coupling) and convex
    (strong-coupling) revival edges are timed consistently.

    The fit is ``_lmdif``, scipy's leastsq run, from (t10, d35 / edge, 0).
    It keeps that run's local optimum on purpose: the global one moves two
    benchmark references by 7.5e-4 relative (the FOUND on the hinge fit's
    local optimum in CHANGES.md).
    """
    times = np.asarray(times, dtype=float)
    pe = np.asarray(pe, dtype=float)
    head = slice(0, int(0.45 * len(times)))
    usable = pe[head] > 1e-10
    if usable.sum() < 10:
        raise ValidationError("not enough pre-revival samples to fit the decay law")
    slope, intercept = np.polyfit(times[head][usable], np.log(pe[head][usable]), 1)
    dev = np.abs(pe - np.exp(intercept + slope * times))
    half = len(times) // 2
    i_pk = half + int(np.argmax(dev[half:]))
    peak = dev[i_pk]
    if peak <= 0:
        raise ValidationError("no revival found on the given window")
    i10 = i_pk
    while i10 > 0 and dev[i10 - 1] >= 0.10 * peak:
        i10 -= 1
    i35 = i10
    while i35 < i_pk and dev[i35] <= 0.35 * peak:
        i35 += 1
    if i35 - i10 < 3:
        raise ValidationError("revival edge too steep for the sampling grid")
    edge_len = times[i35] - times[i10]
    i_lo = int(np.searchsorted(times, times[i10] - 3.0 * edge_len))
    t_fit, d_fit = times[i_lo : i35 + 1], dev[i_lo : i35 + 1]

    def residuals(t0, a, b):
        u = np.maximum(t_fit - t0, 0.0)
        return u * (a + b * u) - d_fit

    x, info, _ = _lmdif(residuals, (times[i10], dev[i35] / max(edge_len, 1e-9), 0.0))
    if info > 4:
        raise ValidationError("revival edge fit did not converge on the given window")
    return x[0]
