"""Qubit coupled to the ladder of resonator modes.

Builds the one-excitation block of the multi-mode exchange Hamiltonian
directly, sweeps its spectrum, evolves the qubit's decay into the lossy
ladder exactly in that block, and evaluates the analytical echo series
for the qubit amplitude, the independent oracle for that evolution.  The
module needs numpy alone; the revival fit imports scipy.optimize when
called.
"""

from __future__ import annotations

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
    return np.einsum("ti,ij,tj->t", rows, rho0, rows.conj()).real


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
    """
    from scipy.optimize import curve_fit  # here, so the module needs numpy alone
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

    def hinge(t, t0, a, b):
        u = np.maximum(t - t0, 0.0)
        return u * (a + b * u)

    p0 = (times[i10], dev[i35] / max(edge_len, 1e-9), 0.0)
    try:
        popt, _ = curve_fit(hinge, t_fit, d_fit, p0=p0, maxfev=10000)
    except RuntimeError:
        raise ValidationError("revival edge fit did not converge on the given window") from None
    return float(popt[0])
