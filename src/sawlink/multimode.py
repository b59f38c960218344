"""Qubit coupled to the ladder of resonator modes.

Builds the multi-mode exchange Hamiltonian on an excitation-capped
space, sweeps its single-excitation spectrum, and evaluates the
analytical echo series for the qubit amplitude, which serves as the
independent oracle for the master-equation integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .ioshape import MHZ
from .qcore import (
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    HilbertSpace,
    embed,
    embed_product,
)


@dataclass(frozen=True)
class MultimodeParams:
    """Qubit + mode-ladder parameters.

    Frequencies (g, fsr, delta0) are linear MHz; kappa_a is the mode
    energy decay rate in 1/us.  The transit time is the inverse free
    spectral range and is always derived, never stored separately.
    """

    g: float
    n_a: int = 8
    fsr: float = 1.97
    delta0: float = 0.0
    kappa_a: float = 0.0

    def __post_init__(self):
        if self.n_a < 1:
            raise ValidationError("n_a must be >= 1")
        if self.fsr <= 0:
            raise ValidationError("fsr must be positive")
        if self.kappa_a < 0:
            raise ValidationError("kappa_a must be >= 0")

    @property
    def tau_ns(self) -> float:
        return 1e3 / self.fsr

    @property
    def mode_labels(self) -> tuple[str, ...]:
        return tuple(f"m{j}" for j in range(self.n_a))

    def mode_detunings(self) -> np.ndarray:
        """Mode offsets from the qubit in rad/ns; one mode sits at delta0."""
        j0 = (self.n_a - 1) // 2
        j = np.arange(self.n_a)
        return (self.delta0 + (j - j0) * self.fsr) * MHZ


def build_space(p: MultimodeParams) -> HilbertSpace:
    """The qubit and the ladder, capped at one excitation."""
    return HilbertSpace([2] * (1 + p.n_a), ("q",) + p.mode_labels, excitation_cap=1)


def jc_hamiltonian(p: MultimodeParams, space: HilbertSpace) -> np.ndarray:
    """Exchange Hamiltonian sum_j Delta_j n_j + g (sp a_j + sm a_j^+), rad/ns,
    on ``build_space(p)``, as a read-only array."""
    g = p.g * MHZ
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for label, delta in zip(p.mode_labels, p.mode_detunings()):
        h += delta * embed(NUMBER, label, space)
        swap = embed_product({"q": SIGMA_PLUS, label: SIGMA_MINUS}, space)
        h += g * (swap + swap.conj().T)
    h.setflags(write=False)
    return h


def spectrum(p: MultimodeParams, qubit_offsets_mhz: Sequence[float]) -> np.ndarray:
    """Single-excitation eigenvalues (MHz) versus qubit frequency offset.

    The mode ladder stays fixed while the qubit level is swept across
    it; each row holds the sorted eigenvalues at one sweep point.
    """
    space = build_space(p)
    sector = np.flatnonzero(space.basis.sum(axis=1) == 1)
    base = jc_hamiltonian(p, space)
    nq = embed(NUMBER, "q", space)
    out = np.empty((len(qubit_offsets_mhz), len(sector)))
    for k, off in enumerate(qubit_offsets_mhz):
        h = base + off * MHZ * nq
        out[k] = np.linalg.eigvalsh(h[np.ix_(sector, sector)]) / MHZ
    return out


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
    """Laguerre polynomial L_n by the three-term recurrence."""
    if n < 0:
        return np.zeros_like(x)
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
    phase = p.delta0 * MHZ * tau
    out = np.zeros(t_arr.shape, dtype=complex)
    n_max = int(np.floor(t_arr.max() / tau + 1e-12))
    for n in range(n_max + 1):
        s = t_arr - n * tau
        mask = s >= 0
        x = kappa * s[mask]
        script = _laguerre(n, x) - _laguerre(n - 1, x) if n else _laguerre(0, x)
        out[mask] += (
            np.exp(-1j * n * phase)
            * np.exp(-n * tau * ka / 2.0)
            * np.exp(-x / 2.0)
            * script
        )
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
    popt, _ = curve_fit(hinge, t_fit, d_fit, p0=p0, maxfev=10000)
    return float(popt[0])
