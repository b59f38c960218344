"""Frequency-domain model of the acoustic hardware.

Phenomenological closed forms for the transducer emission spectrum
(array factor), the Bragg-mirror stop-band (coupling-of-modes grating
reflectance), the round-trip transit time, and the propagation-loss
budget.  These produce the channel inputs (tau, kappa(f), T1_saw) that
the dynamics modules consume; the full electromechanical circuit model
they stand in for is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MODEL_WINDOW_GHZ = (3.5, 4.5)


@dataclass(frozen=True)
class Grating:
    """Periodic metal-line array: a Bragg mirror or a transducer."""

    pitch_um: float
    cells: int
    reflectivity: complex
    speed_km_s: float

    def __post_init__(self):
        if self.pitch_um <= 0 or self.speed_km_s <= 0:
            raise ValidationError("grating pitch and speed must be positive")
        if self.cells <= 0:
            raise ValidationError("grating needs at least one cell")
        if abs(self.reflectivity) >= 1:
            raise ValidationError("per-line reflectivity magnitude must be < 1")


@dataclass(frozen=True)
class FreeSpace:
    """Unmetallized propagation region between mirrors and transducer."""

    speed_km_s: float
    loss_np_m: float

    def __post_init__(self):
        if self.speed_km_s <= 0:
            raise ValidationError("propagation speed must be positive")
        if self.loss_np_m < 0:
            raise ValidationError("propagation loss cannot be negative")


@dataclass(frozen=True)
class SawGeometry:
    """As-built acoustic layout.

    ``band_center_ghz`` is the measured stop-band center; the mirror
    speed/pitch ratio predicts a slightly different value, so the
    measured one is stored explicitly and used by the COM reflectance.
    """

    mirror: Grating
    idt: Grating
    free: FreeSpace
    eff_mirror_distance_um: float
    band_center_ghz: float
    penetration_delay_ns: float = 5.0

    def __post_init__(self):
        if self.eff_mirror_distance_um <= 0:
            raise ValidationError("mirror distance must be positive")
        if self.band_center_ghz <= 0:
            raise ValidationError("band center must be positive")

    @property
    def idt_center_ghz(self) -> float:
        """Transducer synchronous frequency, speed over pitch."""
        return self.idt.speed_km_s / self.idt.pitch_um


def default_geometry() -> SawGeometry:
    """Measured parameters of the device this package models."""
    return SawGeometry(
        mirror=Grating(pitch_um=0.5, cells=400, reflectivity=-0.049j,
                       speed_km_s=3.928),
        idt=Grating(pitch_um=0.985, cells=20, reflectivity=0.009j,
                    speed_km_s=3.911),
        free=FreeSpace(speed_km_s=4.034, loss_np_m=70.0),
        eff_mirror_distance_um=2029.6,
        band_center_ghz=3.97,
    )


def check_window(f_ghz: np.ndarray):
    """Raise unless every frequency (GHz) of ``f_ghz`` lies in MODEL_WINDOW_GHZ."""
    lo, hi = MODEL_WINDOW_GHZ
    if np.any(f_ghz < lo) or np.any(f_ghz > hi):
        raise ValidationError(
            f"frequency outside the {lo}-{hi} GHz window the model is fit for"
        )


def idt_rate_spectrum(f_ghz: np.ndarray, g: SawGeometry, kappa_max: float) -> np.ndarray:
    """Qubit emission rate (1/ns) at each frequency of the array ``f_ghz``.

    The transducer array factor kappa_max * [sin(X)/X]^2 with
    X = N * pi * (f - f0) / f0; the peak sits at the synchronous
    frequency f0 and the first null at f0 * (1 + 1/N).
    """
    if kappa_max < 0:
        raise ValidationError("kappa_max cannot be negative")
    f = np.asarray(f_ghz, dtype=float)
    check_window(f)
    f0 = g.idt_center_ghz
    x = g.idt.cells * (f - f0) / f0  # sinc argument in units of pi
    return kappa_max * np.sinc(x) ** 2


def mirror_stopband(f_ghz: np.ndarray, g: SawGeometry) -> np.ndarray:
    """Mirror power reflectance in [0, 1] at each frequency of the array
    ``f_ghz``, from the COM grating closed form.

    Per-cell detuning delta = pi*(f - fc)/fc against per-line coupling
    |r|; inside the band (|delta| < |r|) the response saturates as
    tanh^2, outside it falls off in sidelobes.  One complex branch
    covers both regimes.
    """
    f = np.asarray(f_ghz, dtype=float)
    check_window(f)
    r = abs(g.mirror.reflectivity)
    n = g.mirror.cells
    fc = g.band_center_ghz
    delta = np.pi * (f - fc) / fc
    s = np.sqrt(r**2 - delta**2 + 0j)
    num = np.abs(r * np.sinh(n * s)) ** 2
    den = np.abs(s * np.cosh(n * s) + 1j * delta * np.sinh(n * s)) ** 2
    with np.errstate(invalid="ignore"):
        refl = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.tanh(n * r) ** 2)
    return np.clip(refl, 0.0, 1.0)  # shave float noise off the unit ceiling


def stopband_width_mhz(g: SawGeometry) -> float:
    """Full stop-band width from the COM edge condition |delta| = |r|."""
    return 2e3 * g.band_center_ghz * abs(g.mirror.reflectivity) / np.pi


def transit_time(g: SawGeometry) -> float:
    """Single-pass travel time in ns: geometric length over free speed,
    plus the grating penetration delay."""
    return g.eff_mirror_distance_um / g.free.speed_km_s + g.penetration_delay_ns


def fsr_mhz(g: SawGeometry) -> float:
    """Free spectral range, the inverse transit time."""
    return 1e3 / transit_time(g)


@dataclass(frozen=True)
class LossBudget:
    t1_saw_us: float
    q_factor: float


def loss_budget(g: SawGeometry, f_ghz: float) -> LossBudget:
    """Propagation-loss figures at a given frequency.

    Amplitude loss alpha (Np/m) gives the energy decay rate
    2*alpha*v, hence T1_saw = 1/(2*alpha*v); Q = 2*pi*f*T1_saw.
    """
    check_window(np.asarray(f_ghz, dtype=float))
    alpha = g.free.loss_np_m
    if alpha <= 0:
        raise ValidationError("loss budget needs a positive propagation loss")
    speed_m_s = g.free.speed_km_s * 1e3
    t1_us = 1e6 / (2 * alpha * speed_m_s)
    q = 2 * np.pi * f_ghz * 1e9 * t1_us * 1e-6
    return LossBudget(t1_saw_us=t1_us, q_factor=float(q))
