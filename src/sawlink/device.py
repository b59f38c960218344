"""Measured device parameters and the models derived from them.

One frozen bundle of the as-calibrated numbers (coherence times,
readout fidelities, couplings, channel efficiency and delay) plus
helpers that turn them into the noise (``QubitNoise``), readout, and
channel objects the simulation modules consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .ioshape import ChannelParams
from .sawphys import SawGeometry, default_geometry
from .tomo import ReadoutModel


@dataclass(frozen=True)
class QubitNoise:
    """Intrinsic lifetime (us) and pure-dephasing rate (1/us) of one qubit."""

    T1_int: float | None = None
    gamma_phi: float = 0.0

    def __post_init__(self):
        if self.T1_int is not None and self.T1_int <= 0:
            raise ValidationError("T1_int must be positive")
        if self.gamma_phi < 0:
            raise ValidationError("gamma_phi must be >= 0")

    @property
    def relax_rate(self) -> float:
        """Energy relaxation rate, 1/ns."""
        return 0.0 if self.T1_int is None else 1.0 / (self.T1_int * 1e3)

    @property
    def dephase_rate(self) -> float:
        """Pure-dephasing rate, 1/ns."""
        return self.gamma_phi * 1e-3


def dephasing_rate(T2R: float, T1_int: float) -> float:
    """Pure-dephasing rate (1/us) from Ramsey and intrinsic-lifetime inputs."""
    if T2R <= 0 or T1_int <= 0:
        raise ValidationError("coherence times must be positive")
    rate = 1.0 / T2R - 1.0 / (2.0 * T1_int)
    if rate < 0:
        raise ValidationError(
            f"T2R = {T2R} us exceeds the 2*T1 = {2 * T1_int} us limit; inputs inconsistent"
        )
    return rate


@dataclass(frozen=True)
class QubitParams:
    """Per-qubit calibration values.

    ``kappa_inv_ns`` is the inverse of the maximum phonon emission
    rate (the shortest achievable 1/e decay time into the channel);
    ``g_mhz`` is the coupling to one standing mode at that bias.
    """

    T1_int_us: float
    T2R_us: float
    F_g: float
    F_e: float
    g_mhz: float
    kappa_inv_ns: float

    def __post_init__(self):
        if self.T1_int_us <= 0 or self.T2R_us <= 0:
            raise ValidationError("coherence times must be positive")
        if self.g_mhz <= 0 or self.kappa_inv_ns <= 0:
            raise ValidationError("couplings must be positive")

    def noise(self) -> QubitNoise:
        return QubitNoise(
            T1_int=self.T1_int_us,
            gamma_phi=dephasing_rate(self.T2R_us, self.T1_int_us),
        )


@dataclass(frozen=True)
class DeviceParams:
    """The full device: two qubits plus the acoustic channel."""

    q1: QubitParams
    q2: QubitParams
    eta: float = 0.67
    tau_ns: float = 508.12
    t1_saw_us: float = 1.2
    geometry: SawGeometry = field(default_factory=default_geometry)

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise ValidationError("eta is a fraction")
        if self.tau_ns <= 0 or self.t1_saw_us <= 0:
            raise ValidationError("tau and t1_saw must be positive")

    @property
    def qubits(self) -> tuple[QubitParams, QubitParams]:
        return (self.q1, self.q2)

    def noise_pair(self) -> tuple[QubitNoise, QubitNoise]:
        return (self.q1.noise(), self.q2.noise())

    def channel(self, eta: float | None) -> ChannelParams:
        """The channel at transmission ``eta``; None takes the device's."""
        return ChannelParams(eta=self.eta if eta is None else float(eta), tau=self.tau_ns)

    def readout(self) -> ReadoutModel:
        return ReadoutModel(((self.q1.F_g, self.q1.F_e), (self.q2.F_g, self.q2.F_e)))


def default_device() -> DeviceParams:
    """Calibration table of the device this package models."""
    return DeviceParams(
        q1=QubitParams(T1_int_us=21.7, T2R_us=2.10, F_g=0.969, F_e=0.933,
                       g_mhz=2.57, kappa_inv_ns=7.6),
        q2=QubitParams(T1_int_us=26.1, T2R_us=0.60, F_g=0.977, F_e=0.952,
                       g_mhz=2.16, kappa_inv_ns=10.6),
    )
