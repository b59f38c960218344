"""Amplitude-level model of shaped release and capture through the line.

Each qubit couples to the traveling field with a programmable rate
kappa_i(t); the output of one transit feeds back as the input of the
next after the delay tau, attenuated by sqrt(eta) and rotated by the
per-transit phase.  This single-excitation picture is the fast path
for efficiency and interference sweeps; density-matrix experiments
live in `cascade`.  The module needs numpy alone.

A coupling segment releases the fraction alpha of the stored excitation
(alpha = 1 empties the qubit) or captures it, the release with the same
alpha mirrored in time; a detune segment shifts the qubit.  The shape is
written once, with a float form (``math``) for the cascade's per-call
schedule lookups and an array form (numpy) for the delay loop's grid.

The delay loop is fixed-step RK4 with the step nodes and the step
midpoints in separate contiguous arrays.  The step maps, which depend
on the schedule alone, are built once per call; each round trip then
only forms its input offsets, composes its steps with a log-depth scan
and evaluates its outputs.

Classical phase noise is drawn per realization from the Philox stream
keyed by (master seed, realization index); being counter-based, a stream
is fixed by its key, so one generator re-keyed per realization gives the
same bits as a fresh one, and repeated runs are bit-identical.  The
interference experiment draws the phases once per call and takes the
exact mean of the final population over them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import IntegrationError, RoleAmbiguityError, ValidationError

MHZ = 2e-3 * np.pi  # linear MHz -> rad/ns
DETUNE_PULSE_MHZ = 20.0  # fixed detuning used to dial in a relative phase

SEGMENT_KINDS = ("release", "capture", "detune")


@dataclass(frozen=True)
class ChannelParams:
    """One-transit channel: power transmission, delay, and phase."""

    eta: float
    tau: float  # ns
    phase: float = 0.0  # rad per transit

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"eta = {self.eta} outside [0, 1]")
        if self.tau <= 0:
            raise ValidationError("tau must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian classical phase noise shared by a set of realizations."""

    sigma_phi: float  # rad
    n_realizations: int = 1024
    master_seed: int = 0

    def __post_init__(self):
        if self.sigma_phi < 0:
            raise ValidationError("sigma_phi must be >= 0")
        if self.n_realizations < 1:
            raise ValidationError("n_realizations must be >= 1")
        seed = self.master_seed
        # the seed is the high word of each realization's 128-bit Philox key
        if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
            raise ValidationError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")


def realization_phases(noise: NoiseSpec) -> np.ndarray:
    """Per-realization Gaussian phases, reproducible from the master seed.

    Realization i draws from the Philox stream keyed (master_seed, i) with
    its counter at zero.  Philox is counter-based, so a stream is fixed by
    its key alone: one generator is re-keyed through its ``state`` for
    each realization instead of being built anew.
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state  # a fresh stream's: counter at zero, nothing buffered
    key = state["state"]["key"]  # (index, seed), the low word first
    key[1] = noise.master_seed
    phases = np.empty(noise.n_realizations)
    for i in range(noise.n_realizations):
        key[0] = i
        bits.state = state
        phases[i] = rng.normal(0.0, noise.sigma_phi)
    return phases


_X_MAX = 700.0  # e^{-700} is still a normal double


def _release(x, alpha: float):
    """Release shape kappa / kappa_c at x = kappa_c (t - t_mid), emitting a
    fraction alpha; alpha = 1 is the full release and a capture is the
    release at -x.

    One formula for both forms: a float x is evaluated with ``math`` and
    an array with numpy.  In e = e^{-|x|}, (lo, hi) is (e, 1) after the
    midpoint and (1, e) before it, which keeps each side overflow-safe;
    e stops short of underflow so that at alpha = 1 the late side reads
    e / e, not 0 / 0.
    """
    if isinstance(x, float):
        e = math.exp(-min(abs(x), _X_MAX))
        lo, hi = (e, 1.0) if x > 0.0 else (1.0, e)
    else:
        e = np.exp(-np.minimum(np.abs(x), _X_MAX))
        lo, hi = np.where(x > 0.0, e, 1.0), np.where(x > 0.0, 1.0, e)
    return alpha * e / ((lo + (1.0 - alpha) * hi) * (1.0 + e))


@dataclass(frozen=True)
class Segment:
    """One control interval on one qubit.

    A ``release`` emits the fraction ``alpha`` of the stored excitation
    (alpha = 1 empties the qubit) and a ``capture`` is the release with
    the same alpha mirrored in time, the absorber matched to its packet.
    Both are centered on the segment midpoint, so a release peaks its
    packet there and the matching capture must be scheduled one transit
    later.  A ``detune`` shifts the qubit by ``f_mhz``; at 0 MHz it idles.
    Each kind takes only the fields it reads: a coupling leaves ``f_mhz``
    at 0, and a detune leaves ``kappa_c`` at 0 and ``alpha`` at 1.
    """

    kind: str
    qubit: int
    t_start: float
    duration: float
    kappa_c: float = 0.0
    alpha: float = 1.0
    f_mhz: float = 0.0

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ValidationError(f"unknown segment kind {self.kind!r}")
        if self.qubit not in (1, 2):
            raise ValidationError("qubit must be 1 or 2")
        if self.duration <= 0:
            raise ValidationError("duration must be positive")
        if self.couples and not (self.kappa_c > 0 and 0.0 < self.alpha <= 1.0):
            raise ValidationError(f"{self.kind} segment needs kappa_c > 0 and alpha in (0, 1]")
        if self.couples and self.f_mhz != 0.0:
            raise ValidationError(f"{self.kind} segment takes no f_mhz")
        if not self.couples and (self.kappa_c != 0.0 or self.alpha != 1.0):
            raise ValidationError("detune segment takes no kappa_c or alpha")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    @property
    def couples(self) -> bool:
        return self.kind != "detune"

    def kappa(self, t):
        """Coupling rate (1/ns) at t: a float for a float t, else an array."""
        x = self.kappa_c * (t - (self.t_start + self.duration / 2.0))
        return self.kappa_c * _release(-x if self.kind == "capture" else x, self.alpha)

    def delta(self, t):
        """Detuning (rad/ns) at t: a float for a float t, else an array."""
        return 0.0 * t + self.f_mhz * MHZ


def time_reverse(segment: Segment) -> Segment:
    """Reflect a segment's coupling shape about its own midpoint."""
    flip = {"release": "capture", "capture": "release"}
    return replace(segment, kind=flip.get(segment.kind, segment.kind))


@dataclass(frozen=True)
class ControlSchedule:
    segments: tuple[Segment, ...]
    window: tuple[float, float]

    def __init__(self, segments: Sequence[Segment], window: tuple[float, float]):
        segs = tuple(segments)
        if not segs:
            raise ValidationError("schedule needs at least one segment")
        if window[1] <= window[0]:
            raise ValidationError("window must have positive length")
        # coupling exclusivity: the two qubits never talk to the line at once
        coupled = [s for s in segs if s.couples]
        for a in coupled:
            for b in coupled:
                if a.qubit != b.qubit and a.t_start < b.t_end and b.t_start < a.t_end:
                    raise RoleAmbiguityError(
                        f"overlapping couplings: {a.kind} on qubit {a.qubit} and "
                        f"{b.kind} on qubit {b.qubit}"
                    )
        # no overlapping segments of any kind on one qubit
        couplings, detunes = {}, {}
        for q in (1, 2):
            mine = sorted((s for s in segs if s.qubit == q), key=lambda s: s.t_start)
            for a, b in zip(mine[:-1], mine[1:]):
                if b.t_start < a.t_end - 1e-12:
                    raise ValidationError(f"overlapping segments on qubit {q}")
            for table, c in ((couplings, True), (detunes, False)):
                part = tuple(s for s in mine if s.couples == c)
                table[q] = (tuple(s.t_start for s in part), tuple(s.t_end for s in part), part)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "window", (float(window[0]), float(window[1])))
        object.__setattr__(self, "_couplings", couplings)
        object.__setattr__(self, "_detunes", detunes)

    @staticmethod
    def _lookup(ordered: tuple, t, value):
        """Sum of ``value(segment, t)`` over the segments holding t; a float for a scalar t."""
        starts, ends, found = ordered
        if isinstance(t, float) or np.ndim(t) == 0:
            t = float(t)
            i = bisect_right(starts, t)
            out = 0.0
            # segments are disjoint up to the 1e-12 ns slack allowed above;
            # inside such a sliver both count, as on the array form
            while i and t < ends[i - 1]:
                i -= 1
                out += value(found[i], t)
            return out
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for s in found:
            mask = (t >= s.t_start) & (t < s.t_end)
            if mask.any():
                out[mask] += value(s, t[mask])
        return out

    def kappa(self, qubit: int, t) -> np.ndarray | float:
        """Coupling rate of one qubit (1/ns); a float for a scalar ``t``."""
        return self._lookup(self._couplings[qubit], t, Segment.kappa)

    def delta(self, qubit: int, t) -> np.ndarray | float:
        """Detuning of one qubit (rad/ns); a float for a scalar ``t``."""
        return self._lookup(self._detunes[qubit], t, Segment.delta)

    def max_kappa(self) -> float:
        return max((s.kappa_c for s in self.segments if s.couples), default=0.0)

    def breakpoints(self) -> np.ndarray:
        pts = sorted({s.t_start for s in self.segments} | {s.t_end for s in self.segments})
        return np.array(pts)


@dataclass(frozen=True)
class IOTrace:
    times: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    a_in: np.ndarray
    a_out: np.ndarray

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.s1) ** 2

    @property
    def p2(self) -> np.ndarray:
        return np.abs(self.s2) ** 2


def _grid(window: tuple[float, float], tau: float, dt: float) -> tuple[int, float, int]:
    """Steps per transit, the step (an exact divisor of tau) and the steps
    spanning the window."""
    n_sub = max(int(np.ceil(tau / min(dt, 0.25))), 1)
    h = tau / n_sub
    return n_sub, h, int(np.ceil((window[1] - window[0]) / h - 1e-9))


def _step_maps(decay: np.ndarray, root: np.ndarray, h: float, n: int) -> tuple:
    """The (qubit, 1, step) maps of n RK4 steps, from decay and root at the
    step nodes (columns 0..n) followed by the midpoints (columns n+1..2n).

    RK4 stage k is f_k = al_k s + be_k with be_k linear in the inputs
    u_a, u_m, u_b at the step's start, midpoint and end, so a step is
    s -> A s + Ca u_a + Cm u_m + Cb u_b.  The cubic Hermite midpoint
    s_a / 2 + s_b / 2 + (h / 8) (f_a - f_b), f the right-hand side at the
    step's ends, is Ha s_a + Hb s_b + Ga u_a + Gb u_b; Cb, Ga and Gb are
    multiples of root, left to the caller.  The sums accumulate in place
    to keep the memory of long windows small.
    """
    d_a, d_b, d_m = decay[:, :n], decay[:, 1 : n + 1], decay[:, n + 1 :]
    r_a, r_m = root[:, :n], root[:, n + 1 :]
    al2 = d_m * (1 + 0.5 * h * d_a)
    al3 = d_m * (1 + 0.5 * h * al2)
    A = d_a + 2 * al2
    A += 2 * al3
    A += d_b * (1 + h * al3)  # al4
    A *= h / 6.0
    A += 1
    del al2, al3
    # weights of be_2 and be_3 on u_a and of be_3 on u_m; be_4 = c_b be_3 + r_b u_b
    c_m, c_b = d_m * (0.5 * h), d_b * h
    be2a = c_m * r_a
    be3a = c_m * be2a
    Ca = r_a + 2 * be2a
    Ca += 2 * be3a
    Ca += c_b * be3a
    Ca *= h / 6.0
    del be2a, be3a
    be3m = c_m * r_m
    be3m += r_m
    Cm = 2 * r_m + 2 * be3m
    Cm += c_b * be3m
    Cm *= h / 6.0
    del c_m, c_b, be3m
    Ha, Hb = (h / 8.0) * d_a, (-h / 8.0) * d_b
    Ha += 0.5
    Hb += 0.5
    return tuple(m[:, None] for m in (A, Ca, Cm, Ha, Hb))


def _integrate(
    schedule: ControlSchedule,
    ch: ChannelParams,
    s0: np.ndarray,
    dt: float,
    extra_phases: np.ndarray | None = None,
):
    """Fixed-step RK4 for the delayed feedback loop, batched over phases.

    ``s0`` holds one amplitude pair per batch row.  Returns the step
    nodes, the amplitudes per (batch, node, qubit) and the input and
    output fields per (batch, node).

    The step nodes ``times`` (n_steps + 1) and the step midpoints
    (n_steps) are kept apart, each in contiguous arrays with the node
    last: the coefficients per (qubit, node), the input and output fields
    per (batch, node), the states per (qubit, batch, node).  The step
    divides tau exactly, so the fed-back input is a plain offset of n_sub
    nodes, and zero before the first transit has arrived.

    The step maps of ``_step_maps`` depend on the schedule alone and are
    built once per call.  The loop then runs once per round trip: inside
    a block of n_sub steps the input is the fed-back output of the
    previous block, so the loop forms the block's offsets
    B = Ca u_a + Cm u_m + Cb u_b, composes the block's steps with an
    inclusive scan, and evaluates the outputs at the block's midpoints
    and end nodes as whole-block expressions.
    """
    t0 = schedule.window[0]
    n_sub, h, n_steps = _grid(schedule.window, ch.tau, dt)
    if schedule.max_kappa() > 0 and h > 1.0 / (10.0 * schedule.max_kappa()):
        raise IntegrationError(
            f"step {h:.3g} ns cannot resolve kappa_max = {schedule.max_kappa():.3g} 1/ns"
        )
    times = t0 + h * np.arange(n_steps + 1)
    # (qubit, node) coefficients of ds/dt = decay * s + root * a_in at the
    # step nodes, then the midpoints
    nodes = np.concatenate([times, times[:-1] + h / 2.0])
    kappa = np.stack([schedule.kappa(q, nodes) for q in (1, 2)])
    # decay = -(kappa / 2 + i Delta), written part by part: arithmetic
    # that mixes float and complex operands runs at half speed
    decay = np.empty(kappa.shape, dtype=complex)
    decay.real = -0.5 * kappa
    decay.imag = -np.stack([schedule.delta(q, nodes) for q in (1, 2)])
    root = np.sqrt(kappa).astype(complex)
    A, Ca, Cm, Ha, Hb = _step_maps(decay, root, h, n_steps)
    del nodes, kappa, decay  # only root is read past the maps
    r_a, r_b = root[:, None, :n_steps], root[:, None, 1 : n_steps + 1]
    r_m = root[:, None, n_steps + 1 :]

    s = np.asarray(s0, dtype=complex)
    batch = s.shape[0]
    phases = np.zeros(batch) if extra_phases is None else np.asarray(extra_phases, dtype=float)
    feedback = (np.sqrt(ch.eta) * np.exp(1j * (ch.phase + phases)))[:, None]  # (batch, 1)
    # (batch, node) input and output fields at the step nodes and midpoints
    ain, aout = (np.zeros((batch, n_steps + 1), dtype=complex) for _ in range(2))
    ain_m, aout_m = (np.zeros((batch, n_steps), dtype=complex) for _ in range(2))
    states = np.empty((2, batch, n_steps + 1), dtype=complex)
    states[:, :, 0] = s.T

    def project(weights, v):
        """(batch, step) sum over the qubits of weights * v."""
        return weights[0] * v[0] + weights[1] * v[1]

    aout[:, :1] = project(root[:, None, :1], states[:, :, :1])  # no input yet
    for first in range(0, n_steps, n_sub):
        n = min(n_sub, n_steps - first)
        blk, nxt = slice(first, first + n), slice(first + 1, first + n + 1)
        # the output one round trip back, fed back; the block's last node
        # reads the output at its own first node
        lo = max(first, n_sub)
        if lo <= first + n:
            ain[:, lo : first + n + 1] = feedback * aout[:, lo - n_sub : first + n + 1 - n_sub]
            ain_m[:, lo : first + n] = feedback * aout_m[:, lo - n_sub : first + n - n_sub]
        u_a, u_m, u_b = ain[:, blk], ain_m[:, blk], ain[:, nxt]
        B = Ca[..., blk] * u_a + Cm[..., blk] * u_m + (h / 6.0) * r_b[..., blk] * u_b
        # Hillis-Steele inclusive scan: step k's map becomes steps 0..k composed
        An = A[..., blk].copy()
        d = 1
        while d < n:
            B[..., d:] += An[..., d:] * B[..., :-d]
            An[..., d:] *= An[..., :-d]
            d *= 2
        states[..., nxt] = An * states[..., first : first + 1] + B
        s_old, s_new = states[..., blk], states[..., nxt]
        s_mid = (Ha[..., blk] * s_old + Hb[..., blk] * s_new + (h / 8.0) * r_a[..., blk] * u_a
                 + (-h / 8.0) * r_b[..., blk] * u_b)
        aout_m[:, blk] = project(r_m[..., blk], s_mid) - u_m
        aout[:, nxt] = project(r_b[..., blk], s_new) - u_b

    return times, states.transpose(1, 2, 0), ain, aout


def simulate_io(
    schedule: ControlSchedule,
    ch: ChannelParams,
    s0: Sequence[complex] = (0.0, 0.0),
    grid: np.ndarray | None = None,
    dt: float = 0.25,
) -> IOTrace:
    """Integrate the shaped-transfer equations for one amplitude set.

    Steps are uniform so delayed lookups stay on the stored grid; a
    hard segment edge that falls inside a step therefore incurs a
    one-time O((rate * h)^3) kick.  Shrink ``dt`` if that matters.
    """
    s0 = np.asarray(s0, dtype=complex)
    if s0.shape != (2,):
        raise ValidationError("s0 must hold exactly two amplitudes")
    times, s_arr, ain_arr, aout_arr = _integrate(schedule, ch, s0[None, :], dt)
    s1, s2 = s_arr[0, :, 0], s_arr[0, :, 1]
    ain, aout = ain_arr[0], aout_arr[0]
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid[0] < times[0] - 1e-9 or grid[-1] > times[-1] + 1e-9:
            raise ValidationError("grid extends beyond the schedule window")

        def onto(v):
            return np.interp(grid, times, v.real) + 1j * np.interp(grid, times, v.imag)

        return IOTrace(grid, onto(s1), onto(s2), onto(ain), onto(aout))
    return IOTrace(times, s1, s2, ain, aout)


def transfer_schedule(
    kappa_c: float,
    window: float,
    tau: float,
    emitter: int = 1,
    receiver: int = 2,
    alpha: float = 1.0,
) -> ControlSchedule:
    """Release on one qubit from t = 0, capture one transit later on the other.

    ``alpha`` is the fraction the emitter releases.  The receiver's
    capture has alpha = 1 whatever the release: the Bell pair's half
    release is absorbed by the full capture, as on the device.
    """
    release = Segment("release", emitter, 0.0, window, kappa_c, alpha=alpha)
    capture = Segment("capture", receiver, tau, window, kappa_c)
    return ControlSchedule([release, capture], window=(0.0, tau + window + 0.25 * tau))


def interference_experiment(
    delta_phi: np.ndarray,
    ch: ChannelParams,
    noise: NoiseSpec,
    kappa_c: float = 0.1,
    window: float = 180.0,
    dt: float = 0.25,
    chunk: int = 128,
) -> np.ndarray:
    """Half release, phase twiddle, half recapture: mean final population,
    one value per relative phase of the 1-D array ``delta_phi``.

    The relative phase is dialed with a fixed 20 MHz detuning pulse of
    duration delta_phi / (2 pi * 20 MHz), applied between the release
    and capture windows, as in the hardware calibration.

    The noise average is exact: with z = e^{i phi} the per-realization
    phase, s1(T) = sum_m c_m z^m is a polynomial of degree n, the round
    trips in the window.  It is integrated at the n + 1 roots of unity
    (``chunk`` rows per pass), the c_m follow by FFT, and the mean of
    |s1|^2 runs over the seeded phases, drawn once per call.  At
    sigma_phi = 0 the same formula is read at phi = 0.
    """
    if chunk < 1:
        raise ValidationError(f"chunk = {chunk} must be at least 1")
    dphis = np.asarray(delta_phi, dtype=float)
    if dphis.ndim != 1:
        raise ValidationError("delta_phi must be a 1-D array")
    release = Segment("release", 1, 0.0, window, kappa_c, alpha=0.5)
    segs = [release, time_reverse(replace(release, t_start=ch.tau))]
    schedules = []
    for dphi in dphis % (2 * np.pi):
        pulse = []
        if dphi > 0:
            pulse_len = dphi / (DETUNE_PULSE_MHZ * MHZ)
            if pulse_len > ch.tau - window:
                raise ValidationError("phase pulse does not fit between release and capture")
            pulse = [Segment("detune", 1, window, pulse_len, f_mhz=DETUNE_PULSE_MHZ)]
        schedules.append(ControlSchedule(segs + pulse, window=(0.0, ch.tau + window)))

    n_sub, _, n_steps = _grid((0.0, ch.tau + window), ch.tau, dt)
    n = n_steps // n_sub
    root_phases = 2 * np.pi * np.arange(n + 1) / (n + 1)
    phases = np.zeros(1) if noise.sigma_phi == 0.0 else realization_phases(noise)
    powers = np.exp(1j * np.outer(phases, np.arange(n + 1)))  # (realization, m)
    pe = np.empty(len(schedules))
    for k, schedule in enumerate(schedules):
        s1 = np.concatenate([
            _integrate(schedule, ch, np.tile([1.0 + 0j, 0.0], (len(rows), 1)), dt,
                       extra_phases=rows)[1][:, -1, 0]
            for rows in (root_phases[i : i + chunk] for i in range(0, n + 1, chunk))
        ])
        coeffs = np.fft.fft(s1) / (n + 1)
        pe[k] = np.mean(np.abs(powers @ coeffs) ** 2)
    return pe
