"""Amplitude-level model of shaped release and capture through the line.

Each qubit couples to the traveling field with a programmable rate
kappa_i(t); the output of one transit feeds back as the input of the
next after the delay tau, attenuated by sqrt(eta) and rotated by the
per-transit phase.  This single-excitation picture is the fast path
for efficiency and interference sweeps; density-matrix experiments
live in `cascade`.  The module needs numpy alone.

A schedule holds couplings alone: a segment releases the fraction alpha
of the stored excitation (alpha = 1 empties the qubit) or captures it,
the release with the same alpha mirrored in time.  The shape is written
once, with a float form (``math``) for the cascade's per-call schedule
lookups and an array form (numpy) for the delay loop's grid.  The one
detuning of the package, the interference fringe's phase pulse on qubit
1, is not a segment but an argument of the delay loop.

The delay loop is fixed-step RK4 with the step nodes and the step
midpoints in separate contiguous arrays.  It integrates only the qubits
that hold a segment or the pulse: any other qubit is uncoupled and
undetuned, so it is carried, keeping its initial amplitude, and adds
nothing to the output field.  The step maps, which depend on the
schedule and the pulse alone, are built once per call, in float64
without a pulse, and the whole loop runs in float64 when every feedback
factor and amplitude is real as well.  Each round trip then only forms
its input offsets, composes its steps with one running product and one
running sum (no log-depth scan) and evaluates its outputs.  The running
sum divides by the running product, which stays far from zero: the step
is capped by the pulse's detuning as well as by the coupling, so each
step's map has modulus at least about 0.95, and one product spans at
most 4,096 steps.

Classical phase noise is drawn per realization from the Philox stream
keyed by (master seed, realization index); being counter-based, a stream
is fixed by its key, so one generator re-keyed per realization gives the
same bits as a fresh one, and repeated runs are bit-identical.  The
interference experiment draws the phases once per call and takes the
exact mean of the final population over them.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import RoleAmbiguityError, ValidationError

MHZ = 2e-3 * np.pi  # linear MHz -> rad/ns
DETUNE_PULSE_MHZ = 20.0  # fixed detuning used to dial in a relative phase

SEGMENT_KINDS = ("release", "capture")


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
        if not 0 <= self.sigma_phi < math.inf:
            raise ValidationError("sigma_phi must be finite and >= 0")
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
    its key alone: one generator is re-keyed for each realization through
    a ``state`` of plain ints, which sets faster than the getter's arrays.
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    key = [0, int(noise.master_seed)]  # (index, seed), the low word first
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}  # nothing buffered
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
    """One coupling interval on one qubit.

    A ``release`` emits the fraction ``alpha`` of the stored excitation
    (alpha = 1 empties the qubit) and a ``capture`` is the release with
    the same alpha mirrored in time, the absorber matched to its packet.
    Both are centered on the segment midpoint, so a release peaks its
    packet there and the matching capture must be scheduled one transit
    later.
    """

    kind: str
    qubit: int
    t_start: float
    duration: float
    kappa_c: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ValidationError(f"unknown segment kind {self.kind!r}")
        if self.qubit not in (1, 2):
            raise ValidationError("qubit must be 1 or 2")
        if self.duration <= 0:
            raise ValidationError("duration must be positive")
        if not (self.kappa_c > 0 and 0.0 < self.alpha <= 1.0):
            raise ValidationError(f"{self.kind} segment needs kappa_c > 0 and alpha in (0, 1]")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    def kappa(self, t):
        """Coupling rate (1/ns) at t: a float for a float t, else an array."""
        x = self.kappa_c * (t - (self.t_start + self.duration / 2.0))
        return self.kappa_c * _release(-x if self.kind == "capture" else x, self.alpha)


class CouplingTable(tuple):
    """One qubit's segments in start order as six columns: the starts,
    ends, midpoints, kappa_c, alpha and capture flags, after row 0, an
    empty segment at -inf.  A time is read from the one segment whose
    [start, end) holds it, the later one inside the 1e-12 ns overlap
    allowed between neighbours: the floats of ``Segment.kappa``, and 0
    where no segment holds it."""

    @classmethod
    def of(cls, segments: Sequence[Segment]) -> CouplingTable:
        """The table of one qubit's segments, given in start order."""
        rows = [(-math.inf, -math.inf, 0.0, 0.0, 1.0, False)]
        rows += [(s.t_start, s.t_end, s.t_start + s.duration / 2.0, s.kappa_c, s.alpha,
                  s.kind == "capture") for s in segments]
        return cls(zip(*rows))

    def kappa(self, t):
        """Coupling rate (1/ns): a float for a float t, read with one
        bisection, else an array, each row written over the rows before."""
        starts, ends, mids, kappa_cs, alphas, captures = self
        if isinstance(t, float):
            i = bisect_right(starts, t) - 1
            kc = kappa_cs[i]
            if t >= ends[i]:  # row 0 ends at -inf
                return 0.0
            x = kc * (t - mids[i])
            return kc * _release(-x if captures[i] else x, alphas[i])
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for start, end, mid, kc, alpha, capture in list(zip(*self))[1:]:  # row 0 holds none
            held = (t >= start) & (t < end)
            x = kc * (t[held] - mid)
            out[held] = kc * _release(-x if capture else x, alpha)
        return out


def time_reverse(segment: Segment) -> Segment:
    """Reflect a segment's coupling shape about its own midpoint."""
    return replace(segment, kind={"release": "capture", "capture": "release"}[segment.kind])


@dataclass(frozen=True)
class ControlSchedule:
    """Segments on both qubits over a window; ``tables[q]`` is qubit q's
    ``CouplingTable``, built once, and the one place kappa is read."""

    segments: tuple[Segment, ...]
    window: tuple[float, float]

    def __init__(self, segments: Sequence[Segment], window: tuple[float, float]):
        segs = tuple(segments)
        if not segs:
            raise ValidationError("schedule needs at least one segment")
        if window[1] <= window[0]:
            raise ValidationError("window must have positive length")
        # coupling exclusivity: the two qubits never talk to the line at once
        for a in segs:
            for b in segs:
                if a.qubit != b.qubit and a.t_start < b.t_end and b.t_start < a.t_end:
                    raise RoleAmbiguityError(
                        f"overlapping couplings: {a.kind} on qubit {a.qubit} and "
                        f"{b.kind} on qubit {b.qubit}"
                    )
        # no overlapping segments on one qubit
        tables = {}
        for q in (1, 2):
            mine = sorted((s for s in segs if s.qubit == q), key=lambda s: s.t_start)
            for a, b in zip(mine[:-1], mine[1:]):
                if b.t_start < a.t_end - 1e-12:
                    raise ValidationError(f"overlapping segments on qubit {q}")
            tables[q] = CouplingTable.of(mine)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "window", (float(window[0]), float(window[1])))
        object.__setattr__(self, "tables", tables)

    def kappa(self, qubit: int, t) -> np.ndarray | float:
        """Coupling rate of one qubit (1/ns); a float for a float ``t``."""
        return self.tables[qubit].kappa(t)

    def max_kappa(self) -> float:
        return max(s.kappa_c for s in self.segments)

    def breakpoints(self) -> np.ndarray:
        pts = sorted({s.t_start for s in self.segments} | {s.t_end for s in self.segments})
        return np.array(pts)


@dataclass(frozen=True)
class IOTrace:
    """Amplitudes and fields at ``times``: float64 for a real transfer (``_integrate``)."""
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


def _grid(schedule: ControlSchedule, tau: float, dt: float,
          delta: float = 0.0) -> tuple[int, float, int]:
    """Steps per transit, the step (an exact divisor of tau, at most dt,
    0.25 ns and a tenth of both 1 / kappa_max of the schedule and
    1 / |delta|, delta the phase pulse's detuning in rad/ns) and the steps
    spanning the schedule's window."""
    if not dt > 0:  # also rejects NaN
        raise ValidationError(f"dt must be positive, got {dt}")
    for rate in (schedule.max_kappa(), abs(delta)):
        if rate > 0:
            dt = min(dt, 0.1 / rate)
    n_sub = max(int(np.ceil(tau / min(dt, 0.25))), 1)
    h = tau / n_sub
    t0, t1 = schedule.window
    return n_sub, h, int(np.ceil((t1 - t0) / h - 1e-9))


def check_loop_memory(schedule: ControlSchedule, ch: ChannelParams, rows: int = 1) -> None:
    """Reject, allocating nothing, a delay loop at the default step on ``rows`` (at most n + 1)
    batch rows that needs more than physical memory: as complex, 16 bytes a step for 9 arrays a
    row and 16 more (measured peaks: 242 bytes a step for one qubit and row, 131 more a row)."""
    n_sub, _, n_steps = _grid(schedule, ch.tau, 0.25)
    need = 16 * n_steps * (9 * min(rows, n_steps // n_sub + 1) + 16)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValidationError(f"the delay loop takes {n_steps} steps and about {need} bytes, "
                              f"more than the {have} bytes of physical memory")


# steps one running product composes: each step's map has modulus at least
# about e^{-0.05}, so the product stays above about 1e-89, far from underflow
_SPAN = 4096


def _step_maps(decay: np.ndarray, root: np.ndarray, h: float, n: int, fed: int) -> tuple:
    """The (qubit, 1, step) maps of n RK4 steps, from decay and root at the
    step nodes (columns 0..n) followed by the midpoints (columns n+1..2n).

    RK4 stage k is f_k = al_k s + be_k with be_k linear in the inputs
    u_a, u_m, u_b at the step's start, midpoint and end, so a step is
    s -> A s + Ca u_a + Cm u_m + Cb u_b.  The cubic Hermite midpoint
    s_a / 2 + s_b / 2 + (h / 8) (f_a - f_b), f the right-hand side at the
    step's ends, is Ha s_a + Hb s_b + Ga u_a + Gb u_b; Cb, Ga and Gb are
    multiples of root, left to the caller; Ca and Cm cover steps fed.. only.
    The maps take the dtype of decay and root, float64 or complex, with the
    same arithmetic.  The sums accumulate in place to keep the memory of
    long windows small.
    """
    d_a, d_b, d_m = decay[:, :n], decay[:, 1 : n + 1], decay[:, n + 1 :]
    al2 = d_m * (1 + 0.5 * h * d_a)
    al3 = d_m * (1 + 0.5 * h * al2)
    A = d_a + 2 * al2
    A += 2 * al3
    A += d_b * (1 + h * al3)  # al4
    A *= h / 6.0
    A += 1
    del al2, al3
    # weights of be_2 and be_3 on u_a and of be_3 on u_m; be_4 = c_b be_3 + r_b u_b
    r_a, r_m = root[:, fed:n], root[:, n + 1 + fed :]
    c_m, c_b = d_m[:, fed:] * (0.5 * h), d_b[:, fed:] * h
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
    pulse: tuple[float, float, float] | None = None,
):
    """Fixed-step RK4 for the delayed feedback loop, batched over phases.

    ``s0`` holds one amplitude pair per batch row.  ``pulse`` (start, end,
    Delta) detunes qubit 1 by Delta (rad/ns) on [start, end), the
    interference fringe's phase pulse.  Returns the step nodes, the
    amplitudes per (batch, node, qubit) and the input and output fields
    per (batch, node), in float64 when there is no pulse and every row's
    sqrt(eta) e^{i (phase + row phase)} and amplitude is real, else complex.

    The step nodes ``times`` (n_steps + 1) and the step midpoints
    (n_steps) are kept apart, each in contiguous arrays with the node
    last: the coefficients per (qubit, node), the input and output fields
    per (batch, node), the states per (qubit, batch, node).  The step
    divides tau exactly, so the fed-back input is a plain offset of n_sub
    nodes; it first reaches step n_sub - 1, and its terms start there.

    Only the qubits that hold a segment or the pulse have coefficient rows
    and are integrated.  Any other qubit is carried, not integrated: its
    states are its ``s0`` amplitude at every node, and it adds nothing to
    the output field.

    The step maps of ``_step_maps`` depend on the schedule and the pulse
    alone and are built once per call; without a pulse they are real and
    built in float64, cast to complex if the loop is.  The loop then runs
    once per round trip: inside a block of n_sub steps the input is the fed-back output
    of the previous block, so the loop forms the block's offsets
    B = Ca u_a + Cm u_m + Cb u_b and composes the block's steps
    s -> A_k s + B_k with one running product P = cumprod(A) and one
    running sum, s_{k+1} = P_k (s_first + sum_{j<=k} B_j / P_j), with no
    log-depth scan; it then evaluates the outputs at the block's midpoints
    and end nodes as whole-block expressions.  The division is safe by
    construction: the step is at most a tenth of 1 / kappa_max and of
    1 / |Delta|, so |A_k| is at least about 0.95, and one product spans
    at most ``_SPAN`` = 4,096 steps, so |P| stays above about 1e-89; a
    longer block is composed span after span.
    """
    t0 = schedule.window[0]
    n_sub, h, n_steps = _grid(schedule, ch.tau, dt, pulse[2] if pulse else 0.0)
    times = t0 + h * np.arange(n_steps + 1)
    # the qubits that hold a segment (a table's row 0 is none) or the pulse;
    # with two qubits they are one slice of the qubit axis
    busy = [q for q in (1, 2) if len(schedule.tables[q][0]) > 1 or (pulse and q == 1)]
    rows = slice(busy[0] - 1, busy[-1])
    # (qubit, node) coefficients of ds/dt = decay * s + root * a_in at the
    # step nodes, then the midpoints
    nodes = np.concatenate([times, times[:-1] + h / 2.0])
    kappa = np.stack([schedule.kappa(q, nodes) for q in busy])
    if pulse:
        # decay = -(kappa / 2 + i Delta), written part by part: arithmetic
        # that mixes float and complex operands runs at half speed
        start, end, delta = pulse
        decay = np.zeros(kappa.shape, dtype=complex)
        decay.real = -0.5 * kappa
        decay.imag[0, (nodes >= start) & (nodes < end)] = -delta  # qubit 1 is busy[0]
        root = np.sqrt(kappa).astype(complex)
    else:  # real coefficients: the same maps, with the same bits, in float64
        decay, root = -0.5 * kappa, np.sqrt(kappa)
    s = np.asarray(s0)
    batch = s.shape[0]
    phases = np.zeros(batch) if extra_phases is None else np.asarray(extra_phases, dtype=float)
    feedback = (np.sqrt(ch.eta) * np.exp(1j * (ch.phase + phases)))[:, None]  # (batch, 1)
    # the whole loop runs in float64 when nothing in it is complex: no
    # pulse, a real feedback factor on every row and real amplitudes
    real = root.dtype == float and not (feedback.imag.any() or np.imag(s).any())
    dtype = float if real else complex
    feedback, s = (feedback.real, s.real) if real else (feedback, s)
    fed = min(n_sub - 1, n_steps)  # the first step the input reaches
    A, Ca, Cm, Ha, Hb = (m.astype(dtype, copy=False)
                         for m in _step_maps(decay, root, h, n_steps, fed))
    root = root.astype(dtype, copy=False)
    del nodes, kappa, decay  # only root is read past the maps
    r_a, r_b = root[:, None, :n_steps], root[:, None, 1 : n_steps + 1]
    r_m = root[:, None, n_steps + 1 :]

    # (batch, node) input and output fields at the step nodes and midpoints
    ain, aout = (np.zeros((batch, n_steps + 1), dtype=dtype) for _ in range(2))
    ain_m, aout_m = (np.zeros((batch, n_steps), dtype=dtype) for _ in range(2))
    states = np.empty((2, batch, n_steps + 1), dtype=dtype)
    states[...] = s.T[:, :, None]
    live = states[rows]  # a view: the loop writes the busy qubits' rows in place

    aout[:, :1] = (root[:, None, :1] * live[..., :1]).sum(axis=0)  # no input yet
    for first in range(0, n_steps, n_sub):
        n = min(n_sub, n_steps - first)
        blk, nxt = slice(first, first + n), slice(first + 1, first + n + 1)
        # the output one round trip back, fed back; the block's last node
        # reads the output at its own first node
        lo = max(first, n_sub)
        if lo <= first + n:
            ain[:, lo : first + n + 1] = feedback * aout[:, lo - n_sub : first + n + 1 - n_sub]
            ain_m[:, lo : first + n] = feedback * aout_m[:, lo - n_sub : first + n - n_sub]
        k0 = max(fed - first, 0)  # the input is zero before step k0
        fa, fb = slice(first + k0, first + n), slice(first + k0 + 1, first + n + 1)
        u_a, u_m, u_b = ain[:, fa], ain_m[:, fa], ain[:, fb]
        c = slice(fa.start - fed, fa.stop - fed)  # Ca and Cm start at step fed
        B = Ca[..., c] * u_a + Cm[..., c] * u_m + (h / 6.0) * r_b[..., fa] * u_b
        # span by span from a: s_{k+1} = P_k (s_a + sum_{j<=k} B_j / P_j)
        for a in range(first, first + n, _SPAN):
            b = min(a + _SPAN, first + n)
            P = np.cumprod(A[..., a:b], axis=-1)
            j = min(max(a, fa.start), b)  # the span's first fed step, or its end
            np.multiply(P[..., : j - a], live[..., a : a + 1], out=live[..., a + 1 : j + 1])
            if j < b:
                run = B[..., j - fa.start : b - fa.start] / P[..., j - a :]
                np.cumsum(run, axis=-1, out=run)
                run += live[..., a : a + 1]
                np.multiply(P[..., j - a :], run, out=live[..., j + 1 : b + 1])
        s_mid = Ha[..., blk] * live[..., blk] + Hb[..., blk] * live[..., nxt]
        s_mid[..., k0:] += (h / 8.0) * r_a[..., fa] * u_a
        s_mid[..., k0:] += (-h / 8.0) * r_b[..., fa] * u_b
        aout_m[:, blk] = (r_m[..., blk] * s_mid).sum(axis=0)
        aout_m[:, fa] -= u_m
        aout[:, nxt] = (r_b[..., blk] * live[..., nxt]).sum(axis=0)
        aout[:, fb] -= u_b

    return times, states.transpose(1, 2, 0), ain, aout


def simulate_io(
    schedule: ControlSchedule,
    ch: ChannelParams,
    s0: Sequence[complex] = (0.0, 0.0),
    grid: np.ndarray | None = None,
    dt: float = 0.25,
) -> IOTrace:
    """Integrate the shaped-transfer equations for one amplitude set.

    Steps are uniform so delayed lookups stay on the stored grid, and a
    hard segment edge that falls inside a step is not resolved: RK4
    loses its order on that step, and the kick depends on where in the
    step the edge falls.  The interference fringe's 20 MHz phase pulse
    has measured final-population errors up to 2.85e-3 at dt 0.25 ns,
    8.2e-4 at 0.125 and 1.4e-5 at 0.0625.  Shrink ``dt`` if that matters.
    A real transfer's trace (``_integrate``) is float64, on a ``grid`` too.
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

        def onto(v):  # a real trace is interpolated once and stays real
            on = np.interp(grid, times, v.real)
            return on + 1j * np.interp(grid, times, v.imag) if np.iscomplexobj(v) else on

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


def interference_schedules(
    delta_phi: np.ndarray, ch: ChannelParams, kappa_c: float, window: float
) -> tuple[ControlSchedule, list[tuple[float, float, float] | None]]:
    """The fringe's schedule, a half release and the half recapture one
    transit later, and the phase pulse of each relative phase of the 1-D
    array ``delta_phi``: a fixed 20 MHz detuning of qubit 1 for
    delta_phi / (2 pi * 20 MHz) from the end of the release, as in the
    hardware calibration, as the (start, end, Delta) of ``_integrate``,
    or None at delta_phi = 0.  A pulse that runs into the capture by more
    than the 1e-12 ns two neighbouring segments may overlap is rejected;
    one that ends inside that sliver is cut at the capture's start.
    """
    dphis = np.asarray(delta_phi, dtype=float)
    if dphis.ndim != 1:
        raise ValidationError("delta_phi must be a 1-D array")
    release = Segment("release", 1, 0.0, window, kappa_c, alpha=0.5)
    schedule = ControlSchedule([release, time_reverse(replace(release, t_start=ch.tau))],
                               window=(0.0, ch.tau + window))
    delta = DETUNE_PULSE_MHZ * MHZ
    pulses = []
    for dphi in dphis % (2 * np.pi):
        end = window + dphi / delta
        if ch.tau < end - 1e-12:
            raise ValidationError("overlapping segments on qubit 1: the phase pulse runs "
                                  "into the capture")
        pulses.append((window, min(end, ch.tau), delta) if dphi > 0 else None)
    return schedule, pulses


def interference_experiment(
    delta_phi: np.ndarray,
    ch: ChannelParams,
    noise: NoiseSpec,
    kappa_c: float = 0.1,
    window: float = 180.0,
    dt: float = 0.25,
    chunk: int = 128,
) -> np.ndarray:
    """Mean final population of the schedule of ``interference_schedules``
    under each of its phase pulses, one value per relative phase of the
    1-D array ``delta_phi``.

    The noise average is exact: with z = e^{i phi} the per-realization
    phase, s1(T) = sum_m c_m z^m is a polynomial of degree n, the round
    trips in the window.  It is integrated at the n + 1 roots of unity
    (``chunk`` >= 1 rows per pass), the c_m follow by FFT, and the mean
    of |s1|^2 runs over the seeded phases, drawn once per call.  At
    sigma_phi = 0 the same formula is read at phi = 0.
    """
    schedule, pulses = interference_schedules(delta_phi, ch, kappa_c, window)
    phases = np.zeros(1) if noise.sigma_phi == 0.0 else realization_phases(noise)
    pe = np.empty(len(pulses))
    if not pulses:
        return pe
    # one grid serves every pulse: the pulse's 20 MHz caps the step at
    # 0.8 ns, above the 0.25 ns cap
    n_sub, _, n_steps = _grid(schedule, ch.tau, dt, DETUNE_PULSE_MHZ * MHZ)
    n = n_steps // n_sub
    root_phases = 2 * np.pi * np.arange(n + 1) / (n + 1)
    powers = np.exp(1j * np.outer(phases, np.arange(n + 1)))  # (realization, m)
    for k, pulse in enumerate(pulses):
        s1 = np.concatenate([
            _integrate(schedule, ch, np.tile([1.0 + 0j, 0.0], (len(rows), 1)), dt,
                       extra_phases=rows, pulse=pulse)[1][:, -1, 0]
            for rows in (root_phases[i : i + chunk] for i in range(0, n + 1, chunk))
        ])
        coeffs = np.fft.fft(s1) / (n + 1)
        pe[k] = np.mean(np.abs(powers @ coeffs) ** 2)
    return pe
