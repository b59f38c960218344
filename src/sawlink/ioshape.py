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
1, is not a segment and never enters the delay loop: the fringe runs the
loop once without it and applies each pulse by linearity.

The delay loop is fixed-step RK4 with the step nodes and the step
midpoints in separate contiguous arrays.  It integrates only the qubits
that hold a segment: any other qubit is uncoupled, so it is carried,
keeping its initial amplitude, and adds nothing to the output field.
The couplings and step maps, which depend on the schedule alone, are
read and built once per experiment call (``_loop``), in float64, for
its one pass and the linearity terms after it; the whole pass runs in
float64 when every feedback factor and amplitude is real as well.  Each
round trip then only forms its input offsets, composes its steps with
one running product and one running sum (no log-depth scan) and
evaluates its outputs.  The running sum divides by the running
product, which stays far from zero: the step is capped by the coupling,
so each step's map has modulus at least about 0.95, and one product
spans at most 4,096 steps.

Classical phase noise is drawn per realization from the Philox stream
keyed by (master seed, realization index); being counter-based, a stream
is fixed by its key, so one generator re-keyed per realization gives the
same bits as a fresh one, and repeated runs are bit-identical.  The
interference experiment draws the phases once per call and takes the
exact mean of the final population over them, as a Toeplitz form in
their moments.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from numbers import Integral
from typing import NamedTuple, Sequence

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


def _grid(schedule: ControlSchedule, tau: float, dt: float) -> tuple[int, float, int]:
    """Steps per transit, the step (an exact divisor of tau, at most dt,
    0.25 ns and a tenth of 1 / kappa_max of the schedule) and the steps
    spanning the schedule's window."""
    if not dt > 0:  # also rejects NaN
        raise ValidationError(f"dt must be positive, got {dt}")
    dt = min(dt, 0.1 / schedule.max_kappa())
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


class _Loop(NamedTuple):
    """One schedule's delay-loop grid and float64 step maps, built once
    (``_loop``) and read by each pass over it and by the linearity terms
    after it: the step nodes, the steps per transit and the step, the
    qubits that hold a segment, their (qubit, node) decay and root at the
    step nodes then the midpoints, the first step the fed-back input
    reaches, and ``_step_maps``' (A, Ca, Cm, Ha, Hb), Ca and Cm from that
    step on."""

    times: np.ndarray
    n_sub: int
    h: float
    busy: list[int]
    decay: np.ndarray
    root: np.ndarray
    fed: int
    maps: tuple


def _loop(schedule: ControlSchedule, tau: float, dt: float) -> _Loop:
    """The schedule's loop on the grid of ``_grid``: each busy qubit's
    coupling read once, at the step nodes and midpoints, and its maps."""
    n_sub, h, n_steps = _grid(schedule, tau, dt)
    times = schedule.window[0] + h * np.arange(n_steps + 1)
    # the qubits that hold a segment (a table's row 0 is none)
    busy = [q for q in (1, 2) if len(schedule.tables[q][0]) > 1]
    # (qubit, node) coefficients of ds/dt = decay * s + root * a_in at the
    # step nodes, then the midpoints
    nodes = np.concatenate([times, times[:-1] + h / 2.0])
    kappa = np.stack([schedule.kappa(q, nodes) for q in busy])
    decay, root = -0.5 * kappa, np.sqrt(kappa)
    fed = min(n_sub - 1, n_steps)  # the first step the input reaches
    return _Loop(times, n_sub, h, busy, decay, root, fed,
                 _step_maps(decay, root, h, n_steps, fed))


def _integrate(loop: _Loop, ch: ChannelParams, s0: np.ndarray,
               row_factors: np.ndarray | None = None):
    """Fixed-step RK4 for the delayed feedback loop of ``_loop``, batched
    over rows.

    ``s0`` holds one amplitude pair per batch row, and ``row_factors`` one
    unit factor per row (default 1) that multiplies the channel's feedback
    sqrt(eta) e^{i phase}.  Returns the step nodes, the amplitudes per
    (batch, node, qubit) and the input and output fields per (batch,
    node), in float64 when every row's feedback factor and amplitude is
    real, else complex.

    The step nodes ``times`` (n_steps + 1) and the step midpoints
    (n_steps) are kept apart, each in contiguous arrays with the node
    last: the coefficients per (qubit, node), the input and output fields
    per (batch, node), the states per (qubit, batch, node).  The step
    divides tau exactly, so the fed-back input is a plain offset of n_sub
    nodes; it first reaches step n_sub - 1, and its terms start there.

    Only the qubits that hold a segment have coefficient rows and are
    integrated.  Any other qubit is carried, not integrated: its
    states are its ``s0`` amplitude at every node, and it adds nothing to
    the output field.

    The step maps of ``_step_maps`` depend on the schedule alone: they are
    the loop's, in float64, cast to complex if the pass is.  The pass
    then runs once per round trip: inside a block of n_sub steps the
    input is the fed-back output of the previous block, so the pass forms
    the block's offsets B = Ca u_a + Cm u_m + Cb u_b and composes the
    block's steps s -> A_k s + B_k with one running product P = cumprod(A)
    and one running sum, s_{k+1} = P_k (s_first + sum_{j<=k} B_j / P_j), with no
    log-depth scan; it then evaluates the outputs at the block's midpoints
    and end nodes as whole-block expressions.  The division is safe by
    construction: the step is at most a tenth of 1 / kappa_max, so |A_k|
    is at least about 0.95, and one product spans at most ``_SPAN`` =
    4,096 steps, so |P| stays above about 1e-89; a longer block is
    composed span after span.
    """
    times, n_sub, h, root, fed = loop.times, loop.n_sub, loop.h, loop.root, loop.fed
    n_steps = len(times) - 1
    rows = slice(loop.busy[0] - 1, loop.busy[-1])  # with two busy qubits, the whole axis
    s = np.asarray(s0)
    batch = s.shape[0]
    factors = np.ones(batch) if row_factors is None else np.asarray(row_factors)
    feedback = (np.sqrt(ch.eta) * np.exp(1j * ch.phase) * factors)[:, None]  # (batch, 1)
    # the whole loop runs in float64 when nothing in it is complex: a real
    # feedback factor on every row and real amplitudes
    real = not (feedback.imag.any() or np.imag(s).any())
    dtype = float if real else complex
    feedback, s = (feedback.real, s.real) if real else (feedback, s)
    A, Ca, Cm, Ha, Hb = (m.astype(dtype, copy=False) for m in loop.maps)
    root = root.astype(dtype, copy=False)
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
    step the edge falls.  A real transfer's trace (``_integrate``) is
    float64, on a ``grid`` too.
    """
    s0 = np.asarray(s0, dtype=complex)
    if s0.shape != (2,):
        raise ValidationError("s0 must hold exactly two amplitudes")
    times, s_arr, ain_arr, aout_arr = _integrate(_loop(schedule, ch.tau, dt), ch, s0[None, :])
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


def recapture_with_leftover(schedule: ControlSchedule,
                            ch: ChannelParams) -> tuple[complex, complex]:
    """One loop pass of a release and recapture on qubit 1 (segments
    (release, capture), as ``transfer_schedule(..., 1, 1)`` builds them)
    from s = (1, 0): qubit 1's final amplitude, and a, the amplitude the
    capture acting alone on the release's leftover ends with.

    Acting alone, the capture gets no input: nothing else sends into the
    line, and its own output returns at 2 tau or later, past its end.  So
    it takes the leftover at the node before it through the maps A_k of
    the pass's later steps alone.  A window within a step of tau leaves
    the release coupled at the start or midpoint of the first of those
    steps; that step's map is then rebuilt with the release uncoupled.
    The product is taken span by span, as ``_integrate`` composes a pass,
    so a is the capture-alone pass's to the bit.
    """
    loop = _loop(schedule, ch.tau, 0.25)
    times, states, _, _ = _integrate(loop, ch, np.array([[1.0, 0.0]]))
    s1, A, n_sub, h = states[0, :, 0], loop.maps[0][0, 0], loop.n_sub, loop.h
    release, capture = schedule.segments
    first = int(np.searchsorted(times, capture.t_start)) - 1
    if times[first] < release.t_end:
        # decay at the step's start, end and midpoint, zero where the release holds it
        at = np.array([times[first], times[first + 1], times[first] + h / 2.0])
        cols = [first, first + 1, len(times) + first]
        decay = np.where(at < release.t_end, 0.0, loop.decay[0, cols])
        A = A.copy()
        A[first] = _step_maps(decay[None], np.zeros((1, 3)), h, 1, 1)[0][0, 0, 0]
    a = s1[first]
    for block in range(0, len(A), n_sub):
        for start in range(block, min(block + n_sub, len(A)), _SPAN):
            stop = min(start + _SPAN, block + n_sub, len(A))
            if stop > first:
                a = np.cumprod(A[max(start, first) : stop])[-1] * a
    return s1[-1], a


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
    array ``delta_phi``, finite: a fixed 20 MHz detuning of qubit 1 for
    delta_phi / (2 pi * 20 MHz) from the end of the release, as in the
    hardware calibration, as (start, end, Delta), a detuning by Delta
    (rad/ns) on [start, end), or None at delta_phi = 0.  A pulse that runs
    into the capture by more than the 1e-12 ns two neighbouring segments
    may overlap is rejected; one that ends inside that sliver is cut at
    the capture's start.
    """
    dphis = np.asarray(delta_phi, dtype=float)
    if dphis.ndim != 1:
        raise ValidationError("delta_phi must be a 1-D array")
    if not np.isfinite(dphis).all():  # NaN % 2 pi would read as no pulse
        raise ValidationError("delta_phi must be finite")
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
    trips in the window.  It is evaluated at the n + 1 roots of unity, the
    c_m follow by one FFT over every pulse's row, and the mean of |s1|^2
    over the seeded phases, drawn once per call, is the Toeplitz form
    sum_{m, m'} c_m conj(c_m') g_{m - m'} with g_d = mean_r e^{i d phi_r}.
    At sigma_phi = 0 the same formula is read at phi = 0.

    The schedule's loop (``_loop``) is built once: one coupling read and
    one set of step maps.  One delay-loop pass over it (``chunk`` >= 1
    rows at a time) integrates the n + 1 rows without a pulse, each row's
    feedback times its root of unity, the real ones exact: at n = 1 and
    channel phase 0 the rows are +-1 and the pass runs in float64.  Each
    pulse follows by linearity, in the loop's own RK4 arithmetic.  A pulse
    detunes qubit 1 only where it is uncoupled, from the release's end w
    to at most the capture's start tau, before the fed-back input arrives
    (the one input term there, at tau, is the same under every pulse), so
    every row holds the same state there.  A pulse changes the step maps
    of the steps from the one w falls in, lo, to the last it detunes, and
    through them two things that reach qubit 1's final amplitude: its
    state after those steps, and the output at step lo's midpoint, nonzero
    when that midpoint is still coupled, which the line feeds back into
    step lo + n_sub.  Their other outputs are uncoupled, or fed back at
    2 tau or later, past the capture's end.  So each row's final amplitude
    is the pass's, plus the state's change times the product of the later
    steps' maps A_k, plus the output's change times the row's feedback
    factor, Cm of step lo + n_sub and the product of the maps after it.
    Those maps are the loop's; only the steps the pulses detune get maps
    of their own, built for every pulse at once from the loop's coupling.

    A hard edge inside a step is not resolved: RK4 loses its order on
    that step, and the kick depends on where in the step the edge falls.
    The 20 MHz pulse's edges give final-population errors up to 2.85e-3 at
    dt 0.25 ns, 8.2e-4 at 0.125 and 1.4e-5 at 0.0625.  Shrink ``dt`` if
    that matters.
    """
    schedule, pulses = interference_schedules(delta_phi, ch, kappa_c, window)
    phases = np.zeros(1) if noise.sigma_phi == 0.0 else realization_phases(noise)
    pe = np.empty(len(pulses))
    if not pulses:
        return pe
    loop = _loop(schedule, ch.tau, dt)
    times, n_sub, h = loop.times, loop.n_sub, loop.h
    n_steps = len(times) - 1
    n = n_steps // n_sub
    # the rows' roots of unity, the real ones exact, so that at n = 1 the
    # loop runs in float64 when the channel's phase is 0
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    roots[0] = 1.0
    if n % 2:
        roots[(n + 1) // 2] = -1.0
    s1 = np.concatenate([  # qubit 1 per (row, node), without a pulse
        _integrate(loop, ch, np.tile([1.0, 0.0], (len(rows), 1)), rows)[1][..., 0]
        for rows in (roots[i : i + chunk] for i in range(0, n + 1, chunk))
    ])
    # each pulse detunes steps lo..hi - 1 (none at delta_phi = 0), the
    # last the capture's first when a pulse cut at tau detunes a node that
    # rounds short of it; the loop's nodes start at 0
    ends = np.array([p[1] if p else window for p in pulses])
    lo = int(np.searchsorted(times, window)) - 1
    his = np.minimum(np.searchsorted(times, ends), n_steps)
    hi = his.max()
    # qubit 1 is the loop's one qubit: its maps on steps lo.., the loop's
    A, _, Cm, Ha, Hb = (m[0, 0] for m in loop.maps)
    after = np.append(np.cumprod(A[lo:][::-1])[::-1], 1.0)  # after[k]: the maps of steps lo + k..
    # and on steps lo..hi - 1 under each pulse, nodes then midpoints
    near = np.r_[lo : hi + 1, n_steps + 1 + lo : n_steps + 1 + hi]
    points = np.concatenate([times[lo : hi + 1], times[lo:hi] + h / 2.0])
    decay = np.empty((len(ends), near.size), dtype=complex)
    decay.real = loop.decay[0, near]
    decay.imag = np.where((points >= window) & (points < ends[:, None]),
                          -DETUNE_PULSE_MHZ * MHZ, 0.0)
    A_p, _, _, Ha_p, Hb_p = (m[:, 0] for m in _step_maps(decay, loop.root[:, near], h,
                                                         hi - lo, hi - lo))
    # what each pulse changes, per unit of qubit 1's state at node lo (the
    # same on every row): its state at node hi and the output at lo's midpoint
    s_lo, r_mid = s1[0, lo], loop.root[0, n_steps + 1 + lo]
    last = his - lo - 1
    state = np.cumprod(A_p, axis=1)[np.arange(len(ends)), last] - np.cumprod(A[lo:hi])[last]
    out = r_mid * ((Ha_p[:, 0] + Hb_p[:, 0] * A_p[:, 0]) - (Ha[lo] + Hb[lo] * A[lo]))
    kick = (after[his - lo] * s_lo * state)[:, None]
    if lo + n_sub < n_steps:
        feedback = np.sqrt(ch.eta) * np.exp(1j * ch.phase) * roots  # the loop's, per row
        cm = Cm[lo + n_sub - loop.fed]  # Cm of step lo + n_sub; the loop's start at step fed
        kick = kick + feedback * (cm * after[n_sub + 1] * s_lo * out)[:, None]
    # mean_r |sum_m c_m z_r^m|^2 = sum_{m, m'} c_m conj(c_m') g_{m - m'}, g_d = mean_r z_r^d
    g = np.exp(1j * np.outer(np.arange(n + 1), phases)).mean(axis=1)
    lag = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
    toeplitz = np.where(lag >= 0, g[np.abs(lag)], g[np.abs(lag)].conj())
    coeffs = np.fft.fft(s1[:, -1] + kick) / (n + 1)  # (pulse, m)
    pe[:] = np.einsum("km,ml,kl->k", coeffs, toeplitz, coeffs.conj()).real
    return pe
