import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.optimize import brentq

import sawlink
from sawlink.errors import ValidationError
from sawlink.ioshape import (
    _SPAN,
    MHZ,
    SEGMENT_KINDS,
    ChannelParams,
    ControlSchedule,
    IOTrace,
    NoiseSpec,
    Segment,
    _grid,
    _integrate,
    _loop,
    _step_maps,
    interference_experiment,
    interference_schedules,
    realization_phases,
    simulate_io,
    time_reverse,
    transfer_schedule,
)

KC = 0.1  # 1/ns
TAU = 508.0  # ns
NOISELESS = NoiseSpec(sigma_phi=0.0)


def integrate(schedule, ch, s0, dt, extra_phases=None):
    """``_integrate`` over the schedule's loop, each row's feedback turned
    by its extra phase."""
    factors = None if extra_phases is None else np.exp(1j * np.asarray(extra_phases, dtype=float))
    return _integrate(_loop(schedule, ch.tau, dt), ch, s0, factors)


def sech_envelope(t, kappa_c: float):
    """Unit-power wavepacket sqrt(kappa_c/4) / cosh(kappa_c t / 2): the packet
    a full release emits."""
    return np.sqrt(kappa_c / 4.0) / np.cosh(kappa_c * np.asarray(t) / 2.0)


def release_only(window: float, alpha: float = 1.0, kappa_c: float = KC):
    seg = Segment("release", 1, 0.0, window, kappa_c, alpha=alpha)
    return ControlSchedule([seg], window=(0.0, window))


def centered(kind: str = "release", alpha: float = 1.0, kappa_c: float = KC) -> Segment:
    """A coupling segment with its midpoint at t = 0, spanning |t| < 1e5 ns."""
    return Segment(kind, 1, -1e5, 2e5, kappa_c, alpha=alpha)


class TestPulseShapes:
    def test_sech_unit_power(self):
        t = np.linspace(-400, 400, 160001)
        power = np.trapezoid(sech_envelope(t, KC) ** 2, t)
        assert power == pytest.approx(1.0, abs=1e-9)

    def test_sech_peak(self):
        assert sech_envelope(0.0, KC) == pytest.approx(np.sqrt(KC / 4))

    def test_sech_power_fwhm(self):
        # 1/kc = 10 ns; width where sech^2 drops to half its peak
        half = brentq(lambda t: sech_envelope(t, KC) ** 2 - KC / 8, 0, 100)
        assert 2 * half == pytest.approx(35.3, abs=0.1)

    def test_release_rate_limits(self):
        assert centered().kappa(-400.0) == pytest.approx(0.0, abs=1e-12)
        assert centered().kappa(400.0) == pytest.approx(KC, abs=1e-12)

    def test_partial_at_alpha_one_stays_full_far_out(self):
        # (pos + 1) - alpha used to cancel to 0 once e^{-kc t} < 1e-16
        t = np.array([400.0, 1e4])
        assert np.allclose(centered(alpha=1.0).kappa(t), KC, rtol=1e-12)

    def test_partial_rate_overflow_safe(self):
        assert np.isfinite(centered(alpha=0.5).kappa(1e5))
        assert np.isfinite(centered(alpha=0.5).kappa(-1e5))

    def test_invalid_args_rejected(self):
        with pytest.raises(ValidationError):
            centered(alpha=0.0)
        with pytest.raises(ValidationError):
            centered(alpha=1.5)

    @pytest.mark.parametrize("kind", ["release", "capture"])
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0 + 1e-12, 1.5, 5.0, float("nan")])
    def test_coupling_alpha_outside_unit_interval_rejected(self, kind, alpha):
        with pytest.raises(ValidationError):
            centered(kind, alpha=alpha)


    @pytest.mark.parametrize("kind, fields", [
        ("release", {"kappa_c": KC, "f_mhz": 10.0}),
        ("capture", {"kappa_c": KC, "f_mhz": -0.5}),
        ("release", {"kappa_c": KC, "f_mhz": float("nan")}),
        ("detune", {"kappa_c": 0.3}),
        ("detune", {"kappa_c": 0.3, "alpha": 0.5}),
        ("detune", {"f_mhz": 20.0, "kappa_c": 0.3, "alpha": 0.5}),
    ])
    def test_field_the_kind_does_not_read_rejected(self, kind, fields):
        # a schedule holds couplings alone: a segment has no detuning field,
        # and the detune kind is unknown whatever coupling it is given
        if "f_mhz" in fields:
            with pytest.raises(TypeError, match="f_mhz"):
                Segment(kind, 1, 0.0, 100.0, **fields)
        else:
            with pytest.raises(ValidationError, match="unknown segment kind 'detune'"):
                Segment(kind, 1, 0.0, 100.0, **fields)


@st.composite
def schedules(draw):
    """One to five segments of either kind on either qubit, laid end to end
    or with gaps, so the coupling rules hold by construction."""
    segs, t = [], draw(st.floats(-50.0, 50.0))
    for _ in range(draw(st.integers(1, 5))):
        kind, qubit = draw(st.sampled_from(SEGMENT_KINDS)), draw(st.sampled_from([1, 2]))
        duration = draw(st.floats(1.0, 200.0))
        segs.append(Segment(kind, qubit, t, duration, draw(st.floats(0.01, 1.0)),
                            alpha=draw(st.floats(0.05, 1.0))))
        t += duration + draw(st.sampled_from([0.0, 5.0]))
    return ControlSchedule(segs, window=(segs[0].t_start, segs[-1].t_end))


class TestScheduleLookup:
    @settings(max_examples=60, deadline=None)
    @given(sched=schedules(), data=st.data())
    def test_scalar_lookup_matches_array_path(self, sched, data):
        # segment edges included: both paths treat intervals as half-open
        edges = [x for s in sched.segments for x in (s.t_start, s.t_end)]
        lo, hi = sched.window
        t = data.draw(st.sampled_from(edges) | st.floats(lo - 10.0, hi + 10.0))
        for qubit in (1, 2):
            scalar = sched.kappa(qubit, t)
            assert isinstance(scalar, float)
            want = sched.kappa(qubit, np.array([t]))[0]
            assert np.isclose(scalar, want, rtol=1e-13, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(sched=schedules(), data=st.data())
    def test_lookup_reads_the_one_segment_holding_t(self, sched, data):
        # brute force: the segment of the qubit whose [start, end) holds t
        edges = [x for s in sched.segments for x in (s.t_start, s.t_end)]
        lo, hi = sched.window
        ts = data.draw(st.lists(st.sampled_from(edges) | st.floats(lo - 10.0, hi + 10.0),
                                min_size=1, max_size=8))
        for qubit in (1, 2):
            holding = [[s for s in sched.segments if s.qubit == qubit
                        and s.t_start <= t < s.t_end] for t in ts]
            assert all(len(segs) <= 1 for segs in holding)
            kappa = [sum(s.kappa(t) for s in segs) for t, segs in zip(ts, holding)]
            assert [sched.kappa(qubit, t) for t in ts] == kappa
            assert np.allclose(sched.kappa(qubit, np.array(ts)), kappa, rtol=1e-13, atol=0.0)

    def test_overlap_sliver_reads_the_later_segment(self):
        # neighbours on one qubit may overlap by up to 1e-12 ns; inside that
        # sliver the later segment alone holds t, in the float form that the
        # cascade reads and in the array form that the delay loop reads
        release = Segment("release", 1, 0.0, 100.0, KC)
        capture = Segment("capture", 1, 100.0 - 5e-13, 100.0, KC)
        sched = ControlSchedule([release, capture], window=(0.0, 200.0))
        t = 100.0 - 2.5e-13
        assert release.t_start <= t < release.t_end and capture.t_start <= t < capture.t_end
        assert sched.kappa(1, t) == capture.kappa(t)
        assert sched.kappa(1, np.array([t]))[0] == pytest.approx(capture.kappa(t), rel=1e-13)


class TestRelease:
    def test_full_release_emits_sech_packet(self):
        # defining property of the release schedule
        sched = release_only(300.0)
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0))
        expected = sech_envelope(tr.times - 150.0, KC) ** 2
        assert np.max(np.abs(np.abs(tr.a_out) ** 2 - expected)) < 1e-6

    def test_full_release_empties_qubit(self):
        sched = release_only(300.0)
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0))
        # residual population five 1/kc past the packet center
        i = np.searchsorted(tr.times, 150.0 + 5.0 / KC)
        assert tr.p1[i] <= 0.01
        assert tr.p1[-1] <= 1e-3

    def test_partial_release_splits_energy(self):
        sched = release_only(300.0, alpha=0.5)
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0))
        emitted = np.trapezoid(np.abs(tr.a_out) ** 2, tr.times)
        assert tr.p1[-1] == pytest.approx(0.5, abs=1e-4)
        assert emitted == pytest.approx(0.5, abs=1e-4)

    def test_emission_monotone_in_alpha(self):
        emitted = []
        for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
            tr = simulate_io(
                release_only(300.0, alpha=alpha),
                ChannelParams(eta=1.0, tau=TAU),
                s0=(1.0, 0.0),
            )
            emitted.append(np.trapezoid(np.abs(tr.a_out) ** 2, tr.times))
        assert np.all(np.diff(emitted) > 0)


class TestTimeReverse:
    def test_double_reversal_identity(self):
        seg = Segment("release", 1, 10.0, 150.0, KC, alpha=0.3)
        assert time_reverse(time_reverse(seg)) == seg

    def test_reversal_mirrors_rate(self):
        seg = Segment("release", 1, 0.0, 200.0, KC)
        rev = time_reverse(seg)
        t = np.linspace(0.0, 200.0, 33)
        assert np.allclose(seg.kappa(t), rev.kappa(200.0 - t), atol=1e-12)

    def test_reversed_release_captures_packet(self):
        sched = transfer_schedule(KC, 300.0, TAU)
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0))
        assert tr.p2[-1] >= 0.99


class TestSimulateIO:
    def test_idle_keeps_populations(self):
        # each qubit holds a coupling after the run's last time, so both
        # are integrated, uncoupled: every step map is 1 and no field flows
        segs = [Segment("release", 1, 300.0, 100.0, KC), Segment("release", 2, 200.0, 100.0, KC)]
        sched = ControlSchedule(segs, window=(0.0, 100.0))
        _, s, a_in, a_out = integrate(sched, ChannelParams(eta=1.0, tau=TAU),
                                      np.array([[0.6, 0.8]]), 0.25)
        assert np.all(s[0] == [0.6, 0.8])
        assert not a_in.any() and not a_out.any()

    def test_ping_pong_efficiency_lossy(self):
        sched = transfer_schedule(KC, 180.0, TAU)
        tr = simulate_io(sched, ChannelParams(eta=0.67, tau=TAU), s0=(1.0, 0.0))
        assert tr.p2[-1] == pytest.approx(0.67, abs=0.01)

    def test_ping_pong_efficiency_lossless(self):
        sched = transfer_schedule(KC, 180.0, TAU)
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0))
        assert tr.p2[-1] >= 0.999

    def test_energy_bookkeeping(self):
        sched = transfer_schedule(KC, 200.0, TAU)
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0), dt=0.125)
        flux = np.abs(tr.a_out) ** 2 - np.abs(tr.a_in) ** 2
        leaked = cumulative_simpson(flux, x=tr.times, initial=0.0)
        total = tr.p1 + tr.p2 + leaked
        assert np.max(np.abs(total - total[0])) < 1e-6

    def test_phase_covariance(self):
        sched = transfer_schedule(KC, 180.0, TAU)
        ch = ChannelParams(eta=0.8, tau=TAU)
        a = simulate_io(sched, ch, s0=(1.0, 0.0))
        b = simulate_io(sched, ch, s0=(1.0j, 0.0))
        assert np.max(np.abs(b.s1 - 1j * a.s1)) < 1e-10
        assert np.max(np.abs(b.s2 - 1j * a.s2)) < 1e-10

    def test_resonant_run_keeps_field_real(self):
        sched = transfer_schedule(KC, 180.0, TAU)
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0))
        assert np.max(np.abs(tr.a_out.imag)) < 1e-10

    def test_grid_keeps_a_real_trace_real(self):
        # a real transfer is interpolated once onto the grid and stays
        # float64; a complex one is interpolated part by part
        sched = transfer_schedule(KC, 180.0, TAU)
        ch = ChannelParams(eta=0.67, tau=TAU)
        full = simulate_io(sched, ch, s0=(1.0, 0.0))
        grid = np.linspace(0.0, full.times[-1], 101)
        real = simulate_io(sched, ch, s0=(1.0, 0.0), grid=grid)
        turned = simulate_io(sched, ch, s0=(1.0j, 0.0), grid=grid)
        for name in ("s1", "s2", "a_in", "a_out"):
            r, c = getattr(real, name), getattr(turned, name)
            assert getattr(full, name).dtype == r.dtype == np.float64
            assert c.dtype == np.complex128
            assert np.array_equal(r, np.interp(grid, full.times, getattr(full, name)))
            assert np.max(np.abs(c - 1j * r)) <= 1e-15

    def test_overlapping_couplings_rejected(self):
        segs = [
            Segment("release", 1, 0.0, 100.0, KC),
            Segment("capture", 2, 50.0, 100.0, KC),
        ]
        with pytest.raises(ValidationError):
            ControlSchedule(segs, window=(0.0, 150.0))

    @pytest.mark.parametrize("kappa_c", [1.0, 3.0])
    def test_fast_coupling_converges(self, kappa_c):
        # a coupling past 0.4/ns shrinks the step below the default 0.25 ns,
        # to a tenth of 1/kappa_c, rather than failing
        sched = transfer_schedule(kappa_c, 40.0, TAU, emitter=1, receiver=1)
        ch = ChannelParams(eta=0.67, tau=TAU)
        p1 = simulate_io(sched, ch, s0=(1.0, 0.0)).p1[-1]
        fine = simulate_io(sched, ch, s0=(1.0, 0.0), dt=0.01 / kappa_c).p1[-1]
        assert p1 == pytest.approx(0.67, abs=0.01)
        assert abs(p1 - fine) < 1e-7

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan])
    def test_step_must_be_positive(self, dt):
        sched = transfer_schedule(KC, 180.0, TAU, emitter=1, receiver=1)
        with pytest.raises(ValidationError, match="dt must be positive"):
            simulate_io(sched, ChannelParams(eta=0.67, tau=TAU), s0=(1.0, 0.0), dt=dt)

    def test_bad_channel_rejected(self):
        with pytest.raises(ValidationError):
            ChannelParams(eta=1.2, tau=TAU)
        with pytest.raises(ValidationError):
            ChannelParams(eta=0.5, tau=0.0)


@st.composite
def delay_lines(draw, pairs=((1, 1), (1, 2), (2, 1), (2, 2))):
    """A release for one transit (full or partial), then a capture one
    transit later by the same qubit or the other one (an (emitter,
    receiver) pair drawn from ``pairs``), in a window that starts off
    zero.  The window holds one to four round trips, the last one full or
    partial; tau is never a multiple of the 0.25 ns base step, so the step
    is always cut down.  Gives (schedule, channel, dt)."""
    tau = draw(st.floats(2.0, 20.0).filter(lambda x: abs(x / 0.25 - round(x / 0.25)) > 1e-6))
    dt = draw(st.floats(0.1, 0.25))
    ch = ChannelParams(eta=draw(st.floats(0.0, 1.0)), tau=tau,
                       phase=draw(st.floats(-np.pi, np.pi)))
    t0 = draw(st.floats(-50.0, 50.0).filter(lambda x: x != 0.0))
    kc = draw(st.floats(0.05, 0.4))
    alpha = draw(st.just(1.0) | st.floats(0.05, 1.0))
    emitter, receiver = draw(st.sampled_from(pairs))
    segs = [Segment("release", emitter, t0, tau, kc, alpha=alpha),
            Segment("capture", receiver, t0 + tau, tau, kc)]
    last = draw(st.just(1.0) | st.floats(0.01, 0.99))
    window = (t0, t0 + tau * (draw(st.integers(0, 3)) + last))
    return ControlSchedule(segs, window=window), ch, dt


def fixed_line(receiver: int, trips: float):
    """A partial release on qubit 1, captured by ``receiver``, over
    ``trips`` round trips."""
    tau = 7.3
    segs = [Segment("release", 1, 1.0, tau, 0.3, alpha=0.6),
            Segment("capture", receiver, 1.0 + tau, tau, 0.3)]
    ch = ChannelParams(eta=0.8, tau=tau, phase=0.4)
    return ControlSchedule(segs, window=(1.0, 1.0 + trips * tau)), ch, 0.2


def one_step_line(trips: float):
    """A 0.2 ns line stepped in 0.2 ns, one step per round trip: qubit 2
    releases over 20 round trips, fed its own output all along."""
    tau = 0.2
    segs = [Segment("release", 2, 1.0, 20 * tau, 0.3, alpha=0.6)]
    ch = ChannelParams(eta=0.8, tau=tau, phase=0.4)
    return ControlSchedule(segs, window=(1.0, 1.0 + trips * tau)), ch, 0.2


def resonant(line):
    """A line at channel phase 0: a release and capture on resonance, a
    real transfer."""
    sched, ch, dt = line
    return sched, replace(ch, phase=0.0), dt


def real_line(trips: float):
    """``fixed_line(receiver=1)`` made resonant: qubit 1 alone."""
    return resonant(fixed_line(receiver=1, trips=trips))


def stepwise_integrate(schedule, ch, s0, dt, extra_phases=None, pulse=None):
    """Reference: the delay loop stepped one RK4 step at a time in Python,
    on the same half-step grid, input offset and Hermite midpoint."""
    t0, t1 = schedule.window
    n_sub = max(int(np.ceil(ch.tau / min(dt, 0.25))), 1)
    h = ch.tau / n_sub
    n_steps = int(np.ceil((t1 - t0) / h - 1e-9))
    times = t0 + h * np.arange(n_steps + 1)
    nodes = (times[:, None] + [0.0, h / 2.0]).ravel()[:-1]
    lag = 2 * n_sub
    kappa = np.stack([schedule.kappa(q, nodes) for q in (1, 2)], axis=1)
    delta = np.zeros_like(kappa)
    if pulse:
        start, end, detuning = pulse
        delta[(nodes >= start) & (nodes < end), 0] = detuning
    decay = -(1j * delta + kappa / 2.0)
    root = np.sqrt(kappa)

    s = np.atleast_2d(np.array(s0, dtype=complex))
    batch = s.shape[0]
    phases = np.zeros(batch) if extra_phases is None else np.asarray(extra_phases, dtype=float)
    feedback = np.sqrt(ch.eta) * np.exp(1j * ch.phase) * np.exp(1j * phases)
    zero = np.zeros(batch, dtype=complex)
    out = np.zeros((batch, 2 * n_steps + 1), dtype=complex)

    def rhs(j, y, ain):
        return decay[j] * y + root[j] * ain[:, None]

    out[:, 0] = s @ root[0]
    ain_b = zero
    states, inputs = [s], [ain_b]
    for i in range(n_steps):
        a, m, b = 2 * i, 2 * i + 1, 2 * i + 2
        ain_a = ain_b
        ain_m = feedback * out[:, m - lag] if m >= lag else zero
        ain_b = feedback * out[:, b - lag] if b >= lag else zero
        f1 = rhs(a, s, ain_a)
        f2 = rhs(m, s + 0.5 * h * f1, ain_m)
        f3 = rhs(m, s + 0.5 * h * f2, ain_m)
        f4 = rhs(b, s + h * f3, ain_b)
        s_new = s + (h / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
        fb = rhs(b, s_new, ain_b)
        s_mid = 0.5 * (s + s_new) + (h / 8.0) * (f1 - fb)
        out[:, m] = s_mid @ root[m] - ain_m
        out[:, b] = s_new @ root[b] - ain_b
        s = s_new
        states.append(s)
        inputs.append(ain_b)
    return times, np.stack(states, axis=1), np.stack(inputs, axis=1), out[:, ::2]


def full_block_integrate(schedule, ch, s0, dt, extra_phases=None, pulse=None, dtype=None):
    """Reference: the block loop with the input work done on every step of
    every block, also before the first transit has arrived; ``_step_maps``
    from step 0 gives the input weights of every step.  It runs in the
    dtype given, or by default in the one ``_integrate`` picks: float64
    without a pulse when every feedback factor and amplitude is real."""
    t0 = schedule.window[0]
    n_sub, h, n_steps = _grid(schedule, ch.tau, dt)
    times = t0 + h * np.arange(n_steps + 1)
    busy = [q for q in (1, 2) if len(schedule.tables[q][0]) > 1 or (pulse and q == 1)]
    rows = slice(busy[0] - 1, busy[-1])
    nodes = np.concatenate([times, times[:-1] + h / 2.0])
    kappa = np.stack([schedule.kappa(q, nodes) for q in busy])
    s = np.asarray(s0)
    batch = s.shape[0]
    phases = np.zeros(batch) if extra_phases is None else np.asarray(extra_phases, dtype=float)
    feedback = (np.sqrt(ch.eta) * np.exp(1j * ch.phase) * np.exp(1j * phases))[:, None]
    if dtype is None:
        real = pulse is None and not feedback.imag.any() and not np.imag(s).any()
        dtype = float if real else complex
    if dtype == float:
        feedback, s = feedback.real, s.real
    decay = np.zeros(kappa.shape, dtype=dtype)
    decay.real = -0.5 * kappa
    if pulse:
        start, end, delta = pulse
        decay.imag[0, (nodes >= start) & (nodes < end)] = -delta
    root = np.sqrt(kappa).astype(dtype)
    A, Ca, Cm, Ha, Hb = _step_maps(decay, root, h, n_steps, 0)
    r_a, r_b = root[:, None, :n_steps], root[:, None, 1 : n_steps + 1]
    r_m = root[:, None, n_steps + 1 :]

    ain, aout = (np.zeros((batch, n_steps + 1), dtype=dtype) for _ in range(2))
    ain_m, aout_m = (np.zeros((batch, n_steps), dtype=dtype) for _ in range(2))
    states = np.empty((2, batch, n_steps + 1), dtype=dtype)
    states[...] = s.T[:, :, None]
    live = states[rows]

    aout[:, :1] = (root[:, None, :1] * live[..., :1]).sum(axis=0)
    for first in range(0, n_steps, n_sub):
        n = min(n_sub, n_steps - first)
        blk, nxt = slice(first, first + n), slice(first + 1, first + n + 1)
        lo = max(first, n_sub)
        if lo <= first + n:
            ain[:, lo : first + n + 1] = feedback * aout[:, lo - n_sub : first + n + 1 - n_sub]
            ain_m[:, lo : first + n] = feedback * aout_m[:, lo - n_sub : first + n - n_sub]
        u_a, u_m, u_b = ain[:, blk], ain_m[:, blk], ain[:, nxt]
        B = Ca[..., blk] * u_a + Cm[..., blk] * u_m + (h / 6.0) * r_b[..., blk] * u_b
        # s_{k+1} = P_k (s_a + sum_{j<=k} B_j / P_j) over each span from a
        for a in range(first, first + n, _SPAN):
            b = min(a + _SPAN, first + n)
            P = np.cumprod(A[..., a:b], axis=-1)
            run = np.cumsum(B[..., a - first : b - first] / P, axis=-1) + live[..., a : a + 1]
            live[..., a + 1 : b + 1] = P * run
        s_old, s_new = live[..., blk], live[..., nxt]
        s_mid = (Ha[..., blk] * s_old + Hb[..., blk] * s_new + (h / 8.0) * r_a[..., blk] * u_a
                 + (-h / 8.0) * r_b[..., blk] * u_b)
        aout_m[:, blk] = (r_m[..., blk] * s_mid).sum(axis=0) - u_m
        aout[:, nxt] = (r_b[..., blk] * s_new).sum(axis=0) - u_b

    return times, states.transpose(1, 2, 0), ain, aout


class TestDelayLine:
    @settings(max_examples=25, deadline=None)
    @given(line=delay_lines())
    def test_input_is_fed_back_output_one_transit_late(self, line):
        sched, ch, dt = line
        _, _, (a_in,), (a_out,) = integrate(sched, ch, np.array([[1.0, 0.0]]), dt)
        n_sub = int(np.ceil(ch.tau / min(dt, 0.25)))
        assert np.all(a_in[:n_sub] == 0.0)
        feedback = np.sqrt(ch.eta) * np.exp(1j * ch.phase)
        assert np.allclose(a_in[n_sub:], feedback * a_out[:-n_sub], rtol=0.0, atol=1e-14)

    @settings(max_examples=10, deadline=None)
    @given(line=delay_lines(), extra=st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=4))
    def test_batched_rows_equal_single_runs(self, line, extra):
        sched, ch, dt = line
        s0 = np.tile([1.0 + 0j, 0.0], (len(extra), 1))
        batched = integrate(sched, ch, s0, dt, extra_phases=np.array(extra))
        for row, phi in enumerate(extra):
            single = integrate(sched, replace(ch, phase=ch.phase + phi), s0[row : row + 1], dt)
            assert np.array_equal(batched[0], single[0])
            for got, want in zip(batched[1:], single[1:]):
                assert np.allclose(got[row], want[0], rtol=0.0, atol=1e-14)


    @settings(max_examples=60, deadline=None)
    @given(line=delay_lines(),
           rows=st.lists(st.tuples(st.floats(-np.pi, np.pi), st.complex_numbers(max_magnitude=1.0),
                                   st.complex_numbers(max_magnitude=1.0)),
                         min_size=1, max_size=3))
    @example(line=fixed_line(receiver=1, trips=3.7),
             rows=[(0.0, 1.0, 0.0), (1.1, 0.3j, 0.5), (-2.5, 0.6, -0.2 + 0.1j)])
    @example(line=fixed_line(receiver=2, trips=4.0), rows=[(0.4, 0.8, 0.1j)])
    @example(line=real_line(trips=3.7), rows=[(0.0, 1.0, 0.0), (1.3, 0.6, -0.8)])
    def test_block_scan_matches_stepwise_loop(self, line, rows):
        # differential: the step maps and block scan against the oracle that
        # takes one RK4 step at a time, on states, a_in and a_out
        sched, ch, dt = line
        extra = np.array([phi for phi, _, _ in rows])
        s0 = np.array([[s1, s2] for _, s1, s2 in rows])
        got = integrate(sched, ch, s0, dt, extra_phases=extra)
        want = stepwise_integrate(sched, ch, s0, dt, extra_phases=extra)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(line=delay_lines(),
           rows=st.lists(st.tuples(st.floats(-np.pi, np.pi), st.complex_numbers(max_magnitude=1.0),
                                   st.complex_numbers(max_magnitude=1.0)),
                         min_size=1, max_size=3))
    @example(line=fixed_line(receiver=2, trips=0.6), rows=[(0.3, 1.0, 0.2j)])
    @example(line=fixed_line(receiver=1, trips=0.97), rows=[(0.0, 1.0, 0.0), (1.1, 0.3j, 0.5)])
    @example(line=fixed_line(receiver=2, trips=1.0), rows=[(0.4, 0.8, 0.1j)])
    @example(line=one_step_line(trips=37.5), rows=[(0.4, 0.8, 0.1j)])
    @example(line=one_step_line(trips=24.0), rows=[(0.0, 1.0, 0.0), (-2.0, 0.6, 0.3)])
    @example(line=real_line(trips=3.7), rows=[(0.0, 1.0, 0.0)])
    def test_fed_steps_alone_match_full_blocks(self, line, rows):
        # differential, exact: the input work done only on the steps the
        # input reaches against the same loop doing it on every step; the
        # examples are windows shorter than tau and lines whose step is one
        # round trip (n_sub = 1)
        sched, ch, dt = line
        extra = np.array([phi for phi, _, _ in rows])
        s0 = np.array([[s1, s2] for _, s1, s2 in rows])
        got = integrate(sched, ch, s0, dt, extra_phases=extra)
        want = full_block_integrate(sched, ch, s0, dt, extra_phases=extra)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("change, dtype", [
        ({}, np.float64),
        ({"s0": np.array([[1.0 + 0j, 0.0], [0.6, -0.8]])}, np.float64),  # complex, zero imag
        ({"eta": 0.0}, np.float64),
        # qubit 2 joins the loop, uncoupled: its coupling starts after the run
        ({"segments": [Segment("release", 2, 100.0, 2.0, 0.3)]}, np.float64),
        ({"s0": np.array([[1.0j, 0.0], [0.6, -0.8]])}, np.complex128),  # on the busy qubit
        ({"phase": 0.4}, np.complex128),
        ({"extra": np.array([0.0, 1.3])}, np.complex128),
        ({"s0": np.array([[1.0, 0.0], [0.6, 0.8j]])}, np.complex128),  # on the carried one
    ])
    def test_loop_is_real_exactly_when_the_transfer_is(self, change, dtype):
        # float64 needs a real feedback factor on every row and real
        # amplitudes; any one complex term makes the loop complex
        sched, ch, dt = real_line(trips=2.5)
        sched = ControlSchedule(list(sched.segments) + change.get("segments", []), sched.window)
        ch = replace(ch, eta=change.get("eta", ch.eta), phase=change.get("phase", ch.phase))
        s0 = change.get("s0", np.array([[1.0, 0.0], [0.6, -0.8]]))
        extra = change.get("extra", np.zeros(2))
        _, states, ain, aout = integrate(sched, ch, s0, dt, extra_phases=extra)
        assert states.dtype == ain.dtype == aout.dtype == dtype

    @settings(max_examples=40, deadline=None)
    @given(line=delay_lines().map(resonant),
           amps=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                         min_size=1, max_size=3))
    @example(line=real_line(trips=3.7), amps=[(1.0, 0.0), (0.6, -0.8)])
    def test_real_loop_matches_complex_oracle(self, line, amps):
        # differential: the float64 loop against the same loop forced complex
        sched, ch, dt = line
        s0 = np.array(amps)
        extra = np.zeros(len(amps))
        got = integrate(sched, ch, s0, dt, extra_phases=extra)
        want = full_block_integrate(sched, ch, s0, dt, extra_phases=extra, dtype=complex)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == np.float64 and w.dtype == np.complex128
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-15

    def test_round_trip_longer_than_one_span(self):
        # kappa_c 1.0/ns at dt 0.1 gives 5,082 steps a round trip, composed
        # in two spans; each qubit couples in one span of each round trip,
        # and in the second round trip both spans are fed
        tau = 508.12
        segs = [Segment("release", 2, 100.0, 40.0, 1.0),
                Segment("release", 1, 450.0, 40.0, 1.0, alpha=0.6),
                Segment("capture", 1, 100.0 + tau, 40.0, 1.0),
                Segment("capture", 2, 450.0 + tau, 40.0, 1.0)]
        sched = ControlSchedule(segs, window=(0.0, 2.2 * tau))
        ch = ChannelParams(eta=0.67, tau=tau, phase=0.4)
        n_sub, _, n_steps = _grid(sched, tau, 0.1)
        assert n_sub == 5082 and n_sub > _SPAN
        s0 = np.array([[1.0, 0.0], [0.6, 0.8j]])
        extra = np.array([0.0, 1.3])
        got = integrate(sched, ch, s0, 0.1, extra_phases=extra)
        want = stepwise_integrate(sched, ch, s0, 0.1, extra_phases=extra)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert np.all(np.isfinite(g))
            assert np.max(np.abs(g - w)) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), fed=st.integers(0, 40),
           h=st.floats(0.01, 0.25))
    def test_real_maps_equal_complex_maps(self, seed, n, fed, h):
        # the loop's maps are built in float64: cast to complex they are
        # the maps of the same coefficients given as complex, which the
        # interference fringe builds for its phase pulses
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(0.0, 0.4, size=(2, 2 * n + 1))
        kappa[:, rng.random(2 * n + 1) < 0.3] = 0.0  # uncoupled nodes
        decay, root = -0.5 * kappa, np.sqrt(kappa)
        fed = min(fed, n)
        real = _step_maps(decay, root, h, n, fed)
        cplx = _step_maps(decay.astype(complex), root.astype(complex), h, n, fed)
        for r, c in zip(real, cplx):
            assert r.dtype == np.float64 and c.dtype == np.complex128
            assert r.shape == c.shape
            assert r.astype(complex).tobytes() == c.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(line=delay_lines(pairs=[(1, 1), (2, 2)]),
           rows=st.lists(st.tuples(st.floats(-np.pi, np.pi), st.complex_numbers(max_magnitude=1.0),
                                   st.complex_numbers(min_magnitude=0.01, max_magnitude=1.0)),
                         min_size=1, max_size=3))
    @example(line=fixed_line(receiver=1, trips=3.7),
             rows=[(0.0, 1.0, 0.5j), (1.1, 0.3j, -0.6 + 0.2j)])
    def test_idle_qubit_carried_as_if_integrated(self, line, rows):
        # differential, exact: a coupling after the run's last node, and
        # after every other coupling, sends the otherwise idle qubit through
        # the loop at kappa = 0
        sched, ch, dt = line
        (busy,) = {s.qubit for s in sched.segments}
        segs = list(sched.segments)
        after = max(sched.window[1], *(s.t_end for s in segs)) + ch.tau
        idle = Segment("release", 3 - busy, after, ch.tau, 0.3)
        extra = np.array([phi for phi, _, _ in rows])
        # each row draws the busy qubit's amplitude, then the idle one's
        s0 = np.array([(a, b) if busy == 1 else (b, a) for _, a, b in rows])
        carried = integrate(sched, ch, s0, dt, extra_phases=extra)
        looped = integrate(ControlSchedule(segs + [idle], sched.window), ch, s0, dt,
                           extra_phases=extra)
        for c, w in zip(carried, looped):
            assert c.shape == w.shape
            assert np.array_equal(c, w)

    def test_qubit_two_alone_mirrors_qubit_one_alone(self):
        sched, ch, dt = fixed_line(receiver=1, trips=3.7)
        segs = list(sched.segments)
        s0 = np.array([[1.0, 0.3j], [0.2 - 0.5j, -0.7]])
        extra = np.array([0.0, 1.3])
        one = integrate(ControlSchedule(segs, sched.window), ch, s0, dt, extra_phases=extra)
        two = integrate(ControlSchedule([replace(s, qubit=2) for s in segs], sched.window), ch,
                        s0[:, ::-1], dt, extra_phases=extra)
        # the same arrays, bit for bit, with the qubit axis swapped
        mirrored = (one[0], one[1][..., ::-1], one[2], one[3])
        for m, t in zip(mirrored, two):
            assert m.shape == t.shape
            assert np.ascontiguousarray(m).tobytes() == np.ascontiguousarray(t).tobytes()
        # the idle qubit holds its initial amplitude at every node
        assert np.all(one[1][..., 1] == s0[:, None, 1])
        assert np.all(two[1][..., 0] == s0[:, None, 1])


DELTA = 20.0 * MHZ  # the fringe's phase-pulse detuning


def interference_schedule(delta_phi, tau, kappa_c, window):
    """The schedule and pulse (start, end, Delta) of one fringe phase, the
    pulse cut at the capture's start, as the oracles take them."""
    release = Segment("release", 1, 0.0, window, kappa_c, alpha=0.5)
    sched = ControlSchedule([release, time_reverse(replace(release, t_start=tau))],
                            window=(0.0, tau + window))
    return sched, (window, min(window + delta_phi / DELTA, tau), DELTA) if delta_phi > 0 else None


@st.composite
def interference_cases(draw):
    """Lines of 20-60 ns, or of 100 or 508 ns; every step is 0.25 ns or a
    little shorter.  The release's end w falls on a loop node, inside a
    step before its midpoint or after it (the midpoint coupled then), or
    anywhere; window = tau (two round trips in the integration window)
    leaves no room for a phase pulse.  The phase is 0, at most 0.03 rad (a
    pulse shorter than one step), anything that fits, or one whose pulse
    ends inside the 1e-12 ns sliver past the capture's start and is cut
    there."""
    tau = draw(st.sampled_from([100.0, 508.0]) | st.floats(20.0, 60.0))
    h = tau / np.ceil(tau / 0.25)
    node = draw(st.integers(int(0.2 * tau / h), int(0.9 * tau / h)))
    window = draw(st.just(tau) | st.floats(0.2 * tau, 0.9 * tau)
                  | st.sampled_from([0.0, 0.3, 0.7]).map(lambda f: (node + f) * h))
    room = (tau - window) * DELTA  # the widest phase that fits
    dphi = draw(st.sampled_from(["short", "fits", "cut"]).flatmap(lambda kind: {
        "short": st.floats(0.0, 0.03).map(lambda p: min(p, room)),
        "fits": st.floats(0.0, 0.999).map(lambda f: f * min(room, 2 * np.pi - 1e-6)),
        "cut": st.floats(0.0, 5e-13).map(
            lambda e: room + e * DELTA if room < 2 * np.pi - 1e-6 else 0.0),
    }[kind]))
    ch = ChannelParams(eta=draw(st.floats(0.0, 1.0)), tau=tau,
                       phase=draw(st.floats(-np.pi, np.pi)))
    noise = NoiseSpec(sigma_phi=draw(st.just(0.0) | st.floats(0.0, 2.0)),
                      n_realizations=draw(st.integers(1, 16)),
                      master_seed=draw(st.integers(0, 2**32)))
    return dphi, ch, noise, draw(st.floats(0.05, 0.4)), window, draw(st.integers(1, 4))


class TestInterference:
    @settings(max_examples=60, deadline=None)
    @given(case=interference_cases())
    @example(case=(0.0, ChannelParams(eta=0.67, tau=30.0, phase=0.3),
                   NoiseSpec(0.7, 5, 11), 0.2, 30.0, 1))
    # w on a node, the midpoint before it coupled: without that output's
    # change every row's amplitude misses by 7e-8
    @example(case=(1.0, ChannelParams(eta=0.67, tau=508.0, phase=0.7),
                   NoiseSpec(0.0), 0.3, 40.0, 1))
    @example(case=(0.02, ChannelParams(eta=0.8, tau=100.0, phase=-1.2),
                   NoiseSpec(0.9, 7, 3), 0.3, 40.175, 1))  # inside a step, midpoint coupled
    @example(case=(0.03, ChannelParams(eta=0.8, tau=100.0, phase=2.0),
                   NoiseSpec(0.9, 7, 3), 0.3, 40.075, 2))  # inside a step, midpoint not
    @example(case=(10.0 * DELTA + 3e-13 * DELTA, ChannelParams(eta=0.9, tau=30.0, phase=0.5),
                   NoiseSpec(1.1, 9, 4), 0.25, 20.0, 1))  # cut at the capture
    # kappa_c 0.5 cuts the step to 30.2 / 151 ns, whose 151st multiple rounds
    # short of tau: the pulse cut at tau also detunes that node, the
    # capture's first step's start
    @example(case=(10.2 * DELTA + 2e-13 * DELTA, ChannelParams(eta=0.7, tau=30.2, phase=-1.0),
                   NoiseSpec(0.5, 6, 2), 0.5, 20.0, 3))
    def test_exact_average_matches_per_realization_rows(self, case):
        # differential: the one pass and the pulses by linearity against the
        # block loop run under each realization's phase with the pulse
        dphi, ch, noise, kappa_c, window, chunk = case
        pe = interference_experiment(np.array([dphi]), ch, noise, kappa_c, window, chunk=chunk)
        phases = np.zeros(1) if noise.sigma_phi == 0.0 else realization_phases(noise)
        sched, pulse = interference_schedule(dphi, ch.tau, kappa_c, window)
        s0 = np.tile([1.0 + 0j, 0.0], (len(phases), 1))
        rows = full_block_integrate(sched, ch, s0, 0.25, extra_phases=phases, pulse=pulse)[1]
        s1 = rows[:, -1, 0]
        assert pe[0] == pytest.approx(np.mean(np.abs(s1) ** 2), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("line, pulse", [
        (fixed_line(receiver=1, trips=3.7), (8.3, 11.95, 12.0 * MHZ)),
        (fixed_line(receiver=2, trips=4.0), (8.3, 11.95, -25.0 * MHZ)),
        (one_step_line(trips=37.5), (1.5, 2.5, 12.0 * MHZ)),
    ])
    def test_block_oracle_matches_stepwise_oracle_under_a_pulse(self, line, pulse):
        # the fringe's oracle, the block loop under a pulse, against the
        # loop stepped one RK4 step at a time under the same pulse: on
        # qubit 1 coupled, uncoupled after its release, and alone
        sched, ch, dt = line
        s0 = np.array([[1.0, 0.0], [0.3j, 0.5]])
        extra = np.array([0.0, -2.1])
        got = full_block_integrate(sched, ch, s0, dt, extra_phases=extra, pulse=pulse)
        want = stepwise_integrate(sched, ch, s0, dt, extra_phases=extra, pulse=pulse)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13

    def test_phase_array_matches_scalar_calls(self):
        ch = ChannelParams(eta=0.67, tau=TAU)
        noise = NoiseSpec(sigma_phi=0.5, n_realizations=64, master_seed=2)
        dphis = np.linspace(0.0, 2 * np.pi, 5)
        fringe = interference_experiment(dphis, ch, noise)
        assert fringe.shape == (5,)
        # one phase per call, as one-element arrays
        singles = [interference_experiment(np.array([p]), ch, noise) for p in dphis]
        assert np.array_equal(fringe, np.concatenate(singles))
        with pytest.raises(ValidationError):
            interference_experiment(1.0, ch, noise)

    def test_real_first_pass_matches_one_pass(self):
        # with chunk 1 the first pass of the unpulsed phase is the phase-0
        # row alone, a real loop; in one pass it shares a complex loop
        ch = ChannelParams(eta=0.67, tau=60.0)
        noise = NoiseSpec(sigma_phi=0.7, n_realizations=16, master_seed=11)
        dphis = np.array([0.0, 1.0, np.pi])
        n_sub, _, n_steps = _grid(interference_schedule(0.0, ch.tau, 0.2, 20.0)[0], ch.tau, 0.25)
        one_row = interference_experiment(dphis, ch, noise, 0.2, 20.0, chunk=1)
        one_pass = interference_experiment(dphis, ch, noise, 0.2, 20.0,
                                           chunk=n_steps // n_sub + 1)
        assert np.max(np.abs(one_row - one_pass)) <= 1e-15

    def test_lossless_rephasing_is_complete(self):
        (pe,) = interference_experiment(np.array([0.0]), ChannelParams(eta=1.0, tau=TAU), NOISELESS)
        assert pe == pytest.approx(1.0, abs=1e-3)

    def test_noiseless_extremes_match_closed_form(self):
        # P_e = 1/4 + eta/4 + (sqrt(eta)/2) cos(dphi)
        eta = 0.67
        ch = ChannelParams(eta=eta, tau=TAU)
        hi, lo = interference_experiment(np.array([0.0, np.pi]), ch, NOISELESS)
        assert hi == pytest.approx(0.25 + eta / 4 + np.sqrt(eta) / 2, abs=0.005)
        assert lo == pytest.approx(0.25 + eta / 4 - np.sqrt(eta) / 2, abs=0.005)

    def test_destructive_extreme_with_dephasing(self):
        noise = NoiseSpec(sigma_phi=np.sqrt(2 * 0.508 / 2.1), n_realizations=256, master_seed=5)
        (pe,) = interference_experiment(np.array([np.pi]), ChannelParams(eta=0.67, tau=TAU), noise)
        assert pe == pytest.approx(0.08, abs=0.05)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan])
    def test_step_must_be_positive(self, dt):
        with pytest.raises(ValidationError, match="dt must be positive"):
            interference_experiment(np.array([0.0]), ChannelParams(eta=0.67, tau=TAU), NOISELESS,
                                    dt=dt)

    @pytest.mark.parametrize("phase, dtype", [(0.0, np.float64), (0.4, np.complex128)])
    def test_rows_reach_the_loop_as_exact_roots_of_unity(self, monkeypatch, phase, dtype):
        # the default fringe holds one round trip: its two rows reach the
        # loop as +1 and -1 exactly, and the pass runs in float64; a
        # channel phase makes every row's feedback complex
        import sawlink.ioshape as ioshape

        passes = []

        def recorded(loop, ch, s0, row_factors):
            out = _integrate(loop, ch, s0, row_factors)
            passes.append((row_factors, out[1].dtype))
            return out

        monkeypatch.setattr(ioshape, "_integrate", recorded)
        ch = ChannelParams(eta=0.67, tau=508.12, phase=phase)
        interference_experiment(np.linspace(0.0, 2 * np.pi, 5), ch, NoiseSpec(0.7, 64, 3))
        ((factors, got),) = passes
        assert not factors.imag.any() and factors.real.tolist() == [1.0, -1.0]
        assert got == dtype

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, bad):
        # NaN and inf have no remainder mod 2 pi, so they would read as no pulse
        ch = ChannelParams(eta=0.67, tau=TAU)
        with pytest.raises(ValidationError, match="delta_phi must be finite"):
            interference_schedules(np.array([0.0, bad]), ch, KC, 180.0)
        with pytest.raises(ValidationError, match="delta_phi must be finite"):
            interference_experiment(np.array([bad, 0.0, np.inf]), ch, NOISELESS)

    def test_phase_pulse_must_fit(self):
        with pytest.raises(ValidationError, match="overlapping segments on qubit 1"):
            interference_experiment(
                np.array([np.pi]), ChannelParams(eta=1.0, tau=200.0), NOISELESS, window=180.0
            )

    def test_pulse_inside_the_overlap_sliver_ends_at_the_capture(self):
        # neighbours on qubit 1 may overlap by 1e-12 ns, and inside that
        # sliver the capture is read, so the pulse is cut at its start
        ch, delta = ChannelParams(eta=1.0, tau=200.0), 20.0 * MHZ
        for past, end in ((5e-13, 200.0), (-5e-12, 200.0 - 5e-12)):
            _, (pulse,) = interference_schedules(np.array([(20.0 + past) * delta]), ch, KC, 180.0)
            assert pulse == (180.0, pytest.approx(end, abs=1e-13), delta)
            assert pulse[1] <= ch.tau


def test_iotrace_population_properties():
    tr = IOTrace(
        times=np.array([0.0, 1.0]),
        s1=np.array([1.0, 0.5 + 0.5j]),
        s2=np.array([0.0, 0.5]),
        a_in=np.zeros(2, complex),
        a_out=np.zeros(2, complex),
    )
    assert np.allclose(tr.p1, [1.0, 0.5])
    assert np.allclose(tr.p2, [0.0, 0.25])


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Reference stream of one realization: a fresh Philox keyed (seed, index)."""
    key = (int(master_seed) << 64) | int(index)
    return np.random.Generator(np.random.Philox(key=key))


class TestNoise:
    @pytest.mark.parametrize("seed", [0, 1234, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_rekeyed_draws_match_fresh_generators(self, seed, n):
        noise = NoiseSpec(sigma_phi=0.7, n_realizations=n, master_seed=seed)
        want = [realization_rng(seed, i).normal(0.0, 0.7) for i in range(n)]
        assert np.array_equal(realization_phases(noise), want)

    def test_sigma_from_transit_calibration(self):
        tau_us, t2r = 0.508, 2.1
        sigma = np.sqrt(2 * tau_us / t2r)
        assert sigma == pytest.approx(0.6956, abs=5e-4)

    def test_phase_draws_match_gaussian_characteristic_function(self):
        noise = NoiseSpec(sigma_phi=0.6956, n_realizations=1024, master_seed=42)
        phases = realization_phases(noise)
        assert np.mean(np.cos(phases)) == pytest.approx(
            np.exp(-0.6956**2 / 2), abs=0.02
        )

    def test_phases_bit_reproducible(self):
        noise = NoiseSpec(sigma_phi=0.5, n_realizations=64, master_seed=7)
        assert np.array_equal(realization_phases(noise), realization_phases(noise))

    def test_distinct_seeds_give_distinct_streams(self):
        a = realization_phases(NoiseSpec(0.5, 32, master_seed=1))
        b = realization_phases(NoiseSpec(0.5, 32, master_seed=2))
        assert not np.array_equal(a, b)

    def test_invalid_spec_rejected(self):
        for sigma in (-0.1, np.inf, np.nan):
            with pytest.raises(ValidationError):
                NoiseSpec(sigma_phi=sigma)
        with pytest.raises(ValidationError):
            NoiseSpec(sigma_phi=0.1, n_realizations=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, 3.5, "7", True, None])
    def test_seed_outside_key_range_rejected(self, seed):
        # the seed is the high word of a 128-bit Philox key
        with pytest.raises(ValidationError, match="master_seed"):
            NoiseSpec(0.3, 2, master_seed=seed)

    @pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), np.int64(5)])
    def test_integer_seeds_in_key_range_accepted(self, seed):
        assert len(realization_phases(NoiseSpec(0.3, 2, master_seed=seed))) == 2


def test_import_loads_no_scipy_and_no_lindblad_module():
    # the delay loop stands alone: numpy and `errors` are all it needs
    script = (
        "import sys\n"
        "import sawlink.ioshape\n"
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "              or m in ('sawlink.dynamics', 'sawlink.qcore')))\n"
    )
    src = str(Path(sawlink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == []
