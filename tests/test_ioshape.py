from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.optimize import brentq

from sawlink.dynamics import NoiseSpec, realization_phases
from sawlink.errors import IntegrationError, ValidationError
from sawlink.ioshape import (
    SEGMENT_KINDS,
    ChannelParams,
    ControlSchedule,
    IOTrace,
    Segment,
    _integrate,
    interference_experiment,
    sech_envelope,
    simulate_io,
    time_reverse,
    transfer_schedule,
)

KC = 0.1  # 1/ns
TAU = 508.0  # ns


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
            sech_envelope(0.0, -1.0)
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
        ("detune", {"alpha": 0.5}),
        ("detune", {"f_mhz": 20.0, "kappa_c": 0.3, "alpha": 0.5}),
    ])
    def test_field_the_kind_does_not_read_rejected(self, kind, fields):
        # the schedule would drop it: a release's f_mhz detunes nothing and
        # a detune's kappa_c couples nothing
        with pytest.raises(ValidationError):
            Segment(kind, 1, 0.0, 100.0, **fields)


@st.composite
def schedules(draw):
    """One to five segments of any kind on either qubit, laid end to end or
    with gaps, so the coupling rules hold by construction; each kind draws
    only the fields it reads."""
    segs, t = [], draw(st.floats(-50.0, 50.0))
    for _ in range(draw(st.integers(1, 5))):
        kind, qubit = draw(st.sampled_from(SEGMENT_KINDS)), draw(st.sampled_from([1, 2]))
        duration = draw(st.floats(1.0, 200.0))
        if kind == "detune":
            fields = {"f_mhz": draw(st.floats(-50.0, 50.0))}
        else:
            fields = {"kappa_c": draw(st.floats(0.01, 1.0)), "alpha": draw(st.floats(0.05, 1.0))}
        segs.append(Segment(kind, qubit, t, duration, **fields))
        t += duration + draw(st.sampled_from([0.0, 5.0]))
    return ControlSchedule(segs)


class TestScheduleLookup:
    @settings(max_examples=60, deadline=None)
    @given(sched=schedules(), data=st.data())
    def test_scalar_lookup_matches_array_path(self, sched, data):
        # segment edges included: both paths treat intervals as half-open
        edges = [x for s in sched.segments for x in (s.t_start, s.t_end)]
        lo, hi = sched.window
        t = data.draw(st.sampled_from(edges) | st.floats(lo - 10.0, hi + 10.0))
        for qubit in (1, 2):
            for lookup in (sched.kappa, sched.delta):
                scalar = lookup(qubit, t)
                assert isinstance(scalar, float)
                want = lookup(qubit, np.array([t]))[0]
                assert np.isclose(scalar, want, rtol=1e-13, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(sched=schedules(), data=st.data())
    def test_lookup_sums_the_segments_holding_t(self, sched, data):
        # brute force: every segment of the qubit whose [start, end) holds
        # t, couplings adding to kappa and detunes to delta
        edges = [x for s in sched.segments for x in (s.t_start, s.t_end)]
        lo, hi = sched.window
        ts = data.draw(st.lists(st.sampled_from(edges) | st.floats(lo - 10.0, hi + 10.0),
                                min_size=1, max_size=8))
        for qubit in (1, 2):
            for lookup, value, couples in ((sched.kappa, Segment.kappa, True),
                                           (sched.delta, Segment.delta, False)):
                holding = [[s for s in sched.segments if s.qubit == qubit
                            and s.couples == couples and s.t_start <= t < s.t_end] for t in ts]
                want = [sum(value(s, t) for s in segs) for t, segs in zip(ts, holding)]
                assert [lookup(qubit, t) for t in ts] == want
                got = lookup(qubit, np.array(ts))
                assert np.allclose(got, want, rtol=1e-13, atol=0.0)


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
        segs = [Segment("detune", 1, 0.0, 100.0, f_mhz=20.0)]
        sched = ControlSchedule(segs, window=(0.0, 100.0))
        tr = simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(0.6, 0.8))
        # the step straddling the hard segment edge takes a one-time
        # O((delta*h)^3) kick; strictly inside, populations hold tight
        inside = tr.times <= 99.5
        assert np.allclose(tr.p1[inside], 0.36, atol=5e-9)
        assert np.allclose(tr.p1, 0.36, atol=2e-5)
        assert np.allclose(tr.p2, 0.64, atol=1e-12)
        # detuning only rotates the phase
        expected = 0.6 * np.exp(-1j * 0.02 * 2 * np.pi * tr.times)
        assert np.allclose(tr.s1[inside], expected[inside], atol=1e-6)

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

    def test_overlapping_couplings_rejected(self):
        segs = [
            Segment("release", 1, 0.0, 100.0, KC),
            Segment("capture", 2, 50.0, 100.0, KC),
        ]
        with pytest.raises(ValidationError):
            ControlSchedule(segs)

    def test_unresolvable_rate_rejected(self):
        sched = ControlSchedule(
            [Segment("release", 1, 0.0, 10.0, 10.0)], window=(0.0, 10.0)
        )
        with pytest.raises(IntegrationError):
            simulate_io(sched, ChannelParams(eta=1.0, tau=TAU), s0=(1.0, 0.0))

    def test_bad_channel_rejected(self):
        with pytest.raises(ValidationError):
            ChannelParams(eta=1.2, tau=TAU)
        with pytest.raises(ValidationError):
            ChannelParams(eta=0.5, tau=0.0)


@st.composite
def delay_lines(draw):
    """A release on qubit 1 for one transit (full or partial), an optional
    detune pulse on qubit 1 after it, then a capture on qubit 2, in a window
    that starts off zero and holds one to four round trips; tau is never a
    multiple of the 0.25 ns base step, so the step is always cut down."""
    tau = draw(st.floats(2.0, 20.0).filter(lambda x: abs(x / 0.25 - round(x / 0.25)) > 1e-6))
    dt = draw(st.floats(0.1, 0.25))
    ch = ChannelParams(eta=draw(st.floats(0.0, 1.0)), tau=tau,
                       phase=draw(st.floats(-np.pi, np.pi)))
    t0 = draw(st.floats(-50.0, 50.0).filter(lambda x: x != 0.0))
    kc = draw(st.floats(0.05, 0.4))
    alpha = draw(st.just(1.0) | st.floats(0.05, 1.0))
    segs = [Segment("release", 1, t0, tau, kc, alpha=alpha),
            Segment("capture", 2, t0 + tau, tau, kc)]
    if draw(st.booleans()):
        segs.append(Segment("detune", 1, t0 + tau, tau * draw(st.floats(0.1, 1.0)),
                            f_mhz=draw(st.floats(-30.0, 30.0))))
    window = (t0, t0 + tau * draw(st.floats(1.0, 4.0)))
    return ControlSchedule(segs, window=window), ch, dt


def stepwise_integrate(schedule, ch, s0, dt, extra_phases=None):
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
    delta = np.stack([schedule.delta(q, nodes) for q in (1, 2)], axis=1)
    decay = -(1j * delta + kappa / 2.0)
    root = np.sqrt(kappa)

    s = np.atleast_2d(np.array(s0, dtype=complex))
    batch = s.shape[0]
    phases = np.zeros(batch) if extra_phases is None else np.asarray(extra_phases, dtype=float)
    feedback = np.sqrt(ch.eta) * np.exp(1j * (ch.phase + phases))
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


class TestDelayLine:
    @settings(max_examples=25, deadline=None)
    @given(line=delay_lines())
    def test_input_is_fed_back_output_one_transit_late(self, line):
        sched, ch, dt = line
        tr = simulate_io(sched, ch, s0=(1.0, 0.0), dt=dt)
        n_sub = int(np.ceil(ch.tau / min(dt, 0.25)))
        assert np.all(tr.a_in[:n_sub] == 0.0)
        feedback = np.sqrt(ch.eta) * np.exp(1j * ch.phase)
        assert np.allclose(tr.a_in[n_sub:], feedback * tr.a_out[:-n_sub], rtol=0.0, atol=1e-14)

    @settings(max_examples=10, deadline=None)
    @given(line=delay_lines(), extra=st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=4))
    def test_batched_rows_equal_single_runs(self, line, extra):
        sched, ch, dt = line
        s0 = np.tile([1.0 + 0j, 0.0], (len(extra), 1))
        batched = _integrate(sched, ch, s0, dt, extra_phases=np.array(extra))
        for row, phi in enumerate(extra):
            single = _integrate(sched, replace(ch, phase=ch.phase + phi), s0[row], dt)
            assert np.array_equal(batched[0], single[0])
            for got, want in zip(batched[1:], single[1:]):
                assert np.allclose(got[row], want[0], rtol=0.0, atol=1e-14)


    @settings(max_examples=40, deadline=None)
    @given(line=delay_lines(),
           rows=st.lists(st.tuples(st.floats(-np.pi, np.pi), st.complex_numbers(max_magnitude=1.0),
                                   st.complex_numbers(max_magnitude=1.0)),
                         min_size=1, max_size=3))
    def test_block_scan_matches_stepwise_loop(self, line, rows):
        sched, ch, dt = line
        extra = np.array([phi for phi, _, _ in rows])
        s0 = np.array([[s1, s2] for _, s1, s2 in rows])
        got = _integrate(sched, ch, s0, dt, extra_phases=extra)
        want = stepwise_integrate(sched, ch, s0, dt, extra_phases=extra)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13
        _, final = _integrate(sched, ch, s0, dt, extra_phases=extra, keep_trace=False)
        assert np.array_equal(final, got[1][:, -1])


def interference_schedule(delta_phi, tau, kappa_c, window):
    """The schedule `interference_experiment` integrates for one phase."""
    release = Segment("release", 1, 0.0, window, kappa_c, alpha=0.5)
    segs = [release, time_reverse(replace(release, t_start=tau))]
    if delta_phi > 0:
        segs.append(Segment("detune", 1, window, delta_phi / (20.0 * 2e-3 * np.pi), f_mhz=20.0))
    return ControlSchedule(segs, window=(0.0, tau + window))


@st.composite
def interference_cases(draw):
    """Short lines; window = tau (two round trips in the integration window)
    leaves no room for a phase pulse, so delta_phi is 0 there."""
    tau = draw(st.floats(20.0, 60.0))
    window = draw(st.just(tau) | st.floats(0.2 * tau, 0.9 * tau))
    room = (tau - window) * 20.0 * 2e-3 * np.pi  # the widest phase that fits
    ch = ChannelParams(eta=draw(st.floats(0.0, 1.0)), tau=tau,
                       phase=draw(st.floats(-np.pi, np.pi)))
    noise = NoiseSpec(sigma_phi=draw(st.just(0.0) | st.floats(0.0, 2.0)),
                      n_realizations=draw(st.integers(1, 16)),
                      master_seed=draw(st.integers(0, 2**32)))
    return (draw(st.floats(0.0, 0.999)) * min(room, 2 * np.pi - 1e-6), ch, noise,
            draw(st.floats(0.05, 0.4)), window, draw(st.integers(1, 4)))


class TestInterference:
    @settings(max_examples=40, deadline=None)
    @given(case=interference_cases())
    @example(case=(0.0, ChannelParams(eta=0.67, tau=30.0, phase=0.3),
                   NoiseSpec(0.7, 5, 11), 0.2, 30.0, 1))
    def test_exact_average_matches_per_realization_rows(self, case):
        dphi, ch, noise, kappa_c, window, chunk = case
        pe = interference_experiment(dphi, ch, noise, kappa_c, window, chunk=chunk)
        phases = np.zeros(1) if noise.sigma_phi == 0.0 else realization_phases(noise)
        sched = interference_schedule(dphi, ch.tau, kappa_c, window)
        s0 = np.tile([1.0 + 0j, 0.0], (len(phases), 1))
        _, final = _integrate(sched, ch, s0, 0.25, extra_phases=phases, keep_trace=False)
        assert pe == pytest.approx(np.mean(np.abs(final[:, 0]) ** 2), rel=0.0, abs=1e-12)

    def test_phase_array_matches_scalar_calls(self):
        ch = ChannelParams(eta=0.67, tau=TAU)
        noise = NoiseSpec(sigma_phi=0.5, n_realizations=64, master_seed=2)
        dphis = np.linspace(0.0, 2 * np.pi, 5)
        fringe = interference_experiment(dphis, ch, noise)
        assert fringe.shape == (5,)
        assert np.array_equal(fringe, [interference_experiment(p, ch, noise) for p in dphis])
        assert isinstance(interference_experiment(1.0, ch, noise), float)

    def test_lossless_rephasing_is_complete(self):
        pe = interference_experiment(0.0, ChannelParams(eta=1.0, tau=TAU))
        assert pe == pytest.approx(1.0, abs=1e-3)

    def test_noiseless_extremes_match_closed_form(self):
        # P_e = 1/4 + eta/4 + (sqrt(eta)/2) cos(dphi)
        eta = 0.67
        ch = ChannelParams(eta=eta, tau=TAU)
        hi = interference_experiment(0.0, ch)
        lo = interference_experiment(np.pi, ch)
        assert hi == pytest.approx(0.25 + eta / 4 + np.sqrt(eta) / 2, abs=0.005)
        assert lo == pytest.approx(0.25 + eta / 4 - np.sqrt(eta) / 2, abs=0.005)

    def test_destructive_extreme_with_dephasing(self):
        noise = NoiseSpec(sigma_phi=np.sqrt(2 * 0.508 / 2.1), n_realizations=256, master_seed=5)
        pe = interference_experiment(np.pi, ChannelParams(eta=0.67, tau=TAU), noise)
        assert pe == pytest.approx(0.08, abs=0.05)

    def test_phase_pulse_must_fit(self):
        with pytest.raises(ValidationError):
            interference_experiment(
                np.pi, ChannelParams(eta=1.0, tau=200.0), window=180.0
            )


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
