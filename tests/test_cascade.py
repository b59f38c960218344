"""Two-stage cascade: generator structure, transfer physics, guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlink.cascade import (
    CascadeConfig,
    doubled_space,
    process_tomography_run,
    run_cascade,
    stage1_liouvillian,
    stage2_liouvillian,
    two_qubit_space,
)
from sawlink.device import QubitNoise
from sawlink.dynamics import dissipator
from sawlink.errors import RoleAmbiguityError, ValidationError
from sawlink.ioshape import ChannelParams, ControlSchedule, Segment, transfer_schedule
from sawlink.qcore import NUMBER, SIGMA_MINUS, QuantumState, check_states, embed, partial_trace
from sawlink.ioshape import simulate_io

TAU = 508.12
KC = 0.1
WINDOW = 180.0


def swap_cfg(eta=1.0, noise=(QubitNoise(), QubitNoise())):
    sched = transfer_schedule(KC, WINDOW, TAU)
    return CascadeConfig(sched, ChannelParams(eta=eta, tau=TAU), noise=noise)


def excited(space, qubit=1):
    occ = [0, 0]
    occ[qubit - 1] = 1
    return QuantumState.basis_state(space, tuple(occ))


class TestQubitNoise:
    def test_rates(self):
        nz = QubitNoise(T1_int=20.0, gamma_phi=0.5)
        assert nz.relax_rate == pytest.approx(1 / 20e3)
        assert nz.dephase_rate == pytest.approx(0.5e-3)

    def test_defaults_are_quiet(self):
        nz = QubitNoise()
        assert nz.relax_rate == 0.0
        assert nz.dephase_rate == 0.0

    def test_invalid(self):
        with pytest.raises(ValidationError):
            QubitNoise(T1_int=-1.0)
        with pytest.raises(ValidationError):
            QubitNoise(gamma_phi=-0.1)


def dense_generator(cfg: CascadeConfig, t: float, doubled: bool) -> np.ndarray:
    """sum_k c_k(t) B_k of either stage, from the dense Lindblad formulas
    and the schedule's array path."""

    def kron(a, b):  # rho -> a rho b
        return np.kron(a, b.T)

    def diss(x):
        xdx = x.conj().T @ x
        return kron(x, x.conj().T) - 0.5 * (kron(xdx, eye) + kron(eye, xdx))

    def comm(h):
        return -1j * (kron(h, eye) - kron(eye, h))

    def rates(s):
        ts = np.array([s])
        return ([cfg.schedule.kappa(q, ts)[0] for q in (1, 2)],
                [cfg.schedule.delta(q, ts)[0] for q in (1, 2)])

    sp = doubled_space() if doubled else two_qubit_space()
    eye = np.eye(sp.dim)
    sm = {lbl: embed(SIGMA_MINUS, lbl, sp) for lbl in sp.labels}
    num = {lbl: embed(NUMBER, lbl, sp) for lbl in sp.labels}
    copies = [("q1", "q2", t)] + ([("q1e", "q2e", t - TAU)] if doubled else [])
    out = np.zeros((sp.dim**2, sp.dim**2), dtype=complex)
    for labels, when in ((c[:2], c[2]) for c in copies):
        kappa, delta = rates(when)
        for q, lbl in enumerate(labels):
            nz = cfg.noise[q]
            out += kappa[q] * diss(sm[lbl]) + delta[q] * comm(num[lbl])
            out += nz.relax_rate * diss(sm[lbl]) + nz.dephase_rate * diss(num[lbl])
    if doubled:
        ke, _ = rates(t - TAU)
        kr, _ = rates(t)
        for i in (1, 2):
            for j in (1, 2):
                a, b = sm[f"q{i}e"], sm[f"q{j}"]
                m = a.conj().T @ b - a @ b.conj().T
                out += np.sqrt(cfg.ch.eta * ke[i - 1] * kr[j - 1]) * (
                    diss(a + b) - diss(a) - diss(b) + 0.5 * (kron(m, eye) - kron(eye, m))
                )
    return out


def dense_matrix(liou, t: float) -> np.ndarray:
    """L(t) as a dense d^2 x d^2 matrix, applied to the flattened identity."""
    n = liou.space.dim**2
    return liou(t, np.eye(n).reshape(-1)).reshape(n, n)


class TestGenerators:
    def test_stage1_trace_free(self):
        liou = stage1_liouvillian(swap_cfg(eta=0.67))
        d = two_qubit_space().dim
        tr = np.eye(d).reshape(-1)
        for t in (10.0, 90.0, 250.0):
            assert np.max(np.abs(tr @ dense_matrix(liou, t))) < 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.67, 1.0])
    def test_stage2_trace_free_any_transmission(self, eta):
        liou = stage2_liouvillian(swap_cfg(eta=eta))
        d = doubled_space().dim
        tr = np.eye(d).reshape(-1)
        for t in (TAU + 5.0, TAU + 90.0, TAU + 300.0):
            assert np.max(np.abs(tr @ dense_matrix(liou, t))) < 1e-12

    def test_stage2_idle_when_uncoupled(self):
        # outside every segment the generator is exactly zero (quiet qubits)
        liou = stage2_liouvillian(swap_cfg(eta=0.67))
        assert np.max(np.abs(dense_matrix(liou, 2 * TAU - 1.0))) == 0.0

    def test_full_transmission_is_collective_decay(self):
        # at eta = 1 the dissipative part collapses to D[sqrt(kE) sE + sqrt(kR) sR]
        cfg = swap_cfg(eta=1.0)
        liou = stage2_liouvillian(cfg)
        t = TAU + WINDOW / 2  # emitter replay and capture both active
        ke = float(cfg.schedule.kappa(1, t - TAU))
        kr = float(cfg.schedule.kappa(2, t))
        assert ke > 0 and kr > 0
        sp = doubled_space()
        s_e = embed(SIGMA_MINUS, "q1e", sp)
        s_r = embed(SIGMA_MINUS, "q2", sp)
        coll = np.sqrt(ke) * s_e + np.sqrt(kr) * s_r
        want = dissipator(coll).toarray()
        m = np.sqrt(ke) * np.sqrt(kr)
        # subtract the exchange Hamiltonian 1/2 [sE^+ sR - sE sR^+, rho]
        # to isolate the dissipator
        ex = s_e.conj().T @ s_r - s_e @ s_r.conj().T
        eye = np.eye(sp.dim)
        got = dense_matrix(liou, t)
        got = got - m * 0.5 * (np.kron(ex, eye) - np.kron(eye, ex.T))
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        pair=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        kappa_c=st.floats(0.05, 0.3),
        window=st.floats(60.0, 200.0),
        eta=st.floats(0.0, 1.0),
        alpha=st.just(1.0) | st.floats(0.1, 1.0),
        detune=st.none() | st.tuples(st.floats(1.0, 100.0), st.floats(-40.0, 40.0)),
        noise=st.tuples(st.none() | st.floats(5.0, 50.0), st.floats(0.0, 2.0)),
        frac=st.floats(0.0, 1.0),
    )
    def test_stacked_generator_matches_dense_sum(
        self, pair, kappa_c, window, eta, alpha, detune, noise, frac
    ):
        emitter, receiver = pair
        sched = transfer_schedule(kappa_c, window, TAU, emitter, receiver, alpha=alpha)
        segs = list(sched.segments)
        if detune is not None:
            segs.append(Segment("detune", emitter, window, detune[0], f_mhz=detune[1]))
        cfg = CascadeConfig(
            ControlSchedule(segs, window=sched.window),
            ChannelParams(eta=eta, tau=TAU),
            noise=(QubitNoise(*noise), QubitNoise(T1_int=21.7, gamma_phi=0.45)),
        )
        for stage, t, doubled in ((stage1_liouvillian, frac * TAU, False),
                                  (stage2_liouvillian, TAU * (1.0 + frac), True)):
            want = dense_generator(cfg, t, doubled)
            got = dense_matrix(stage(cfg), t)
            assert np.max(np.abs(got - want)) < 1e-13


class TestRunCascade:
    def test_matches_io_populations(self):
        # same schedule through the amplitude picture: single excitation,
        # no imperfections, arbitrary transmission
        cfg = swap_cfg(eta=0.67)
        space = two_qubit_space()
        grid = np.linspace(0.0, TAU + WINDOW + 0.25 * TAU, 201)
        traj = run_cascade(
            cfg,
            excited(space),
            grid,
            tol=1e-9,
            observables={
                "p1": embed(NUMBER, "q1", space),
                "p2": embed(NUMBER, "q2", space),
            },
        )
        io = simulate_io(cfg.schedule, cfg.ch, s0=(1.0, 0.0), grid=grid)
        assert np.max(np.abs(traj.observables["p1"] - io.p1)) < 1e-4
        assert np.max(np.abs(traj.observables["p2"] - io.p2)) < 1e-4

    def test_transfer_monotone_in_transmission(self):
        space = two_qubit_space()
        grid = np.array([0.0, TAU + WINDOW + 0.25 * TAU])
        n2 = embed(NUMBER, "q2", space)
        finals = []
        for eta in (0.3, 0.5, 0.67, 0.9, 1.0):
            traj = run_cascade(swap_cfg(eta=eta), excited(space), grid, tol=1e-9)
            finals.append(np.trace(n2 @ traj.final_state().rho).real)
        assert all(b > a for a, b in zip(finals, finals[1:]))
        assert finals[-1] > 0.999

    def test_trace_preserved_along_trajectory(self):
        cfg = swap_cfg(eta=0.5, noise=(QubitNoise(T1_int=21.7, gamma_phi=0.45),
                                       QubitNoise(T1_int=26.1, gamma_phi=1.65)))
        space = two_qubit_space()
        grid = np.linspace(0.0, 2 * TAU, 41)
        traj = run_cascade(cfg, excited(space), grid, tol=1e-9)
        check_states(traj.rhos)
        for rho in traj.rhos:
            assert abs(np.trace(rho).real - 1.0) < 1e-7

    def test_no_capture_means_plain_decay(self):
        # release only: the excitation leaves and nothing comes back
        rel = Segment("release", 1, 0.0, WINDOW, kappa_c=KC)
        sched = ControlSchedule([rel], window=(0.0, 2 * TAU))
        cfg = CascadeConfig(sched, ChannelParams(eta=1.0, tau=TAU))
        space = two_qubit_space()
        grid = np.array([0.0, TAU, 2 * TAU - 1.0])
        traj = run_cascade(cfg, excited(space), grid, tol=1e-9)
        n1 = embed(NUMBER, "q1", space)
        n2 = embed(NUMBER, "q2", space)
        final = traj.final_state()
        assert np.trace(n1 @ final.rho).real < 1e-3
        assert np.trace(n2 @ final.rho).real < 1e-12

    def test_stage1_decay_with_imperfections(self):
        # during the release window the excited population obeys
        # p(t) = exp(-integral kappa - t/T1) exactly
        t1_us = 10.0
        cfg = swap_cfg(eta=1.0, noise=(QubitNoise(T1_int=t1_us), QubitNoise()))
        space = two_qubit_space()
        grid = np.linspace(0.0, WINDOW, 19)
        traj = run_cascade(cfg, excited(space), grid, tol=1e-10,
                           observables={"p1": embed(NUMBER, "q1", space)})
        from scipy.integrate import quad

        for t, p in zip(traj.times, traj.observables["p1"]):
            acc = quad(lambda s: float(cfg.schedule.kappa(1, s)), 0.0, t, limit=200)[0]
            want = np.exp(-acc - t / (t1_us * 1e3))
            assert p == pytest.approx(want, abs=5e-7)

    def test_receiver_marginal_continuous_at_splice(self):
        cfg = swap_cfg(eta=0.67)
        space = two_qubit_space()
        eps = 1e-6
        grid = np.array([0.0, TAU - eps, TAU + eps])
        traj = run_cascade(cfg, excited(space), grid, tol=1e-10)
        before, after = traj.rhos[-2], traj.rhos[-1]
        assert np.max(np.abs(before - after)) < 1e-5

    def test_grid_beyond_validity_rejected(self):
        cfg = swap_cfg()
        space = two_qubit_space()
        with pytest.raises(ValidationError):
            run_cascade(cfg, excited(space), np.array([0.0, 2 * TAU + 1.0]))

    def test_wrong_initial_space_rejected(self):
        cfg = swap_cfg()
        rho0 = QuantumState.basis_state(doubled_space(), (1, 0, 0, 0))
        with pytest.raises(ValidationError):
            run_cascade(cfg, rho0, np.array([0.0, TAU]))

    def test_role_ambiguity_detected(self):
        # qubit 2 starts its capture while qubit 1 is still releasing
        segs = [
            Segment("release", 1, 0.0, 100.0, KC),
            Segment("capture", 2, 50.0, 100.0, KC),
        ]
        with pytest.raises(RoleAmbiguityError):
            CascadeConfig(ControlSchedule(segs, window=(0.0, 150.0)),
                          ChannelParams(eta=1.0, tau=TAU))

    def test_schedule_must_be_a_control_schedule(self):
        class BothOn:
            window = (0.0, 100.0)

            def kappa(self, qubit, t):
                return np.full_like(np.asarray(t, dtype=float), 0.05)

        with pytest.raises(ValidationError):
            CascadeConfig(BothOn(), ChannelParams(eta=1.0, tau=TAU))


class TestDoubledView:
    def test_doubled_trajectory_exposed(self):
        cfg = swap_cfg(eta=0.67)
        space = two_qubit_space()
        grid = np.array([0.0, TAU + WINDOW])
        reduced, doubled = run_cascade(
            cfg, excited(space), grid, tol=1e-9, return_doubled=True
        )
        assert doubled.space == doubled_space()
        # emitter copies start in the initial state at the splice
        em = partial_trace(QuantumState(doubled.space, doubled.rhos[0]), ["q1e", "q2e"])
        assert np.allclose(em.rho, excited(space).rho, atol=1e-12)

    def test_lagged_copy_correlates_with_receiver(self):
        # a half release leaves the lagged emitter copy entangled with
        # the capturing qubit; the current-time copy is not
        sched = transfer_schedule(KC, WINDOW, TAU, alpha=0.5)
        cfg = CascadeConfig(sched, ChannelParams(eta=1.0, tau=TAU))
        space = two_qubit_space()
        t_ro = TAU + WINDOW
        _, doubled = run_cascade(
            cfg, excited(space), np.array([0.0, t_ro]), tol=1e-9, return_doubled=True
        )
        final = doubled.final_state()
        pair = partial_trace(final, ["q1e", "q2"])
        # coherence between |e g> and |g e> of the pair
        sp = pair.space
        i_eg = sp.basis_index((1, 0))
        i_ge = sp.basis_index((0, 1))
        assert abs(pair.rho[i_eg, i_ge]) > 0.49
        stale = partial_trace(final, ["q1", "q2"])
        assert abs(stale.rho[i_eg, i_ge]) < 1e-6


def per_prep_process(cfg, emitters, receivers, t_ro, tol, frame):
    """The process reconstruction with one cascade run per prep: the
    reference for the batched run."""
    from sawlink import tomo

    inputs = tomo.prep_states(len(emitters))
    ground = np.diag([1.0, 0.0])
    keep = [f"q{q}" for q in sorted(receivers)]
    outputs = {}
    for key, prep in inputs.items():
        if len(emitters) == 1:
            prep = np.kron(prep, ground) if emitters[0] == 1 else np.kron(ground, prep)
        traj = run_cascade(cfg, QuantumState(two_qubit_space(), prep), np.array([0.0, t_ro]),
                           tol=tol)
        out = partial_trace(traj.final_state(), keep).rho
        outputs[key] = frame @ out @ frame.conj().T
    return tomo.process_from_states(inputs, outputs)


class TestProcessTomographyRun:
    @pytest.mark.parametrize(
        "emitters, receivers, eta",
        [((1,), (1,), 0.67), ((1,), (2,), 0.67), ((2,), (1,), 1.0), ((1, 2), (2, 1), 0.67)],
    )
    def test_batched_preps_match_per_prep_runs(self, emitters, receivers, eta):
        from sawlink.experiments import double_swap_schedule

        tol = 1e-10
        noise = (QubitNoise(T1_int=21.7, gamma_phi=0.45), QubitNoise(T1_int=26.1, gamma_phi=1.6))
        if len(emitters) == 2:
            sched, t_ro = double_swap_schedule(0.15, 120.0, TAU), TAU + 240.0
        else:
            sched = transfer_schedule(KC, WINDOW, TAU, emitter=emitters[0], receiver=receivers[0])
            t_ro = TAU + WINDOW
        cfg = CascadeConfig(sched, ChannelParams(eta=eta, tau=TAU), noise=noise)
        frame = np.kron(*[np.diag([1.0, -1.0])] * 2) if len(emitters) == 2 else np.diag([1.0, -1.0])
        chi = process_tomography_run(cfg, emitters, receivers, t_ro, frame, tol=tol)
        ref = per_prep_process(cfg, emitters, receivers, t_ro, tol, frame)
        assert np.max(np.abs(chi - ref)) <= tol

    def test_batched_run_returns_one_trajectory_per_prep(self):
        grid = np.array([0.0, 100.0, TAU + WINDOW])
        preps = [excited(two_qubit_space(), q) for q in (1, 2)]
        reduced, doubled = run_cascade(swap_cfg(eta=0.67), preps, grid, return_doubled=True)
        assert len(reduced) == len(doubled) == 2
        for prep, traj in zip(preps, reduced):
            alone = run_cascade(swap_cfg(eta=0.67), prep, grid)
            assert np.max(np.abs(traj.rhos - alone.rhos)) <= 1e-7

    def test_identity_transfer(self):
        # couplers never fire: each prep sits still and the process is I
        sched = ControlSchedule([Segment("detune", 1, 0.0, 1.0)], window=(0.0, 1.0))
        cfg = CascadeConfig(sched, ChannelParams(eta=0.67, tau=TAU))
        chi = process_tomography_run(cfg, emitter=1, receiver=1, t_ro=1.0, frame=np.eye(2))
        assert chi[0, 0].real == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(chi - np.diag([1.0, 0, 0, 0]))) < 1e-8

    def test_lossless_transfer_is_identity_process(self):
        sched = transfer_schedule(KC, WINDOW, TAU)
        cfg = CascadeConfig(sched, ChannelParams(eta=1.0, tau=TAU))
        z = np.diag([1.0, -1.0])
        chi = process_tomography_run(
            cfg, emitter=1, receiver=2, t_ro=TAU + WINDOW, frame=z, tol=1e-8
        )
        from sawlink import tomo

        assert tomo.fidelity(chi, tomo.chi_ideal(np.eye(2))) > 0.999

    def test_mismatched_sides_rejected(self):
        sched = ControlSchedule([Segment("detune", 1, 0.0, 1.0)], window=(0.0, 1.0))
        cfg = CascadeConfig(sched, ChannelParams(eta=0.67, tau=TAU))
        with pytest.raises(ValidationError):
            process_tomography_run(cfg, emitter=(1, 2), receiver=1, t_ro=1.0, frame=np.eye(2))
        with pytest.raises(ValidationError):
            process_tomography_run(cfg, emitter=3, receiver=1, t_ro=1.0, frame=np.eye(2))
        with pytest.raises(ValidationError):
            process_tomography_run(cfg, emitter=(1, 1), receiver=(2, 2), t_ro=1.0, frame=np.eye(4))
