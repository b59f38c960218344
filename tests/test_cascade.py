"""Two-stage cascade: generator structure, transfer physics, guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlink import cascade, dynamics, tomo
from sawlink.cascade import (
    CascadeConfig,
    doubled_space,
    process_tomography_run,
    run_cascade,
    stage1_liouvillian,
    stage2_liouvillian,
    two_qubit_space,
)
from sawlink.config import config_from_dict
from sawlink.device import QubitNoise, QubitParams
from sawlink.dynamics import dissipator
from sawlink.errors import RoleAmbiguityError, ValidationError
from sawlink.ioshape import ChannelParams, ControlSchedule, Segment, transfer_schedule
from sawlink.qcore import NUMBER, SIGMA_MINUS, QuantumState, check_states, embed, partial_trace
from sawlink.ioshape import simulate_io

from hermitian_oracle import hermitian_basis
from rhs_oracle import matrix_at, scipy_product

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
        # T1 = 20 us and a pure-dephasing rate of 0.5 / us, in 1/ns
        q = QubitParams(T1_int_us=20.0, T2R_us=1 / 0.525, F_g=0.97, F_e=0.95,
                        g_mhz=2.0, kappa_inv_ns=8.0)
        nz = q.noise()
        assert nz.relax_rate == pytest.approx(1 / 20e3)
        assert nz.dephase_rate == pytest.approx(0.5e-3)

    def test_defaults_are_quiet(self):
        nz = QubitNoise()
        assert nz.relax_rate == 0.0
        assert nz.dephase_rate == 0.0

    def test_invalid(self):
        with pytest.raises(ValidationError):
            QubitNoise(relax_rate=-1.0)
        with pytest.raises(ValidationError):
            QubitNoise(dephase_rate=-0.1)


def dense_generator(cfg: CascadeConfig, t: float, doubled: bool) -> np.ndarray:
    """sum_k c_k(t) B_k of either stage, from the dense Lindblad formulas
    and the schedule's array path."""

    def kron(a, b):  # rho -> a rho b
        return np.kron(a, b.T)

    def diss(x):
        xdx = x.conj().T @ x
        return kron(x, x.conj().T) - 0.5 * (kron(xdx, eye) + kron(eye, xdx))

    def rates(s):
        ts = np.array([s])
        return [cfg.schedule.kappa(q, ts)[0] for q in (1, 2)]

    sp = doubled_space() if doubled else two_qubit_space()
    eye = np.eye(sp.dim)
    sm = {lbl: embed(SIGMA_MINUS, lbl, sp) for lbl in sp.labels}
    num = {lbl: embed(NUMBER, lbl, sp) for lbl in sp.labels}
    copies = [("q1", "q2", t)] + ([("q1e", "q2e", t - TAU)] if doubled else [])
    out = np.zeros((sp.dim**2, sp.dim**2), dtype=complex)
    for labels, when in ((c[:2], c[2]) for c in copies):
        kappa = rates(when)
        for q, lbl in enumerate(labels):
            nz = cfg.noise[q]
            out += (kappa[q] + nz.relax_rate) * diss(sm[lbl]) + nz.dephase_rate * diss(num[lbl])
    if doubled:
        ke, kr = rates(t - TAU), rates(t)
        for i in (1, 2):
            for j in (1, 2):
                a, b = sm[f"q{i}e"], sm[f"q{j}"]
                m = a.conj().T @ b - a @ b.conj().T
                out += np.sqrt(cfg.ch.eta * ke[i - 1] * kr[j - 1]) * (
                    diss(a + b) - diss(a) - diss(b) + 0.5 * (kron(m, eye) - kron(eye, m))
                )
    return out


@st.composite
def cascades(draw):
    """A cascade of either qubit to either, over the ranges of its schedule,
    channel and noise, the receiver's noise the device's."""
    emitter, receiver = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    kappa_c, window = draw(st.floats(0.05, 0.3)), draw(st.floats(60.0, 200.0))
    eta, alpha = draw(st.floats(0.0, 1.0)), draw(st.just(1.0) | st.floats(0.1, 1.0))
    noise = draw(st.tuples(st.just(0.0) | st.floats(1 / 50e3, 1 / 5e3), st.floats(0.0, 2e-3)))
    return CascadeConfig(
        transfer_schedule(kappa_c, window, TAU, emitter, receiver, alpha=alpha),
        ChannelParams(eta=eta, tau=TAU),
        noise=(QubitNoise(*noise), QubitNoise(1 / 21.7e3, 0.45e-3)),
    )


CASCADES = cascades()


def dense_matrix(liou, t: float) -> np.ndarray:
    """L(t) as a dense d^2 x d^2 matrix on the row-major vec(rho): applied to
    the flattened identity in the real coordinates, then mapped back by T^H L T."""
    n = liou.space.dim**2
    basis = hermitian_basis(liou.space.dim)
    return basis.conj().T @ liou(t, np.eye(n).reshape(-1)).reshape(n, n) @ basis


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
        basis = hermitian_basis(sp.dim)
        want = basis.conj().T @ dissipator(coll).toarray() @ basis
        m = np.sqrt(ke) * np.sqrt(kr)
        # subtract the exchange Hamiltonian 1/2 [sE^+ sR - sE sR^+, rho]
        # to isolate the dissipator
        ex = s_e.conj().T @ s_r - s_e @ s_r.conj().T
        eye = np.eye(sp.dim)
        got = dense_matrix(liou, t)
        got = got - m * 0.5 * (np.kron(ex, eye) - np.kron(eye, ex.T))
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(cfg=CASCADES, frac=st.floats(0.0, 1.0))
    def test_stacked_generator_matches_dense_sum(self, cfg, frac):
        for stage, t, doubled in ((stage1_liouvillian, frac * TAU, False),
                                  (stage2_liouvillian, TAU * (1.0 + frac), True)):
            want = dense_generator(cfg, t, doubled)
            got = dense_matrix(stage(cfg), t)
            assert np.max(np.abs(got - want)) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(cfg=CASCADES, frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_product_is_scipys_bit_for_bit(self, cfg, frac, seed):
        # the compiled kernel against ``csr_array @`` on the matrix the call
        # applies, for k stacked columns, real and complex
        rng = np.random.default_rng(seed)
        for stage, t in ((stage1_liouvillian, frac * TAU), (stage2_liouvillian, TAU * (1.0 + frac))):
            generator = stage(cfg)
            matrix = matrix_at(generator, t)
            n = matrix.shape[1]
            for k in (1, 4, 16):
                real = rng.normal(size=n * k)
                for y in (real, real + 1j * rng.normal(size=n * k)):
                    got = generator(t, y)
                    assert got.dtype == y.dtype
                    assert np.array_equal(got, scipy_product(matrix, y))


# the swap pairs, double_swap and bell at their defaults, with the device noise
DEFAULT_RUNS = [("swap", {"emitter": e, "receiver": r}) for e in (1, 2) for r in (1, 2)]
DEFAULT_RUNS += [("double_swap", {}), ("bell", {})]


def default_cfg(experiment, params):
    from sawlink.experiments import EXPERIMENTS

    cfg = config_from_dict({"experiment": experiment, "params": params})
    ch, sched = EXPERIMENTS[experiment].plan(cfg.device, cfg.params, cfg.seed)
    return CascadeConfig(sched, ch, noise=cfg.device.noise_pair())


def composed_coeffs(cfg, t, doubled, rates):
    """c(t) of one stage composed from ``rates(s)``, both qubits' kappa at
    time s: per copy kappa + 1/T1 and the dephasing rate, the lagged copies
    at t - tau first, then the pairs' sqrt(eta kappa_i(t - tau) kappa_j(t))."""

    def copies(s):
        k1, k2 = rates(s)
        n1, n2 = cfg.noise
        return [k1 + n1.relax_rate, n1.dephase_rate, k2 + n2.relax_rate, n2.dephase_rate], [k1, k2]

    now, k_now = copies(t)
    if not doubled:
        return np.array(now)
    lagged, k_lag = copies(t - cfg.ch.tau)
    root_eta = math.sqrt(cfg.ch.eta)
    return np.array(lagged + now + [root_eta * math.sqrt(ke * kr) for ke in k_lag for kr in k_now])


def segment_rates(cfg, left=False):
    """Each qubit's kappa at s by brute force: the formula of the coupling
    whose [start, end) holds s, or with ``left`` whose (start, end] does,
    the left limit."""

    def rates(s):
        k = [0.0, 0.0]
        for seg in cfg.schedule.segments:
            if seg.t_start < s <= seg.t_end if left else seg.t_start <= s < seg.t_end:
                k[seg.qubit - 1] = seg.kappa(s)
        return k

    return rates


class TestCoefficients:
    @pytest.mark.parametrize("experiment, params", DEFAULT_RUNS)
    def test_piece_ends_read_the_left_limit(self, monkeypatch, experiment, params):
        # run_cascade integrates each stage in pieces (a, b) between the
        # breakpoints, and the coefficients of a piece are read at times in
        # [a, b) only: the stages that land on b read them at b^-, the float
        # below b.  There the coefficients, lagged copies included, are the
        # left limit of the segment formulas at b, which differs from their
        # value at b where a coupling switches on or off
        cfg = default_cfg(experiment, params)
        pieces, solve, coefficients = [], dynamics.solve_ivp, cascade._coefficients

        def solve_spy(fun, t_span, *args, **kwargs):
            pieces.append((t_span, []))
            return solve(fun, t_span, *args, **kwargs)

        def logged_coefficients(cfg, doubled):
            coeffs = coefficients(cfg, doubled)

            def read(t):
                pieces[-1][1].append((coeffs, doubled, t))
                return coeffs(t)

            return read

        monkeypatch.setattr(dynamics, "solve_ivp", solve_spy)
        monkeypatch.setattr(cascade, "_coefficients", logged_coefficients)
        ground = np.diag([1.0, 0.0])
        preps = np.stack([np.kron(p, ground) for p in tomo.prep_states(1)])
        run_cascade(cfg, preps, np.array([0.0, min(cfg.schedule.window[1], 2 * cfg.ch.tau)]))
        assert {t_span[0] for t_span, _ in pieces} >= {0.0, cfg.ch.tau}
        jumps = 0
        for (a, b), reads in pieces:
            end = math.nextafter(b, -math.inf)
            assert all(a <= t <= end for _, _, t in reads), (a, b)
            coeffs, doubled, _ = reads[0]
            assert all(c is coeffs for c, _, _ in reads) and (coeffs, doubled, end) in reads
            want = composed_coeffs(cfg, b, doubled, segment_rates(cfg, left=True))
            assert np.allclose(coeffs(end), want, rtol=1e-12, atol=1e-15), (a, b)
            jumps += not np.allclose(coeffs(b), want, rtol=1e-6, atol=0.0)
        assert jumps > 0

    @pytest.mark.parametrize("experiment, params", DEFAULT_RUNS)
    def test_coupling_tables_match_the_schedule_lookups(self, experiment, params):
        # c(t), read from the schedule's coupling tables, against the formula
        # of the segment holding t, bit for bit, at 4,001 times on [0, 2 tau]
        # and at every breakpoint and its tau-shift, on both stages
        cfg = default_cfg(experiment, params)
        tau, bps = cfg.ch.tau, cfg.schedule.breakpoints()
        times = np.concatenate([np.linspace(0.0, 2 * tau, 4001), bps, bps + tau])
        for stage, doubled in ((stage1_liouvillian, False), (stage2_liouvillian, True)):
            coeffs = stage(cfg).coeffs
            for t in times.tolist():
                want = composed_coeffs(cfg, t, doubled, segment_rates(cfg))
                assert np.array_equal(coeffs(t), want), (doubled, t)


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
            finals.append(np.trace(n2 @ traj.rhos[-1]).real)
        assert all(b > a for a, b in zip(finals, finals[1:]))
        assert finals[-1] > 0.999

    def test_trace_preserved_along_trajectory(self):
        cfg = swap_cfg(eta=0.5, noise=(QubitNoise(1 / 21.7e3, 0.45e-3),
                                       QubitNoise(1 / 26.1e3, 1.65e-3)))
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
        final = traj.rhos[-1]
        assert np.trace(n1 @ final).real < 1e-3
        assert np.trace(n2 @ final).real < 1e-12

    def test_stage1_decay_with_imperfections(self):
        # during the release window the excited population obeys
        # p(t) = exp(-integral kappa - t/T1) exactly
        t1_us = 10.0
        cfg = swap_cfg(eta=1.0, noise=(QubitNoise(relax_rate=1 / (t1_us * 1e3)), QubitNoise()))
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

    def test_splice_keeps_trace_and_receiver_marginal(self):
        # the doubled state at tau is kron(rho(tau), rho0): of unit trace, and
        # its (q1, q2) marginal is the stage-1 state at tau
        noise = (QubitNoise(1 / 20e3, 5e-4), QubitNoise(1 / 30e3, 2e-4))
        cfg = swap_cfg(eta=0.67, noise=noise)
        ground = np.diag([1.0, 0.0])
        preps = np.stack([np.kron(p, ground) for p in tomo.prep_states(1)])
        traj = run_cascade(cfg, preps, np.array([0.0, TAU, TAU + WINDOW]))
        spliced = traj.doubled.rhos[0]
        assert np.max(np.abs(np.trace(spliced, axis1=1, axis2=2) - 1.0)) < 1e-12
        marginal = partial_trace(doubled_space(), spliced, ["q1", "q2"])
        assert np.max(np.abs(marginal - traj.rhos[1])) < 1e-12

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

    def test_wrong_stack_shape_rejected(self):
        rhos0 = QuantumState.basis_state(doubled_space(), (1, 0, 0, 0)).rho[None]
        with pytest.raises(ValidationError):
            run_cascade(swap_cfg(), rhos0, np.array([0.0, TAU]))
        with pytest.raises(ValidationError):
            run_cascade(swap_cfg(), excited(two_qubit_space()).rho, np.array([0.0, TAU]))

    def test_stack_with_a_non_state_rejected(self):
        rhos0 = np.stack([excited(two_qubit_space()).rho, np.diag([0.7, 0.7, 0.0, 0.0])])
        with pytest.raises(ValidationError):
            run_cascade(swap_cfg(), rhos0, np.array([0.0, TAU]))

    @pytest.mark.parametrize("grid", [[0.0, 100.0, 100.0], [100.0, 0.0]],
                             ids=["repeated", "decreasing"])
    def test_trajectory_requires_monotonic_times(self, monkeypatch, grid):
        # the grid is checked before anything integrates
        def no_solve(*args, **kwargs):
            raise AssertionError("evolve_generator called before the grid check")

        monkeypatch.setattr("sawlink.cascade.evolve_generator", no_solve)
        with pytest.raises(ValidationError):
            run_cascade(swap_cfg(), excited(two_qubit_space()), np.array(grid))

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
        doubled = run_cascade(cfg, excited(space), grid, tol=1e-9).doubled
        assert doubled.space == doubled_space()
        # emitter copies start in the initial state at the splice
        em = partial_trace(doubled.space, doubled.rhos[0], ["q1e", "q2e"])
        assert np.allclose(em, excited(space).rho, atol=1e-12)

    def test_lagged_copy_correlates_with_receiver(self):
        # a half release leaves the lagged emitter copy entangled with
        # the capturing qubit; the current-time copy is not
        sched = transfer_schedule(KC, WINDOW, TAU, alpha=0.5)
        cfg = CascadeConfig(sched, ChannelParams(eta=1.0, tau=TAU))
        space = two_qubit_space()
        t_ro = TAU + WINDOW
        doubled = run_cascade(cfg, excited(space), np.array([0.0, t_ro]), tol=1e-9).doubled
        final = doubled.rhos[-1]
        pair = partial_trace(doubled.space, final, ["q1e", "q2"])
        # coherence between |e g> and |g e> of the pair
        i_eg = space.basis_index((1, 0))
        i_ge = space.basis_index((0, 1))
        assert abs(pair[i_eg, i_ge]) > 0.49
        stale = partial_trace(doubled.space, final, ["q1", "q2"])
        assert abs(stale[i_eg, i_ge]) < 1e-6


    def test_single_state_matches_its_stack_bit_for_bit(self):
        # bell hands run_cascade one state, |e g>; as a (1, 4, 4) stack the
        # same state gives the same bytes, lagged copies included
        cfg = default_cfg("bell", {})
        eg = excited(two_qubit_space())
        assert np.array_equal(eg.rho, np.diag([0.0, 0.0, 1.0, 0.0]))
        grid = np.array([0.0, cfg.ch.tau + WINDOW])
        single = run_cascade(cfg, eg, grid)
        stacked = run_cascade(cfg, eg.rho[None], grid)
        assert np.array_equal(single.rhos, stacked.rhos[:, 0])
        assert np.array_equal(single.doubled.rhos, stacked.doubled.rhos[:, 0])


def per_prep_process(cfg, emitters, receivers, t_ro, tol, frame):
    """The process reconstruction with one cascade run per prep: the
    reference for the batched run."""
    ground = np.diag([1.0, 0.0])
    keep = [f"q{q}" for q in sorted(receivers)]
    outputs = []
    for prep in tomo.prep_states(len(emitters)):
        if len(emitters) == 1:
            prep = np.kron(prep, ground) if emitters[0] == 1 else np.kron(ground, prep)
        traj = run_cascade(cfg, QuantumState(two_qubit_space(), prep), np.array([0.0, t_ro]),
                           tol=tol)
        out = partial_trace(two_qubit_space(), traj.rhos[-1], keep)
        outputs.append(frame @ out @ frame.conj().T)
    return tomo.process_from_states(np.array(outputs))


class TestProcessTomographyRun:
    @pytest.mark.parametrize(
        "emitters, receivers, eta",
        [((1,), (1,), 0.67), ((1,), (2,), 0.67), ((2,), (1,), 1.0), ((1, 2), (2, 1), 0.67)],
    )
    def test_batched_preps_match_per_prep_runs(self, emitters, receivers, eta):
        from sawlink.experiments import double_swap_schedule

        tol = 1e-10
        noise = (QubitNoise(1 / 21.7e3, 0.45e-3), QubitNoise(1 / 26.1e3, 1.6e-3))
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

    def test_stacked_run_matches_single_state_runs(self):
        grid = np.array([0.0, 100.0, TAU + WINDOW])
        preps = [excited(two_qubit_space(), q) for q in (1, 2)]
        traj = run_cascade(swap_cfg(eta=0.67), np.stack([p.rho for p in preps]), grid)
        assert traj.rhos.shape == (3, 2, 4, 4)
        assert traj.doubled.rhos.shape == (2, 2, 16, 16)
        for j, prep in enumerate(preps):
            alone = run_cascade(swap_cfg(eta=0.67), prep, grid)
            assert np.max(np.abs(traj.rhos[:, j] - alone.rhos)) <= 1e-7
            assert np.max(np.abs(traj.doubled.rhos[:, j] - alone.doubled.rhos)) <= 1e-7

    def test_identity_transfer(self):
        # couplers never fire, the one coupling starting after the readout:
        # each prep sits still and the process is I
        sched = ControlSchedule([Segment("release", 1, 2.0, 1.0, KC)], window=(0.0, 1.0))
        cfg = CascadeConfig(sched, ChannelParams(eta=0.67, tau=TAU))
        chi = process_tomography_run(cfg, (1,), (1,), t_ro=1.0, frame=np.eye(2))
        assert chi[0, 0].real == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(chi - np.diag([1.0, 0, 0, 0]))) < 1e-8

    def test_lossless_transfer_is_identity_process(self):
        sched = transfer_schedule(KC, WINDOW, TAU)
        cfg = CascadeConfig(sched, ChannelParams(eta=1.0, tau=TAU))
        z = np.diag([1.0, -1.0])
        chi = process_tomography_run(
            cfg, (1,), (2,), t_ro=TAU + WINDOW, frame=z, tol=1e-8
        )
        from sawlink import dynamics, tomo

        assert tomo.fidelity(chi, tomo.chi_ideal(np.eye(2))) > 0.999

    def test_mismatched_sides_rejected(self):
        sched = ControlSchedule([Segment("release", 1, 2.0, 1.0, KC)], window=(0.0, 1.0))
        cfg = CascadeConfig(sched, ChannelParams(eta=0.67, tau=TAU))
        with pytest.raises(ValidationError):
            process_tomography_run(cfg, (1, 2), (1,), t_ro=1.0, frame=np.eye(2))
        with pytest.raises(ValidationError):
            process_tomography_run(cfg, (3,), (1,), t_ro=1.0, frame=np.eye(2))
        with pytest.raises(ValidationError):
            process_tomography_run(cfg, (1, 1), (2, 2), t_ro=1.0, frame=np.eye(4))


# Cross-route check with the qubit noise off: one excitation is then exactly
# what the amplitude route (`simulate_io`) models, so the two routes must give
# the same populations at the end of the capture, tau + w.  The amplitude
# route steps tau / 2048 and tau / 8192; a drawn w is a whole number of the
# longer step, so both grids hold tau + w, and the route's error at the
# shorter step is then a quarter of its change between the two (measured
# over 60 draws).  The cascade runs at CROSS_TOL and may add
# CASCADE_ALLOWANCE on top: over 150 draws its gap stayed under a third of
# the bound, and at tol 1e-8 it reached 1.5e-7 beyond the route's error.
CROSS_TOL = 1e-9
CASCADE_ALLOWANCE = 1e-7
IO_DT = TAU / 2048


def route_gap(emitter, receiver, eta, phase, kappa_c, window, alpha=1.0):
    """The largest population gap between the cascade and the amplitude route
    at IO_DT / 4, and the amplitude route's change from IO_DT to IO_DT / 4."""
    ch = ChannelParams(eta=eta, tau=TAU, phase=phase)
    sched = transfer_schedule(kappa_c, window, TAU, emitter=emitter, receiver=receiver,
                              alpha=alpha)
    space = two_qubit_space()
    t_end = np.array([0.0, TAU + window])
    traj = run_cascade(CascadeConfig(sched, ch), excited(space, emitter), t_end, tol=CROSS_TOL,
                       observables={f"p{q}": embed(NUMBER, f"q{q}", space) for q in (1, 2)})
    cascade = np.array([traj.observables["p1"][-1], traj.observables["p2"][-1]])
    s0 = (1.0, 0.0) if emitter == 1 else (0.0, 1.0)
    coarse, fine = (simulate_io(sched, ch, s0=s0, grid=t_end[1:], dt=dt)
                    for dt in (IO_DT, IO_DT / 4))
    io = [np.array([r.p1[-1], r.p2[-1]]) for r in (coarse, fine)]
    return np.max(np.abs(cascade - io[1])), np.max(np.abs(io[0] - io[1]))


@st.composite
def cross_transfers(draw):
    """A cross pair, the line and a transfer whose coupling edges are soft
    (kappa_c * w >= 16), so the amplitude route converges steadily; the
    release is full or partial."""
    emitter = draw(st.sampled_from([1, 2]))
    kappa_c = draw(st.floats(0.08, 0.3))
    steps = draw(st.integers(int(np.ceil(16.0 / kappa_c / IO_DT)), int(300.0 / IO_DT)))
    return (emitter, 3 - emitter, draw(st.floats(0.3, 1.0)),
            draw(st.floats(0.0, 2 * np.pi, exclude_max=True)), kappa_c, steps * IO_DT,
            draw(st.just(1.0) | st.floats(0.1, 1.0)))


class TestCrossRoute:
    @settings(max_examples=8, deadline=None)
    @given(case=cross_transfers())
    def test_cross_pairs_match_amplitude_route(self, case):
        gap, io_error = route_gap(*case)
        assert gap <= io_error + CASCADE_ALLOWANCE

    @pytest.mark.xfail(
        strict=True,
        reason="the splice kron(rho(tau), rho0) drops the coherence between the emitter's "
        "leftover amplitude and its returning packet, and the cascade never reads ch.phase: "
        "on the default swap schedule it misses the receiver population by +-2.0e-4 at "
        "phase 0 and pi",
    )
    @pytest.mark.parametrize("phase", [0.0, np.pi])
    def test_self_capture_matches_amplitude_route(self, phase):
        gap, io_error = route_gap(1, 1, 0.67, phase, 0.15, 120.0)
        assert gap <= io_error + CASCADE_ALLOWANCE

    def test_self_capture_is_the_phase_average(self):
        # the amplitude route's population goes as cos(phase), so its value at
        # pi/2 is the phase average; the cascade sits 3.4e-7 below it as the
        # step goes to 0 (measured down to a 1/256 ns step), against the +-2.0e-4
        # swing.  w = 120 ns is off the step grid, so the route's error at the
        # shorter step may come close to its change between the two
        gap, io_error = route_gap(1, 1, 0.67, np.pi / 2, 0.15, 120.0)
        assert gap <= io_error + 4e-7
