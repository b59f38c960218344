"""End-to-end experiment runners: metric sanity at frozen defaults."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from transit_oracle import capture_alone, per_transit_amplitudes

from sawlink import tomo
from sawlink.cascade import (
    CascadeConfig,
    age_idle,
    partial_trace,
    run_cascade,
    two_qubit_space,
)
from sawlink.device import QubitNoise, default_device
from sawlink.dynamics import dissipator, from_coords, to_coords
from sawlink.errors import ValidationError
from sawlink.experiments import EXPERIMENTS, run_experiment
from sawlink.ioshape import ChannelParams, recapture_with_leftover, transfer_schedule
from sawlink.qcore import NUMBER, SIGMA_MINUS, HilbertSpace, QuantumState, embed
from sawlink.tomo import ReadoutModel

DEV = default_device()

SMALL_INTERFERENCE = {"n_phases": 5, "realizations": 64, "chunk": 64}


def run(name, seed=1234, **over):
    params = {**EXPERIMENTS[name].defaults, **over}
    return run_experiment(name, DEV, params, seed)


@pytest.fixture(scope="module")
def swap_out():
    return run("swap")


@pytest.fixture(scope="module")
def bell_out():
    return run("bell")


@pytest.fixture(scope="module")
def interference_out():
    return run("interference", **SMALL_INTERFERENCE)


class TestRegistry:
    def test_known_names(self):
        assert set(EXPERIMENTS) == {
            "ping_pong", "multi_transit", "interference", "swap",
            "double_swap", "bell", "spectroscopy", "vacuum_rabi",
            "saw_response", "tomo_roundtrip",
        }

    def test_defaults_are_config_scalars(self):
        for name, spec in EXPERIMENTS.items():
            for key, value in spec.defaults.items():
                assert value is None or isinstance(value, (int, float)), (name, key)

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            run_experiment("teleport", DEV, {}, 0)

    def test_params_not_mutated(self):
        params = dict(EXPERIMENTS["ping_pong"].defaults)
        before = dict(params)
        run_experiment("ping_pong", DEV, params, 1)
        assert params == before


class TestPingPong:
    def test_capture_matches_channel_loss(self):
        out = run("ping_pong")
        assert out.metrics["capture_efficiency"] == pytest.approx(0.67, abs=0.005)
        assert out.metrics["eta_used"] == 0.67

    def test_lossless_capture_is_complete(self):
        out = run("ping_pong", eta=1.0)
        assert out.metrics["capture_efficiency"] >= 0.999
        assert out.metrics["eta_used"] == 1.0

    def test_population_series_is_physical(self):
        out = run("ping_pong")
        cols = out.series["populations"]
        assert len(cols["t_ns"]) == len(cols["p_e"]) == len(cols["emitted_power"])
        assert np.all(cols["p_e"] >= -1e-9)
        assert np.all(cols["p_e"] <= 1.0 + 1e-9)


class TestMultiTransit:
    def test_geometric_decay(self):
        out = run("multi_transit", max_transits=3)
        assert out.metrics["eta_fit"] == pytest.approx(0.67, abs=0.01)
        assert out.metrics["r_squared"] > 0.999
        assert out.metrics["max_dev_from_eta_power"] <= 0.02
        assert list(out.series["transits"]["n"]) == [1.0, 2.0, 3.0]

    def test_first_transit_is_ping_pong_to_the_bit(self):
        efficiency = run("multi_transit").series["transits"]["efficiency"][0]
        assert efficiency == run("ping_pong").metrics["capture_efficiency"]

    def test_fit_stops_at_the_leftover_floor(self):
        # the capture's leftover |a|^2 is a floor under the geometric decay;
        # the fit takes the transits whose packet term still exceeds the
        # leftover, while the series keeps all 1,000
        out = run("multi_transit", max_transits=1000)
        efficiency = out.series["transits"]["efficiency"]
        assert len(efficiency) == 1000 and efficiency[-1] > 0.0
        assert out.metrics["eta_fit"] == pytest.approx(0.67, abs=0.01)
        assert out.metrics["r_squared"] > 0.99

    @pytest.mark.parametrize("max_transits", [1, 4, 1000])
    def test_one_loop_pass_whatever_the_transit_count(self, monkeypatch, max_transits):
        # one coupling read and one pass of ping_pong's transfer; the
        # capture's leftover comes from that pass's own step maps
        import sawlink.ioshape as ioshape

        reads, passes = [], []
        kappa, integrate = ioshape.ControlSchedule.kappa, ioshape._integrate

        def counted_kappa(schedule, qubit, t):
            reads.append(qubit)
            return kappa(schedule, qubit, t)

        def counted_integrate(*args):
            passes.append(args)
            return integrate(*args)

        monkeypatch.setattr(ioshape.ControlSchedule, "kappa", counted_kappa)
        monkeypatch.setattr(ioshape, "_integrate", counted_integrate)
        out = run("multi_transit", max_transits=max_transits)
        assert reads == [1] and len(passes) == 1
        assert len(out.series["transits"]["efficiency"]) == max_transits

    # Above 0.81/ns a round trip takes more than 4,096 steps, so the loop
    # composes it in two spans, and at 1.0/ns a window past 0.81 tau puts
    # the span edge inside the capture; past 0.75 tau the run goes beyond
    # 2 tau, where the capture's own output comes back to an uncoupled qubit.
    # With h = tau / 2033, the step at 0.15/ns, a window of tau - h/4 leaves
    # the release coupled at the start and the midpoint of the capture's
    # first step, one of tau - 3h/4 at its start.
    @settings(max_examples=25, deadline=None)
    @given(kappa_c=st.floats(0.02, 1.0), fraction=st.floats(0.05, 0.9),
           eta=st.floats(0.0, 1.0), phase=st.just(0.0) | st.floats(-np.pi, np.pi))
    @example(kappa_c=1.0, fraction=0.9, eta=0.67, phase=0.0)
    @example(kappa_c=1.0, fraction=0.85, eta=0.5, phase=1.1)
    @example(kappa_c=0.15, fraction=1 - 0.25 / 2033, eta=0.67, phase=0.0)
    @example(kappa_c=0.15, fraction=1 - 0.75 / 2033, eta=0.5, phase=1.1)
    def test_leftover_matches_the_capture_alone_pass(self, kappa_c, fraction, eta, phase):
        ch = ChannelParams(eta, DEV.tau_ns, phase)
        sched = transfer_schedule(kappa_c, fraction * ch.tau, ch.tau, 1, 1)
        _, a = recapture_with_leftover(sched, ch)
        assert a == capture_alone(sched, ch)

    # Above 0.4/ns the step shrinks below 0.25 ns, and the n-th capture's
    # hard leading edge at n tau can land an ulp from a step node; the
    # reference then reads it on whichever side h * n * n_sub rounds to,
    # one node apart between transit counts, an O(h) change of its own.
    # At kappa_c <= 0.4/ns and the device's tau, every n <= 6 lands on its node.
    @settings(max_examples=20, deadline=None)
    @given(kappa_c=st.floats(0.02, 0.4), window=st.floats(20.0, 500.0),
           eta=st.floats(0.0, 1.0), max_transits=st.integers(1, 6),
           phase=st.floats(0.1, 2 * np.pi - 0.1))
    def test_superposition_matches_one_loop_per_transit(self, kappa_c, window, eta,
                                                         max_transits, phase):
        ch = ChannelParams(eta, DEV.tau_ns, phase)
        phased = SimpleNamespace(channel=lambda _: ch)  # the device's line, with a phase
        params = {"kappa_c": kappa_c, "window_ns": window, "eta": eta,
                  "max_transits": max_transits}
        got = run_experiment("multi_transit", phased, params, 1234).series["transits"]
        want = np.abs(per_transit_amplitudes(ch, kappa_c, window, max_transits)) ** 2
        assert np.max(np.abs(got["efficiency"] - want)) <= 1e-14


class TestInterference:
    def test_fringe_extremes(self, interference_out):
        m = interference_out.metrics
        assert m["p_at_zero"] > 0.65
        assert m["p_at_pi"] < 0.15
        assert m["visibility"] > 0.6
        assert m["fundamental_ratio"] > 10

    def test_dephasing_width_from_transit(self, interference_out):
        # sigma^2 = 2 tau / T2R with tau and T2R from the device table
        expected = np.sqrt(2 * 508.12 / 2100.0)
        assert interference_out.metrics["sigma_phi"] == pytest.approx(expected)

    def test_same_seed_reproduces_fringe(self, interference_out):
        again = run("interference", **SMALL_INTERFERENCE)
        assert np.array_equal(
            again.series["fringe"]["p_e"], interference_out.series["fringe"]["p_e"]
        )

    @pytest.mark.parametrize("realizations", [1, 64, 1024])
    @pytest.mark.parametrize("n_phases", [5, 33])
    def test_one_draw_and_one_pass_of_n_plus_one_rows(self, monkeypatch, n_phases, realizations):
        # the default window holds one round trip, so one coupling read
        # and one pass of two rows serve every phase
        import sawlink.ioshape as ioshape

        draws, reads, rows = [], [], []
        draw, integrate = ioshape.realization_phases, ioshape._integrate
        kappa = ioshape.ControlSchedule.kappa

        def counted_draw(noise):
            draws.append(noise)
            return draw(noise)

        def counted_kappa(schedule, qubit, t):
            reads.append(qubit)
            return kappa(schedule, qubit, t)

        def counted_integrate(loop, ch, s0, *args):
            rows.append(len(s0))
            return integrate(loop, ch, s0, *args)

        monkeypatch.setattr(ioshape, "realization_phases", counted_draw)
        monkeypatch.setattr(ioshape.ControlSchedule, "kappa", counted_kappa)
        monkeypatch.setattr(ioshape, "_integrate", counted_integrate)
        run("interference", **{**SMALL_INTERFERENCE, "n_phases": n_phases,
                               "realizations": realizations})
        assert len(draws) == 1
        assert reads == [1]
        assert rows == [2]

    def test_different_seed_changes_fringe(self, interference_out):
        other = run("interference", seed=77, **SMALL_INTERFERENCE)
        assert not np.array_equal(
            other.series["fringe"]["p_e"], interference_out.series["fringe"]["p_e"]
        )

    def test_chunking_only_reorders_rounding(self, interference_out):
        rechunked = run("interference", **{**SMALL_INTERFERENCE, "chunk": 16})
        assert np.allclose(
            rechunked.series["fringe"]["p_e"],
            interference_out.series["fringe"]["p_e"],
            atol=1e-12,
        )


class TestSwap:
    def test_transfer_process_fidelity(self, swap_out):
        assert 0.75 < swap_out.metrics["process_fidelity"] < 0.90

    def test_chi_is_stored_with_pauli_basis(self, swap_out):
        chi, basis = swap_out.matrices["chi"]
        assert chi.shape == (4, 4)
        assert basis == ("I", "X", "Y", "Z")
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name, over", [("swap", {}), ("swap", {"receiver": 2}), ("bell", {})])
def test_default_tol_is_within_5e8_of_a_tight_run(name, over):
    # each piece between breakpoints integrates its own coefficients, so the
    # step control holds the default tol 1e-8; a stepper that read the next
    # piece's coupling at a piece's end left bell's pauli_ZI 3.7e-7 off
    default = run(name, **over).metrics
    tight = run(name, tol=1e-11, **over).metrics
    assert max(abs(default[k] - tight[k]) for k in tight) <= 5e-8


class TestBell:
    def test_entanglement_metrics(self, bell_out):
        m = bell_out.metrics
        assert 0.65 < m["bell_fidelity"] < 0.80
        assert 0.55 < m["concurrence"] < 0.70

    def test_pauli_bar_pattern(self, bell_out):
        m = bell_out.metrics
        assert m["pauli_XX"] > 0.5
        assert m["pauli_YY"] > 0.5
        assert m["pauli_ZZ"] < -0.5
        assert m["pauli_II"] == pytest.approx(1.0, abs=1e-9)

    def test_pair_state_is_physical(self, bell_out):
        rho, basis = bell_out.matrices["rho_pair"]
        assert basis == ("gg", "ge", "eg", "ee")
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-9

    def test_ageing_matches_the_two_block_generator(self):
        # q1's D[sigma-] and D[n] blocks on a pair, weighted by its relaxation
        # and dephasing rates and exponentiated densely over the idle time
        rng = np.random.default_rng(17)
        sp = HilbertSpace([2, 2], ["q1", "q2"])
        blocks = [dissipator(embed(op, "q1", sp)).toarray() for op in (SIGMA_MINUS, NUMBER)]
        cases = [(DEV.q1.noise(), DEV.tau_ns), (QubitNoise(), 100.0)]
        cases += [(QubitNoise(rng.uniform(0.0, 1e-3), rng.uniform(0.0, 1e-2)),
                   rng.uniform(0.0, 2e3)) for _ in range(8)]
        for noise, t in cases:
            a = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
            pairs = a @ a.conj().swapaxes(-1, -2)
            pairs /= np.trace(pairs, axis1=-2, axis2=-1)[:, None, None]
            generator = noise.relax_rate * blocks[0] + noise.dephase_rate * blocks[1]
            want = from_coords(to_coords(pairs) @ scipy.linalg.expm(generator * t).T)
            assert np.max(np.abs(age_idle(pairs, noise, t) - want)) <= 1e-14


class TestSpectroscopy:
    def test_mode_ladder_shape(self):
        out = run("spectroscopy")
        m = out.metrics
        assert m["coupling_mhz"] == pytest.approx(2.57)
        assert m["fsr_mhz"] == pytest.approx(1.968, abs=0.005)
        # coupling exceeds the mode spacing, so level repulsion pins the
        # central gap near one free spectral range rather than 2g
        assert 1.5 < m["central_gap_mhz"] < 6.0
        cols = out.series["spectrum"]
        eigs = np.column_stack([cols[k] for k in cols if k.startswith("eig_")])
        assert np.all(np.diff(eigs, axis=1) >= -1e-9)


class TestVacuumRabi:
    def test_series_matches_integrator(self):
        out = run("vacuum_rabi")
        m = out.metrics
        assert m["sup_deviation"] <= 1e-2
        assert abs(m["revival_onset_ns"] - m["expected_onset_ns"]) <= 5.0
        assert m["golden_rule_inverse_ns"] == pytest.approx(7.6, rel=0.03)


class TestSawResponse:
    def test_device_level_numbers(self):
        m = run("saw_response").metrics
        assert m["idt_first_null_ghz"] == pytest.approx(4.17, abs=0.03)
        assert m["stopband_width_mhz"] == pytest.approx(125.0, abs=10.0)
        assert m["t1_saw_us"] == pytest.approx(1.8, abs=0.1)
        assert 4e4 <= m["q_factor"] <= 6e4
        assert m["tau_ns"] == pytest.approx(508.12, abs=0.01)
        assert m["eta_bound"] == pytest.approx(np.exp(-508.12 / 1200.0), abs=1e-6)


class TestTomoRoundtrip:
    def test_reconstruction_errors_are_numerical_noise(self):
        m = run("tomo_roundtrip").metrics
        assert m["max_exact_error"] <= 1e-8
        assert m["max_corrected_error"] <= 1e-10
        assert m["max_process_error"] <= 1e-8
        assert m["werner_concurrence_error"] <= 1e-10


def _transferred_qubit_state():
    """Receiver state after one eta = 0.67 transfer of |e>, full noise."""
    sched = transfer_schedule(0.15, 120.0, DEV.tau_ns)
    cfg = CascadeConfig(schedule=sched, ch=DEV.channel(None), noise=DEV.noise_pair())
    excited = np.kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])).astype(complex)
    grid = np.array([0.0, DEV.tau_ns + 120.0])
    traj = run_cascade(cfg, QuantumState(two_qubit_space(), excited), grid)
    return partial_trace(two_qubit_space(), traj.rhos[-1], ["q2"])


@pytest.fixture(scope="module")
def correction_gaps(bell_out):
    ket = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    bell = np.outer(ket, ket.conj())
    rho_pair, _ = bell_out.matrices["rho_pair"]
    ro_pair = DEV.readout()
    data = tomo.tomography_data(rho_pair, readout=ro_pair)
    f_corr = tomo.fidelity(tomo.state_tomo(data, readout=ro_pair), bell)
    f_raw = tomo.fidelity(tomo.state_tomo(data, None), bell)
    pair_gap = f_corr - f_raw

    rho_q2 = _transferred_qubit_state()
    ro_one = ReadoutModel(((DEV.q2.F_g, DEV.q2.F_e),))
    target = np.diag([0.0, 1.0]).astype(complex)
    data1 = tomo.tomography_data(rho_q2, readout=ro_one)
    g_corr = tomo.fidelity(tomo.state_tomo(data1, readout=ro_one), target)
    g_raw = tomo.fidelity(tomo.state_tomo(data1, None), target)
    return pair_gap, g_corr - g_raw


class TestReadoutCorrectionEffect:
    """Size of the tomography bias removed by confusion-matrix inversion.

    With the table readout fidelities the uncorrected reconstruction is
    biased by several percent; correction recovers the exact-statistics
    state, so the with/without gap measures the readout error itself.
    """

    def test_correction_gap_magnitude(self, correction_gaps):
        pair_gap, single_gap = correction_gaps
        assert pair_gap == pytest.approx(0.081, abs=0.015)
        assert single_gap == pytest.approx(0.024, abs=0.010)

    @pytest.mark.xfail(
        reason="confusion-model readout at the table fidelities biases "
        "uncorrected tomography by more than 0.02 on these scenarios",
        strict=True,
    )
    def test_correction_shift_within_two_percent(self, correction_gaps):
        pair_gap, single_gap = correction_gaps
        assert pair_gap <= 0.02
        assert single_gap <= 0.02
