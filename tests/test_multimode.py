import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from sawlink.dynamics import Generator, commutator_superop, dissipator, evolve_generator
from sawlink.errors import ValidationError
from sawlink.multimode import (
    MultimodeParams,
    _laguerre,
    build_space,
    efficiency_bound,
    golden_rule_kappa,
    jc_hamiltonian,
    laguerre_amplitude,
    revival_onset,
    spectrum,
)
from sawlink.qcore import (
    NUMBER,
    SIGMA_MINUS,
    QuantumState,
    embed,
)


def excitation_number(space) -> np.ndarray:
    """Total occupation of each basis ket, as a diagonal matrix."""
    return np.diag([float(sum(occ)) for occ in space.basis])


class TestParams:
    def test_tau_is_inverse_fsr(self):
        p = MultimodeParams(g=2.57, fsr=1.97)
        assert abs(p.tau_ns * p.fsr * 1e-3 - 1.0) < 1e-9
        assert p.tau_ns == pytest.approx(507.6, abs=0.1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            MultimodeParams(g=1.0, n_a=0)
        with pytest.raises(ValidationError):
            MultimodeParams(g=1.0, fsr=-1.0)

    def test_one_mode_sits_at_delta0(self):
        p = MultimodeParams(g=1.0, n_a=8, fsr=1.97, delta0=0.5)
        det = p.mode_detunings() / (2e-3 * np.pi)
        assert np.isclose(det, 0.5).any()


class TestHamiltonian:
    def test_excitation_conserved(self):
        p = MultimodeParams(g=2.57, n_a=6)
        space = build_space(p)
        h = jc_hamiltonian(p, space)
        n = excitation_number(space)
        assert np.max(np.abs(h @ n - n @ h)) < 1e-12

    def test_decoupled_limit_is_diagonal(self):
        p = MultimodeParams(g=0.0, n_a=4, fsr=1.97, delta0=0.3)
        space = build_space(p)
        h = jc_hamiltonian(p, space)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-15
        sector = [i for i, occ in enumerate(space.basis) if sum(occ) == 1]
        evals = np.sort(np.diag(h)[sector].real)
        expected = np.sort(np.append(p.mode_detunings(), 0.0))
        assert np.allclose(evals, expected, atol=1e-15)

    def test_single_mode_vacuum_rabi_doublet(self):
        p = MultimodeParams(g=2.57, n_a=1, delta0=0.0)
        space = build_space(p)
        h = jc_hamiltonian(p, space)
        sector = [i for i, occ in enumerate(space.basis) if sum(occ) == 1]
        evals = np.linalg.eigvalsh(h[np.ix_(sector, sector)])
        g = 2.57 * 2e-3 * np.pi
        assert np.allclose(evals, [-g, g], atol=1e-12)


class TestSpectrum:
    def test_decoupled_curves_are_straight_lines(self):
        p = MultimodeParams(g=1e-9, n_a=3, fsr=1.97)
        sweep = np.linspace(-2.0, 2.0, 21)
        curves = spectrum(p, sweep)
        # one eigenvalue follows the qubit, others stay at mode frequencies
        assert np.allclose(curves.min(axis=1), np.minimum(sweep, -1.97), atol=1e-6)

    def test_isolated_mode_gap_is_2g(self):
        g = 0.05  # weak against fsr: isolated-crossing limit
        p = MultimodeParams(g=g, n_a=3, fsr=1.97)
        curves = spectrum(p, [0.0])
        gaps = np.diff(curves[0])
        assert gaps.min() == pytest.approx(2 * g, rel=1e-3)

    def test_strong_multimode_gap_exceeds_fsr(self):
        p = MultimodeParams(g=2.57, n_a=8, fsr=1.97)
        curves = spectrum(p, [0.0])
        gaps = np.diff(curves[0])
        assert gaps.max() > p.fsr

    def test_reflection_symmetry(self):
        p = MultimodeParams(g=1.3, n_a=5, fsr=1.97)  # odd ladder, centered
        sweep = np.linspace(-3.0, 3.0, 13)
        up = spectrum(p, sweep)
        down = spectrum(p, -sweep)
        assert np.allclose(up, -down[:, ::-1], atol=1e-10)


class TestGoldenRule:
    def test_first_coupling(self):
        inv = golden_rule_kappa(2.57, 1.97).inverse_ns
        assert inv == pytest.approx(7.6, rel=0.03)

    def test_second_coupling(self):
        inv = golden_rule_kappa(2.16, 1.97).inverse_ns
        assert inv == pytest.approx(10.6, rel=0.03)

    def test_zero_coupling(self):
        assert golden_rule_kappa(0.0, 1.97).rate == 0.0


class TestEfficiencyBound:
    def test_published_operating_point(self):
        assert efficiency_bound(508.0, 1.2) == pytest.approx(0.655, abs=0.001)

    def test_lossless_limit(self):
        assert efficiency_bound(508.0, 1e9) == pytest.approx(1.0, abs=1e-9)

    def test_improved_resonator(self):
        assert efficiency_bound(508.0, 2.0) == pytest.approx(0.776, abs=0.001)

    def test_invalid_lifetime_rejected(self):
        with pytest.raises(ValidationError):
            efficiency_bound(508.0, 0.0)


class TestLaguerre:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=12), st.floats(min_value=0.0, max_value=30.0))
    def test_recurrence_matches_reference(self, n, x):
        xs = np.array([x])
        assert _laguerre(n, xs)[0] == pytest.approx(eval_laguerre(n, x), rel=1e-9, abs=1e-9)

    def test_pre_revival_closed_form(self):
        # before the first echo the amplitude is a bare exponential at
        # the amplitude rate kappa/2
        p = MultimodeParams(g=0.3, fsr=1.97)
        kappa = golden_rule_kappa(p.g, p.fsr).rate
        t = np.linspace(0, 0.99 * p.tau_ns, 40)
        amp = laguerre_amplitude(t, p)
        assert np.allclose(amp, np.exp(-kappa * t / 2.0), atol=1e-12)
        assert np.allclose(np.abs(amp) ** 2, np.exp(-kappa * t), atol=1e-12)

    def test_amplitude_bounded_without_loss(self):
        p = MultimodeParams(g=0.8, fsr=1.97, kappa_a=0.0, delta0=0.0)
        t = np.linspace(0, 4 * p.tau_ns, 4000)
        assert np.max(np.abs(laguerre_amplitude(t, p))) <= 1.0 + 1e-12

    def test_revival_amplitudes_decrease_with_loss(self):
        p = MultimodeParams(g=2.57, fsr=1.97, kappa_a=1 / 1.2)
        tau = p.tau_ns
        peaks = []
        for n in (1, 2, 3):
            t = np.linspace(n * tau + 0.1, (n + 1) * tau, 1500)
            peaks.append(np.max(np.abs(laguerre_amplitude(t, p))))
        assert peaks[0] > peaks[1] > peaks[2]

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            laguerre_amplitude(np.array([-1.0]), MultimodeParams(g=1.0))


class TestOracleEquivalence:
    def test_lindblad_matches_series_small_case(self):
        # compact version of the full cross-check: weak coupling, the
        # stated mode count, channel loss on, no qubit imperfections
        p = MultimodeParams(g=0.1, n_a=8, fsr=1.97, kappa_a=1 / 1.2)
        space = build_space(p)
        ka = p.kappa_a * 1e-3
        blocks = [commutator_superop(jc_hamiltonian(p, space))]
        blocks += [dissipator(embed(SIGMA_MINUS, lbl, space)) for lbl in p.mode_labels]
        generator = Generator(space, blocks, [1.0] + [ka] * p.n_a)
        rho0 = QuantumState.basis_state(space, [1] + [0] * p.n_a)
        grid = np.linspace(0.0, 1.6 * p.tau_ns, 500)
        traj = evolve_generator(
            generator, rho0, grid, tol=1e-9,
            observables={"pe": embed(NUMBER, "q", space)},
        )
        pe_series = np.abs(laguerre_amplitude(grid, p)) ** 2
        assert np.max(np.abs(traj.observables["pe"] - pe_series)) <= 1e-2

    def test_onset_detector_on_analytic_curve(self):
        p = MultimodeParams(g=0.18, n_a=9, fsr=1.97, kappa_a=1 / 1.2)
        grid = np.linspace(0, 2 * p.tau_ns, 800)
        pe = np.abs(laguerre_amplitude(grid, p)) ** 2
        kappa = golden_rule_kappa(p.g, p.fsr).rate
        assert revival_onset(grid, pe) == pytest.approx(p.tau_ns, abs=5.0)
