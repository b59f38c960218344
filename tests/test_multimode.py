import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from sawlink.dynamics import evolve_generator, expectations
from sawlink.errors import ValidationError
from sawlink.ioshape import MHZ
from sawlink.multimode import (
    MultimodeParams,
    _laguerre,
    decay_population,
    efficiency_bound,
    golden_rule_kappa,
    laguerre_amplitude,
    revival_onset,
    sector_hamiltonian,
    spectrum,
)
from sawlink.qcore import NUMBER, SIGMA_MINUS, SIGMA_PLUS, HilbertSpace, embed

from ladder_oracle import ladder_generator, ladder_hamiltonian, lowering_operators


def full_hamiltonian(p: MultimodeParams) -> tuple[HilbertSpace, np.ndarray]:
    """The exchange Hamiltonian sum_j Delta_j n_j + g (sp a_j + sm a_j^+) on
    the full tensor space of the qubit and its modes (labelled q, m0, m1,
    ...), summed mode by mode from embedded single-mode operators."""
    space = HilbertSpace([2] * (1 + p.n_a), ["q"] + [f"m{j}" for j in range(p.n_a)])
    sp, sm = embed(SIGMA_PLUS, "q", space), embed(SIGMA_MINUS, "q", space)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for j, delta in enumerate(p.mode_detunings()):
        a = embed(SIGMA_MINUS, f"m{j}", space)
        h += delta * embed(NUMBER, f"m{j}", space) + p.g * MHZ * (sp @ a + sm @ a.conj().T)
    return space, h


def qubit_excited(n_a: int) -> np.ndarray:
    """The projector onto the sector's last ket, the qubit's."""
    rho = np.zeros((n_a + 1, n_a + 1), dtype=complex)
    rho[-1, -1] = 1.0
    return rho


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

    def test_one_mode_sits_on_the_qubit(self):
        # for odd and even mode counts, the ladder's middle mode (the lower
        # of the two middle ones) is resonant and the rest are fsr apart
        for n_a in (1, 2, 8, 11, 20):
            det = MultimodeParams(g=1.0, n_a=n_a, fsr=1.97).mode_detunings()
            assert np.flatnonzero(det == 0.0).tolist() == [(n_a - 1) // 2]
            assert np.allclose(np.diff(det), 1.97 * MHZ, rtol=1e-12, atol=0.0)


class TestHamiltonian:
    def test_excitation_conserved(self):
        # what makes the one-excitation sector a closed block
        p = MultimodeParams(g=2.57, n_a=6)
        space, h = full_hamiltonian(p)
        n = sum(embed(NUMBER, label, space) for label in space.labels)
        assert np.max(np.abs(h @ n - n @ h)) < 1e-12

    def test_decoupled_limit_is_diagonal(self):
        p = MultimodeParams(g=0.0, n_a=4, fsr=1.97)
        h = sector_hamiltonian(p)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-15
        evals = np.sort(np.diag(h).real)
        expected = np.sort(np.append(p.mode_detunings(), 0.0))
        assert np.allclose(evals, expected, atol=1e-15)

    def test_single_mode_vacuum_rabi_doublet(self):
        p = MultimodeParams(g=2.57, n_a=1)
        evals = np.linalg.eigvalsh(sector_hamiltonian(p))
        g = 2.57 * 2e-3 * np.pi
        assert np.allclose(evals, [-g, g], atol=1e-12)


class TestSector:
    @settings(max_examples=30, deadline=None)
    @given(
        n_a=st.integers(1, 6),
        g=st.floats(-3.0, 3.0),
        fsr=st.floats(0.1, 5.0),
    )
    def test_is_the_one_excitation_block(self, n_a, g, fsr):
        p = MultimodeParams(g=g, n_a=n_a, fsr=fsr)
        space, h = full_hamiltonian(p)
        # the sector's kets: one excitation in m_{n-1}, ..., m_0, then in q
        kets = [space.basis_index(np.eye(1 + n_a, dtype=int)[k]) for k in range(n_a, -1, -1)]
        assert kets == sorted(kets)  # lexicographic order on the full space
        rest = np.setdiff1d(np.arange(space.dim), kets)
        assert not np.any(h[np.ix_(kets, rest)])
        assert np.array_equal(sector_hamiltonian(p), h[np.ix_(kets, kets)])

    @pytest.mark.parametrize("n_a", [1, 2, 5, 11, 20])
    def test_is_the_summed_definition(self, n_a):
        # the mode counts the experiments use, past the full space's reach:
        # the ladder's operators summed on vacuum + sector, the vacuum dropped
        p = MultimodeParams(g=2.57, n_a=n_a, fsr=1.97)
        assert np.array_equal(sector_hamiltonian(p), ladder_hamiltonian(p)[1:, 1:])

    @pytest.mark.parametrize("p", [
        MultimodeParams(g=0.18, n_a=11, fsr=1.97, kappa_a=0.0),
        MultimodeParams(g=0.1, n_a=8, fsr=1.97, kappa_a=1 / 1.2),
        MultimodeParams(g=2.57, n_a=20, fsr=1.97, kappa_a=3.0),
        MultimodeParams(g=-0.5, n_a=1, fsr=0.7, kappa_a=0.2),
    ])
    def test_generator_equals_the_summed_one(self, p):
        # the sector's no-jump generator H_eff, which decay_population
        # exponentiates, against the master equation on vacuum + sector,
        # integrated from a random state
        sm, _ = lowering_operators(p.n_a)
        a = np.random.default_rng(p.n_a).normal(size=(2, p.n_a + 2, p.n_a + 2))
        rho0 = (a[0] + 1j * a[1]) @ (a[0] + 1j * a[1]).conj().T
        rho0 /= np.trace(rho0)
        grid = np.linspace(0.0, 2 * p.tau_ns, 21)  # through the first echo
        rhos = evolve_generator(ladder_generator(p), rho0[None], grid, 1e-10)
        want = expectations(rhos, {"pe": sm.conj().T @ sm})["pe"][:, 0]
        assert np.max(np.abs(decay_population(p, rho0[1:, 1:], grid) - want)) <= 1e-8


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

    @pytest.mark.parametrize("n_a", [1, 8, 20])
    def test_batched_equals_per_offset_loop(self, n_a):
        p = MultimodeParams(g=2.57, n_a=n_a, fsr=1.97)
        sweep = np.linspace(-6.0, 6.0, 41)
        base, nq = sector_hamiltonian(p), qubit_excited(p.n_a)
        mhz = 2e-3 * np.pi
        want = [np.linalg.eigvalsh(base + off * mhz * nq) / mhz for off in sweep]
        assert np.array_equal(spectrum(p, sweep), np.array(want))


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
        p = MultimodeParams(g=0.8, fsr=1.97, kappa_a=0.0)
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
        grid = np.linspace(0.0, 1.6 * p.tau_ns, 500)
        pe_series = np.abs(laguerre_amplitude(grid, p)) ** 2
        pe = decay_population(p, qubit_excited(p.n_a), grid)
        assert np.max(np.abs(pe - pe_series)) <= 1e-2

    def test_onset_detector_on_analytic_curve(self):
        p = MultimodeParams(g=0.18, n_a=9, fsr=1.97, kappa_a=1 / 1.2)
        grid = np.linspace(0, 2 * p.tau_ns, 800)
        pe = np.abs(laguerre_amplitude(grid, p)) ** 2
        kappa = golden_rule_kappa(p.g, p.fsr).rate
        assert revival_onset(grid, pe) == pytest.approx(p.tau_ns, abs=5.0)
