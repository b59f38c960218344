import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from sawlink.dynamics import (
    Generator,
    commutator_superop,
    dissipator,
    evolve_generator,
    expectations,
)
from sawlink.errors import ValidationError
from sawlink.ioshape import MHZ
from sawlink.multimode import (
    MultimodeParams,
    _laguerre,
    decay_population,
    efficiency_bound,
    golden_rule_kappa,
    jc_hamiltonian,
    ladder,
    laguerre_amplitude,
    revival_onset,
    spectrum,
)
from sawlink.qcore import (
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    QuantumState,
    embed,
    embed_product,
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
        space = ladder(p.n_a).space
        h = jc_hamiltonian(p)
        n = excitation_number(space)
        assert np.max(np.abs(h @ n - n @ h)) < 1e-12

    def test_decoupled_limit_is_diagonal(self):
        p = MultimodeParams(g=0.0, n_a=4, fsr=1.97, delta0=0.3)
        space = ladder(p.n_a).space
        h = jc_hamiltonian(p)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-15
        sector = [i for i, occ in enumerate(space.basis) if sum(occ) == 1]
        evals = np.sort(np.diag(h)[sector].real)
        expected = np.sort(np.append(p.mode_detunings(), 0.0))
        assert np.allclose(evals, expected, atol=1e-15)

    def test_single_mode_vacuum_rabi_doublet(self):
        p = MultimodeParams(g=2.57, n_a=1, delta0=0.0)
        space = ladder(p.n_a).space
        h = jc_hamiltonian(p)
        sector = [i for i, occ in enumerate(space.basis) if sum(occ) == 1]
        evals = np.linalg.eigvalsh(h[np.ix_(sector, sector)])
        g = 2.57 * 2e-3 * np.pi
        assert np.allclose(evals, [-g, g], atol=1e-12)


class TestLadderCache:
    @pytest.mark.parametrize("n_a", [1, 2, 5, 11, 20])
    def test_operators_are_the_embedded_ones(self, n_a):
        lad = ladder(n_a)
        space = lad.space
        assert space.labels == ("q",) + tuple(f"m{j}" for j in range(n_a))
        assert np.array_equal(lad.qubit_number, embed(NUMBER, "q", space))
        swaps = [embed_product({"q": SIGMA_PLUS, f"m{j}": SIGMA_MINUS}, space)
                 for j in range(n_a)]
        assert np.array_equal(lad.exchange, sum(x + x.conj().T for x in swaps))
        for j in range(n_a):
            assert np.array_equal(lad.numbers[j], embed(NUMBER, f"m{j}", space))

    def test_built_once_per_mode_count(self):
        assert ladder(7) is ladder(7)
        assert ladder(7) is not ladder(8)

    def test_operators_are_read_only(self):
        for op in ladder(4)[1:]:
            with pytest.raises(ValueError):
                op[..., 0, 0] = 1.0

    @pytest.mark.parametrize("p", [
        MultimodeParams(g=0.18, n_a=11, fsr=1.97, kappa_a=0.0),
        MultimodeParams(g=0.1, n_a=8, fsr=1.97, kappa_a=1 / 1.2),
        MultimodeParams(g=2.57, n_a=20, fsr=1.97, delta0=0.4, kappa_a=3.0),
        MultimodeParams(g=-0.5, n_a=1, fsr=0.7, delta0=-1.1, kappa_a=0.2),
    ])
    def test_generator_equals_the_summed_one(self, p):
        # the sector's no-jump generator H_eff, which decay_population
        # exponentiates, against the commutator with the summed Hamiltonian
        # plus the dissipators, integrated from a random state
        space = ladder(p.n_a).space
        blocks = [commutator_superop(jc_hamiltonian(p))]
        blocks += [dissipator(embed(SIGMA_MINUS, lbl, space)) for lbl in space.labels[1:]]
        rates = np.array([1.0] + [p.kappa_a * 1e-3] * p.n_a)
        a = np.random.default_rng(p.n_a).normal(size=(2, space.dim, space.dim))
        rho0 = (a[0] + 1j * a[1]) @ (a[0] + 1j * a[1]).conj().T
        rho0 /= np.trace(rho0)
        grid = np.linspace(0.0, 2 * p.tau_ns, 21)  # through the first echo
        rhos = evolve_generator(Generator(space, blocks, lambda t: rates), rho0[None], grid, 1e-10)
        want = expectations(rhos, {"pe": ladder(p.n_a).qubit_number})["pe"][:, 0]
        assert np.max(np.abs(decay_population(p, rho0, grid) - want)) <= 1e-8

    @pytest.mark.parametrize("n_a", [1, 8, 20])
    def test_spectrum_bit_for_bit_against_per_mode_build(self, n_a):
        # the Hamiltonian summed mode by mode from fresh embeddings, as it
        # was built before the ladder's operators were cached
        p = MultimodeParams(g=2.57, n_a=n_a, fsr=1.97, delta0=0.2)
        space = ladder(n_a).space
        g = p.g * MHZ
        h = np.zeros((space.dim, space.dim), dtype=complex)
        for j, delta in enumerate(p.mode_detunings()):
            h += delta * embed(NUMBER, f"m{j}", space)
            swap = embed_product({"q": SIGMA_PLUS, f"m{j}": SIGMA_MINUS}, space)
            h += g * (swap + swap.conj().T)
        assert jc_hamiltonian(p).tobytes() == h.tobytes()
        sweep = np.linspace(-6.0, 6.0, 41)
        kets = np.flatnonzero(space.basis.sum(axis=1) == 1)
        sector = np.ix_(kets, kets)
        nq = embed(NUMBER, "q", space)[sector]
        want = np.linalg.eigvalsh(h[sector] + sweep.reshape(-1, 1, 1) * MHZ * nq) / MHZ
        assert spectrum(p, sweep).tobytes() == want.tobytes()


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
        space = ladder(p.n_a).space
        sector = np.flatnonzero(space.basis.sum(axis=1) == 1)
        base, nq = jc_hamiltonian(p), embed(NUMBER, "q", space)
        mhz = 2e-3 * np.pi
        want = [np.linalg.eigvalsh((base + off * mhz * nq)[np.ix_(sector, sector)]) / mhz
                for off in sweep]
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
        rho0 = QuantumState.basis_state(ladder(p.n_a).space, [1] + [0] * p.n_a)
        grid = np.linspace(0.0, 1.6 * p.tau_ns, 500)
        pe_series = np.abs(laguerre_amplitude(grid, p)) ** 2
        assert np.max(np.abs(decay_population(p, rho0.rho, grid) - pe_series)) <= 1e-2

    def test_onset_detector_on_analytic_curve(self):
        p = MultimodeParams(g=0.18, n_a=9, fsr=1.97, kappa_a=1 / 1.2)
        grid = np.linspace(0, 2 * p.tau_ns, 800)
        pe = np.abs(laguerre_amplitude(grid, p)) ** 2
        kappa = golden_rule_kappa(p.g, p.fsr).rate
        assert revival_onset(grid, pe) == pytest.approx(p.tau_ns, abs=5.0)
