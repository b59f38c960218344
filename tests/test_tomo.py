"""Tomography forward/inverse consistency and metric definitions."""

import numpy as np
import pytest

from sawlink import tomo
from sawlink.errors import ValidationError

RNG = np.random.default_rng(11)

BELL = np.zeros((4, 4), dtype=complex)
_psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
BELL[:, :] = np.outer(_psi, _psi)

TABLE_RO = tomo.ReadoutModel(((0.969, 0.933), (0.977, 0.952)))


def perfect(n_qubits: int) -> tomo.ReadoutModel:
    """Readout that reports every basis state without error."""
    return tomo.ReadoutModel(((1.0, 1.0),) * n_qubits)


def rand_state(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


class TestReadoutModel:
    def test_confusion_is_column_stochastic(self):
        conf = TABLE_RO.confusion()
        assert conf.shape == (4, 4)
        assert np.allclose(conf.sum(axis=0), 1.0, atol=1e-12)

    def test_perfect_is_identity(self):
        assert np.allclose(perfect(2).confusion(), np.eye(4))

    def test_confusion_built_once_and_read_only(self):
        conf = TABLE_RO.confusion()
        assert TABLE_RO.confusion() is conf
        assert not conf.flags.writeable
        (fg1, fe1), (fg2, fe2) = TABLE_RO.fidelities
        want = np.kron([[fg1, 1 - fe1], [1 - fg1, fe1]], [[fg2, 1 - fe2], [1 - fg2, fe2]])
        assert np.array_equal(conf, want)

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValidationError):
            tomo.ReadoutModel(((0.5, 0.9),))
        with pytest.raises(ValidationError):
            tomo.ReadoutModel(((0.9, 1.01),))


class TestSimulateMeasurement:
    def test_ground_state_perfect(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        probs = tomo.simulate_measurement(rho, perfect(2))
        assert np.allclose(probs, [1.0, 0.0, 0.0, 0.0])

    def test_excited_state_reports_fidelity(self):
        ro = tomo.ReadoutModel(((0.969, 0.933),))
        probs = tomo.simulate_measurement(np.diag([0.0, 1.0]).astype(complex), ro)
        assert probs[1] == pytest.approx(0.933, abs=1e-12)

    def test_probabilities_normalized(self):
        for _ in range(10):
            probs = tomo.simulate_measurement(rand_state(4), TABLE_RO)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shot_mode_counts(self):
        rho = rand_state(4)
        counts = tomo.simulate_measurement(rho, TABLE_RO, shots=5000, seed=3)
        assert counts.sum() == 5000
        again = tomo.simulate_measurement(rho, TABLE_RO, shots=5000, seed=3)
        assert np.array_equal(counts, again)


class TestReadoutCorrect:
    def test_perfect_is_identity(self):
        p = np.array([0.4, 0.1, 0.3, 0.2])
        out = tomo.readout_correct(p, perfect(2))
        assert np.allclose(out, p, atol=1e-14)

    def test_round_trip(self):
        for _ in range(10):
            rho = rand_state(4)
            exact = tomo.simulate_measurement(rho)
            corrected = tomo.readout_correct(
                tomo.simulate_measurement(rho, TABLE_RO), TABLE_RO
            )
            assert np.max(np.abs(corrected - exact)) < 1e-10

    def test_singular_confusion_rejected(self):
        class Degenerate:
            def confusion(self):
                return np.array([[0.5, 0.5], [0.5, 0.5]])

        with pytest.raises(ValidationError):
            tomo.readout_correct(np.array([0.6, 0.4]), Degenerate())


class TestStateTomo:
    def test_ground_state_exact(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rec = tomo.state_tomo(tomo.tomography_data(rho))
        assert np.max(np.abs(rec - rho)) < 1e-10

    def test_round_trip_two_qubit(self):
        worst = 0.0
        for _ in range(25):
            rho = rand_state(4)
            rec = tomo.state_tomo(tomo.tomography_data(rho))
            worst = max(worst, tomo.hs_distance(rho, rec))
        assert worst < 1e-8

    def test_correction_matches_exact_inversion(self):
        for _ in range(10):
            rho = rand_state(4)
            plain = tomo.state_tomo(tomo.tomography_data(rho))
            via_ro = tomo.state_tomo(
                tomo.tomography_data(rho, readout=TABLE_RO), readout=TABLE_RO
            )
            assert tomo.hs_distance(plain, via_ro) < 1e-10

    def test_missing_setting_rejected(self):
        data = tomo.tomography_data(rand_state(2))
        del data[("Rx90",)]
        with pytest.raises(ValidationError):
            tomo.state_tomo(data)

    def test_counts_accepted(self):
        rho = rand_state(2)
        data = tomo.tomography_data(rho, shots=200000, seed=9)
        rec = tomo.state_tomo(data)
        assert tomo.hs_distance(rho, rec) < 0.02

    def test_output_physical(self):
        # heavy shot noise still yields a unit-trace PSD matrix
        data = tomo.tomography_data(rand_state(4), shots=50, seed=1)
        rec = tomo.state_tomo(data)
        vals = np.linalg.eigvalsh(rec)
        assert vals.min() >= -1e-12
        assert np.trace(rec).real == pytest.approx(1.0, abs=1e-12)

    def test_bell_pauli_bars(self):
        rec = tomo.state_tomo(tomo.tomography_data(BELL))
        ex = tomo.pauli_expectations(rec)
        assert ex["XX"] > 0.99
        assert ex["YY"] > 0.99
        assert ex["ZZ"] < -0.99
        assert abs(ex["XY"]) < 1e-8

    def test_shot_noise_scaling(self):
        errs = []
        for shots in (10**3, 10**4, 10**5):
            tot = 0.0
            for rep in range(20):
                rho = rand_state(2, np.random.default_rng(40 + rep))
                rec = tomo.state_tomo(
                    tomo.tomography_data(rho, shots=shots, seed=100 + rep)
                )
                et = tomo.pauli_expectations(rho)
                er = tomo.pauli_expectations(rec)
                tot += np.mean([abs(et[k] - er[k]) for k in ("X", "Y", "Z")])
            errs.append(tot / 20)
        for hi, lo in zip(errs, errs[1:]):
            assert np.sqrt(10) / 2 < hi / lo < np.sqrt(10) * 2


class TestDesignCaches:
    @pytest.mark.parametrize("n", [1, 2])
    def test_cached_designs_equal_fresh_builds(self, n):
        # the per-call constructions the caches replace, rebuilt here
        dim = 2**n
        rows = []
        for setting in tomo.all_settings(n):
            u = np.array([[1.0]], dtype=complex)
            for name in setting:
                u = np.kron(u, tomo.TOMO_GATES[name])
            assert np.array_equal(tomo._setting_unitary(setting), u)
            for b in range(dim):
                proj = np.zeros((dim, dim), dtype=complex)
                proj[b, b] = 1.0
                rows.append((u.conj().T @ proj @ u).conj().reshape(-1))
        assert np.array_equal(tomo._effect_rows(n), np.array(rows))
        basis = list(tomo.pauli_basis(n).values())
        for a, pa in enumerate(basis):
            for b, pb in enumerate(basis):
                assert np.array_equal(tomo._chi_blocks(n)[a, b], np.kron(pa, pb.conj()).reshape(-1))

    def test_cached_arrays_are_read_only(self):
        cached = (tomo._setting_unitary(("I", "Rx90")), tomo._effect_rows(1), tomo._chi_blocks(1))
        for arr in cached:
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestProcessTomo:
    def test_identity_process(self):
        ins = tomo.prep_states(1)
        chi = tomo.process_from_states(ins, ins)
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.max(np.abs(chi - want)) < 1e-10

    def test_pauli_x_process(self):
        ins = tomo.prep_states(1)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        outs = {k: x @ v @ x for k, v in ins.items()}
        chi = tomo.process_from_states(ins, outs)
        assert chi[1, 1].real == pytest.approx(1.0, abs=1e-10)
        assert abs(np.trace(chi) - 1.0) < 1e-10

    def test_depolarizing_process(self):
        ins = tomo.prep_states(1)
        outs = {k: np.eye(2, dtype=complex) / 2 for k in ins}
        chi = tomo.process_from_states(ins, outs)
        assert np.allclose(np.diag(chi).real, 0.25, atol=1e-10)

    def test_rank_deficient_inputs_rejected(self):
        g = np.diag([1.0, 0.0]).astype(complex)
        same = {k: g for k in tomo.prep_states(1)}
        with pytest.raises(ValidationError):
            tomo.process_from_states(same, same)

    def test_two_qubit_swap_round_trip(self):
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        ins = tomo.prep_states(2)
        outs = {k: swap @ v @ swap.conj().T for k, v in ins.items()}
        chi = tomo.process_from_states(ins, outs)
        assert tomo.fidelity(chi, tomo.chi_ideal(swap)) == pytest.approx(1.0, abs=1e-9)

    def test_chi_ideal_unit_trace(self):
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        assert np.trace(tomo.chi_ideal(swap)).real == pytest.approx(1.0)

    def test_orthogonal_unitaries(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        f = tomo.fidelity(tomo.chi_ideal(np.eye(2)), tomo.chi_ideal(x))
        assert f == pytest.approx(0.0, abs=1e-12)


class TestMetrics:
    def test_bell_self_comparison(self):
        assert tomo.fidelity(BELL, BELL) == pytest.approx(1.0, abs=1e-12)
        assert tomo.concurrence(BELL) == pytest.approx(1.0, abs=1e-9)
        assert tomo.hs_distance(BELL, BELL) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_symmetric(self):
        for _ in range(5):
            a, b = rand_state(4), rand_state(4)
            assert tomo.fidelity(a, b) == pytest.approx(tomo.fidelity(b, a), abs=1e-12)

    def test_product_state_concurrence_zero(self):
        gg = np.zeros((4, 4), dtype=complex)
        gg[0, 0] = 1.0
        assert tomo.concurrence(gg) == 0.0

    def test_werner_closed_form(self):
        p = 0.8
        werner = p * BELL + (1 - p) * np.eye(4) / 4
        assert abs(tomo.concurrence(werner) - 0.7) < 1e-10

    def test_concurrence_range(self):
        for _ in range(20):
            c = tomo.concurrence(rand_state(4))
            assert 0.0 <= c <= 1.0

    def test_concurrence_needs_two_qubits(self):
        with pytest.raises(ValidationError):
            tomo.concurrence(rand_state(2))

    def test_hs_distance_formula(self):
        a, b = rand_state(4), rand_state(4)
        want = np.sqrt(np.trace((a - b) @ (a - b)).real)
        assert tomo.hs_distance(a, b) == pytest.approx(want, abs=1e-12)


class TestProjection:
    def test_idempotent(self):
        m = rand_state(4) - 0.1 * np.eye(4)
        once = tomo.project_psd(m)
        twice = tomo.project_psd(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_leaves_physical_states_alone(self):
        rho = rand_state(4)
        assert np.max(np.abs(tomo.project_psd(rho) - rho)) < 1e-12
