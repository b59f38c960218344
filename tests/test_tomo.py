"""Tomography forward/inverse consistency and metric definitions."""

from functools import reduce
from itertools import product

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


class TestTomographyData:
    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_setting_row_is_diagonal(self, n):
        # all_settings puts the all-identity setting first
        rho = rand_state(2**n)
        data = tomo.tomography_data(rho, perfect(n))
        assert np.allclose(data[0], np.diag(rho).real, atol=1e-14)

    def test_excited_state_reports_fidelity(self):
        ro = tomo.ReadoutModel(((0.969, 0.933),))
        data = tomo.tomography_data(np.diag([0.0, 1.0]).astype(complex), ro)
        assert data[0, 1] == pytest.approx(0.933, abs=1e-12)

    def test_probabilities_normalized(self):
        for _ in range(10):
            data = tomo.tomography_data(rand_state(4), TABLE_RO)
            assert np.allclose(data.sum(axis=1), 1.0, atol=1e-12)

    # every entry point that reads the qubit count off a dimension
    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("entry", [
        tomo.tomography_data, tomo.chi_ideal, tomo.pauli_expectations,
        lambda m: tomo.process_from_states(np.broadcast_to(m, (len(m) ** 2, *m.shape))),
    ], ids=["tomography_data", "chi_ideal", "pauli_expectations", "process_from_states"])
    def test_unsupported_size_rejected(self, entry, dim):
        with pytest.raises(ValidationError, match="one or two qubits"):
            entry(np.eye(dim) / dim)

    def test_readout_size_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="size mismatch"):
            tomo.tomography_data(rand_state(2), TABLE_RO)


class TestReadoutCorrect:
    def test_perfect_is_identity(self):
        p = np.array([0.4, 0.1, 0.3, 0.2])
        out = tomo.readout_correct(p, perfect(2))
        assert np.allclose(out, p, atol=1e-14)

    def test_round_trip(self):
        for _ in range(10):
            rho = rand_state(4)
            exact = tomo.tomography_data(rho)
            corrected = tomo.readout_correct(tomo.tomography_data(rho, TABLE_RO), TABLE_RO)
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
        assert data.shape == (3, 2)
        with pytest.raises(ValidationError):
            tomo.state_tomo(data[[0, 2]])  # no Rx90 row

    @pytest.mark.parametrize("shape", [(3, 4), (9, 2), (6,), (27, 8)])
    def test_mismatched_shape_rejected(self, shape):
        with pytest.raises(ValidationError, match="is not"):
            tomo.state_tomo(np.full(shape, 0.5))

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_row_rejected(self, n):
        data = tomo.tomography_data(rand_state(2**n))
        data[1] = 0.0
        with pytest.raises(ValidationError, match="empty"):
            tomo.state_tomo(data)

    def test_counts_accepted(self):
        # counts are normalized per setting: scaled probabilities invert alike
        rho = rand_state(2)
        rec = tomo.state_tomo(200000 * tomo.tomography_data(rho))
        assert tomo.hs_distance(rho, rec) < 0.02

    def test_output_physical(self):
        # probabilities perturbed as by a few dozen shots still yield a
        # unit-trace PSD matrix
        rng = np.random.default_rng(1)
        data = tomo.tomography_data(rand_state(4))
        rec = tomo.state_tomo(np.clip(data + rng.normal(0.0, 0.1, data.shape), 0.0, None))
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


class TestDesignCaches:
    @pytest.mark.parametrize("n", [1, 2])
    def test_cached_designs_equal_fresh_builds(self, n):
        # the explicit constructions the caches replace, rebuilt here: the
        # measurement matrix holds conj(U^+ |b><b| U) per setting U and outcome b
        dim = 2**n
        rows = []
        for setting in tomo.all_settings(n):
            u = np.array([[1.0]], dtype=complex)
            for name in setting:
                u = np.kron(u, tomo.TOMO_GATES[name])
            for b in range(dim):
                proj = np.zeros((dim, dim), dtype=complex)
                proj[b, b] = 1.0
                rows.append((u.conj().T @ proj @ u).conj().reshape(-1))
        assert np.array_equal(tomo._measurement_matrix(n), np.array(rows))
        # the n-qubit products as explicit nested Kronecker products, and
        # the prep inverse as a fresh inverse of the flattened preparations
        paulis, kets = dict(tomo.PAULIS_1Q), [tomo.PREP_KETS[p] for p in tomo.PREP_ORDER]
        if n == 2:
            paulis = {a + b: np.kron(pa, pb) for a, pa in paulis.items() for b, pb in paulis.items()}
            kets = [np.kron(ka, kb) for ka in kets for kb in kets]
        basis = tomo.pauli_basis(n)
        assert list(basis) == list(paulis)
        assert all(np.array_equal(basis[lbl], paulis[lbl]) for lbl in paulis)
        preps = tomo.prep_states(n)
        assert np.array_equal(preps, np.array([np.outer(k, k.conj()) for k in kets]))
        assert np.array_equal(tomo._prep_inverse(n), np.linalg.inv(preps.reshape(dim**2, -1).T))
        basis = list(basis.values())
        for a, pa in enumerate(basis):
            for b, pb in enumerate(basis):
                assert np.array_equal(tomo._chi_blocks(n)[a, b], np.kron(pa, pb.conj()).reshape(-1))

    def test_cached_arrays_are_read_only(self):
        cached = (tomo._measurement_matrix(1), tomo._measurement_matrix(2), tomo._chi_blocks(1),
                  tomo._prep_inverse(1), tomo._prep_inverse(2))
        for arr in cached:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_pauli_basis_built_once_and_read_only(self, n):
        # one mapping per qubit count, equal to the Kronecker-fold definition;
        # neither it nor its arrays take writes, and the one-qubit operators
        # it is folded from stay the writable arrays they were
        basis = tomo.pauli_basis(n)
        assert tomo.pauli_basis(n) is basis
        for lbl in product("IXYZ", repeat=n):
            op = basis["".join(lbl)]
            assert np.array_equal(op, reduce(np.kron, [tomo.PAULIS_1Q[c] for c in lbl]))
            with pytest.raises(ValueError):
                op[0, 0] = 0.0
        with pytest.raises(TypeError):
            basis["I" * n] = np.eye(2**n)
        assert all(p.flags.writeable for p in tomo.PAULIS_1Q.values())


class TestStacks:
    # a (5, d, d) stack goes through each stage in one call; the per-item
    # calls are the reference
    @staticmethod
    def stack():
        return np.array([rand_state(4) for _ in range(5)])

    @pytest.mark.parametrize("readout", [None, TABLE_RO], ids=["exact", "table"])
    def test_tomography_data_stack_equals_singles(self, readout):
        rhos = self.stack()
        data = tomo.tomography_data(rhos, readout)
        assert data.shape == (5, 9, 4)
        assert np.array_equal(data, np.array([tomo.tomography_data(r, readout) for r in rhos]))

    def test_readout_correct_stack_equals_rows(self):
        data = tomo.tomography_data(self.stack(), TABLE_RO)
        rows = [[tomo.readout_correct(row, TABLE_RO) for row in table] for table in data]
        assert np.max(np.abs(tomo.readout_correct(data, TABLE_RO) - np.array(rows))) <= 1e-15

    @pytest.mark.parametrize("readout", [None, TABLE_RO], ids=["exact", "table"])
    def test_state_tomo_stack_equals_tables(self, readout):
        data = tomo.tomography_data(self.stack(), readout)
        stacked = tomo.state_tomo(data, readout)
        assert stacked.shape == (5, 4, 4)
        singles = np.array([tomo.state_tomo(table, readout) for table in data])
        assert np.max(np.abs(stacked - singles)) < 1e-14

    def test_project_psd_stack_equals_singles(self):
        mats = self.stack() - 0.1 * np.eye(4)
        singles = np.array([tomo.project_psd(m, 1.0) for m in mats])
        assert np.array_equal(tomo.project_psd(mats, 1.0), singles)


class TestProcessTomo:
    @pytest.mark.parametrize("n", [1, 2])
    def test_preps_span_operator_space(self, n):
        # what lets process_from_states invert the preparations it does not take
        flat = tomo.prep_states(n).reshape(4**n, -1)
        assert np.linalg.matrix_rank(flat, tol=1e-10) == 4**n

    def test_identity_process(self):
        chi = tomo.process_from_states(tomo.prep_states(1))
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.max(np.abs(chi - want)) < 1e-10

    def test_pauli_x_process(self):
        ins = tomo.prep_states(1)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        chi = tomo.process_from_states(x @ ins @ x)
        assert chi[1, 1].real == pytest.approx(1.0, abs=1e-10)
        assert abs(np.trace(chi) - 1.0) < 1e-10

    def test_depolarizing_process(self):
        ins = tomo.prep_states(1)
        outs = np.broadcast_to(np.eye(2, dtype=complex) / 2, ins.shape)
        chi = tomo.process_from_states(outs)
        assert np.allclose(np.diag(chi).real, 0.25, atol=1e-10)

    @pytest.mark.parametrize("case", ["fewer_outputs", "output_dim", "three_level"])
    def test_mismatched_shapes_rejected(self, case):
        outs, match = {"fewer_outputs": (tomo.prep_states(1)[:3], "one per prep_states"),
                       "output_dim": (tomo.prep_states(2)[:4], "one per prep_states"),
                       "three_level": (np.zeros((9, 3, 3)), "one or two qubits")}[case]
        with pytest.raises(ValidationError, match=match):
            tomo.process_from_states(outs)

    def test_two_qubit_swap_round_trip(self):
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        ins = tomo.prep_states(2)
        chi = tomo.process_from_states(swap @ ins @ swap.conj().T)
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
        once = tomo.project_psd(m, 1.0)
        twice = tomo.project_psd(once, 1.0)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_leaves_physical_states_alone(self):
        rho = rand_state(4)
        assert np.max(np.abs(tomo.project_psd(rho, 1.0) - rho)) < 1e-12
