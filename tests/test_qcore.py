import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlink.dynamics import (
    Generator,
    commutator_superop,
    cross_dissipator,
    dissipator,
)
from sawlink.errors import ValidationError
from sawlink.qcore import (
    EIG_ATOL,
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    HilbertSpace,
    QuantumState,
    check_states,
    clip_negative,
    embed,
    hermiticity_error,
    partial_trace,
)

from hermitian_oracle import hermitian_basis
from rhs_oracle import matrix_at


def lowering(dim: int) -> np.ndarray:
    """Bosonic lowering operator truncated to ``dim`` Fock states."""
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestHilbertSpace:
    def test_uncapped_basis_matches_kron_order(self):
        space = HilbertSpace([2, 3], ["q", "m"])
        assert space.dim == 6
        kets = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert [space.basis_index(k) for k in kets] == list(range(6))

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=6))
    def test_basis_index_is_the_product_order(self, dims):
        # oracle: the position of each ket in the full product, in its order
        want = list(itertools.product(*(range(d) for d in dims)))
        space = HilbertSpace(dims, [f"m{j}" for j in range(len(dims))])
        assert space.dim == len(want)
        for occ in want[:: max(1, len(want) // 7)]:
            assert space.basis_index(occ) == want.index(occ)

    def test_occupation_outside_basis_rejected(self):
        space = HilbertSpace([2, 2], ["q", "m"])
        for occ in ((2, 0), (-1, 0), (0,), (0, 0, 0)):
            with pytest.raises(ValidationError):
                space.basis_index(occ)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            HilbertSpace([2, 2], ["q", "q"])

    def test_unknown_label_rejected(self):
        space = HilbertSpace([2, 2], ["a", "b"])
        with pytest.raises(ValidationError):
            space.mode_index("c")


class TestStates:
    def test_trace_validation(self):
        space = HilbertSpace([2], ["q"])
        with pytest.raises(ValidationError):
            QuantumState(space, np.diag([0.7, 0.7]))

    def test_hermiticity_validation(self):
        space = HilbertSpace([2], ["q"])
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            QuantumState(space, bad)

    def test_negative_eigenvalue_rejected(self):
        space = HilbertSpace([2], ["q"])
        with pytest.raises(ValidationError):
            QuantumState(space, np.diag([1.5, -0.5]))

    def test_expect_number(self):
        space = HilbertSpace([2], ["q"])
        excited = QuantumState.basis_state(space, [1])
        assert np.isclose(np.trace(NUMBER @ excited.rho), 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["all_entries", "one_entry"])
    def test_non_finite_state_rejected(self, value, where):
        # a NaN fails every threshold test, so it must be caught by name
        space = HilbertSpace([2], ["q"])
        rho = np.diag([1.0, 0.0]).astype(complex)
        if where == "all_entries":
            rho[:] = value
        else:
            rho[0, 1] = value
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError):
                QuantumState(space, rho)
            with pytest.raises(ValidationError):
                check_states(np.stack([np.diag([1.0, 0.0]), rho]))

    def test_negative_eigenvalue_tolerance(self):
        # the rule is min eigenvalue >= -EIG_ATOL, on either side of the bound
        space = HilbertSpace([2], ["q"])
        QuantumState(space, np.diag([1 + 0.5 * EIG_ATOL, -0.5 * EIG_ATOL]))
        with pytest.raises(ValidationError):
            QuantumState(space, np.diag([1 + 2 * EIG_ATOL, -2 * EIG_ATOL]))

    @pytest.mark.parametrize("fault", ["trace", "hermiticity", "eigenvalue"])
    def test_stack_check_rejects_one_bad_member(self, fault):
        rng = np.random.default_rng(17)
        stack = np.stack([random_density(3, rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        check_states(stack)
        bad = {
            "trace": stack[1, 2] * 1.01,
            "hermiticity": stack[1, 2] + 1e-6 * np.eye(3, k=1),
            "eigenvalue": np.diag([1.2, 0.0, -0.2]),
        }[fault]
        stack[1, 2] = bad
        with pytest.raises(ValidationError):
            check_states(stack)
        with pytest.raises(ValidationError):
            QuantumState(HilbertSpace([3], ["m"]), bad)

    def test_hermiticity_error_is_max_abs_difference(self):
        rng = np.random.default_rng(19)
        stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        want = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        assert np.array_equal(hermiticity_error(stack), want)


class TestClipNegative:
    def test_stack_equals_per_matrix_results(self):
        rng = np.random.default_rng(23)
        stack = np.stack([random_density(4, rng) - 0.1 * np.eye(4) for _ in range(6)])
        stack = stack.reshape(2, 3, 4, 4)
        got = clip_negative(stack)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], clip_negative(stack[idx]))

    def test_positive_stack_unchanged(self):
        rng = np.random.default_rng(29)
        stack = np.stack([random_density(4, rng) for _ in range(5)])
        assert np.max(np.abs(clip_negative(stack) - stack)) < 1e-14

    def test_no_negative_eigenvalue_left(self):
        rng = np.random.default_rng(31)
        stack = np.stack([random_density(4, rng) - 0.2 * np.eye(4) for _ in range(8)])
        assert (np.linalg.eigvalsh(stack)[:, 0] < 0).all()
        assert np.linalg.eigvalsh(clip_negative(stack)).min() >= -1e-15


class TestEmbedding:
    def test_identity_embeds_to_identity(self):
        space = HilbertSpace([2, 2, 3], ["a", "b", "c"])
        op = embed(np.eye(2), "b", space)
        assert np.allclose(op, np.eye(space.dim))

    def test_embed_matches_kron_uncapped(self):
        space = HilbertSpace([2, 3], ["q", "m"])
        a = lowering(3)
        got = embed(a, "m", space)
        assert np.allclose(got, np.kron(np.eye(2), a))
        got_q = embed(SIGMA_MINUS, "q", space)
        assert np.allclose(got_q, np.kron(SIGMA_MINUS, np.eye(3)))

    def test_embed_product_transfers_excitation(self):
        # sigma+ on q times sigma- on m moves one excitation from m to q
        space = HilbertSpace([2, 2], ["q", "m"])
        op = embed(SIGMA_PLUS, "q", space) @ embed(SIGMA_MINUS, "m", space)
        expected = np.zeros((4, 4))
        expected[space.basis_index((1, 0)), space.basis_index((0, 1))] = 1.0
        assert np.array_equal(op, expected)

    def test_embed_composition_within_mode(self):
        space = HilbertSpace([2, 4], ["q", "m"])
        a = lowering(4)
        left = embed(a @ a, "m", space)
        right = embed(a, "m", space) @ embed(a, "m", space)
        assert np.allclose(left, right, atol=1e-12)

    def test_results_are_read_only_arrays(self):
        space = HilbertSpace([2, 3, 2], ["q", "m", "r"])
        for op in (embed(SIGMA_MINUS, "q", space), embed(lowering(3), "m", space),
                   embed(NUMBER, "r", space)):
            assert type(op) is np.ndarray and op.dtype == complex
            assert op.shape == (space.dim, space.dim)
            with pytest.raises(ValueError):
                op[0, 0] = 1.0

    def test_wrong_mode_dim_rejected(self):
        space = HilbertSpace([2, 3], ["q", "m"])
        with pytest.raises(ValidationError):
            embed(np.eye(2), "m", space)


class TestPartialTrace:
    def test_product_state_factors(self):
        space = HilbertSpace([2, 2], ["a", "b"])
        rng = np.random.default_rng(7)
        ra = random_density(2, rng)
        rb = random_density(2, rng)
        joint = np.kron(ra, rb)
        assert np.allclose(partial_trace(space, joint, ["a"]), ra, atol=1e-12)
        assert np.allclose(partial_trace(space, joint, ["b"]), rb, atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        space = HilbertSpace([2, 2], ["a", "b"])
        ket = np.zeros(4, dtype=complex)
        ket[0] = ket[3] = 1 / np.sqrt(2)
        bell = np.outer(ket, ket.conj())
        assert np.allclose(partial_trace(space, bell, ["a"]), np.eye(2) / 2, atol=1e-12)

    def test_keep_order_controls_output_order(self):
        space = HilbertSpace([2, 2], ["a", "b"])
        rng = np.random.default_rng(3)
        ra = random_density(2, rng)
        rb = random_density(2, rng)
        swapped = partial_trace(space, np.kron(ra, rb), ["b", "a"])
        assert np.allclose(swapped, np.kron(rb, ra), atol=1e-12)

    # None leaves three qubits; 3 makes m1 a three-level mode, so the
    # stacked trace also meets unequal mode dims
    @pytest.mark.parametrize("m1_levels", [None, 3])
    def test_stack_matches_single_states(self, m1_levels):
        space = HilbertSpace([2, m1_levels or 2, 2], ["q", "m1", "m2"])
        rng = np.random.default_rng(29)
        stack = np.stack([random_density(space.dim, rng) for _ in range(6)])
        stack = stack.reshape(3, 2, space.dim, space.dim)
        for keep in (["q"], ["m2", "q"], ["q", "m1", "m2"]):
            got = partial_trace(space, stack, keep)
            for idx in np.ndindex(3, 2):
                want = partial_trace(space, stack[idx], keep)
                assert np.allclose(got[idx], want, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        space = HilbertSpace([2, 3], ["a", "b"])
        reduced = partial_trace(space, random_density(6, rng), ["b"])
        assert np.isclose(np.trace(reduced), 1.0, atol=1e-10)


def apply_block(block, rho: np.ndarray) -> np.ndarray:
    """A block's action on rho, the block mapped back to vec(rho) by T^H B T."""
    d = rho.shape[0]
    t = hermitian_basis(d)
    return (t.conj().T @ block.toarray() @ t @ rho.reshape(-1)).reshape(d, d)


class TestSuperOperators:
    def test_commutator_matches_dense_action(self):
        h = 0.3 * SIGMA_Z + 0.1 * SIGMA_MINUS + 0.1 * SIGMA_PLUS
        rng = np.random.default_rng(11)
        rho = random_density(2, rng)
        got = apply_block(commutator_superop(h), rho)
        want = -1j * (h @ rho - rho @ h)
        assert np.allclose(got, want, atol=1e-14)

    def test_dissipator_matches_dense_action(self):
        xm = lowering(3)
        rng = np.random.default_rng(13)
        rho = random_density(3, rng)
        got = apply_block(dissipator(xm), rho)
        want = xm @ rho @ xm.conj().T - 0.5 * (
            xm.conj().T @ xm @ rho + rho @ xm.conj().T @ xm
        )
        assert np.allclose(got, want, atol=1e-14)

    def test_decay_sends_excited_to_ground(self):
        rho_e = np.diag([0.0, 1.0]).astype(complex)
        drho = apply_block(dissipator(SIGMA_MINUS), rho_e)
        assert np.allclose(drho, np.diag([1.0, -1.0]), atol=1e-14)

    def test_dissipator_is_trace_free(self):
        rng = np.random.default_rng(17)
        block = dissipator(lowering(3))
        for _ in range(20):
            rho = random_density(3, rng)
            assert abs(np.trace(apply_block(block, rho))) < 1e-13

    def test_cross_dissipator_completes_collective_decay(self):
        # D[A + B] = D[A] + D[B] + cross(A, B)
        space = HilbertSpace([2, 2], ["a", "b"])
        a = embed(SIGMA_MINUS, "a", space)
        b = embed(SIGMA_MINUS, "b", space)
        lhs = dissipator(a + b).toarray()
        rhs = (
            dissipator(a).toarray()
            + dissipator(b).toarray()
            + cross_dissipator(a, b).toarray()
        )
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_time_dependent_coefficient(self):
        space = HilbertSpace([2], ["q"])
        block = dissipator(SIGMA_MINUS)
        gen = Generator(space, [block], lambda t: np.array([2.0 * t]))
        eye = np.eye(4).reshape(-1)  # four states, flattened as the solver passes them
        assert np.allclose(gen(0.0, eye), 0.0)
        assert np.allclose(gen(1.5, eye).reshape(4, 4), 3.0 * block.toarray())

    def test_constant_generator_is_the_coefficient_sum(self):
        space = HilbertSpace([3], ["m"])
        blocks = [commutator_superop(lowering(3) + lowering(3).T), dissipator(lowering(3))]
        gen = Generator(space, blocks, lambda t: np.array([0.7, 0.2]))
        y = np.random.default_rng(31).normal(size=(9, 2)) + 0j
        want = (0.7 * blocks[0].toarray() + 0.2 * blocks[1].toarray()) @ y
        assert np.allclose(gen(0.0, y.reshape(-1)).reshape(9, 2), want, atol=1e-14)
        assert np.allclose(gen(0.0, y[:, 0]), want[:, 0], atol=1e-14)

    def test_hermiticity_preserved_by_lindblad_generator(self):
        space = HilbertSpace([2], ["q"])
        gen = Generator(
            space,
            [commutator_superop(SIGMA_Z), dissipator(SIGMA_MINUS)],
            lambda t: np.array([1.0, 1.0]),
        )
        # in Hermitian coordinates a map preserves Hermiticity exactly when
        # its matrix is real, so the dtype is what the check below rests on
        assert gen.blocks.terms.dtype == np.float64
        rng = np.random.default_rng(23)
        rho = random_density(2, rng)
        out = apply_block(matrix_at(gen, 0.0), rho)
        assert np.allclose(out, out.conj().T, atol=1e-13)
