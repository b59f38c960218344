import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawlink.dynamics import (
    POSITIVITY_CLIP,
    NoiseSpec,
    Trajectory,
    _check_and_repair,
    dephasing_rate,
    evolve_generator,
    realization_phases,
)
from sawlink.errors import DiagnosticsError, ValidationError
from sawlink.qcore import (
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    Generator,
    HilbertSpace,
    Operator,
    QuantumState,
    commutator_superop,
    dissipator,
    embed,
    embed_product,
)

QUBIT = HilbertSpace([2], ["q"])
EXCITED = QuantumState.basis_state(QUBIT, [1])


def test_free_evolution_is_identity():
    free = Generator(QUBIT, [], [])
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    traj = evolve_generator(free, QuantumState(QUBIT, rho0), np.linspace(0, 50, 11))
    for s in traj.states:
        assert np.allclose(s.rho, rho0, atol=1e-8)


def test_constant_decay_matches_exponential():
    kappa = 0.02  # 1/ns
    decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], [kappa])
    grid = np.linspace(0, 200, 41)
    traj = evolve_generator(
        decay, EXCITED, grid, observables={"pe": Operator(QUBIT, NUMBER)}
    )
    assert np.allclose(traj.observables["pe"], np.exp(-kappa * grid), atol=1e-7)


def test_resonant_vacuum_rabi_oracle():
    g = 2 * np.pi * 0.005  # rad/ns
    space = HilbertSpace([2, 2], ["q", "m"])
    h = Operator(
        space,
        embed_product({"q": SIGMA_PLUS, "m": SIGMA_MINUS}, space).matrix
        + embed_product({"q": SIGMA_MINUS, "m": SIGMA_PLUS}, space).matrix,
    )
    rabi = Generator(space, [commutator_superop(h)], [g])
    t_half = (np.pi / 2) / g
    grid = np.linspace(0, t_half, 25)
    traj = evolve_generator(
        rabi,
        QuantumState.basis_state(space, [1, 0]),
        grid,
        observables={"pe": embed(NUMBER, "q", space)},
    )
    assert np.allclose(traj.observables["pe"], np.cos(g * grid) ** 2, atol=1e-6)
    assert traj.observables["pe"][-1] < 1e-6


def test_trace_and_hermiticity_along_trajectory():
    kappa = 0.05
    driven = Generator(
        QUBIT, [commutator_superop(SIGMA_PLUS + SIGMA_MINUS), dissipator(SIGMA_MINUS)], [0.3, kappa]
    )
    traj = evolve_generator(driven, EXCITED, np.linspace(0, 100, 51))
    for s in traj.states:
        assert abs(np.trace(s.rho) - 1.0) < 1e-8
        assert np.max(np.abs(s.rho - s.rho.conj().T)) < 1e-12


def test_time_dependent_amplitude():
    # kappa(t) ramps linearly; P_e = exp(-integral kappa)
    rate = 0.001  # 1/ns^2
    ramp = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([rate * t]))
    grid = np.linspace(0, 60, 13)
    traj = evolve_generator(
        ramp, EXCITED, grid, observables={"pe": Operator(QUBIT, NUMBER)}
    )
    assert np.allclose(traj.observables["pe"], np.exp(-0.5 * rate * grid**2), atol=1e-7)


def test_capped_space_matches_full_tensor_space():
    # One excitation shared between a qubit and 3 detuned modes: the
    # interaction conserves excitation number, so the cap-1 space must
    # reproduce the full tensor-product evolution.
    g = 2 * np.pi * 0.0026
    detunings = [-0.01, 0.0, 0.01]  # rad/ns
    labels = ["q", "m0", "m1", "m2"]

    def build(space):
        blocks, coeffs = [], []
        for j, d in enumerate(detunings):
            swap = (
                embed_product({"q": SIGMA_PLUS, f"m{j}": SIGMA_MINUS}, space).matrix
                + embed_product({"q": SIGMA_MINUS, f"m{j}": SIGMA_PLUS}, space).matrix
            )
            blocks += [commutator_superop(embed(NUMBER, f"m{j}", space)), commutator_superop(swap)]
            coeffs += [d, g]
        blocks.append(dissipator(embed(SIGMA_MINUS, "q", space)))
        coeffs.append(1 / 21700.0)
        return Generator(space, blocks, coeffs)

    grid = np.linspace(0, 400, 81)
    full = HilbertSpace([2, 2, 2, 2], labels)
    capped = HilbertSpace([2, 2, 2, 2], labels, excitation_cap=1)
    obs_full = {"pe": embed(NUMBER, "q", full)}
    obs_capped = {"pe": embed(NUMBER, "q", capped)}
    traj_full = evolve_generator(
        build(full),
        QuantumState.basis_state(full, [1, 0, 0, 0]),
        grid,
        tol=1e-10,
        observables=obs_full,
    )
    traj_capped = evolve_generator(
        build(capped),
        QuantumState.basis_state(capped, [1, 0, 0, 0]),
        grid,
        tol=1e-10,
        observables=obs_capped,
    )
    assert np.allclose(
        traj_full.observables["pe"], traj_capped.observables["pe"], atol=1e-8
    )


class TestDephasingRate:
    def test_lifetime_limited_coherence_gives_zero(self):
        assert dephasing_rate(2 * 21.7, 21.7) == pytest.approx(0.0, abs=1e-15)

    def test_first_qubit_value(self):
        assert dephasing_rate(2.10, 21.7) == pytest.approx(0.45315, abs=5e-5)

    def test_second_qubit_value(self):
        assert dephasing_rate(0.60, 26.1) == pytest.approx(1.64751, abs=5e-5)

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValidationError):
            dephasing_rate(60.0, 26.1)


class TestNoise:
    def test_sigma_from_transit_calibration(self):
        tau_us, t2r = 0.508, 2.1
        sigma = np.sqrt(2 * tau_us / t2r)
        assert sigma == pytest.approx(0.6956, abs=5e-4)

    def test_phase_draws_match_gaussian_characteristic_function(self):
        noise = NoiseSpec(sigma_phi=0.6956, n_realizations=1024, master_seed=42)
        phases = realization_phases(noise)
        assert np.mean(np.cos(phases)) == pytest.approx(
            np.exp(-0.6956**2 / 2), abs=0.02
        )

    def test_phases_bit_reproducible(self):
        noise = NoiseSpec(sigma_phi=0.5, n_realizations=64, master_seed=7)
        assert np.array_equal(realization_phases(noise), realization_phases(noise))

    def test_distinct_seeds_give_distinct_streams(self):
        a = realization_phases(NoiseSpec(0.5, 32, master_seed=1))
        b = realization_phases(NoiseSpec(0.5, 32, master_seed=2))
        assert not np.array_equal(a, b)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(sigma_phi=-0.1)
        with pytest.raises(ValidationError):
            NoiseSpec(sigma_phi=0.1, n_realizations=0)


def test_trajectory_requires_monotonic_times():
    with pytest.raises(ValidationError):
        Trajectory(QUBIT, np.array([0.0, 1.0, 1.0]), np.stack([EXCITED.rho] * 3))


# ---- stacked initial states and the stacked repair pass ------------------------

PAIR = HilbertSpace([2, 2], ["a", "b"])


def random_states(rng, k, dim, rank=None):
    """k random density matrices of the given rank (full rank by default)."""
    a = rng.normal(size=(k, dim, rank or dim)) + 1j * rng.normal(size=(k, dim, rank or dim))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


def pair_generator(rng, time_dependent):
    """Decay and dephasing of both qubits plus a random Hermitian drive."""
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    blocks = [commutator_superop(0.02 * (h + h.conj().T))]
    for lbl in ("a", "b"):
        blocks += [dissipator(embed(SIGMA_MINUS, lbl, PAIR)), dissipator(embed(NUMBER, lbl, PAIR))]
    rates = np.concatenate([[1.0], rng.uniform(0.0, 0.05, size=4)])
    if not time_dependent:
        return Generator(PAIR, blocks, rates)
    omega = rng.uniform(0.05, 0.3)
    return Generator(PAIR, blocks, lambda t: rates * (1.0 + np.sin(omega * t)))


class TestStackedEvolution:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(1, 16),
        time_dependent=st.booleans(),
        n_breaks=st.integers(0, 2),
        on_grid=st.booleans(),
    )
    def test_columns_match_single_state_solves(self, seed, k, time_dependent, n_breaks, on_grid):
        rng = np.random.default_rng(seed)
        tol = 1e-8
        generator = pair_generator(rng, time_dependent)
        grid = np.sort(rng.uniform(0.0, 60.0, size=6))
        grid[0] = 0.0
        breaks = grid[1 : 1 + n_breaks] if on_grid else rng.uniform(0.0, 60.0, size=n_breaks)
        preps = [QuantumState(PAIR, r) for r in random_states(rng, k, 4)]
        number = {"n_a": embed(NUMBER, "a", PAIR)}
        stacked = evolve_generator(generator, preps, grid, tol, number, breaks)
        assert len(stacked) == k
        for prep, traj in zip(preps, stacked):
            alone = evolve_generator(generator, prep, grid, tol, number, breaks)
            assert np.array_equal(traj.times, alone.times)
            assert np.max(np.abs(traj.rhos - alone.rhos)) <= 10 * tol
            assert np.max(np.abs(traj.observables["n_a"] - alone.observables["n_a"])) <= 10 * tol

    def test_single_state_gives_one_trajectory(self):
        grid = np.linspace(0, 10, 3)
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], [0.1])
        traj = evolve_generator(decay, EXCITED, grid)
        assert isinstance(traj, Trajectory)
        (listed,) = evolve_generator(decay, [EXCITED], grid)
        assert np.array_equal(listed.rhos, traj.rhos)
        assert traj.final_state().space == QUBIT
        assert len(traj.states) == 3

    def test_initial_state_on_another_space_rejected(self):
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], [0.1])
        with pytest.raises(ValidationError):
            evolve_generator(decay, [EXCITED, QuantumState.basis_state(PAIR, [1, 0])],
                             np.linspace(0, 1, 2))


def repair_one(rho, tol, t):
    """The per-state repair rule, one state at a time: the reference the
    stacked pass must reproduce."""
    tr = np.trace(rho)
    if abs(tr - 1.0) > 100 * tol:
        raise DiagnosticsError(f"trace drift {abs(tr - 1.0):.2e} at t = {t:.6g} ns")
    herm_err = np.max(np.abs(rho - rho.conj().T))
    if herm_err > 10 * tol:
        raise DiagnosticsError(f"Hermiticity violation {herm_err:.2e} at t = {t:.6g} ns")
    rho = 0.5 * (rho + rho.conj().T)
    evals, evecs = np.linalg.eigh(rho)
    if evals[0] < -POSITIVITY_CLIP:
        raise DiagnosticsError(f"negative eigenvalue {evals[0]:.2e} at t = {t:.6g} ns")
    if evals[0] < 0.0:
        evals = np.clip(evals, 0.0, None)
        rho = (evecs * evals) @ evecs.conj().T
    return rho / np.trace(rho).real


def repair_loop(stack, tol, times):
    out = np.empty_like(stack)
    for i, t in enumerate(times):
        for j in range(stack.shape[1]):
            out[i, j] = repair_one(stack[i, j], tol, t)
    return out


def shift_weight(rho, amount=1e-6):
    """Move eigenvalue weight from the smallest to the largest eigenvector:
    the trace and Hermiticity hold and the lowest eigenvalue drops."""
    vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))[1]
    lo, hi = vecs[:, :1], vecs[:, -1:]
    return rho + amount * (hi @ hi.conj().T - lo @ lo.conj().T)


def noisy_stack(rng, n, k, dim, tol):
    """Low-rank states with integration-sized noise: many have eigenvalues
    just below zero, so the clip branch runs next to untouched states."""
    stack = random_states(rng, n * k, dim, rank=2).reshape(n, k, dim, dim)
    noise = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    return stack + 0.1 * tol * noise


class TestStackedRepair:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 200), k=st.integers(1, 5))
    def test_matches_per_state_rule(self, seed, n, k):
        rng = np.random.default_rng(seed)
        tol = 1e-8
        stack = noisy_stack(rng, n, k, 4, tol)
        times = np.arange(n, dtype=float)
        want = repair_loop(stack, tol, times)
        got = stack.copy()
        _check_and_repair(got, tol, times)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_clip_branch_is_taken(self):
        rng = np.random.default_rng(4)
        stack = noisy_stack(rng, 50, 2, 4, 1e-8)
        sym = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
        low = np.linalg.eigvalsh(sym)[..., 0]
        assert 0 < np.sum(low < 0) < low.size

    @pytest.mark.parametrize("fault", ["trace", "hermiticity", "eigenvalue"])
    def test_each_error_at_the_first_offending_time(self, fault):
        messages = {"trace": "trace drift", "hermiticity": "Hermiticity violation",
                    "eigenvalue": "negative eigenvalue"}
        rng = np.random.default_rng(11)
        tol = 1e-8
        n, k, dim = 12, 3, 4
        stack = noisy_stack(rng, n, k, dim, tol)
        times = np.linspace(0.0, 55.0, n)
        faults = {
            "trace": lambda r: r * (1 + 300 * tol),
            "hermiticity": lambda r: r + 50j * tol * (np.eye(dim, k=1) + np.eye(dim, k=-1)),
            "eigenvalue": shift_weight,
        }
        stack[7, 2] = faults[fault](stack[7, 2])
        stack[5, 1] = faults[fault](stack[5, 1])
        # a different fault later on must not be the one reported
        stack[9, 0] = faults["trace" if fault != "trace" else "eigenvalue"](stack[9, 0])
        with pytest.raises(DiagnosticsError) as want:
            repair_loop(stack, tol, times)
        with pytest.raises(DiagnosticsError) as got:
            _check_and_repair(stack.copy(), tol, times)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(messages[fault])
        assert str(got.value).endswith(f"at t = {times[5]:.6g} ns")
