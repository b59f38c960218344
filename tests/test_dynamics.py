import numpy as np
import pytest

from sawlink.dynamics import (
    LindbladModel,
    NoiseSpec,
    Trajectory,
    dephasing_rate,
    evolve,
    realization_phases,
)
from sawlink.errors import ValidationError
from sawlink.qcore import (
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    HilbertSpace,
    Operator,
    QuantumState,
    embed,
    embed_product,
)

QUBIT = HilbertSpace([2], ["q"])
EXCITED = QuantumState.basis_state(QUBIT, [1])


def test_free_evolution_is_identity():
    model = LindbladModel(QUBIT)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    traj = evolve(model, QuantumState(QUBIT, rho0), np.linspace(0, 50, 11))
    for s in traj.states:
        assert np.allclose(s.rho, rho0, atol=1e-8)


def test_constant_decay_matches_exponential():
    kappa = 0.02  # 1/ns
    model = LindbladModel(
        QUBIT, collapse_ops=[(np.sqrt(kappa), Operator(QUBIT, SIGMA_MINUS))]
    )
    grid = np.linspace(0, 200, 41)
    traj = evolve(model, EXCITED, grid, observables={"pe": Operator(QUBIT, NUMBER)})
    assert np.allclose(traj.observables["pe"], np.exp(-kappa * grid), atol=1e-7)


def test_resonant_vacuum_rabi_oracle():
    g = 2 * np.pi * 0.005  # rad/ns
    space = HilbertSpace([2, 2], ["q", "m"])
    h = Operator(
        space,
        embed_product({"q": SIGMA_PLUS, "m": SIGMA_MINUS}, space).matrix
        + embed_product({"q": SIGMA_MINUS, "m": SIGMA_PLUS}, space).matrix,
    )
    model = LindbladModel(space, hamiltonian=[(g, h)])
    t_half = (np.pi / 2) / g
    grid = np.linspace(0, t_half, 25)
    traj = evolve(
        model,
        QuantumState.basis_state(space, [1, 0]),
        grid,
        observables={"pe": embed(NUMBER, "q", space)},
    )
    assert np.allclose(traj.observables["pe"], np.cos(g * grid) ** 2, atol=1e-6)
    assert traj.observables["pe"][-1] < 1e-6


def test_trace_and_hermiticity_along_trajectory():
    kappa = 0.05
    model = LindbladModel(
        QUBIT,
        hamiltonian=[(0.3, Operator(QUBIT, SIGMA_PLUS + SIGMA_MINUS))],
        collapse_ops=[(np.sqrt(kappa), Operator(QUBIT, SIGMA_MINUS))],
    )
    traj = evolve(model, EXCITED, np.linspace(0, 100, 51))
    for s in traj.states:
        assert abs(np.trace(s.rho) - 1.0) < 1e-8
        assert np.max(np.abs(s.rho - s.rho.conj().T)) < 1e-12


def test_time_dependent_amplitude():
    # kappa(t) ramps linearly; P_e = exp(-integral kappa)
    rate = 0.001  # 1/ns^2
    model = LindbladModel(
        QUBIT,
        collapse_ops=[(lambda t: np.sqrt(rate * t), Operator(QUBIT, SIGMA_MINUS))],
    )
    grid = np.linspace(0, 60, 13)
    traj = evolve(model, EXCITED, grid, observables={"pe": Operator(QUBIT, NUMBER)})
    assert np.allclose(traj.observables["pe"], np.exp(-0.5 * rate * grid**2), atol=1e-7)


def test_capped_space_matches_full_tensor_space():
    # One excitation shared between a qubit and 3 detuned modes: the
    # interaction conserves excitation number, so the cap-1 space must
    # reproduce the full tensor-product evolution.
    g = 2 * np.pi * 0.0026
    detunings = [-0.01, 0.0, 0.01]  # rad/ns
    labels = ["q", "m0", "m1", "m2"]

    def build(space):
        ham = []
        for j, d in enumerate(detunings):
            ham.append((d, embed(NUMBER, f"m{j}", space)))
            swap = Operator(
                space,
                embed_product({"q": SIGMA_PLUS, f"m{j}": SIGMA_MINUS}, space).matrix
                + embed_product({"q": SIGMA_MINUS, f"m{j}": SIGMA_PLUS}, space).matrix,
            )
            ham.append((g, swap))
        collapse = [(np.sqrt(1 / 21700.0), embed(SIGMA_MINUS, "q", space))]
        return LindbladModel(space, ham, collapse)

    grid = np.linspace(0, 400, 81)
    full = HilbertSpace([2, 2, 2, 2], labels)
    capped = HilbertSpace([2, 2, 2, 2], labels, excitation_cap=1)
    obs_full = {"pe": embed(NUMBER, "q", full)}
    obs_capped = {"pe": embed(NUMBER, "q", capped)}
    traj_full = evolve(
        build(full),
        QuantumState.basis_state(full, [1, 0, 0, 0]),
        grid,
        tol=1e-10,
        observables=obs_full,
    )
    traj_capped = evolve(
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
        Trajectory(np.array([0.0, 1.0, 1.0]), (EXCITED, EXCITED, EXCITED))
