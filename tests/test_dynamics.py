import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import sawlink
from sawlink import dynamics, experiments
from sawlink.cascade import doubled_space
from sawlink.device import default_device
from sawlink.dynamics import (
    POSITIVITY_CLIP,
    Generator,
    Trajectory,
    _check_and_repair,
    commutator_superop,
    dissipator,
    evolve_generator,
)
from sawlink.errors import DiagnosticsError, ValidationError
from sawlink.qcore import (
    EIG_ATOL,
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    HilbertSpace,
    QuantumState,
    check_states,
    embed,
    embed_product,
    partial_trace,
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
    for rho in traj.rhos:
        assert np.allclose(rho, rho0, atol=1e-8)


def test_constant_decay_matches_exponential():
    kappa = 0.02  # 1/ns
    decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], [kappa])
    grid = np.linspace(0, 200, 41)
    traj = evolve_generator(
        decay, EXCITED, grid, observables={"pe": NUMBER}
    )
    assert np.max(np.abs(traj.observables["pe"] - np.exp(-kappa * grid))) <= 1e-12


def test_resonant_vacuum_rabi_oracle():
    g = 2 * np.pi * 0.005  # rad/ns
    space = HilbertSpace([2, 2], ["q", "m"])
    h = (embed_product({"q": SIGMA_PLUS, "m": SIGMA_MINUS}, space)
         + embed_product({"q": SIGMA_MINUS, "m": SIGMA_PLUS}, space))
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
    check_states(traj.rhos)
    for rho in traj.rhos:
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_time_dependent_amplitude():
    # kappa(t) ramps linearly; P_e = exp(-integral kappa)
    rate = 0.001  # 1/ns^2
    ramp = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([rate * t]))
    grid = np.linspace(0, 60, 13)
    traj = evolve_generator(
        ramp, EXCITED, grid, observables={"pe": NUMBER}
    )
    assert np.allclose(traj.observables["pe"], np.exp(-0.5 * rate * grid**2), atol=1e-7)


@pytest.mark.parametrize("start", [0.0, 5.0])
@pytest.mark.parametrize("value", ["np.nan", "np.inf"])
def test_non_finite_coefficient_raises_integration_error(value, start):
    # a coefficient non-finite from t = 0 makes RK45's first step NaN, and it
    # then retries forever; the run goes to a child process with a timeout,
    # so a regression fails instead of hanging
    script = (
        "import numpy as np\n"
        "from sawlink.dynamics import Generator, dissipator, evolve_generator\n"
        "from sawlink.errors import IntegrationError\n"
        "from sawlink.qcore import SIGMA_MINUS, HilbertSpace, QuantumState\n"
        "space = HilbertSpace([2], ['q'])\n"
        f"coeffs = lambda t: np.array([{value} if t >= {start} else 0.1])\n"
        "generator = Generator(space, [dissipator(SIGMA_MINUS)], coeffs)\n"
        "try:\n"
        "    evolve_generator(generator, QuantumState.basis_state(space, [1]),\n"
        "                     np.linspace(0.0, 10.0, 5))\n"
        "except IntegrationError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(sawlink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    head, _, t = out.stdout.strip().partition(" at t = ")
    assert head == "non-finite generator coefficient"
    assert start <= float(t.removesuffix(" ns")) <= 10.0


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
                embed_product({"q": SIGMA_PLUS, f"m{j}": SIGMA_MINUS}, space)
                + embed_product({"q": SIGMA_MINUS, f"m{j}": SIGMA_PLUS}, space)
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


def pair_blocks(rng):
    """Decay and dephasing of both qubits plus a random Hermitian drive:
    the blocks and their rates."""
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    blocks = [commutator_superop(0.02 * (h + h.conj().T))]
    for lbl in ("a", "b"):
        blocks += [dissipator(embed(SIGMA_MINUS, lbl, PAIR)), dissipator(embed(NUMBER, lbl, PAIR))]
    return blocks, np.concatenate([[1.0], rng.uniform(0.0, 0.05, size=4)])


def pair_generator(rng, time_dependent):
    """The ``pair_blocks`` generator, its rates constant or modulated in time."""
    blocks, rates = pair_blocks(rng)
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
        assert len(traj.rhos) == 3

    def test_initial_state_on_another_space_rejected(self):
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], [0.1])
        with pytest.raises(ValidationError):
            evolve_generator(decay, [EXCITED, QuantumState.basis_state(PAIR, [1, 0])],
                             np.linspace(0, 1, 2))


# ---- exact propagation of a constant generator ---------------------------------

LADDER = HilbertSpace([2, 2, 2, 2], ["q", "m0", "m1", "m2"], excitation_cap=1)


def ladder_blocks(rng):
    """A random Hermitian drive plus decay of every element of the capped
    ladder, with random rates."""
    h = rng.normal(size=(LADDER.dim,) * 2) + 1j * rng.normal(size=(LADDER.dim,) * 2)
    blocks = [commutator_superop(0.02 * (h + h.conj().T))]
    blocks += [dissipator(embed(SIGMA_MINUS, lbl, LADDER)) for lbl in LADDER.labels]
    return blocks, np.concatenate([[1.0], rng.uniform(0.0, 0.05, size=len(LADDER.labels))])


class TestExactPropagation:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        on_ladder=st.booleans(),
        k=st.integers(1, 16),
        n_points=st.integers(2, 8),
    )
    def test_matches_rk45(self, seed, on_ladder, k, n_points):
        # the same blocks behind a callable coefficient vector take the RK45 route
        rng = np.random.default_rng(seed)
        space = LADDER if on_ladder else PAIR
        blocks, rates = (ladder_blocks if on_ladder else pair_blocks)(rng)
        grid = np.sort(rng.uniform(0.0, 60.0, size=n_points))
        grid[0] = 0.0
        preps = [QuantumState(space, r) for r in random_states(rng, k, space.dim)]
        exact = evolve_generator(Generator(space, blocks, rates), preps, grid, 1e-12)
        rk45 = evolve_generator(Generator(space, blocks, lambda t: rates), preps, grid, 1e-12)
        for a, b in zip(exact, rk45):
            assert np.max(np.abs(a.rhos - b.rhos)) <= 1e-9

    def test_matches_per_step_matrix_exponential(self):
        rng = np.random.default_rng(21)
        generator = pair_generator(rng, time_dependent=False)
        # the last steps are long enough that the series is scaled and squared
        grid = np.array([0.0, 0.3, 2.0, 7.5, 80.0, 400.0])
        rhos = random_states(rng, 3, 4)
        trajs = evolve_generator(generator, [QuantumState(PAIR, r) for r in rhos], grid)
        y = rhos.reshape(3, 16).T
        want = [y]
        for h in np.diff(grid):
            want.append(scipy.linalg.expm(generator.stacked.toarray() * h) @ want[-1])
        want = np.stack(want).transpose(0, 2, 1).reshape(grid.size, 3, 4, 4)
        for j, traj in enumerate(trajs):
            assert np.max(np.abs(traj.rhos - want[:, j])) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(t0=st.floats(-1e4, 1e4), span=st.floats(1e-3, 1e5))
    @example(t0=0.0, span=2 * 508.12)  # the vacuum_rabi grid
    def test_linspace_grid_builds_one_propagator(self, t0, span):
        built = []
        build = dynamics._propagator

        def counting(generator, h):
            built.append(h)
            return build(generator, h)

        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], [0.02])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_propagator", counting)
            evolve_generator(decay, EXCITED, np.linspace(t0, t0 + span, 800))
            assert len(built) == 1
            evolve_generator(decay, EXCITED, np.array([0.0, 1.0, 2.0, 4.0, 6.0]))
            assert built[1:] == [1.0, 2.0]

    def test_dense_step_matches_sparse_step(self, monkeypatch):
        # the propagator is applied as a dense matrix; applying the same
        # matrix in CSR form over the vacuum_rabi default grid agrees
        seen = []

        def spy(generator, rho0, grid, **kwargs):
            seen.append((generator, rho0, grid))
            return evolve_generator(generator, rho0, grid, **kwargs)

        monkeypatch.setattr(experiments, "evolve_generator", spy)
        params = dict(experiments.EXPERIMENTS["vacuum_rabi"].defaults)
        experiments.run_experiment("vacuum_rabi", default_device(), params, 1234)
        ((generator, rho0, grid),) = seen
        assert grid.size == 800
        atol = 16 * np.finfo(float).eps * np.max(np.abs(grid))
        _, (h,) = dynamics._step_groups(np.diff(grid), atol)
        dense = dynamics._propagator(generator.stacked, h)
        assert isinstance(dense, np.ndarray)
        csr = sparse.csr_array(dense)
        y_dense = y_sparse = rho0.rho.reshape(-1)
        worst = 0.0
        for _ in range(grid.size - 1):
            y_dense, y_sparse = dense @ y_dense, csr @ y_sparse
            worst = max(worst, np.max(np.abs(y_dense - y_sparse)))
        assert worst <= 1e-13

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("rate", [np.inf, -np.inf, np.nan])
    def test_non_finite_generator_rejected(self, rate):
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], [rate])
        with pytest.raises(ValidationError, match="non-finite"):
            evolve_generator(decay, EXCITED, np.linspace(0, 1, 3))

    def test_bit_identical_across_blas_threads(self):
        script = (
            "import hashlib\n"
            "from sawlink import experiments\n"
            "from sawlink.device import default_device\n"
            "evolve, seen = experiments.evolve_generator, []\n"
            "def spy(*args, **kwargs):\n"
            "    seen.append(evolve(*args, **kwargs))\n"
            "    return seen[-1]\n"
            "experiments.evolve_generator = spy\n"
            "params = dict(experiments.EXPERIMENTS['vacuum_rabi'].defaults)\n"
            "experiments.run_experiment('vacuum_rabi', default_device(), params, 1234)\n"
            "print(hashlib.sha256(seen[0].rhos.tobytes()).hexdigest())\n"
        )
        src = str(Path(sawlink.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True)
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_dense_route_results_identical_across_blas_threads(self):
        # each dense step is a BLAS product; vacuum_rabi steps a 169-dim
        # state 799 times and bell ages a two-qubit pair in one step
        script = (
            "import json\n"
            "from sawlink import experiments\n"
            "from sawlink.device import default_device\n"
            "out = {}\n"
            "for name in ('vacuum_rabi', 'bell'):\n"
            "    params = dict(experiments.EXPERIMENTS[name].defaults)\n"
            "    res = experiments.run_experiment(name, default_device(), params, 1234)\n"
            "    series = {f'{g}.{c}': v.tolist() for g, cols in res.series.items()\n"
            "              for c, v in cols.items()}\n"
            "    out[name] = {'metrics': res.metrics, 'series': series}\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(sawlink.__file__).parents[1])
        results = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True)
            results.append(json.loads(out.stdout))
        assert len(results[0]["vacuum_rabi"]["series"]["decay.p_e_lindblad"]) == 800
        assert results[0]["bell"]["metrics"]
        assert results[0] == results[1]


def repair_one(rho, tol, t):
    """The per-state repair rule, one state at a time: the reference the
    stacked pass must reproduce.  Only a state whose lowest eigenvalue is
    below -EIG_ATOL / d is rebuilt with its eigenvalues clipped."""
    tr = np.trace(rho)
    if abs(tr - 1.0) > 100 * tol:
        raise DiagnosticsError(f"trace drift {abs(tr - 1.0):.2e} at t = {t:.6g} ns")
    herm_err = np.max(np.abs(rho - rho.conj().T))
    if herm_err > 10 * tol:
        raise DiagnosticsError(f"Hermiticity violation {herm_err:.2e} at t = {t:.6g} ns")
    rho = 0.5 * (rho + rho.conj().T)
    low = np.linalg.eigvalsh(rho)[0]
    if low < -POSITIVITY_CLIP:
        raise DiagnosticsError(f"negative eigenvalue {low:.2e} at t = {t:.6g} ns")
    if low < -EIG_ATOL / rho.shape[0]:
        evals, evecs = np.linalg.eigh(rho)
        rho = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
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
    """Low-rank states with integration-sized noise, its size spread over
    six decades per state: many have eigenvalues below zero, some far
    enough to be rebuilt and some left as they are."""
    stack = random_states(rng, n * k, dim, rank=2).reshape(n, k, dim, dim)
    noise = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    scale = 0.1 * tol * 10.0 ** rng.uniform(-6.0, 0.0, size=(n, k, 1, 1))
    return stack + scale * noise


def edge_stack(rng, space, n, depth, product):
    """n states of unit trace whose d - 1 lowest eigenvalues all equal
    -depth EIG_ATOL / d, the most negative a state may be and stay
    unrebuilt at depth 1.  With ``product`` the eigenvectors are basis
    states, for which a partial trace over d_B lowers the lowest
    eigenvalue by the full factor d_B."""
    d = space.dim
    low = -depth * EIG_ATOL / d
    vals = np.array([1.0 - (d - 1) * low] + [low] * (d - 1))
    if product:
        vecs = np.stack([np.eye(d, dtype=complex)[rng.permutation(d)].T for _ in range(n)])
    else:
        a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        vecs = np.linalg.qr(a)[0]
    return ((vecs * vals) @ vecs.conj().swapaxes(-1, -2))[:, None]


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
        rebuilt = low < -EIG_ATOL / 4
        kept = (low < 0) & ~rebuilt
        assert rebuilt.any() and kept.any() and (low >= 0).any()
        got = stack.copy()
        _check_and_repair(got, 1e-8, np.arange(50.0))
        after = np.linalg.eigvalsh(got)[..., 0]
        assert np.all(after[rebuilt] >= -1e-15)
        # a state left as it is only has its trace restored
        trace = np.trace(sym, axis1=-2, axis2=-1).real[..., None, None]
        assert np.array_equal(got[kept], (sym / trace)[kept])
        assert np.all(after[kept] < 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), doubled=st.booleans(),
           depth=st.floats(1e-4, 1e2), product=st.booleans())
    @example(seed=0, doubled=True, depth=0.99, product=True)
    @example(seed=0, doubled=False, depth=0.99, product=True)
    def test_partial_traces_of_repaired_states_are_valid(self, seed, doubled, depth, product):
        # every reduced state of a repaired state passes check_states: the
        # unrebuilt band stops at -EIG_ATOL / d, not at -EIG_ATOL
        space = doubled_space() if doubled else PAIR
        rng = np.random.default_rng(seed)
        stack = edge_stack(rng, space, 8, depth, product)
        _check_and_repair(stack, 1e-8, np.arange(8.0))
        for rho in stack[:, 0]:
            state = QuantumState(space, rho)
            for r in range(1, space.n_modes):
                for keep in itertools.combinations(space.labels, r):
                    partial_trace(state, list(keep))

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["all_entries", "one_entry"])
    def test_non_finite_state_rejected(self, value, where):
        # rejected by name, at the earliest such time, before any arithmetic
        # on the stack, so no numpy warning is raised on the way
        stack = np.zeros((3, 1, 2, 2), dtype=complex)
        stack[..., 0, 0] = 1.0
        if where == "all_entries":
            stack[1:] = value
        else:
            stack[1, 0, 0, 1] = value
            stack[2, 0, 1, 1] = value
        with pytest.raises(DiagnosticsError, match="non-finite state at t = 1 ns"):
            _check_and_repair(stack, 1e-8, np.array([0.0, 1.0, 2.0]))
