import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import sawlink
from sawlink import dynamics
from sawlink.cascade import doubled_space
from sawlink.dynamics import (
    POSITIVITY_CLIP,
    Generator,
    _check_and_repair,
    commutator_superop,
    cross_dissipator,
    dissipator,
    evolve_generator,
    expectations,
    from_coords,
    to_coords,
)
from sawlink.errors import DiagnosticsError, IntegrationError, ValidationError
from sawlink.multimode import MultimodeParams, decay_population
from sawlink.qcore import (
    EIG_ATOL,
    MAX_TOL,
    MIN_TOL,
    NUMBER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    HilbertSpace,
    QuantumState,
    check_states,
    embed,
    partial_trace,
)

from hermitian_oracle import hermitian_basis
from ladder_oracle import ladder_generator, ladder_hamiltonian, lowering_operators
from rhs_oracle import RefillingGenerator

QUBIT = HilbertSpace([2], ["q"])
EXCITED = QuantumState.basis_state(QUBIT, [1]).rho[None]


def test_free_evolution_is_identity():
    free = Generator(QUBIT, [], lambda t: np.zeros(0))
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    rhos = evolve_generator(free, rho0[None], np.linspace(0, 50, 11))
    for rho in rhos[:, 0]:
        assert np.allclose(rho, rho0, atol=1e-8)


def test_constant_decay_matches_exponential():
    kappa = 0.02  # 1/ns
    decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([kappa]))
    grid = np.linspace(0, 200, 41)
    # at the tightest tolerance the stepper follows the exponential to 1e-13
    series = expectations(evolve_generator(decay, EXCITED, grid, MIN_TOL), {"pe": NUMBER})
    assert np.max(np.abs(series["pe"][:, 0] - np.exp(-kappa * grid))) <= 1e-12


def test_resonant_vacuum_rabi_oracle():
    g = 2 * np.pi * 0.005  # rad/ns
    space = HilbertSpace([2, 2], ["q", "m"])
    swap = embed(SIGMA_PLUS, "q", space) @ embed(SIGMA_MINUS, "m", space)
    h = swap + swap.conj().T
    rabi = Generator(space, [commutator_superop(h)], lambda t: np.array([g]))
    t_half = (np.pi / 2) / g
    grid = np.linspace(0, t_half, 25)
    rhos = evolve_generator(rabi, QuantumState.basis_state(space, [1, 0]).rho[None], grid)
    series = expectations(rhos, {"pe": embed(NUMBER, "q", space)})
    pe = series["pe"][:, 0]
    assert np.allclose(pe, np.cos(g * grid) ** 2, atol=1e-6)
    assert pe[-1] < 1e-6


def test_trace_and_hermiticity_along_trajectory():
    kappa = 0.05
    driven = Generator(
        QUBIT, [commutator_superop(SIGMA_PLUS + SIGMA_MINUS), dissipator(SIGMA_MINUS)],
        lambda t: np.array([0.3, kappa]),
    )
    rhos = evolve_generator(driven, EXCITED, np.linspace(0, 100, 51))
    check_states(rhos)
    for rho in rhos[:, 0]:
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_time_dependent_amplitude():
    # kappa(t) ramps linearly; P_e = exp(-integral kappa)
    rate = 0.001  # 1/ns^2
    ramp = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([rate * t]))
    grid = np.linspace(0, 60, 13)
    series = expectations(evolve_generator(ramp, EXCITED, grid), {"pe": NUMBER})
    assert np.allclose(series["pe"][:, 0], np.exp(-0.5 * rate * grid**2), atol=1e-7)


def test_rate_jump_at_a_breakpoint_is_read_from_the_left(monkeypatch):
    # a decay rate of 0.1/ns that jumps to 10/ns at t = 5: the piece [0, 5]
    # integrates the 0.1/ns generator alone, so it ends on e^{-0.5} in the
    # steps of the constant rate, without shrinking them toward the jump
    nfev, solve = {}, dynamics.solve_ivp

    def spy(fun, t_span, *args, **kwargs):
        sol = solve(fun, t_span, *args, **kwargs)
        nfev[t_span] = sol.nfev
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", spy)
    grid = np.array([0.0, 5.0, 10.0])
    jump = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([0.1 if t < 5 else 10.0]))
    pe = expectations(evolve_generator(jump, EXCITED, grid, breakpoints=[5.0]), {"pe": NUMBER})
    jumped = nfev.pop((0.0, 5.0))
    assert pe["pe"][1, 0] == pytest.approx(np.exp(-0.5), rel=1e-8, abs=0.0)
    constant = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([0.1]))
    evolve_generator(constant, EXCITED, grid, breakpoints=[5.0])
    assert jumped == nfev[(0.0, 5.0)]


@pytest.mark.parametrize("start", [0.0, 5.0])
@pytest.mark.parametrize("value", ["np.nan", "np.inf"])
def test_non_finite_coefficient_raises_integration_error(value, start):
    # the generator names a non-finite coefficient and its time before the
    # stepper sees it; the run goes to a child process with a timeout, so a
    # regression in either guard fails instead of hanging
    script = (
        "import numpy as np\n"
        "from sawlink.dynamics import Generator, dissipator, evolve_generator\n"
        "from sawlink.errors import IntegrationError\n"
        "from sawlink.qcore import SIGMA_MINUS, HilbertSpace, QuantumState\n"
        "space = HilbertSpace([2], ['q'])\n"
        f"coeffs = lambda t: np.array([{value} if t >= {start} else 0.1])\n"
        "generator = Generator(space, [dissipator(SIGMA_MINUS)], coeffs)\n"
        "try:\n"
        "    evolve_generator(generator, QuantumState.basis_state(space, [1]).rho[None],\n"
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


class TestStepper:
    """``dynamics.solve_ivp``, the Dormand-Prince 5(4) stepper, against scipy's RK45."""

    def test_tableau_is_scipys_bit_for_bit(self):
        from scipy.integrate import RK45
        for ours, theirs in [(dynamics.DP_A, RK45.A), (dynamics.DP_B, RK45.B),
                             (dynamics.DP_C, RK45.C), (dynamics.DP_E, RK45.E),
                             (dynamics.DP_P, RK45.P)]:
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
           time_dependent=st.booleans(),
           log_tol=st.floats(np.log10(MIN_TOL), np.log10(MAX_TOL)),
           samples=st.lists(st.booleans(), min_size=20, max_size=20), with_start=st.booleans())
    def test_matches_scipy_rk45(self, seed, n, time_dependent, log_tol, samples, with_start):
        from scipy.integrate import solve_ivp as scipy_solve_ivp
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) * rng.uniform(0.01, 1.0) / np.sqrt(n)
        b = rng.normal(size=(n, n)) * rng.uniform(0.0, 1.0) / np.sqrt(n)
        if time_dependent:
            def fun(t, y):
                return (a + np.sin(t) * b) @ y
        else:
            def fun(t, y):
                return a @ y
        y0 = rng.normal(size=n)
        t0 = rng.uniform(-5.0, 5.0)
        tf = t0 + rng.uniform(0.01, 10.0)
        tol = 10.0**log_tol
        # a random subset of interior times, the endpoint, and at times the start
        interior = np.linspace(t0, tf, len(samples) + 2)[1:-1][samples]
        t_eval = np.concatenate([[t0] if with_start else [], interior, [tf]])
        want = scipy_solve_ivp(fun, (t0, tf), y0, method="RK45", t_eval=t_eval, rtol=tol,
                               atol=tol * 1e-2)
        got = dynamics.solve_ivp(fun, (t0, tf), y0, t_eval, tol, tol * 1e-2)
        assert want.success and got.success
        assert got.nfev == want.nfev
        assert got.y.shape == want.y.shape == (n, t_eval.size)
        assert np.all(np.abs(got.y - want.y) <= 1e-12 * np.abs(want.y))

    @pytest.mark.parametrize("start", [0.0, 1.0])
    def test_nan_right_hand_side_fails_at_once(self, start):
        # the first NaN makes a NaN step, which fails before another attempt
        def fun(t, y):
            return -y * (np.nan if t >= start else 1.0)

        sol = dynamics.solve_ivp(fun, (0.0, 10.0), np.ones(3), np.linspace(0.0, 10.0, 5),
                                 1e-8, 1e-10)
        assert not sol.success
        assert sol.message.startswith("step size nan ns")
        # a NaN from t = 0 stops the run after the two starting calls; a
        # later one within the step that first reaches it
        t_fail = float(sol.message.rpartition("at t = ")[2].removesuffix(" ns"))
        if start == 0.0:
            assert sol.nfev == 2 and t_fail == 0.0
        else:
            assert t_fail < start and sol.nfev <= 200

    def test_nan_generator_raises_integration_error(self, monkeypatch):
        # a NaN entry in a block, with finite coefficients, reaches the
        # stepper as a NaN right-hand side from t = 0
        block = dissipator(SIGMA_MINUS).copy()
        block.data[0] = np.nan
        generator = Generator(QUBIT, [block], lambda t: np.array([0.1]))
        nfev, solve = [], dynamics.solve_ivp

        def spy(*args, **kwargs):
            sol = solve(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        with pytest.raises(IntegrationError, match=r"integration failed on \[0, 10\] ns"):
            evolve_generator(generator, EXCITED, np.linspace(0.0, 10.0, 5))
        assert nfev == [2]


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
        return Generator(PAIR, blocks, lambda t: rates)
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
        preps = random_states(rng, k, 4)
        number = {"n_a": embed(NUMBER, "a", PAIR)}
        rhos = evolve_generator(generator, preps, grid, tol, breaks)
        series = expectations(rhos, number)
        assert rhos.shape == (grid.size, k, 4, 4)
        assert series["n_a"].shape == (grid.size, k)
        for j in range(k):
            alone = evolve_generator(generator, preps[j : j + 1], grid, tol, breaks)
            alone_series = expectations(alone, number)
            assert np.max(np.abs(rhos[:, j] - alone[:, 0])) <= 10 * tol
            assert np.max(np.abs(series["n_a"][:, j] - alone_series["n_a"][:, 0])) <= 10 * tol

    @pytest.mark.parametrize("breaks", [(), (20.0,), (12.5, 20.0, 47.0), (0.0, 3.0, 60.0, 75.0)])
    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_stack_is_the_per_piece_solves(self, breaks, time_dependent):
        # the grid has points on the breakpoints 20 and 60 and none on 12.5,
        # 3 or 47, and 75 lies past its end; every sample is the one solve_ivp
        # gives on its own piece, from the state the previous piece ended in
        rng = np.random.default_rng(17)
        tol = 1e-8
        generator = pair_generator(rng, time_dependent)
        grid = np.array([0.0, 5.0, 20.0, 31.0, 44.0, 52.0, 60.0])
        preps = random_states(rng, 5, 4)
        got = evolve_generator(generator, preps, grid, tol, breaks)

        cuts = sorted({0.0, 60.0} | {b for b in breaks if 0.0 < b < 60.0})
        coords = np.empty((grid.size, 5, 16))
        y = np.ascontiguousarray(to_coords(preps).T).ravel()
        for a, b in zip(cuts, cuts[1:]):
            mine = [i for i, t in enumerate(grid) if a < t <= b or (a == t == 0.0)]
            t_eval = np.array(sorted({*grid[mine], b}))
            piece = dynamics._Piece(generator, math.nextafter(b, -math.inf))
            sol = dynamics.solve_ivp(piece, (a, b), y, t_eval, rtol=tol, atol=tol * 1e-2)
            assert sol.success
            for col, i in enumerate(mine):
                for j in range(5):
                    coords[i, j] = sol.y[:, col].reshape(16, 5)[:, j]
            y = sol.y[:, -1].copy()
        want = from_coords(coords)
        _check_and_repair(want, tol, grid)
        assert np.array_equal(got, want)

    def test_sampled_stack_is_read_only(self):
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([0.1]))
        rhos = evolve_generator(decay, EXCITED, np.linspace(0, 10, 3))
        assert rhos.shape == (3, 1, 2, 2)
        with pytest.raises(ValueError):
            rhos[0, 0, 0, 0] = 0.0

    def test_initial_state_on_another_space_rejected(self):
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([0.1]))
        with pytest.raises(ValidationError, match="stack on the generator space"):
            evolve_generator(decay, QuantumState.basis_state(PAIR, [1, 0]).rho[None],
                             np.linspace(0, 1, 2))

    @pytest.mark.parametrize("shape", ["one_state", "empty", "list_of_stacks"])
    def test_wrong_shaped_stack_rejected(self, shape):
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([0.1]))
        rhos0 = {"one_state": EXCITED[0], "empty": EXCITED[:0],
                 "list_of_stacks": [EXCITED, EXCITED]}[shape]
        with pytest.raises(ValidationError, match="stack on the generator space"):
            evolve_generator(decay, rhos0, np.linspace(0, 1, 2))

    @pytest.mark.parametrize("fault", ["hermiticity", "trace", "eigenvalue"])
    def test_stack_with_one_non_state_rejected(self, fault):
        # the whole stack is checked once, with check_states' own messages
        bad = {"hermiticity": np.array([[1.0, 0.1], [0.0, 0.0]]),
               "trace": np.diag([0.7, 0.7]),
               "eigenvalue": np.diag([1.5, -0.5])}[fault].astype(complex)
        rhos0 = np.concatenate([EXCITED, bad[None], EXCITED])
        with pytest.raises(ValidationError) as want:
            check_states(bad)
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([0.1]))
        with pytest.raises(ValidationError) as got:
            evolve_generator(decay, rhos0, np.linspace(0, 1, 2))
        assert str(got.value) == str(want.value)


# ---- real coordinates of Hermitian states --------------------------------------


def random_operator(rng, d):
    return (rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))) / d


def dense_superop(*terms):
    """rho -> sum w a rho b on the row-major vec(rho), from the Kronecker formula."""
    return sum(w * np.kron(a, b.T) for w, a, b in terms)


def lindblad_oracles(rng, d):
    """Each builder's block next to its dense superoperator from the Lindblad formulas."""
    x, a, b = (random_operator(rng, d) for _ in range(3))
    h = x + x.conj().T
    eye = np.eye(d)
    xd, ad, bd = x.conj().T, a.conj().T, b.conj().T
    anti = ad @ b + bd @ a
    return [
        (commutator_superop(h), dense_superop((-1j, h, eye), (1j, eye, h))),
        (dissipator(x), dense_superop((1.0, x, xd), (-0.5, xd @ x, eye), (-0.5, eye, xd @ x))),
        (cross_dissipator(a, b),
         dense_superop((1.0, a, bd), (1.0, b, ad), (-0.5, anti, eye), (-0.5, eye, anti))),
    ]


# a qubit, a pair, the doubled space, and the vacuum and one-excitation sector
# of a qubit and 12 modes
COORD_DIMS = [2, 4, 16, 14]


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", COORD_DIMS)
    def test_basis_is_unitary(self, d):
        t = hermitian_basis(d)
        assert np.max(np.abs(t @ t.conj().T - np.eye(d * d))) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from(COORD_DIMS), k=st.integers(1, 5))
    def test_round_trip(self, seed, d, k):
        rng = np.random.default_rng(seed)
        rhos = random_states(rng, k, d)
        rhos = 0.5 * (rhos + rhos.conj().swapaxes(-1, -2))
        coords = to_coords(rhos)
        assert coords.dtype == float and coords.shape == (k, d * d)
        want = (hermitian_basis(d) @ rhos.reshape(k, d * d).T).T
        assert np.max(np.abs(coords - want)) <= 1e-15
        back = from_coords(coords)
        # exactly Hermitian, the diagonal exact, the rest to within the
        # rounding of a product by sqrt 2 and one by 1 / sqrt 2
        assert np.array_equal(back, back.conj().swapaxes(-1, -2))
        diag = np.arange(d)
        assert np.array_equal(back[:, diag, diag], rhos[:, diag, diag])
        assert np.all(np.abs(back - rhos) <= np.finfo(float).eps * np.abs(rhos))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), d=st.sampled_from(COORD_DIMS))
    def test_builders_match_the_lindblad_formulas(self, seed, d):
        rng = np.random.default_rng(seed)
        t = hermitian_basis(d)
        for block, dense in lindblad_oracles(rng, d):
            assert block.dtype == float
            assert np.max(np.abs(t.conj().T @ block.toarray() @ t - dense)) <= 1e-14

    def test_map_that_breaks_hermiticity_rejected(self):
        for h in (SIGMA_MINUS, 1j * NUMBER):
            with pytest.raises(ValidationError, match="does not preserve Hermiticity"):
                commutator_superop(h)

    def test_complex_block_rejected(self):
        block = dissipator(SIGMA_MINUS).astype(complex)
        with pytest.raises(ValidationError, match="must be real"):
            Generator(QUBIT, [block], lambda t: np.array([0.1]))

    def test_coefficients_that_are_not_a_function_rejected(self):
        with pytest.raises(ValidationError, match="must be a function c"):
            Generator(QUBIT, [dissipator(SIGMA_MINUS)], [0.1])

    @pytest.mark.parametrize("c", [0.1j, 0.1 + 0j])
    def test_complex_coefficient_rejected(self, c):
        generator = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([c]))
        with pytest.raises(ValidationError, match="complex generator coefficient at t = 1.5 ns"):
            generator(1.5, np.zeros(4))

    @pytest.mark.parametrize("c", [["0.1"], [None], [b"0.1"], [Fraction(1, 10)]],
                             ids=["str", "None", "bytes", "object"])
    @pytest.mark.parametrize("bad_from", [1.5, 2.5])
    def test_coefficient_that_is_not_a_number_rejected(self, c, bad_from):
        # one block; the reads from ``bad_from`` on have the right length
        # but a dtype kind outside "biuf"
        generator = Generator(QUBIT, [dissipator(SIGMA_MINUS)],
                              lambda t: c if t >= bad_from else [0.1])
        message = f"generator coefficient that is not a number at t = {bad_from} ns"
        with pytest.raises(ValidationError, match=message):
            generator.fill((1.5, 2.5, 3.5))
        with pytest.raises(ValidationError, match=message):
            generator(bad_from, np.zeros(4))

    @pytest.mark.parametrize("c", [[0.1], [0.1, 0.2, 0.3], 0.1, [[0.1, 0.2]], [0.1, [0.2]]],
                             ids=["short", "long", "scalar", "2-D", "ragged"])
    @pytest.mark.parametrize("bad_from", [1.5, 2.5])
    def test_coefficients_not_one_per_block_rejected(self, c, bad_from):
        # two blocks; the reads from ``bad_from`` on are bad, at every time
        # of the fill or from its second one
        generator = Generator(QUBIT, [dissipator(SIGMA_MINUS), dissipator(NUMBER)],
                              lambda t: c if t >= bad_from else [0.1, 0.2])
        message = f"not 2 generator coefficients at t = {bad_from} ns"
        with pytest.raises(ValidationError, match=message):
            generator.fill((1.5, 2.5, 3.5))
        with pytest.raises(ValidationError, match=message):
            generator(bad_from, np.zeros(4))


# ---- one sparse matrix on the blocks' union pattern -----------------------------


def random_blocks(rng, n, pattern):
    """n random real blocks on PAIR whose patterns overlap, are disjoint or are
    drawn independently; each stores some of its entries as explicit zeros
    and a few twice, which then sum (a non-canonical CSR array)."""
    d2 = PAIR.dim**2
    shared = rng.random((d2, d2)) < 0.3
    owner = rng.integers(0, max(n, 1), size=(d2, d2))
    blocks = []
    for k in range(n):
        mask = {"overlapping": shared | (rng.random((d2, d2)) < 0.05),
                "disjoint": shared & (owner == k),
                "independent": rng.random((d2, d2)) < 0.3}[pattern]
        rows, cols = np.nonzero(mask)
        data = rng.uniform(-1, 1, rows.size)
        data[rng.random(rows.size) < 0.2] = 0.0
        twice = rng.integers(0, max(rows.size, 1), size=min(rows.size, 3))
        rows, cols, data = (np.concatenate([a, a[twice]]) for a in (rows, cols, data))
        order = np.argsort(rows, kind="stable")
        indptr = np.searchsorted(rows[order], np.arange(d2 + 1))
        blocks.append(sparse.csr_array((data[order], cols[order], indptr), shape=(d2, d2)))
    return blocks


class TestUnionFormat:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 6),
        pattern=st.sampled_from(["overlapping", "disjoint", "independent"]),
        k=st.integers(1, 4),
    )
    @example(seed=0, n=0, pattern="overlapping", k=2)
    def test_applies_the_dense_sum(self, seed, n, pattern, k):
        rng = np.random.default_rng(seed)
        blocks = random_blocks(rng, n, pattern)
        omega, phase = rng.uniform(0.1, 2.0, n), rng.uniform(0.0, 2 * np.pi, n)

        def coeffs(t):
            return np.cos(omega * t + phase)

        t1, t2 = rng.uniform(0.0, 10.0, 2)
        y = rng.uniform(-1, 1, (16, k))
        dense = np.zeros((16, 16))
        for c, block in zip(coeffs(t2), blocks):
            dense += c * block.toarray()
        want = dense @ y

        # a call at t2 after one at t1 leaves no trace of the first refill
        generator = Generator(PAIR, blocks, coeffs)
        generator(t1, y.reshape(-1))
        got = generator(t2, y.reshape(-1))
        assert np.max(np.abs(got.reshape(16, k) - want)) <= 1e-14
        assert np.array_equal(got, Generator(PAIR, blocks, coeffs)(t2, y.reshape(-1)))


# ---- the right-hand side: the compiled product, L filled a step at a time -------


class FillLog(Generator):
    """A ``Generator`` that logs the times of each fill."""

    def __init__(self, *args):
        super().__init__(*args)
        self.fills = []

    def fill(self, times):
        self.fills.append(list(times))
        return super().fill(times)


class TestRightHandSide:
    @pytest.mark.parametrize("size", [8, 20])
    def test_size_not_a_multiple_of_d2_rejected(self, size):
        # the compiled kernel checks no bounds: it would read 8 coordinates
        # past their end, and take 20 as one column of 16
        generator = pair_generator(np.random.default_rng(5), True)
        with pytest.raises(ValidationError, match=f"^{size} coordinates .* of length 16$"):
            generator(1.0, np.ones(size))

    @pytest.mark.parametrize("breaks", [(), (20.0,), (13.7, 40.0)])
    def test_coefficients_read_once_per_distinct_time(self, monkeypatch, breaks):
        # each piece reads c at its two starting calls' times, one fill each,
        # then once at each of an attempted step's five distinct stage times,
        # in one fill per step; the six RHS calls of a step read nothing more
        rng = np.random.default_rng(17)
        blocks, rates = pair_blocks(rng)
        reads, nfev = [], []

        def coeffs(t):
            reads.append(t)
            return rates * (1.0 + np.sin(0.2 * t))

        solve = dynamics.solve_ivp

        def spy(*args, **kwargs):
            sol = solve(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        generator = FillLog(PAIR, blocks, coeffs)
        evolve_generator(generator, random_states(rng, 3, 4), np.linspace(0.0, 60.0, 7), 1e-8,
                         breaks)
        assert len(nfev) == len(breaks) + 1
        # a piece makes two starting calls and six per attempted step
        sizes = [n for calls in nfev for n in [1, 1] + [5] * ((calls - 2) // 6)]
        assert [len(times) for times in generator.fills] == sizes
        assert all(len(set(times)) == len(times) for times in generator.fills)
        assert reads == [t for times in generator.fills for t in times]
        assert len(reads) < sum(nfev)

    def test_block_rows_are_the_per_time_products(self):
        # the rows of one five-time fill, read back exactly by applying them
        # to the identity columns, against v @ c(t) per time, v = terms^T.  Both sum
        # the same n products, in orders that may differ, and each lies
        # within gamma_n sum_k |v_k c_k| of the exact sum, gamma_n =
        # n u / (1 - n u) and u = eps / 2 (Higham, Accuracy and Stability of
        # Numerical Algorithms, Sec. 3.1): they differ by at most
        # n eps sum_k |v_k c_k|, a few ulps of that sum
        rng = np.random.default_rng(41)
        blocks = random_blocks(rng, 6, "overlapping") + pair_blocks(rng)[0]
        n = len(blocks)
        omega, phase = rng.uniform(0.1, 2.0, n), rng.uniform(0.0, 2 * np.pi, n)
        scale = 10.0 ** rng.uniform(-3.0, 1.0, n)
        reads = []

        def coeffs(t):
            reads.append(t)
            return scale * np.cos(omega * t + phase)

        generator = Generator(PAIR, blocks, coeffs)
        times = np.sort(rng.uniform(0.0, 20.0, 5)).tolist()
        generator.fill(times)
        assert reads == times
        pattern, v = generator.blocks, generator.blocks.terms.T
        rows = np.repeat(np.arange(16), np.diff(pattern.indptr))
        eye = np.eye(16).reshape(-1)
        for t in times:
            got = generator(t, eye).reshape(16, 16)[rows, pattern.indices]
            c = scale * np.cos(omega * t + phase)
            bound = n * np.finfo(float).eps * (np.abs(v) @ np.abs(c))
            assert np.all(np.abs(got - v @ c) <= bound), t
        # the calls applied the fill's rows, reading c no more
        assert reads == times

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_evolution_matches_the_refilling_generator(self, k):
        # the per-step fill against L(t) refilled from terms^T @ c(t) at every
        # call and applied by csr_array @: the data differ in the last bits
        rng = np.random.default_rng(29)
        blocks, rates = pair_blocks(rng)

        def coeffs(t):
            return rates * (1.0 + np.sin(0.2 * t))

        preps, grid = random_states(rng, k, 4), np.linspace(0.0, 60.0, 7)
        got, want = (evolve_generator(cls(PAIR, blocks, coeffs), preps, grid, 1e-8, (13.7, 40.0))
                     for cls in (Generator, RefillingGenerator))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("bad, error", [(0.1j, ValidationError), (np.nan, IntegrationError),
                                            (np.inf, IntegrationError)])
    def test_failed_refill_leaves_no_stale_matrix(self, bad, error):
        # a coefficient that fails at t = 1 raises at every call there, and a
        # call at t = 0 after it refills rather than reading the failed fill
        generator = Generator(QUBIT, [dissipator(SIGMA_MINUS)],
                              lambda t: np.array([bad if t == 1.0 else 0.1]))
        y = np.ones(4)
        before = generator(0.0, y)
        for _ in range(2):
            with pytest.raises(error, match="generator coefficient at t = 1 ns"):
                generator(1.0, y)
        assert np.array_equal(generator(0.0, y), before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_at_an_interior_stage_named(self, bad):
        # a coefficient that is non-finite at the third stage time of a step
        # alone raises at the step's fill, naming that time, and the stages
        # before it are never applied
        grid = np.linspace(0.0, 10.0, 5)
        finite = FillLog(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([0.1]))
        evolve_generator(finite, EXCITED, grid)
        stage = [times for times in finite.fills if len(times) == 5][3][2]
        generator = FillLog(QUBIT, [dissipator(SIGMA_MINUS)],
                            lambda t: np.array([bad if t == stage else 0.1]))
        message = f"non-finite generator coefficient at t = {stage:.6g} ns"
        with pytest.raises(IntegrationError, match=f"^{re.escape(message)}$"):
            evolve_generator(generator, EXCITED, grid)
        assert generator.fills[-1][2] == stage


# ---- exact propagation of the ladder's one-excitation decay --------------------


def sector_h_eff(p):
    """H_eff = H - i kappa_a/2 sum_j n_j on the one-excitation sector, the
    qubit's ket last, from the ladder's operators on vacuum + sector."""
    _, modes = lowering_operators(p.n_a)
    loss = sum(a.conj().T @ a for a in modes)
    return (ladder_hamiltonian(p) - 0.5j * p.kappa_a * 1e-3 * loss)[1:, 1:]


class TestExactPropagation:
    """``multimode.decay_population`` against the master equation it solves
    and the matrix exponential, and the same at any BLAS thread count."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_a=st.integers(1, 4),
        g=st.floats(0.05, 3.0),
        kappa_a=st.just(0.0) | st.floats(0.1, 5.0),
        n_points=st.integers(2, 8),
    )
    def test_matches_rk45(self, seed, n_a, g, kappa_a, n_points):
        rng = np.random.default_rng(seed)
        p = MultimodeParams(g=g, n_a=n_a, fsr=1.97, kappa_a=kappa_a)
        sm, _ = lowering_operators(n_a)
        grid = np.sort(rng.uniform(0.0, 2 * p.tau_ns, size=n_points))
        grid[0] = 0.0
        rho0 = random_states(rng, 1, n_a + 2)
        rhos = evolve_generator(ladder_generator(p), rho0, grid, 1e-10)
        want = expectations(rhos, {"pe": sm.conj().T @ sm})["pe"][:, 0]
        assert np.max(np.abs(decay_population(p, rho0[0, 1:, 1:], grid) - want)) <= 1e-8

    def test_matches_per_step_matrix_exponential(self):
        rng = np.random.default_rng(21)
        p = MultimodeParams(g=0.18, n_a=11, fsr=1.97, kappa_a=1 / 1.8)
        rho0 = random_states(rng, 1, p.n_a + 2)[0, 1:, 1:]  # a sector block
        h_eff = sector_h_eff(p)
        # steps short and long, up to two transits
        grid = np.array([0.0, 0.3, 2.0, 7.5, 80.0, 400.0, 2 * p.tau_ns])
        rho1, want = rho0, [rho0[-1, -1].real]
        for h in np.diff(grid):
            step = scipy.linalg.expm(-1j * h_eff * h)
            rho1 = step @ rho1 @ step.conj().T
            want.append(rho1[-1, -1].real)
        assert np.max(np.abs(decay_population(p, rho0, grid) - want)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("rate", [np.inf, -np.inf, np.nan])
    def test_non_finite_generator_rejected(self, rate):
        # a non-finite rate is named before the stepper takes a step
        decay = Generator(QUBIT, [dissipator(SIGMA_MINUS)], lambda t: np.array([rate]))
        with pytest.raises(IntegrationError, match="non-finite generator coefficient at t = 0 ns"):
            evolve_generator(decay, EXCITED, np.linspace(0, 1, 3))

    def test_bit_identical_across_blas_threads(self):
        # the sector's eigensolve, inverse and row products at 11 and 20 modes
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from sawlink.multimode import MultimodeParams, decay_population\n"
            "digest = hashlib.sha256()\n"
            "for n_a in (11, 20):\n"
            "    p = MultimodeParams(g=0.18, n_a=n_a, fsr=1.97, kappa_a=1 / 1.8)\n"
            "    rho0 = np.zeros((n_a + 1, n_a + 1), dtype=complex)\n"
            "    rho0[-1, -1] = 1.0\n"
            "    grid = np.linspace(0.0, 2 * p.tau_ns, 800)\n"
            "    digest.update(decay_population(p, rho0, grid).tobytes())\n"
            "print(digest.hexdigest())\n"
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
        # vacuum_rabi's sector eigensolve and dense row products, and bell's
        # cascade, partial trace and closed-form ageing
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
    below -EIG_ATOL / d is rebuilt with its eigenvalues clipped.  Its
    Hermiticity check and symmetrisation change nothing on the exactly
    Hermitian stacks the pass is fed, as ``from_coords`` builds them."""
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


def hermitian(rhos):
    """The stack made exactly Hermitian from its diagonal and upper
    triangle, as the evolution hands it to the repair pass."""
    return from_coords(to_coords(rhos))


def shift_weight(rho, amount=1e-6):
    """Move eigenvalue weight from the smallest to the largest eigenvector:
    the trace and Hermiticity hold and the lowest eigenvalue drops."""
    vecs = np.linalg.eigh(rho)[1]
    lo, hi = vecs[:, :1], vecs[:, -1:]
    return hermitian(rho + amount * (hi @ hi.conj().T - lo @ lo.conj().T))


def noisy_stack(rng, n, k, dim, tol):
    """Low-rank states with integration-sized noise, its size spread over
    six decades per state: many have eigenvalues below zero, some far
    enough to be rebuilt and some left as they are."""
    stack = random_states(rng, n * k, dim, rank=2).reshape(n, k, dim, dim)
    noise = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    scale = 0.1 * tol * 10.0 ** rng.uniform(-6.0, 0.0, size=(n, k, 1, 1))
    return hermitian(stack + scale * noise)


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
    return hermitian((vecs * vals) @ vecs.conj().swapaxes(-1, -2))[:, None]


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
        low = np.linalg.eigvalsh(stack)[..., 0]
        rebuilt = low < -EIG_ATOL / 4
        kept = (low < 0) & ~rebuilt
        assert rebuilt.any() and kept.any() and (low >= 0).any()
        got = stack.copy()
        _check_and_repair(got, 1e-8, np.arange(50.0))
        after = np.linalg.eigvalsh(got)[..., 0]
        assert np.all(after[rebuilt] >= -1e-15)
        # a state left as it is only has its trace restored
        trace = np.trace(stack, axis1=-2, axis2=-1).real[..., None, None]
        assert np.array_equal(got[kept], (stack / trace)[kept])
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
        check_states(stack)
        for r in range(1, space.n_modes):
            for keep in itertools.combinations(space.labels, r):
                check_states(partial_trace(space, stack[:, 0], list(keep)))

    def spy(self, monkeypatch, name):
        """Record the stack shape of each call of ``np.linalg.<name>``."""
        calls, function = [], getattr(np.linalg, name)

        def spy(a, *args, **kwargs):
            calls.append(a.shape[:-2])
            return function(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
        return calls

    @pytest.mark.parametrize("doubled", [False, True])
    @pytest.mark.parametrize("depth", [0.0, 0.5, 0.99])
    def test_screened_stack_reads_no_eigenvalues(self, monkeypatch, depth, doubled):
        # every state above -EIG_ATOL / d passes the Cholesky screen
        space = doubled_space() if doubled else PAIR
        rng = np.random.default_rng(6)
        stack = edge_stack(rng, space, 600, depth, False).reshape(200, 3, space.dim, space.dim)
        times = np.arange(200.0)
        want = repair_loop(stack, 1e-8, times)
        calls = self.spy(monkeypatch, "eigvalsh")
        got = stack.copy()
        _check_and_repair(got, 1e-8, times)
        assert calls == []
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_one_state_below_the_screen_matches_per_state_rule(self, monkeypatch):
        rng = np.random.default_rng(8)
        stack = edge_stack(rng, PAIR, 600, 0.5, False).reshape(200, 3, 4, 4)
        stack[137, 2] = edge_stack(rng, PAIR, 1, 1.01, False)[0, 0]
        times = np.arange(200.0)
        want = repair_loop(stack, 1e-8, times)
        calls = self.spy(monkeypatch, "eigvalsh")
        got = stack.copy()
        _check_and_repair(got, 1e-8, times)
        # eigenvalues are read once, over the whole stack
        assert calls == [(200, 3)]
        assert np.max(np.abs(got - want)) <= 1e-15
        assert not np.array_equal(got[137, 2], stack[137, 2] / np.trace(stack[137, 2]).real)

    @pytest.mark.parametrize("doubled", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 16), (200, 3)])
    @pytest.mark.parametrize("below", [False, True])
    def test_one_cholesky_per_stack(self, monkeypatch, shape, doubled, below):
        # one factorisation screens the whole stack, whether it passes or not
        space = doubled_space() if doubled else PAIR
        d, n = space.dim, shape[0] * shape[1]
        rng = np.random.default_rng(9)
        stack = edge_stack(rng, space, n, 0.5, False).reshape(*shape, d, d)
        if below:
            stack[-1, -1] = edge_stack(rng, space, 1, 1.01, False)[0, 0]
        calls = self.spy(monkeypatch, "cholesky")
        _check_and_repair(stack, 1e-8, np.arange(float(shape[0])))
        assert calls == [shape]

    @pytest.mark.parametrize("fault", ["trace", "eigenvalue"])
    def test_each_error_at_the_first_offending_time(self, fault):
        messages = {"trace": "trace drift", "eigenvalue": "negative eigenvalue"}
        rng = np.random.default_rng(11)
        tol = 1e-8
        n, k, dim = 12, 3, 4
        stack = noisy_stack(rng, n, k, dim, tol)
        times = np.linspace(0.0, 55.0, n)
        faults = {
            "trace": lambda r: r * (1 + 300 * tol),
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
            stack[1, 0, 0, 1] = stack[1, 0, 1, 0] = value
            stack[2, 0, 1, 1] = value
        with pytest.raises(DiagnosticsError, match="non-finite state at t = 1 ns"):
            _check_and_repair(stack, 1e-8, np.array([0.0, 1.0, 2.0]))
