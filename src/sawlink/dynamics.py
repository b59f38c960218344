"""Time-dependent Lindblad integration and classical phase-noise draws.

The master equation is integrated on the vectorized density matrix with
an adaptive RK45 scheme; coefficients are evaluated analytically at the
integrator's internal times.  Classical phase noise is drawn per
realization from one counter-based stream each, derived from a single
master seed, so repeated runs are bit-identical; the delay-loop
interference experiment in `ioshape` draws them once per call and takes
the exact mean of the final population over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DiagnosticsError, IntegrationError, ValidationError
from .qcore import (
    Coefficient,
    Generator,
    HilbertSpace,
    Operator,
    QuantumState,
    commutator_superop,
    dissipator,
)

DEFAULT_TOL = 1e-8

# A trajectory state may dip this far below positivity before we call it
# unphysical rather than integration noise.
POSITIVITY_CLIP = 1e-8


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian and collapse-operator content of a master equation.

    ``hamiltonian`` holds (coefficient, Operator) pairs; coefficients may
    be time-dependent callables or constants.  ``collapse_ops`` holds
    (amplitude, Operator) pairs, entering as D[amplitude(t) * op].
    """

    space: HilbertSpace
    hamiltonian: tuple[tuple[Coefficient, Operator], ...] = ()
    collapse_ops: tuple[tuple[Coefficient, Operator], ...] = ()

    def __init__(
        self,
        space: HilbertSpace,
        hamiltonian: Sequence[tuple[Coefficient, Operator]] = (),
        collapse_ops: Sequence[tuple[Coefficient, Operator]] = (),
    ):
        for _, op in tuple(hamiltonian) + tuple(collapse_ops):
            if op.space != space:
                raise ValidationError("all operators must live on the model space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "hamiltonian", tuple(hamiltonian))
        object.__setattr__(self, "collapse_ops", tuple(collapse_ops))

    def liouvillian(self) -> Generator:
        blocks = [commutator_superop(op) for _, op in self.hamiltonian]
        blocks += [dissipator(op) for _, op in self.collapse_ops]
        coeffs: list[Coefficient] = [coeff for coeff, _ in self.hamiltonian] + [
            (lambda t, a=amp: abs(a(t)) ** 2) if callable(amp) else abs(amp) ** 2
            for amp, _ in self.collapse_ops
        ]
        if not any(callable(c) for c in coeffs):
            return Generator(self.space, blocks, coeffs)
        return Generator(
            self.space, blocks, lambda t: np.array([c(t) if callable(c) else c for c in coeffs])
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian classical phase noise shared by a set of realizations."""

    sigma_phi: float  # rad
    n_realizations: int = 1024
    master_seed: int = 0

    def __post_init__(self):
        if self.sigma_phi < 0:
            raise ValidationError("sigma_phi must be >= 0")
        if self.n_realizations < 1:
            raise ValidationError("n_realizations must be >= 1")


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-split stream: one independent generator per realization."""
    key = (int(master_seed) << 64) | int(index)
    return np.random.Generator(np.random.Philox(key=key))


def realization_phases(noise: NoiseSpec) -> np.ndarray:
    """Per-realization Gaussian phases, reproducible from the master seed."""
    return np.array(
        [
            realization_rng(noise.master_seed, i).normal(0.0, noise.sigma_phi)
            for i in range(noise.n_realizations)
        ]
    )


def dephasing_rate(T2R: float, T1_int: float) -> float:
    """Pure-dephasing rate (1/us) from Ramsey and intrinsic-lifetime inputs."""
    if T2R <= 0 or T1_int <= 0:
        raise ValidationError("coherence times must be positive")
    rate = 1.0 / T2R - 1.0 / (2.0 * T1_int)
    if rate < 0:
        raise ValidationError(
            f"T2R = {T2R} us exceeds the 2*T1 = {2 * T1_int} us limit; inputs inconsistent"
        )
    return rate


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple[QuantumState, ...]
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValidationError("trajectory times must be strictly increasing")
        if len(self.states) != len(t):
            raise ValidationError("one state per time required")
        object.__setattr__(self, "times", t)

    def final_state(self) -> QuantumState:
        return self.states[-1]


def _check_and_repair(rho: np.ndarray, tol: float, t: float) -> np.ndarray:
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


def evolve_generator(
    space: HilbertSpace,
    generator: Generator,
    rho0: QuantumState,
    grid: np.ndarray,
    tol: float = DEFAULT_TOL,
    observables: dict[str, Operator] | None = None,
    breakpoints: Sequence[float] = (),
) -> Trajectory:
    """Integrate d(vec rho)/dt = L(t) vec rho and sample it on ``grid``.

    ``breakpoints`` mark times where coefficients are non-smooth; the
    window is integrated piecewise between them so the adaptive stepper
    never straddles a kink.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be a strictly increasing 1-d array")
    if rho0.space != space:
        raise ValidationError("initial state lives on a different space")

    d = space.dim
    t0, tf = grid[0], grid[-1]
    if callable(generator.coeffs):
        rhs = generator
    else:
        # summed once: the generator applied to the identity is its matrix
        lmat = generator(t0, np.eye(d * d, dtype=complex))

        def rhs(t, y):
            return lmat @ y

    cuts = sorted({t0, tf} | {b for b in breakpoints if t0 < b < tf})
    y = rho0.rho.reshape(-1).astype(complex)
    times_out: list[np.ndarray] = []
    ys_out: list[np.ndarray] = []
    include_left = True
    for a, b in zip(cuts[:-1], cuts[1:]):
        if include_left:
            seg_eval = grid[(grid >= a) & (grid <= b)]
        else:
            seg_eval = grid[(grid > a) & (grid <= b)]
        # always sample the segment endpoint so the next segment restarts there
        endpoint_extra = seg_eval.size == 0 or seg_eval[-1] != b
        t_eval = np.append(seg_eval, b) if endpoint_extra else seg_eval
        sol = solve_ivp(
            rhs,
            (a, b),
            y,
            method="RK45",
            t_eval=t_eval,
            rtol=tol,
            atol=tol * 1e-2,
        )
        if not sol.success:
            raise IntegrationError(f"integration failed on [{a:.6g}, {b:.6g}] ns: {sol.message}")
        cols = sol.y.T
        if seg_eval.size:
            times_out.append(seg_eval)
            ys_out.append(cols[:-1] if endpoint_extra else cols)
        y = cols[-1]
        include_left = False

    times = np.concatenate(times_out)
    raw = np.concatenate(ys_out, axis=0)
    if times.size != grid.size or not np.allclose(times, grid):
        raise IntegrationError("integrator did not return the requested grid")

    states = []
    for t, row in zip(times, raw):
        rho = _check_and_repair(row.reshape(d, d), tol, t)
        states.append(QuantumState(space, rho))

    series: dict[str, np.ndarray] = {}
    if observables:
        for name, op in observables.items():
            series[name] = np.array([s.expect(op).real for s in states])
    return Trajectory(times, tuple(states), series)


def evolve(
    model: LindbladModel,
    rho0: QuantumState,
    grid: np.ndarray,
    tol: float = DEFAULT_TOL,
    observables: dict[str, Operator] | None = None,
    breakpoints: Sequence[float] = (),
) -> Trajectory:
    return evolve_generator(
        model.space, model.liouvillian(), rho0, grid, tol, observables, breakpoints
    )
