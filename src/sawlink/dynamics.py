"""Time-dependent Lindblad integration and classical phase-noise draws.

The master equation is integrated on the vectorized density matrix with
an adaptive RK45 scheme; coefficients are evaluated analytically at the
integrator's internal times.  A stack of k initial states is integrated
as one d^2 x k matrix ODE, and the sampled (n_times, k, d, d) stack is
checked, repaired and contracted with the observables in one pass.

Classical phase noise is drawn per realization from one counter-based
stream each, derived from a single master seed, so repeated runs are
bit-identical; the delay-loop interference experiment in `ioshape`
draws them once per call and takes the exact mean of the final
population over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DiagnosticsError, IntegrationError, ValidationError
from .qcore import Generator, HilbertSpace, Operator, QuantumState, check_states, hermiticity_error

DEFAULT_TOL = 1e-8
MIN_TOL, MAX_TOL = 1e-12, 1e-3

# A trajectory state may dip this far below positivity before we call it
# unphysical rather than integration noise.
POSITIVITY_CLIP = 1e-8
CLIP_BLOCK = 64


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
    """States ``rhos[i]`` of one initial state at ``times[i]``, validated as one
    stack; ``final_state()`` and ``states`` build QuantumStates when read."""

    space: HilbertSpace
    times: np.ndarray
    rhos: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValidationError("trajectory times must be strictly increasing")
        rhos = np.asarray(self.rhos, dtype=complex).view()
        if rhos.shape != t.shape + (self.space.dim,) * 2:
            raise ValidationError("one state per time required")
        check_states(rhos)
        rhos.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "rhos", rhos)

    @property
    def states(self) -> tuple[QuantumState, ...]:
        return tuple(QuantumState(self.space, r) for r in self.rhos)

    def final_state(self) -> QuantumState:
        return QuantumState(self.space, self.rhos[-1])


def expectations(rhos: np.ndarray, observables: dict[str, Operator] | None) -> dict:
    """Real series Tr(O rho) over a stack (..., d, d), one per named observable O."""
    obs = (observables or {}).items()
    return {name: np.einsum("ab,...ba->...", op.matrix, rhos).real for name, op in obs}


def _check_and_repair(rhos: np.ndarray, tol: float, times: np.ndarray) -> None:
    """Check and repair a stack (n_times, k, d, d) of integrated states in place.

    Per state: trace drift up to 100 tol and Hermiticity error up to 10 tol
    pass; the state is symmetrised, eigenvalues down to -POSITIVITY_CLIP
    are clipped to zero and the trace restored.  An error names the
    earliest time at which a state fails a check."""
    drift = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    herm_err = hermiticity_error(rhos)
    # (rho + rho^H) / 2 in place; numpy buffers the overlapping transposed operand
    rhos.real += rhos.real.swapaxes(-1, -2)
    rhos.imag -= rhos.imag.swapaxes(-1, -2)
    rhos *= 0.5
    evals, evecs = np.linalg.eigh(rhos)
    low = evals[..., 0]
    bad = (drift > 100 * tol) | (herm_err > 10 * tol) | (low < -POSITIVITY_CLIP)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        t = times[i]
        if drift[i, j] > 100 * tol:
            raise DiagnosticsError(f"trace drift {drift[i, j]:.2e} at t = {t:.6g} ns")
        if herm_err[i, j] > 10 * tol:
            raise DiagnosticsError(f"Hermiticity violation {herm_err[i, j]:.2e} at t = {t:.6g} ns")
        raise DiagnosticsError(f"negative eigenvalue {low[i, j]:.2e} at t = {t:.6g} ns")
    # clipped states are rebuilt a block at a time to keep the temporaries small
    ii, jj = np.nonzero(low < 0.0)
    for s in range(0, ii.size, CLIP_BLOCK):
        i, j = ii[s : s + CLIP_BLOCK], jj[s : s + CLIP_BLOCK]
        vecs = evecs[i, j]
        vals = np.clip(evals[i, j], 0.0, None)
        rhos[i, j] = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[..., None, None]


def evolve_generator(
    generator: Generator,
    rho0: QuantumState | Sequence[QuantumState],
    grid: np.ndarray,
    tol: float = DEFAULT_TOL,
    observables: dict[str, Operator] | None = None,
    breakpoints: Sequence[float] = (),
) -> Trajectory | list[Trajectory]:
    """Integrate d(vec rho)/dt = L(t) vec rho and sample it on ``grid``.

    One initial state gives one Trajectory; a sequence of k states gives
    k Trajectories, integrated as the columns of one d^2 x k matrix ODE.
    The states must live on the generator's space.
    ``breakpoints`` mark times where coefficients are non-smooth; the
    window is integrated piecewise between them so the adaptive stepper
    never straddles a kink.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be a strictly increasing 1-d array")
    if not MIN_TOL <= tol <= MAX_TOL:  # tighter stalls RK45, looser integrates noise
        raise ValidationError(f"tol = {tol} is outside [{MIN_TOL}, {MAX_TOL}]")
    space = generator.space
    single = isinstance(rho0, QuantumState)
    preps = [rho0] if single else list(rho0)
    if not preps or any(p.space != space for p in preps):
        raise ValidationError("initial states must live on the generator space")

    d, k = space.dim, len(preps)
    t0, tf = grid[0], grid[-1]
    # one state stays a vector: a sparse product with a single column is slower
    rhs = generator if k == 1 else lambda t, y: generator(t, y.reshape(d * d, k)).reshape(-1)

    cuts = sorted({t0, tf} | {b for b in breakpoints if t0 < b < tf})
    # segment i samples grid[ends[i]:ends[i + 1]], the grid points in
    # (cuts[i], cuts[i + 1]], and the first segment t0 as well
    ends = np.searchsorted(grid, cuts, side="right")
    ends[0] = 0
    y = np.stack([p.rho for p in preps], axis=-1).reshape(-1)
    # row i, column j holds state j at grid[i]; each segment's samples are
    # copied in once, so the solver's output is freed segment by segment
    raw = np.empty((grid.size, k, d, d), dtype=complex)
    for a, b, lo, hi in zip(cuts, cuts[1:], ends, ends[1:]):
        # always sample the segment endpoint so the next segment restarts there
        t_eval = grid[lo:hi] if hi > lo and grid[hi - 1] == b else np.append(grid[lo:hi], b)
        sol = solve_ivp(rhs, (a, b), y, method="RK45", t_eval=t_eval, rtol=tol, atol=tol * 1e-2)
        if not sol.success:
            raise IntegrationError(f"integration failed on [{a:.6g}, {b:.6g}] ns: {sol.message}")
        raw[lo:hi] = sol.y[:, : hi - lo].reshape(d, d, k, hi - lo).transpose(3, 2, 0, 1)
        y = sol.y[:, -1].copy()
        del sol

    _check_and_repair(raw, tol, grid)
    series = expectations(raw, observables)
    trajs = [Trajectory(space, grid, raw[:, j], {name: s[:, j] for name, s in series.items()})
             for j in range(k)]
    return trajs[0] if single else trajs
