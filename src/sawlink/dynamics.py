"""Lindblad evolution.

The master equation acts on the vectorized density matrix, and the
generator's kind picks the route.  A constant generator is propagated
exactly: exp(L h) is built once per distinct grid step by a Taylor
series with scaling and squaring, using sparse x dense products only,
kept as a dense matrix and applied step by step as a dense product.  A
time-dependent one is integrated with an adaptive RK45 scheme, its
coefficients evaluated analytically at the integrator's internal times.
A stack of k initial states evolves as the k columns of one d^2 x k
matrix, and the sampled (n_times, k, d, d) stack is checked, repaired
and contracted with the observables in one pass: the positivity check
reads eigenvalues only, and only states whose lowest eigenvalue is
below -EIG_ATOL / d are rebuilt from an eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .errors import DiagnosticsError, IntegrationError, ValidationError
from .qcore import EIG_ATOL, Generator, HilbertSpace, QuantumState, hermiticity_error

DEFAULT_TOL = 1e-8
MIN_TOL, MAX_TOL = 1e-12, 1e-3

# A trajectory state may dip this far below positivity before we call it
# unphysical rather than integration noise.
POSITIVITY_CLIP = 1e-8
CLIP_BLOCK = 64

# exp(A) is summed as a Taylor series once ||A||_1 <= TAYLOR_NORM; a
# longer step is scaled down by a power of two and squared back up
TAYLOR_NORM = 1.0
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class Trajectory:
    """States ``rhos[i]`` of one initial state at ``times[i]``; ``final_state()``
    builds a QuantumState when read.

    The stack is not re-validated here: every stack a Trajectory receives
    has just passed ``_check_and_repair``, or is a partial trace of one."""

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
        rhos.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "rhos", rhos)

    def final_state(self) -> QuantumState:
        return QuantumState(self.space, self.rhos[-1])


def expectations(rhos: np.ndarray, observables: dict[str, np.ndarray] | None) -> dict:
    """Real series Tr(O rho) over a stack (..., d, d), one per named observable O."""
    obs = (observables or {}).items()
    return {name: np.einsum("ab,...ba->...", op, rhos).real for name, op in obs}


def _check_and_repair(rhos: np.ndarray, tol: float, times: np.ndarray) -> None:
    """Check and repair a stack (n_times, k, d, d) of integrated states in place.

    A non-finite state is rejected before any arithmetic on the stack.
    Per state: trace drift up to 100 tol and Hermiticity error up to 10 tol
    pass, and the state is symmetrised; its lowest eigenvalue must be at
    least -POSITIVITY_CLIP.  A state whose lowest eigenvalue is below
    -EIG_ATOL / d is rebuilt with its negative eigenvalues clipped to zero;
    one between -EIG_ATOL / d and zero is left as it is.  The 1/d keeps
    the reduced states valid too: tracing out a factor of dimension d_B
    can lower the lowest eigenvalue d_B-fold, so a partial trace of a
    state left unrebuilt stays above -EIG_ATOL, the bound
    ``check_states`` holds every state to.  Every state is then
    retraced.  An error names the earliest time at which a state fails a
    check."""
    finite = np.isfinite(rhos).all(axis=(-2, -1))
    if not finite.all():
        i = np.argwhere(~finite)[0, 0]
        raise DiagnosticsError(f"non-finite state at t = {times[i]:.6g} ns")
    drift = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    herm_err = hermiticity_error(rhos)
    # (rho + rho^H) / 2 in place; numpy buffers the overlapping transposed operand
    rhos.real += rhos.real.swapaxes(-1, -2)
    rhos.imag -= rhos.imag.swapaxes(-1, -2)
    rhos *= 0.5
    low = np.linalg.eigvalsh(rhos)[..., 0]
    bad = ~(drift <= 100 * tol) | ~(herm_err <= 10 * tol) | ~(-low <= POSITIVITY_CLIP)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        t = times[i]
        if not drift[i, j] <= 100 * tol:
            raise DiagnosticsError(f"trace drift {drift[i, j]:.2e} at t = {t:.6g} ns")
        if not herm_err[i, j] <= 10 * tol:
            raise DiagnosticsError(f"Hermiticity violation {herm_err[i, j]:.2e} at t = {t:.6g} ns")
        raise DiagnosticsError(f"negative eigenvalue {low[i, j]:.2e} at t = {t:.6g} ns")
    # rebuilt states are decomposed a block at a time to keep the temporaries small
    ii, jj = np.nonzero(low < -EIG_ATOL / rhos.shape[-1])
    for s in range(0, ii.size, CLIP_BLOCK):
        i, j = ii[s : s + CLIP_BLOCK], jj[s : s + CLIP_BLOCK]
        vals, vecs = np.linalg.eigh(rhos[i, j])
        vals = np.clip(vals, 0.0, None)
        rhos[i, j] = (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[..., None, None]


def _step_groups(steps: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Label each step with a group and give each group's mean width.

    Steps within ``atol`` of their group's smallest member share a group,
    so grid steps that differ only by rounding get one label."""
    starts = []
    for width in np.unique(steps):
        if not starts or width - starts[-1] > atol:
            starts.append(width)
    labels = np.searchsorted(starts, steps, side="right") - 1
    widths = np.bincount(labels, weights=steps) / np.bincount(labels)
    return labels, widths


def _propagator(generator: sparse.csr_array, h: float) -> np.ndarray:
    """exp(L h) as a dense matrix, by a Taylor series with scaling and
    squaring (Moler and Van Loan, SIAM Rev. 45, 3 (2003)).

    Every product is a sparse x dense one, which runs without BLAS, so
    the result does not depend on the BLAS thread count.  It is returned
    dense because it mostly is: on a ladder of a qubit and 12 modes it
    holds 21,169 nonzeros in 28,561 entries."""
    a = generator * h
    norm = float(abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(norm / TAYLOR_NORM)) if norm > TAYLOR_NORM else 0
    a, norm = a * 0.5**squarings, norm * 0.5**squarings
    p = term = np.eye(a.shape[0], dtype=complex)
    # add terms until ||a||^j / j!, a bound on the next term's norm, is
    # below the unit roundoff
    j, bound = 0, 1.0
    while bound > UNIT_ROUNDOFF:
        j += 1
        term = a @ term / j
        p = p + term
        bound *= norm / j
    for _ in range(squarings):
        p = sparse.csr_array(p) @ p
    return p


def _propagate(generator: sparse.csr_array, y: np.ndarray, grid: np.ndarray,
               flat: np.ndarray) -> None:
    """Step y <- exp(L h) y across ``grid``, writing each state to ``flat``.

    One propagator is built per distinct step width: a ``linspace`` grid,
    whose steps differ only in the rounding of the grid points, builds one.
    Each step is a dense BLAS product."""
    if not np.isfinite(generator.data).all():
        raise ValidationError("generator has a non-finite entry")
    atol = 16 * np.finfo(float).eps * np.max(np.abs(grid))
    labels, widths = _step_groups(np.diff(grid), atol)
    props = [_propagator(generator, h) for h in widths]
    flat[0] = y.T
    for i, label in enumerate(labels, 1):
        y = props[label] @ y
        flat[i] = y.T


def _integrate(generator: Generator, y: np.ndarray, grid: np.ndarray, tol: float,
               breakpoints: Sequence[float], raw: np.ndarray) -> None:
    """RK45 across ``grid``, restarting at each breakpoint, writing the
    sampled (n_times, k, d, d) stack to ``raw``."""
    _, k, d, _ = raw.shape
    y = y.reshape(-1)
    t0, tf = grid[0], grid[-1]
    cuts = sorted({t0, tf} | {b for b in breakpoints if t0 < b < tf})
    # segment i samples grid[ends[i]:ends[i + 1]], the grid points in
    # (cuts[i], cuts[i + 1]], and the first segment t0 as well
    ends = np.searchsorted(grid, cuts, side="right")
    ends[0] = 0
    # each segment's samples are copied in once, so the solver's output
    # is freed segment by segment
    for a, b, lo, hi in zip(cuts, cuts[1:], ends, ends[1:]):
        # always sample the segment endpoint so the next segment restarts there
        t_eval = grid[lo:hi] if hi > lo and grid[hi - 1] == b else np.append(grid[lo:hi], b)
        sol = solve_ivp(generator, (a, b), y, method="RK45", t_eval=t_eval, rtol=tol,
                        atol=tol * 1e-2)
        if not sol.success:
            raise IntegrationError(f"integration failed on [{a:.6g}, {b:.6g}] ns: {sol.message}")
        raw[lo:hi] = sol.y[:, : hi - lo].reshape(d, d, k, hi - lo).transpose(3, 2, 0, 1)
        y = sol.y[:, -1].copy()
        del sol


def evolve_generator(
    generator: Generator,
    rho0: QuantumState | Sequence[QuantumState],
    grid: np.ndarray,
    tol: float = DEFAULT_TOL,
    observables: dict[str, np.ndarray] | None = None,
    breakpoints: Sequence[float] = (),
) -> Trajectory | list[Trajectory]:
    """Evolve d(vec rho)/dt = L(t) vec rho and sample it on ``grid``.

    One initial state gives one Trajectory; a sequence of k states gives
    k Trajectories, evolved as the columns of one d^2 x k matrix.  The
    states must live on the generator's space.

    The generator's kind picks the route.  A constant generator is
    propagated exactly: exp(L h) is built once per distinct grid step and
    applied to the states step by step, and ``breakpoints`` do not
    matter.  A time-dependent one is integrated with RK45 at ``tol``;
    ``breakpoints`` mark times where its coefficients are non-smooth, and
    the window is integrated piecewise between them so the adaptive
    stepper never straddles a kink.  On either route ``tol`` sets the
    trace and Hermiticity thresholds of the repair pass.
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
    # column j of y is state j, and raw[i, j] holds it at grid[i]
    y = np.stack([p.rho for p in preps], axis=-1).reshape(d * d, k)
    raw = np.empty((grid.size, k, d, d), dtype=complex)
    if callable(generator.coeffs):
        _integrate(generator, y, grid, tol, breakpoints, raw)
    else:
        _propagate(generator.stacked, y, grid, raw.reshape(grid.size, k, d * d))

    _check_and_repair(raw, tol, grid)
    series = expectations(raw, observables)
    trajs = [Trajectory(space, grid, raw[:, j], {name: s[:, j] for name, s in series.items()})
             for j in range(k)]
    return trajs[0] if single else trajs
