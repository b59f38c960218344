"""Two-stage cascaded master equation for lossy delayed transfer.

The channel delay is eliminated by doubling the system: alongside the
two physical qubits at time t, the state carries copies lagging by one
transit time whose re-enacted emission drives the current-time qubits.
Stage 1 integrates the bare two-qubit master equation on [0, tau];
stage 2 splices the doubled state together and integrates the cascaded
generator on [tau, 2*tau].  The construction is valid for at most two
channel interactions per packet, hence the hard 2*tau window limit.

Each stage generator is L(t) = sum_k c_k(t) B_k with blocks B_k that
depend on the space alone, built and assembled on their union pattern
once per process.  Every copy of a qubit (q1, q2, and on the doubled
space the lagged q1e, q2e) owns two blocks: D[sigma-] with coefficient
kappa_q + 1/T1_q, and D[n] with the pure-dephasing rate.  The doubled
space adds one block per emitter/receiver pair (q_ie, q_j) with
sqrt(eta kappa_i(t - tau) kappa_j(t)).  The schedule, the channel and the qubit noise thus reach
the generator only through c(t), which one function per stage reads
from both qubits' coupling tables (``ControlSchedule.tables``): one
bisection per qubit and time, and the lagged copies at t - tau.  The
cascade models shaped couplings alone, and a schedule holds nothing
else, so it needs no check for what it cannot model.  A qubit that
idles outside the cascade, as the Bell pair's emitter does before
readout, is aged by ``age_idle``, the same relaxation and dephasing in
closed form.

``run_cascade`` is the one way in: one ``QuantumState`` or a (k, 4, 4)
stack of preparations goes through both stages as one stack and comes
out as one ``Trajectory``, the stage-2 states in its ``doubled`` field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from . import tomo
from .device import QubitNoise
from .dynamics import (
    DEFAULT_TOL,
    BlockSet,
    Generator,
    commutator_superop,
    cross_dissipator,
    dissipator,
    evolve_generator,
    expectations,
)
from .errors import ValidationError
from .ioshape import ChannelParams, ControlSchedule
from .qcore import (
    NUMBER,
    SIGMA_MINUS,
    HilbertSpace,
    QuantumState,
    check_grid,
    embed,
    partial_trace,
)

TWO_QUBIT_LABELS = ("q1", "q2")
DOUBLED_LABELS = ("q1", "q2", "q1e", "q2e")  # current-time pair, then lagged copies


def two_qubit_space() -> HilbertSpace:
    return HilbertSpace([2, 2], TWO_QUBIT_LABELS)


def doubled_space() -> HilbertSpace:
    return HilbertSpace([2, 2, 2, 2], DOUBLED_LABELS)


@dataclass(frozen=True)
class CascadeConfig:
    schedule: ControlSchedule
    ch: ChannelParams
    noise: tuple[QubitNoise, QubitNoise] = (QubitNoise(), QubitNoise())

    def __post_init__(self):
        if not isinstance(self.schedule, ControlSchedule):
            raise ValidationError("schedule must be a ControlSchedule")


@dataclass(frozen=True)
class Trajectory:
    """States ``rhos[i]`` at ``times[i]`` and their observables' series, with
    an axis of k after the time axis when k states started; ``doubled`` is
    the stage-2 trajectory, or None when the grid stops at tau.  Every stack
    is a slice, or a partial trace, of one ``evolve_generator`` checked."""

    space: HilbertSpace
    times: np.ndarray
    rhos: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    doubled: Trajectory | None = None


@cache
def stage_blocks(doubled: bool) -> BlockSet:
    """The blocks of one stage in coefficient order, assembled on their
    union pattern; they depend on the space alone, so each stage's block
    set is built once per process and its generators share it."""
    space = doubled_space() if doubled else two_qubit_space()
    blocks = []
    for lbl in ("q1e", "q2e", *TWO_QUBIT_LABELS) if doubled else TWO_QUBIT_LABELS:
        sm, num = embed(SIGMA_MINUS, lbl, space), embed(NUMBER, lbl, space)
        blocks += [dissipator(sm), dissipator(num)]
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)] if doubled else []:
        s_e = embed(SIGMA_MINUS, f"q{i}e", space)
        s_r = embed(SIGMA_MINUS, f"q{j}", space)
        # collective damping cross term plus the exchange Hamiltonian
        # 1/2 i (sE^+ sR - sE sR^+), which share one coefficient
        exchange = 0.5j * (s_e.conj().T @ s_r - s_e @ s_r.conj().T)
        blocks.append(cross_dissipator(s_e, s_r) + commutator_superop(exchange))
    return BlockSet(space.dim**2, blocks)


def age_idle(rho: np.ndarray, noise: QubitNoise, t: float) -> np.ndarray:
    """A stack (..., 4, 4) of two-qubit states after the first qubit idles
    for ``t`` ns under ``noise``: its D[sigma-] and D[n] blocks weighted by
    the relaxation rate gamma_1 and the dephasing rate gamma_phi, in closed
    form.  Its excited population decays as exp(-gamma_1 t) into its ground
    state and its coherences as exp(-(gamma_1 + gamma_phi) t / 2)."""
    kept = math.exp(-noise.relax_rate * t)
    coherence = math.exp(-0.5 * (noise.relax_rate + noise.dephase_rate) * t)
    # axes (..., q1, q2, q1', q2'), the ground state first
    out = np.array(rho, dtype=complex).reshape(rho.shape[:-2] + (2, 2, 2, 2))
    out[..., 0, :, 0, :] -= math.expm1(-noise.relax_rate * t) * out[..., 1, :, 1, :]
    out[..., 1, :, 1, :] *= kept
    out[..., 0, :, 1, :] *= coherence
    out[..., 1, :, 0, :] *= coherence
    return out.reshape(rho.shape)


def _coefficients(cfg: CascadeConfig, doubled: bool) -> Callable[[float], np.ndarray]:
    """c(t) of one stage, in ``stage_blocks`` order, from the schedule's
    coupling tables: per copy kappa + 1/T1 and the dephasing rate, the
    lagged copies read at t - tau, then on the doubled space the pairs'
    sqrt(eta kappa_i(t - tau) kappa_j(t))."""
    kappa1, kappa2 = (cfg.schedule.tables[q].kappa for q in (1, 2))
    (r1, p1), (r2, p2) = ((n.relax_rate, n.dephase_rate) for n in cfg.noise)
    tau, root_eta = cfg.ch.tau, math.sqrt(cfg.ch.eta)

    def coeffs(t: float) -> np.ndarray:
        t = float(t)
        k1, k2 = kappa1(t), kappa2(t)
        if not doubled:
            return np.array([k1 + r1, p1, k2 + r2, p2])
        e1, e2 = kappa1(t - tau), kappa2(t - tau)
        return np.array([
            e1 + r1, p1, e2 + r2, p2, k1 + r1, p1, k2 + r2, p2,
            root_eta * math.sqrt(e1 * k1), root_eta * math.sqrt(e1 * k2),
            root_eta * math.sqrt(e2 * k1), root_eta * math.sqrt(e2 * k2),
        ])

    return coeffs


def stage1_liouvillian(cfg: CascadeConfig) -> Generator:
    """Two-qubit generator for the emission window [0, tau]: the four
    per-copy blocks of q1 and q2, with their coefficients at t."""
    return Generator(two_qubit_space(), stage_blocks(False), _coefficients(cfg, False))


def stage2_liouvillian(cfg: CascadeConfig) -> Generator:
    """Doubled-space generator for the feedback window [tau, 2*tau].

    The lagged copies re-run the emission under the time-shifted
    controls; their output drives the current-time qubits through the
    collective dissipator and the exchange Hamiltonian, attenuated by
    the channel transmission.  Twelve blocks: the per-copy blocks of
    q1e, q2e (coefficients at t - tau) and of q1, q2 (at t), then the
    four emitter/receiver pairs.  Each pairing carries its own
    coefficient, so roles may switch during the window.
    """
    return Generator(doubled_space(), stage_blocks(True), _coefficients(cfg, True))


def run_cascade(
    cfg: CascadeConfig,
    rho0: QuantumState | np.ndarray,
    grid: np.ndarray,
    tol: float = DEFAULT_TOL,
    observables: dict[str, np.ndarray] | None = None,
) -> Trajectory:
    """Reduced two-qubit trajectory of the full transfer on [0, 2*tau].

    ``rho0`` is one initial state, or a (k, 4, 4) stack of them that each
    stage integrates together as the columns of one matrix ODE; the
    result's arrays then keep the stack axis.  Its ``doubled`` holds the
    stage-2 states, lagged copies included, for readouts that need them.
    """
    tau = cfg.ch.tau
    grid = np.asarray(grid, dtype=float)
    check_grid(grid)
    if grid[0] < 0 or grid[-1] > 2 * tau + 1e-9:
        raise ValidationError(
            "the cascade construction is valid on [0, 2*tau] only; "
            f"requested grid reaches {grid[-1]:.1f} ns"
        )
    single = isinstance(rho0, QuantumState)
    if single and rho0.space != two_qubit_space():
        raise ValidationError("rho0 must live on the two-qubit space")
    rhos0 = rho0.rho[None] if single else np.asarray(rho0, dtype=complex)

    # each solve keeps only the breakpoints strictly inside its own span
    bps = cfg.schedule.breakpoints()
    early, late = grid[grid <= tau], grid[grid > tau]
    grid1 = np.unique(np.concatenate([early, [0.0, tau]]))
    rhos1 = evolve_generator(stage1_liouvillian(cfg), rhos0, grid1, tol, breakpoints=bps)

    # the splice is not linear in rho0, so every prep keeps its own column
    spliced = np.stack([np.kron(r, r0) for r, r0 in zip(rhos1[-1], rhos0)])

    # stage 1 samples grid1 and stage 2 samples tau followed by ``late``
    col = 0 if single else slice(None)
    times, rhos = np.concatenate([early, late]), rhos1[np.searchsorted(grid1, early)]
    doubled = None
    if late.size:
        grid2 = np.unique(np.concatenate([[tau], late]))
        # the lagged copies replay stage 1, so its kinks recur one transit later
        rhos2 = evolve_generator(stage2_liouvillian(cfg), spliced, grid2, tol,
                                 breakpoints=np.concatenate([bps, bps + tau]))
        rhos = np.concatenate([rhos, partial_trace(doubled_space(), rhos2[1:], ["q1", "q2"])])
        doubled = Trajectory(doubled_space(), grid2, rhos2[:, col])

    series = expectations(rhos, observables)
    return Trajectory(two_qubit_space(), times, rhos[:, col],
                      {name: s[:, col] for name, s in series.items()}, doubled)


def process_tomography_run(
    cfg: CascadeConfig,
    emitters: tuple[int, ...],
    receivers: tuple[int, ...],
    t_ro: float,
    frame: np.ndarray,
    tol: float = DEFAULT_TOL,
):
    """Characterize a transfer as a process matrix over the spanning preps.

    Each preparation of ``tomo.prep_states`` ({g, +, +i, e}, or its
    16-element product set for two-qubit transfers) is loaded onto the
    emitter qubit(s), any other qubit in g; one cascade run evolves all of
    them to ``t_ro``, and their receiver marginals, in prep order, are
    all the process reconstruction takes.  ``frame``
    is a unitary applied to every output state: the transfer imprints a
    fixed relative phase on the moved amplitude, and experiments
    calibrate it out by redefining the receiving qubit's frame.
    """
    n = len(emitters)
    if len(receivers) != n or n not in (1, 2):
        raise ValidationError("transfer must map one qubit to one, or two to two")
    if not {*emitters, *receivers} <= {1, 2} or len({*emitters}) < n or len({*receivers}) < n:
        raise ValidationError("qubit indices are 1 or 2, each used once per side")
    grid = np.array([0.0, float(t_ro)])
    ground = np.diag([1.0, 0.0])
    keep = [f"q{q}" for q in sorted(receivers)]

    preps = tomo.prep_states(n)
    if n == 1:
        preps = [np.kron(p, ground) if emitters[0] == 1 else np.kron(ground, p) for p in preps]
    traj = run_cascade(cfg, preps, grid, tol=tol)
    outputs = partial_trace(two_qubit_space(), traj.rhos[-1], keep)
    return tomo.process_from_states(frame @ outputs @ frame.conj().T)
