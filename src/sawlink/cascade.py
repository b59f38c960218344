"""Two-stage cascaded master equation for lossy delayed transfer.

The channel delay is eliminated by doubling the system: alongside the
two physical qubits at time t, the state carries copies lagging by one
transit time whose re-enacted emission drives the current-time qubits.
Stage 1 integrates the bare two-qubit master equation on [0, tau];
stage 2 splices the doubled state together and integrates the cascaded
generator on [tau, 2*tau].  The construction is valid for at most two
channel interactions per packet, hence the hard 2*tau window limit.

Each stage generator is L(t) = sum_k c_k(t) B_k with blocks B_k that
depend on the space alone, built once per process.  Every copy of a
qubit (q1, q2, and on the doubled space the lagged q1e, q2e) owns three
blocks: D[sigma-] with coefficient kappa_q + 1/T1_q, the commutator
with n with Delta_q, and D[n] with the pure-dephasing rate.  The
doubled space adds one block per emitter/receiver pair (q_ie, q_j)
with sqrt(eta kappa_i(t - tau) kappa_j(t)).  The schedule, the channel
and the qubit noise thus reach the generator only through c(t), and
``stage_blocks`` is the one builder of idle-noise terms.

A set of preparations travels through both stages as one (k, d, d)
stack; ``QuantumState`` and ``Trajectory`` appear only where
``run_cascade`` takes a caller's states in and hands trajectories out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

import numpy as np

from . import tomo
from .device import QubitNoise
from .dynamics import (
    Generator,
    commutator_superop,
    cross_dissipator,
    dissipator,
    evolve_generator,
    expectations,
)
from .errors import DiagnosticsError, ValidationError
from .ioshape import ChannelParams, ControlSchedule
from .qcore import (
    NUMBER,
    SIGMA_MINUS,
    HilbertSpace,
    QuantumState,
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
        # the schedule's exclusivity rule makes the emitter role
        # unambiguous at every instant
        if not isinstance(self.schedule, ControlSchedule):
            raise ValidationError("schedule must be a ControlSchedule")


@dataclass(frozen=True)
class Trajectory:
    """States ``rhos[i]`` of one initial state at ``times[i]``, with its
    observables' series.

    The stack is not re-validated here: every stack a Trajectory receives
    is a slice of one ``evolve_generator`` has checked, or a partial trace
    of one."""

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


@cache
def stage_blocks(doubled: bool) -> tuple:
    """The blocks of one stage in coefficient order; they depend on the space alone."""
    space = doubled_space() if doubled else two_qubit_space()
    blocks = []
    for lbl in ("q1e", "q2e", *TWO_QUBIT_LABELS) if doubled else TWO_QUBIT_LABELS:
        sm, num = embed(SIGMA_MINUS, lbl, space), embed(NUMBER, lbl, space)
        blocks += [dissipator(sm), commutator_superop(num), dissipator(num)]
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)] if doubled else []:
        s_e = embed(SIGMA_MINUS, f"q{i}e", space)
        s_r = embed(SIGMA_MINUS, f"q{j}", space)
        # collective damping cross term plus the exchange Hamiltonian
        # 1/2 i (sE^+ sR - sE sR^+), which share one coefficient
        exchange = 0.5j * (s_e.conj().T @ s_r - s_e @ s_r.conj().T)
        blocks.append(cross_dissipator(s_e, s_r) + commutator_superop(exchange))
    return tuple(blocks)


def _copy_coeffs(schedule: ControlSchedule, noise, t: float) -> tuple[list, list]:
    """The coefficients of q1's then q2's per-copy blocks at one time, and the
    bare coupling rates; ``noise`` holds each qubit's (relax, dephase) rate."""
    k1, k2 = schedule.kappa(1, t), schedule.kappa(2, t)
    (r1, f1), (r2, f2) = noise
    return [k1 + r1, schedule.delta(1, t), f1, k2 + r2, schedule.delta(2, t), f2], [k1, k2]


def stage1_liouvillian(cfg: CascadeConfig) -> Generator:
    """Two-qubit generator for the emission window [0, tau]: the six
    per-copy blocks of q1 and q2, with their coefficients at t."""
    noise = [(nz.relax_rate, nz.dephase_rate) for nz in cfg.noise]
    return Generator(
        two_qubit_space(),
        stage_blocks(False),
        lambda t: np.array(_copy_coeffs(cfg.schedule, noise, t)[0]),
    )


def stage2_liouvillian(cfg: CascadeConfig) -> Generator:
    """Doubled-space generator for the feedback window [tau, 2*tau].

    The lagged copies re-run the emission under the time-shifted
    controls; their output drives the current-time qubits through the
    collective dissipator and the exchange Hamiltonian, attenuated by
    the channel transmission.  Sixteen blocks: the per-copy blocks of
    q1e, q2e (coefficients at t - tau) and of q1, q2 (at t), then the
    four emitter/receiver pairs.  Each pairing carries its own
    coefficient, so roles may switch during the window.
    """
    tau = cfg.ch.tau
    root_eta = math.sqrt(cfg.ch.eta)
    noise = [(nz.relax_rate, nz.dephase_rate) for nz in cfg.noise]

    def coeffs(t: float) -> np.ndarray:
        lagged, k_lag = _copy_coeffs(cfg.schedule, noise, t - tau)
        now, k_now = _copy_coeffs(cfg.schedule, noise, t)
        pairs = [root_eta * math.sqrt(ke * kr) for ke in k_lag for kr in k_now]
        return np.array(lagged + now + pairs)

    return Generator(doubled_space(), stage_blocks(True), coeffs)


def run_cascade(
    cfg: CascadeConfig,
    rho0: QuantumState | Sequence[QuantumState],
    grid: np.ndarray,
    tol: float = 1e-8,
    observables: dict[str, np.ndarray] | None = None,
    return_doubled: bool = False,
):
    """Reduced two-qubit trajectory of the full transfer on [0, 2*tau].

    ``rho0`` is one initial state, or a sequence of states that each
    stage integrates together as the columns of one matrix ODE; a
    sequence gives one trajectory per state.  With ``return_doubled``
    the stage-2 trajectory on the doubled space is returned alongside,
    for readouts that need the lagged copies.
    """
    tau = cfg.ch.tau
    grid = np.asarray(grid, dtype=float)
    if grid[0] < 0 or grid[-1] > 2 * tau + 1e-9:
        raise ValidationError(
            "the cascade construction is valid on [0, 2*tau] only; "
            f"requested grid reaches {grid[-1]:.1f} ns"
        )
    single = isinstance(rho0, QuantumState)
    preps = [rho0] if single else list(rho0)
    if any(p.space != two_qubit_space() for p in preps):
        raise ValidationError("rho0 must live on the two-qubit space")
    rhos0 = np.stack([p.rho for p in preps])

    bps = [float(b) for b in cfg.schedule.breakpoints()]
    early, late = grid[grid <= tau], grid[grid > tau]
    grid1 = np.unique(np.concatenate([early, [0.0, tau]]))
    bp1 = [b for b in bps if 0.0 < b < tau]
    rhos1, _ = evolve_generator(stage1_liouvillian(cfg), rhos0, grid1, tol, breakpoints=bp1)

    # the splice is not linear in rho0, so every prep keeps its own column
    rho_tau = rhos1[-1]
    spliced = np.stack([np.kron(r, r0) for r, r0 in zip(rho_tau, rhos0)])
    if np.max(np.abs(np.trace(spliced, axis1=1, axis2=2).real - 1.0)) > 1e-8:
        raise DiagnosticsError("splice produced a non-unit-trace doubled state")
    check = partial_trace(doubled_space(), spliced, ["q1", "q2"])
    if np.max(np.abs(check - rho_tau)) > 1e-10:
        raise DiagnosticsError("splice broke the receiver-copy marginal")

    # stage 1 samples grid1 and stage 2 samples tau followed by ``late``
    times, rhos = np.concatenate([early, late]), rhos1[np.searchsorted(grid1, early)]
    if late.size:
        t_end = float(late[-1])
        grid2 = np.unique(np.concatenate([[tau], late]))
        bp2 = sorted({b for b in bps if tau < b < t_end}
                     | {b + tau for b in bps if 0.0 < b < t_end - tau})
        rhos2, _ = evolve_generator(stage2_liouvillian(cfg), spliced, grid2, tol, breakpoints=bp2)
        rhos = np.concatenate([rhos, partial_trace(doubled_space(), rhos2[1:], ["q1", "q2"])])
    elif return_doubled:
        raise ValidationError("no grid samples past tau: nothing doubled to return")

    series = expectations(rhos, observables)
    reduced = [Trajectory(two_qubit_space(), times, rhos[:, j],
                          {name: s[:, j] for name, s in series.items()})
               for j in range(len(preps))]
    if return_doubled:
        doubled = [Trajectory(doubled_space(), grid2, rhos2[:, j]) for j in range(len(preps))]
        return (reduced[0], doubled[0]) if single else (reduced, doubled)
    return reduced[0] if single else reduced


def process_tomography_run(
    cfg: CascadeConfig,
    emitters: tuple[int, ...],
    receivers: tuple[int, ...],
    t_ro: float,
    frame: np.ndarray,
    tol: float = 1e-8,
):
    """Characterize a transfer as a process matrix over the spanning preps.

    Each preparation in {g, +, +i, e} (the 16-element product set for
    two-qubit transfers) is loaded onto the emitter qubit(s), any other
    qubit in g; one cascade run evolves all of them to ``t_ro``, and
    their receiver marginals go to the process reconstruction.  ``frame``
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

    inputs = tomo.prep_states(n)
    preps = inputs
    if n == 1:
        preps = [np.kron(p, ground) if emitters[0] == 1 else np.kron(ground, p) for p in inputs]
    trajs = run_cascade(cfg, [QuantumState(two_qubit_space(), p) for p in preps], grid, tol=tol)
    outputs = partial_trace(two_qubit_space(), np.stack([tr.rhos[-1] for tr in trajs]), keep)
    return tomo.process_from_states(inputs, frame @ outputs @ frame.conj().T)
