"""Two-stage cascaded master equation for lossy delayed transfer.

The channel delay is eliminated by doubling the system: alongside the
two physical qubits at time t, the state carries copies lagging by one
transit time whose re-enacted emission drives the current-time qubits.
Stage 1 integrates the bare two-qubit master equation on [0, tau];
stage 2 splices the doubled state together and integrates the cascaded
generator on [tau, 2*tau].  The construction is valid for at most two
channel interactions per packet, hence the hard 2*tau window limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dynamics import Trajectory, evolve_generator
from .errors import DiagnosticsError, ValidationError
from .ioshape import ChannelParams, ControlSchedule
from .qcore import (
    NUMBER,
    SIGMA_MINUS,
    Generator,
    HilbertSpace,
    Operator,
    QuantumState,
    commutator_superop,
    cross_dissipator,
    dissipator,
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
class QubitNoise:
    """Intrinsic lifetime (us) and pure-dephasing rate (1/us) of one qubit."""

    T1_int: float | None = None
    gamma_phi: float = 0.0

    def __post_init__(self):
        if self.T1_int is not None and self.T1_int <= 0:
            raise ValidationError("T1_int must be positive")
        if self.gamma_phi < 0:
            raise ValidationError("gamma_phi must be >= 0")

    @property
    def relax_rate(self) -> float:
        """Energy relaxation rate, 1/ns."""
        return 0.0 if self.T1_int is None else 1.0 / (self.T1_int * 1e3)

    @property
    def dephase_rate(self) -> float:
        """Pure-dephasing rate, 1/ns."""
        return self.gamma_phi * 1e-3


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


def _noise_block(cfg: CascadeConfig, space: HilbertSpace, labels_by_qubit) -> sparse.csr_array:
    """Intrinsic relaxation and dephasing of every listed copy, summed."""
    block = sparse.csr_array((space.dim**2, space.dim**2), dtype=complex)
    for qubit_idx, labels in labels_by_qubit.items():
        nz = cfg.noise[qubit_idx - 1]
        for lbl in labels:
            block = block + nz.relax_rate * dissipator(embed(SIGMA_MINUS, lbl, space))
            block = block + nz.dephase_rate * dissipator(embed(NUMBER, lbl, space))
    return block


def _qubit_blocks(space: HilbertSpace, labels: tuple[str, str]) -> list[sparse.csr_array]:
    """D[sigma-] of each labelled qubit, then the commutator with its number operator."""
    return [dissipator(embed(SIGMA_MINUS, lbl, space)) for lbl in labels] + [
        commutator_superop(embed(NUMBER, lbl, space)) for lbl in labels
    ]


def _rates(schedule: ControlSchedule, t: float) -> tuple[float, float, float, float]:
    """kappa_1, kappa_2, Delta_1, Delta_2 at one time; the order of ``_qubit_blocks``."""
    return (schedule.kappa(1, t), schedule.kappa(2, t), schedule.delta(1, t), schedule.delta(2, t))


def stage1_liouvillian(cfg: CascadeConfig) -> Generator:
    """Two-qubit generator for the emission window [0, tau]."""
    space = two_qubit_space()
    blocks = _qubit_blocks(space, TWO_QUBIT_LABELS)
    blocks.append(_noise_block(cfg, space, {1: ["q1"], 2: ["q2"]}))
    return Generator(space, blocks, lambda t: np.array([*_rates(cfg.schedule, t), 1.0]))


def stage2_liouvillian(cfg: CascadeConfig) -> Generator:
    """Doubled-space generator for the feedback window [tau, 2*tau].

    The lagged copies re-run the emission under the time-shifted
    controls; their output drives the current-time qubits through the
    collective dissipator and the exchange Hamiltonian, attenuated by
    the channel transmission.  All emitter/receiver pairings carry
    their own coefficient, so roles may switch during the window.
    """
    space = doubled_space()
    tau = cfg.ch.tau
    root_eta = math.sqrt(cfg.ch.eta)
    blocks = _qubit_blocks(space, ("q1e", "q2e")) + _qubit_blocks(space, TWO_QUBIT_LABELS)
    for i in (1, 2):
        for j in (1, 2):
            s_e = embed(SIGMA_MINUS, f"q{i}e", space).matrix
            s_r = embed(SIGMA_MINUS, f"q{j}", space).matrix
            # collective damping cross term plus the exchange Hamiltonian
            # 1/2 i (sE^+ sR - sE sR^+), which share one coefficient
            exchange = 0.5j * (s_e.conj().T @ s_r - s_e @ s_r.conj().T)
            blocks.append(cross_dissipator(s_e, s_r) + commutator_superop(exchange))
    blocks.append(_noise_block(cfg, space, {1: ["q1", "q1e"], 2: ["q2", "q2e"]}))

    def coeffs(t: float) -> np.ndarray:
        lagged = _rates(cfg.schedule, t - tau)
        now = _rates(cfg.schedule, t)
        pairs = [root_eta * math.sqrt(ke * kr) for ke in lagged[:2] for kr in now[:2]]
        return np.array([*lagged, *now, *pairs, 1.0])

    return Generator(space, blocks, coeffs)


def run_cascade(
    cfg: CascadeConfig,
    rho0: QuantumState,
    grid: np.ndarray,
    tol: float = 1e-8,
    observables: dict[str, Operator] | None = None,
    return_doubled: bool = False,
):
    """Reduced two-qubit trajectory of the full transfer on [0, 2*tau].

    With ``return_doubled`` the stage-2 trajectory on the doubled space
    is returned alongside, for readouts that need the lagged copies.
    """
    tau = cfg.ch.tau
    grid = np.asarray(grid, dtype=float)
    if grid[0] < 0 or grid[-1] > 2 * tau + 1e-9:
        raise ValidationError(
            "the cascade construction is valid on [0, 2*tau] only; "
            f"requested grid reaches {grid[-1]:.1f} ns"
        )
    if rho0.space != two_qubit_space():
        raise ValidationError("rho0 must live on the two-qubit space")

    bps = [float(b) for b in cfg.schedule.breakpoints()]
    early, late = grid[grid <= tau], grid[grid > tau]
    grid1 = np.unique(np.concatenate([early, [0.0, tau]]))
    traj1 = evolve_generator(
        two_qubit_space(),
        stage1_liouvillian(cfg),
        rho0,
        grid1,
        tol=tol,
        breakpoints=[b for b in bps if 0.0 < b < tau],
    )
    rho_tau = traj1.final_state()

    spliced = np.kron(rho_tau.rho, rho0.rho)
    if abs(np.trace(spliced).real - 1.0) > 1e-8:
        raise DiagnosticsError("splice produced a non-unit-trace doubled state")
    doubled0 = QuantumState(doubled_space(), spliced)
    check = partial_trace(doubled0, ["q1", "q2"])
    if np.max(np.abs(check.rho - rho_tau.rho)) > 1e-10:
        raise DiagnosticsError("splice broke the receiver-copy marginal")

    traj2 = None
    if late.size:
        t_end = float(late[-1])
        grid2 = np.unique(np.concatenate([[tau], late]))
        bp2 = sorted({b for b in bps if tau < b < t_end}
                     | {b + tau for b in bps if 0.0 < b < t_end - tau})
        traj2 = evolve_generator(
            doubled_space(),
            stage2_liouvillian(cfg),
            doubled0,
            grid2,
            tol=tol,
            breakpoints=bp2,
        )

    # stage 1 samples grid1 and stage 2 samples tau followed by ``late``
    states = [traj1.states[i] for i in np.searchsorted(grid1, early)]
    if traj2 is not None:
        states += [partial_trace(st, ["q1", "q2"]) for st in traj2.states[1:]]
    series = {}
    if observables:
        for name, op in observables.items():
            series[name] = np.array([s.expect(op).real for s in states])
    reduced = Trajectory(np.concatenate([early, late]), tuple(states), series)
    if return_doubled:
        if traj2 is None:
            raise ValidationError("no grid samples past tau: nothing doubled to return")
        return reduced, traj2
    return reduced


def process_tomography_run(
    cfg: CascadeConfig,
    emitter: int | tuple[int, ...],
    receiver: int | tuple[int, ...],
    t_ro: float,
    tol: float = 1e-8,
    frame: np.ndarray | None = None,
):
    """Characterize a transfer as a process matrix over the spanning preps.

    Each preparation in {g, +, +i, e} (the 16-element product set for
    two-qubit transfers) is loaded onto the emitter qubit(s), evolved
    through the cascade to ``t_ro``, and the receiver marginal handed to
    the process reconstruction.  ``frame`` is an optional unitary applied
    to every output state; the transfer imprints a fixed relative phase on
    the moved amplitude, and experiments calibrate it out by redefining
    the receiving qubit's frame.
    """
    from . import tomo

    emitters = (emitter,) if isinstance(emitter, int) else tuple(emitter)
    receivers = (receiver,) if isinstance(receiver, int) else tuple(receiver)
    if len(emitters) != len(receivers) or len(emitters) not in (1, 2):
        raise ValidationError("transfer must map one qubit to one, or two to two")
    if not set(emitters) <= {1, 2} or not set(receivers) <= {1, 2}:
        raise ValidationError("qubit indices are 1 or 2")
    grid = np.array([0.0, float(t_ro)])
    space = two_qubit_space()
    ground = np.array([1.0, 0.0])

    inputs: dict = {}
    outputs: dict = {}
    if len(emitters) == 1:
        for name, prep in tomo.PREP_KETS.items():
            parts = [prep if q == emitters[0] else ground for q in (1, 2)]
            state0 = QuantumState.from_ket(space, np.kron(parts[0], parts[1]))
            traj = run_cascade(cfg, state0, grid, tol=tol)
            out = partial_trace(traj.final_state(), [f"q{receivers[0]}"]).rho
            inputs[name] = np.outer(prep, prep.conj())
            outputs[name] = out
    else:
        if set(emitters) != {1, 2} or set(receivers) != {1, 2}:
            raise ValidationError("two-qubit transfers use both qubits on each side")
        inputs = tomo.prep_states(2)
        for combo in inputs:
            ket = np.kron(tomo.PREP_KETS[combo[0]], tomo.PREP_KETS[combo[1]])
            traj = run_cascade(cfg, QuantumState.from_ket(space, ket), grid, tol=tol)
            outputs[combo] = traj.final_state().rho
    if frame is not None:
        outputs = {k: frame @ v @ frame.conj().T for k, v in outputs.items()}
    return tomo.process_from_states(inputs, outputs)
